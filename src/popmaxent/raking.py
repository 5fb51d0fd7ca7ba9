"""Generalized raking: sequential multiplicative reweighting toward targets.

Constraints are processed sequentially: the weight matching a constraint's
pattern is multiplicatively rescaled by target/mass so its mass hits the
target exactly, and the renormalization to total mass 1 scales the
complement by (1 - target)/(1 - mass).  A full pass runs every constraint
once in constraint-set order; the procedure repeats for a fixed number of
passes, optionally stopping early once a pass changes nothing.

Two weight carriers share that one update:

- the enumerated space, starting uniform over all cells.  This is
  iterative proportional fitting, whose fixed point on a consistent
  problem is the I-projection of the uniform distribution, i.e. the
  maximum-entropy model itself (Csiszar 1975);
- a base population's records (``rake(cs, base=pop)``).  Multiplicative
  updates never leave the base's support, so only the occupied cells are
  carried.  This is generalized raking in the sense of Deville, Sarndal
  & Sautory (1993): calibrating the weights of a finite set of
  individual records.

Both project a scope run the same way: one ``bincount`` of the carried
weights over each weight's entry in the scope table.  These keys are
built once per call and kept.  A record's key comes from its
coordinates; the space's keys are the table's entries broadcast over the
axes outside the scope, in the smallest unsigned dtype that holds them,
so they cost one byte per cell per scope group while a table has at most
256 entries (two bytes up to 65,536).  The rescaling multiplies by the
factor table: gathered per record, broadcast over the space.

The inner loop batches consecutive same-scope constraints: within a scope
the patterns are disjoint, so the sequence of scalar rescale/renormalize
steps can be replayed exactly on per-combination masses and applied to the
weights once per scope run.  The scopes, their tables and each pattern's
entry come from ``ConstraintSet.layout``, the same index the fit uses.
This is algebraically identical to the one-constraint-at-a-time update
(the unit tests check it against a naive reference).

The replay itself is scalar, one constraint at a time, so it runs on
Python floats: each run's projection is turned into a list once, the
running per-combination factors are a list, and the factor table goes
back to numpy once per run.  A numpy scalar costs several times a float
in such a loop, and both are IEEE doubles, so the weights, pass counts
and deviations are bit-identical to the same replay on numpy scalars
(tested against a frozen copy of it, whose record carrier run over every
cell is what the space carrier computes; its space carrier summed along
axes, which rounds differently).  A closed-form per-run update
(``cumprod`` over the running factors) would change the rounding.

The benchmark's raking arm rakes a record pool (:func:`unary_pool`,
:func:`pool_constraints`).  The paper's abstract does not give the record
set, the pool size, the number of passes, or how fractional weights
become a whole number of individuals; the choices here are this
project's own: n candidate records drawn from the unary max-ent
distribution (a problem carries no microdata, and the enumerated space is
out of reach at 40 attributes), the default 1000 passes, and n i.i.d.
draws from the raked weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dense import DEFAULT_ENUM_CAP, check_cap
from .core import AttributeSchema, Population, cell_codes, check_tolerance
from .errors import UnmatchableConstraintError, ValidationError
from .extraction import ConstraintSet
from .sampling import AliasTable, draw_population

DEFAULT_RAKE_ITERATIONS = 1000

MASS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Normalized cell weights, the raking state after fitting."""

    schema: AttributeSchema
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.schema.n_cells,):
            raise ValidationError(
                f"weight vector length {w.shape} != cell count {self.schema.n_cells}"
            )
        if np.any(w < 0.0) or not np.isfinite(w).all():
            raise ValidationError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise ValidationError(f"weights sum to {w.sum()!r}, not 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def equals(self, other: "WeightVector") -> bool:
        return self.schema == other.schema and np.array_equal(self.weights, other.weights)


def _runs(constraints: ConstraintSet):
    """Consecutive same-scope runs: (layout group index, items), in constraint order.

    An item is (flat combination, target, 1 - target, constraint index).
    """
    layout = constraints.layout
    targets = constraints.targets()
    items = list(zip(layout.combo.tolist(), targets.tolist(), (1.0 - targets).tolist(),
                     range(constraints.m)))
    starts = np.flatnonzero(np.diff(layout.group_of, prepend=-1)).tolist()
    ends = starts[1:] + [constraints.m]
    return [(int(layout.group_of[s]), items[s:e]) for s, e in zip(starts, ends)]


def _rake_array(
    constraints: ConstraintSet,
    iterations: int,
    start: np.ndarray,
    tol: float | None,
    cells: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float]:
    """Run raking passes in place on ``start``; returns (weights, passes, last max dev).

    ``start`` is dense over the enumerated space, or, when ``cells`` is
    given, holds the weights of those cell codes only.
    """
    schema = constraints.schema
    groups = constraints.layout.groups
    runs = _runs(constraints)
    max_dev = math.inf
    passes = 0
    # per layout group: the table entry of every carried weight, and
    # scale(fac), which multiplies every weight by its entry's factor
    if cells is None:
        wd = start.reshape(schema.shape)

        def carrier(group):
            bshape = tuple(d if a in group.scope else 1 for a, d in enumerate(schema.shape))
            entry = np.arange(group.size, dtype=np.min_scalar_type(group.size - 1))
            return (np.broadcast_to(entry.reshape(bshape), schema.shape).ravel(),
                    lambda fac: np.multiply(wd, np.array(fac).reshape(bshape), out=wd))
    else:
        coords = np.unravel_index(np.asarray(cells, dtype=np.int64), schema.shape)

        def carrier(group):
            keys = group.keys(coords)
            return keys, lambda fac: np.multiply(start, np.array(fac).take(keys), out=start)
    carriers = [carrier(g) for g in groups]

    for _ in range(iterations):
        max_dev = 0.0
        for g, items in runs:
            size = groups[g].size
            keys, scale = carriers[g]
            proj = np.bincount(keys, weights=start, minlength=size).tolist()
            glob = 1.0
            gfac = [1.0] * size
            for flat, target, rest, j in items:
                mass = glob * gfac[flat] * proj[flat]
                if mass <= 0.0 or (mass >= 1.0 and target < 1.0):
                    raise _unmatchable(constraints, j, mass)
                # rescale the pattern to its target, its complement to the rest
                up = target / mass
                down = rest / (1.0 - mass) if mass < 1.0 else 1.0
                if down == 0.0:
                    # target exactly 1: the complement dies, which cannot be
                    # folded into the running factors; apply and restart
                    scale([f * glob for f in gfac])
                    hard = [0.0] * size
                    hard[flat] = up
                    scale(hard)
                    proj = [0.0] * size
                    proj[flat] = 1.0
                    glob = 1.0
                    gfac = [1.0] * size
                else:
                    gfac[flat] *= up / down
                    glob *= down
                dev = up - 1.0 if up > 1.0 else 1.0 - up
                if dev > max_dev:
                    max_dev = dev
                dev = down - 1.0 if down > 1.0 else 1.0 - down
                if dev > max_dev:
                    max_dev = dev
            scale([f * glob for f in gfac])
        start /= start.sum()  # guard float drift across many passes
        passes += 1
        if tol is not None and max_dev <= tol:
            break
    return start, passes, max_dev


def _unmatchable(constraints: ConstraintSet, j: int, mass: float) -> UnmatchableConstraintError:
    c = constraints.constraints[j]
    problem = (
        "zero current mass" if mass <= 0.0
        else "all current mass (complement target unmatchable)"
    )
    return UnmatchableConstraintError(
        j,
        f"constraint {j} (pattern {c.pattern.describe(constraints.schema)}, "
        f"target {c.target}) has {problem}",
    )


def _rake(
    constraints: ConstraintSet,
    iterations: int,
    base: Population | None,
    tol: float | None,
    enum_cap: int,
) -> tuple[WeightVector, int, float]:
    """:func:`rake`, plus the passes run and the largest factor deviation of the last pass."""
    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1, got {iterations}")
    if tol is not None:
        check_tolerance("tol", tol)
    schema = constraints.schema
    check_cap(schema, enum_cap)
    n = schema.n_cells
    if base is None:
        w, passes, max_dev = _rake_array(constraints, iterations, np.full(n, 1.0 / n), tol)
    else:
        if base.schema != schema:
            raise ValidationError("base population schema does not match constraints")
        if base.total == 0:
            raise ValidationError("base population is empty")
        occupied, passes, max_dev = _rake_array(
            constraints, iterations, base.counts / base.total, tol, cells=base.cells
        )
        w = np.zeros(n)
        w[base.cells] = occupied
    return WeightVector(schema, w), passes, max_dev


def rake(
    constraints: ConstraintSet,
    iterations: int = DEFAULT_RAKE_ITERATIONS,
    base: Population | None = None,
    *,
    tol: float | None = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> WeightVector:
    """Sequential multiplicative reweighting toward the constraint targets.

    ``base`` switches the start from uniform-over-cells to the empirical
    distribution of a seed population (whose support must then intersect
    every pattern); only its occupied cells are carried through the
    passes.  ``tol`` optionally stops early once a full pass leaves every
    constraint within ``tol`` of its target factor 1; by default all
    ``iterations`` passes run.

    Raises :class:`UnmatchableConstraintError` when a positive target meets
    zero current mass.
    """
    return _rake(constraints, iterations, base, tol, enum_cap)[0]


def unary_probabilities(constraints: ConstraintSet) -> list[np.ndarray]:
    """Per-attribute category probabilities of the unary max-ent distribution.

    Each attribute follows its unary targets (the last one wins for a
    repeated pattern); categories without a target share the leftover mass
    evenly, and an attribute with no unary target is uniform.  Each vector
    is renormalized to sum to 1, which absorbs inconsistent unary targets.
    """
    schema = constraints.schema
    targets: list[dict[int, float]] = [{} for _ in range(schema.k)]
    for c in constraints.constraints:
        if c.arity == 1:
            ((a, v),) = c.pattern.fixed
            targets[a][v] = c.target
    out = []
    for a, d in enumerate(schema.shape):
        p = np.zeros(d)
        for v, t in targets[a].items():
            p[v] = t
        free = [v for v in range(d) if v not in targets[a]]
        if free:
            p[free] = max(1.0 - p.sum(), 0.0) / len(free)
        out.append(p / p.sum())
    return out


def unary_pool(constraints: ConstraintSet, n: int, seed) -> Population:
    """n candidate records drawn i.i.d. from the unary max-ent distribution.

    Attributes are drawn one after another from one generator,
    ``np.random.default_rng(seed)``, each as ``rng.choice(d, size=n, p=p)``
    with ``p`` from :func:`unary_probabilities`; ``seed`` is anything that
    ``default_rng`` accepts.  Needs no enumeration of the space.
    """
    if n < 1:
        raise ValidationError(f"pool size must be >= 1, got {n}")
    schema = constraints.schema
    rng = np.random.default_rng(seed)
    rows = [rng.choice(p.size, size=n, p=p) for p in unary_probabilities(constraints)]
    return Population.from_codes(schema, cell_codes(schema, rows))


def pool_constraints(constraints: ConstraintSet, pool: Population) -> ConstraintSet:
    """The constraints a record pool can carry through raking.

    Left out: a pattern no record matches, and a pattern every record
    matches whose target is below 1.  Reweighting never changes which
    records match, so raking either one raises
    :class:`UnmatchableConstraintError` whatever the weights.
    """
    mass = constraints.layout.sparse_masses(pool.cells, pool.counts, pool.total)
    kept = tuple(
        c for c, m in zip(constraints.constraints, mass)
        if m > 0.0 and not (m >= 1.0 and c.target < 1.0)
    )
    return ConstraintSet(constraints.schema, kept, constraints.scopes)


def sample_weighted(w: WeightVector, n: int, seed: int) -> Population:
    """n i.i.d. draws from the weight distribution as an integer population."""
    return draw_population(w.schema, AliasTable(w.weights), n, seed)
