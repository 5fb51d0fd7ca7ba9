"""Constraint extraction from a source population.

All unary marginals are always extracted.  Attribute pairs are scored by
normalized mutual information and triples by the KL divergence between the
observed ternary marginal and the iterative-proportional-fitting reference
that matches the triple's three pairwise marginals; the top-scoring scopes
up to the per-arity budget are retained.  Each observed category
combination of a retained marginal becomes one atomic constraint, so the
total constraint count is the sum of the retained support sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ._dense import ScopeLayout
from .core import (
    AttributeSchema,
    MarginalTable,
    Pattern,
    Population,
    check_scope,
    scope_counts,
)
from .errors import ConvergenceError, ValidationError

IPF_TOL = 1e-10
IPF_MAX_SWEEPS = 10_000

SCOPE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ArityBudget:
    """Either an absolute scope count or a rate of the candidate count."""

    count: int | None = None
    rate: float | None = None

    def __post_init__(self):
        if (self.count is None) == (self.rate is None):
            raise ValidationError("set exactly one of count and rate")
        if self.count is not None and self.count < 1:
            raise ValidationError(f"budget count must be >= 1, got {self.count}")
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise ValidationError(f"budget rate must be in (0, 1], got {self.rate}")

    def resolve(self, n_candidates: int) -> int:
        k = self.count if self.count is not None else math.ceil(self.rate * n_candidates)
        return min(k, n_candidates)


@dataclass(frozen=True)
class ExtractionBudget:
    """Per-arity scope budgets; an omitted arity is not extracted at all."""

    binary: ArityBudget | None = None
    ternary: ArityBudget | None = None

    @classmethod
    def full(cls) -> "ExtractionBudget":
        return cls(binary=ArityBudget(rate=1.0), ternary=ArityBudget(rate=1.0))


@dataclass(frozen=True)
class RetainedScope:
    """A marginal scope kept by extraction, with its ranking score."""

    attrs: tuple[int, ...]
    score: float
    method: str  # "unary", "nmi", or "kl_ipf"

    @property
    def arity(self) -> int:
        return len(self.attrs)


@dataclass(frozen=True)
class AtomicConstraint:
    """One (pattern, target frequency) requirement.

    ``scope_id`` indexes the retained scope the constraint came from, or is
    None for hand-built constraints that do not belong to a full marginal.
    """

    pattern: Pattern
    target: float
    scope_id: int | None = None

    @property
    def arity(self) -> int:
        return self.pattern.arity


@dataclass(frozen=True)
class ConstraintSet:
    """An ordered list of atomic constraints over one schema.

    Extraction output is ordered unary, then binary, then ternary, each
    lexicographic by scope and category combination, and satisfies the
    strict invariants checked by :meth:`validate`: no duplicate patterns
    and per-scope targets summing to 1.  Hand-built sets (single
    constraints, deliberately inconsistent or duplicated targets) skip
    those checks.
    """

    schema: AttributeSchema
    constraints: tuple[AtomicConstraint, ...]
    scopes: tuple[RetainedScope, ...] = ()

    def __post_init__(self):
        for c in self.constraints:
            c.pattern.validate_for(self.schema)
            if not 0.0 < c.target <= 1.0:
                raise ValidationError(
                    f"constraint target must be in (0, 1], got {c.target!r}"
                )
            if c.scope_id is not None and not 0 <= c.scope_id < len(self.scopes):
                raise ValidationError(f"constraint scope id {c.scope_id} out of range")

    def __len__(self) -> int:
        return len(self.constraints)

    @property
    def m(self) -> int:
        return len(self.constraints)

    def targets(self) -> np.ndarray:
        return np.array([c.target for c in self.constraints])

    @cached_property
    def layout(self) -> ScopeLayout:
        """The set's scope grouping, built on first use and shared by every caller."""
        return ScopeLayout(self.schema, self.patterns())

    def patterns(self) -> list[Pattern]:
        return [c.pattern for c in self.constraints]

    def arities(self) -> np.ndarray:
        return np.array([c.arity for c in self.constraints], dtype=np.int64)

    def validate(self) -> None:
        """Check the strict invariants extraction guarantees."""
        patterns = self.patterns()
        if len(set(patterns)) != len(patterns):
            raise ValidationError("duplicate patterns in constraint set")
        sums: dict[int, float] = {}
        for c in self.constraints:
            if c.scope_id is not None:
                sums[c.scope_id] = sums.get(c.scope_id, 0.0) + c.target
        for sid, total in sums.items():
            if abs(total - 1.0) > SCOPE_SUM_TOL:
                raise ValidationError(
                    f"targets of scope {self.scopes[sid].attrs} sum to {total!r}, not 1"
                )


def _support_sums(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row r of two (R, n) arrays, ``values[r][keep[r]].sum()``."""
    return np.array([row[kept].sum() for row, kept in zip(values, keep)])


def _entropies(freqs: np.ndarray) -> np.ndarray:
    """Entropy (nats) of each row of an (R, n) frequency array."""
    support = freqs > 0.0
    return -_support_sums(freqs * np.log(np.where(support, freqs, 1.0)), support)


def _nmi_scores(joint: np.ndarray) -> np.ndarray:
    """NMI of each (di, dj) joint frequency table of a (P, di, dj) array."""
    hi = _entropies(joint.sum(axis=2))
    hj = _entropies(joint.sum(axis=1))
    hij = _entropies(joint.reshape(len(joint), -1))
    mi = hi + hj - hij
    mi = np.where(mi < 0.0, 0.0, mi)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = mi / (0.5 * (hi + hj))
    return np.where((hi <= 0.0) | (hj <= 0.0), 0.0, score)


def nmi(pop: Population, i: int, j: int) -> float:
    """Normalized mutual information of two attributes.

    Mutual information over the empirical joint, normalized by the
    arithmetic mean of the two marginal entropies (natural logs); 0 when
    either entropy vanishes.
    """
    if i == j:
        raise ValidationError("nmi needs two distinct attributes")
    scope = check_scope(pop, (i, j))
    return float(_nmi_scores(scope_counts(pop, [scope]) / pop.total)[0])


# the position pairs of a triple, and the batch axis each one sums out of a
# (T, d1, d2, d3) joint
_PAIRS = ((0, 1), (0, 2), (1, 2))
_SUMMED = (3, 2, 1)


def _ipf(
    targets: Sequence[np.ndarray], tol: float, max_sweeps: int
) -> tuple[np.ndarray, dict[int, ConvergenceError]]:
    """Cyclic IPF of a batch of T triples of one domain shape (d1, d2, d3).

    ``targets`` holds the (T, d1, d2), (T, d1, d3) and (T, d2, d3) pairwise
    tables of positions (0, 1), (0, 2) and (1, 2).  Every triple runs the
    sweeps it would run alone, with the same operations in the same order,
    and leaves the batch at the sweep where its own residual drops below
    ``tol``.  Returns the (T, d1, d2, d3) joints and a map from the batch
    index of each triple that failed to its :class:`ConvergenceError`; a
    failed triple's joint is NaN.
    """
    targets = list(targets)
    shape = (*targets[0].shape[1:], targets[1].shape[2])
    out = np.full((len(targets[0]), *shape), np.nan)
    errors: dict[int, ConvergenceError] = {}
    rows = np.arange(len(out))  # batch index of each triple still sweeping
    joint = np.full(out.shape, 1.0 / math.prod(shape))
    residual = np.full(len(out), math.inf)

    def keep_only(keep):
        nonlocal rows, joint, targets, residual
        rows, joint, residual = rows[keep], joint[keep], residual[keep]
        targets = [t[keep] for t in targets]

    for _ in range(max_sweeps):
        if not rows.size:
            break
        for p, axis in enumerate(_SUMMED):
            proj = joint.sum(axis=axis)
            dead = ((proj <= 0.0) & (targets[p] > 0.0)).any(axis=(1, 2))
            if dead.any():
                gap = np.abs(proj - targets[p]).max(axis=(1, 2))
                for r in np.flatnonzero(dead):
                    errors[int(rows[r])] = ConvergenceError(
                        "ipf_fit: positive pairwise target over zero current mass",
                        residual=float(gap[r]),
                    )
                keep_only(~dead)
                proj = proj[~dead]
            t = targets[p]
            ratio = np.divide(t, proj, out=np.zeros_like(t), where=proj > 0.0)
            joint *= np.expand_dims(ratio, axis=axis)
        residual = np.max(
            [np.abs(joint.sum(axis=axis) - t).max(axis=(1, 2))
             for axis, t in zip(_SUMMED, targets)],
            axis=0,
        )
        done = residual < tol
        out[rows[done]] = joint[done]
        keep_only(~done)
    for row, res in zip(rows, residual):
        errors[int(row)] = ConvergenceError(
            f"ipf_fit did not reach tolerance {tol} within {max_sweeps} sweeps",
            residual=float(res),
        )
    return out, errors


def ipf_fit(
    schema: AttributeSchema,
    scope: Sequence[int],
    pairwise: Iterable[MarginalTable],
    *,
    tol: float = IPF_TOL,
    max_sweeps: int = IPF_MAX_SWEEPS,
) -> np.ndarray:
    """Joint distribution over a triple matching its three pairwise marginals.

    Starts from the uniform joint over the triple's full Cartesian product
    and cyclically rescales each pairwise projection to its target until
    the largest absolute projection error drops below ``tol``.  The result
    is the maximum-entropy distribution with those pairwise margins and is
    strictly positive wherever all three pairwise targets are positive.
    This is the one-triple call of the batched kernel extraction runs.

    Raises :class:`ConvergenceError` (carrying the residual) if the sweep
    cap is hit first.
    """
    scope = tuple(scope)
    if len(scope) != 3 or len(set(scope)) != 3:
        raise ValidationError("ipf_fit expects a scope of three distinct attributes")

    targets: dict[tuple[int, int], np.ndarray] = {}
    for mt in pairwise:
        if len(mt.scope) != 2 or not set(mt.scope) <= set(scope):
            raise ValidationError(f"pairwise marginal scope {mt.scope} not inside {scope}")
        pos = tuple(sorted(scope.index(a) for a in mt.scope))
        dense = mt.to_dense(schema)
        if mt.scope != tuple(scope[p] for p in pos):
            dense = dense.T
        targets[pos] = dense
    if set(targets) != set(_PAIRS):
        raise ValidationError("ipf_fit needs the three distinct pairwise marginals")

    joint, errors = _ipf([targets[pos][None] for pos in _PAIRS], tol, max_sweeps)
    if errors:
        raise errors[0]
    return joint[0]


def _kl_scores(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL divergence of each row of an (R, n) array p from the same row of q."""
    support = p > 0.0
    if np.any(q[support] <= 0.0):
        raise ValidationError("kl_divergence: q vanishes on the support of p")
    logs = np.log(np.divide(p, q, out=np.ones(p.shape), where=support))
    sums = _support_sums(p * logs, support)
    return np.where(sums > 0.0, sums, 0.0)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence sum p log(p/q) in nats; p-zero cells contribute nothing."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValidationError("kl_divergence needs distributions over the same cells")
    return float(_kl_scores(p.reshape(1, -1), q.reshape(1, -1))[0])


def _tabulate(pop: Population, candidates: Sequence[tuple[int, ...]],
              tables: dict[tuple[int, ...], np.ndarray], score=None) -> list[float]:
    """Count every candidate scope's frequency table once, into ``tables``.

    Candidates are grouped by domain shape; ``score(indices, freqs)``
    scores one group in a batch, given the group's indices into
    ``candidates`` and its (n, *shape) frequency tables.
    """
    shape = pop.schema.shape
    groups: dict[tuple[int, ...], list[int]] = {}
    for n, scope in enumerate(candidates):
        groups.setdefault(tuple(shape[a] for a in scope), []).append(n)
    scores = [0.0] * len(candidates)
    for idx in groups.values():
        freqs = scope_counts(pop, [candidates[n] for n in idx]) / pop.total
        tables.update(zip((candidates[n] for n in idx), freqs))
        if score is not None:
            for n, value in zip(idx, score(idx, freqs)):
                scores[n] = float(value)
    return scores


def _triple_scores(pop: Population, triples: Sequence[tuple[int, int, int]],
                   tables: dict[tuple[int, ...], np.ndarray]) -> list[float]:
    """KL of each triple's observed table from its pairwise IPF reference.

    ``tables`` must hold the frequency tables of the triples' pairs; it
    gains the triples' own.  A failed IPF raises the error that scoring
    one triple at a time, in the given order, meets first.
    """
    failures: dict[int, ConvergenceError] = {}

    def kl_ipf(idx, observed):
        group = [triples[n] for n in idx]
        targets = [np.stack([tables[(t[a], t[b])] for t in group]) for a, b in _PAIRS]
        joint, errors = _ipf(targets, IPF_TOL, IPF_MAX_SWEEPS)
        failures.update((idx[r], err) for r, err in errors.items())
        if failures:
            return [math.nan] * len(idx)
        return _kl_scores(observed.reshape(len(idx), -1), joint.reshape(len(idx), -1))

    scores = _tabulate(pop, triples, tables, kl_ipf)
    if failures:
        raise failures[min(failures)]
    return scores


def _rank(scored: list[tuple[tuple[int, ...], float]], k: int) -> list[tuple[int, ...]]:
    # descending score, ties broken by lexicographic scope order
    ordered = sorted(scored, key=lambda item: (-item[1], item[0]))
    return [scope for scope, _ in ordered[:k]]


def extract_constraints(pop: Population, budget: ExtractionBudget) -> ConstraintSet:
    """Budgeted constraint extraction from a population.

    Phase 1 turns every observed value of every attribute into a unary
    constraint.  Phase 2 retains the top pairs by :func:`nmi`, phase 3 the
    top triples by KL against the pairwise IPF reference, and each observed
    combination of a retained marginal becomes one atomic constraint whose
    target is its exact empirical frequency.

    Every candidate scope's count table is built once, by one ``bincount``.
    Candidates are scored in batches of one domain shape: NMI over all pair
    tables at once, and one IPF over a (T, d1, d2, d3) array per triple
    shape.  The scores are bit-identical to scoring each candidate alone
    with :func:`nmi`, :func:`ipf_fit` and :func:`kl_divergence`.
    """
    schema = pop.schema
    if pop.total == 0:
        raise ValidationError("cannot extract constraints from an empty population")

    scopes: list[RetainedScope] = []
    constraints: list[AtomicConstraint] = []
    tables: dict[tuple[int, ...], np.ndarray] = {}

    def emit(scope: tuple[int, ...], score: float, method: str) -> None:
        table = tables[scope]
        sid = len(scopes)
        scopes.append(RetainedScope(scope, score, method))
        for combo in zip(*np.nonzero(table)):
            combo = tuple(int(v) for v in combo)
            pattern = Pattern.of(dict(zip(scope, combo)))
            constraints.append(AtomicConstraint(pattern, float(table[combo]), sid))

    def retain(candidates, scores, arity_budget: ArityBudget, method: str) -> None:
        by_scope = dict(zip(candidates, scores))
        retained = _rank(list(by_scope.items()), arity_budget.resolve(len(candidates)))
        for scope in sorted(retained):
            emit(scope, by_scope[scope], method)

    unary = [(i,) for i in range(schema.k)]
    _tabulate(pop, unary, tables)
    for scope in unary:
        emit(scope, 0.0, "unary")

    if budget.binary is not None or budget.ternary is not None:
        pairs = list(combinations(range(schema.k), 2))
        pair_scores = _tabulate(pop, pairs, tables, lambda idx, joint: _nmi_scores(joint))
    if budget.binary is not None:
        retain(pairs, pair_scores, budget.binary, "nmi")
    if budget.ternary is not None:
        triples = list(combinations(range(schema.k), 3))
        retain(triples, _triple_scores(pop, triples, tables), budget.ternary, "kl_ipf")

    out = ConstraintSet(schema, tuple(constraints), tuple(scopes))
    out.validate()
    return out


def arity_counts(cs: ConstraintSet) -> dict[int, int]:
    """Atomic constraint count per arity (the support-size accounting)."""
    counts: dict[int, int] = {}
    for c in cs.constraints:
        counts[c.arity] = counts.get(c.arity, 0) + 1
    return counts
