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
    marginal,
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


def _entropy(freqs: np.ndarray) -> float:
    p = freqs[freqs > 0]
    return float(-(p * np.log(p)).sum())


def nmi(pop: Population, i: int, j: int) -> float:
    """Normalized mutual information of two attributes.

    Mutual information over the empirical joint, normalized by the
    arithmetic mean of the two marginal entropies (natural logs); 0 when
    either entropy vanishes.
    """
    if i == j:
        raise ValidationError("nmi needs two distinct attributes")
    joint = marginal(pop, (i, j)).to_dense(pop.schema)
    pi = joint.sum(axis=1)
    pj = joint.sum(axis=0)
    hi, hj, hij = _entropy(pi), _entropy(pj), _entropy(joint)
    if hi <= 0.0 or hj <= 0.0:
        return 0.0
    mi = max(hi + hj - hij, 0.0)
    return mi / (0.5 * (hi + hj))


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

    Raises :class:`ConvergenceError` (carrying the residual) if the sweep
    cap is hit first.
    """
    scope = tuple(scope)
    if len(scope) != 3 or len(set(scope)) != 3:
        raise ValidationError("ipf_fit expects a scope of three distinct attributes")
    shape = tuple(len(schema.domain(a)) for a in scope)

    targets: dict[tuple[int, int], np.ndarray] = {}
    for mt in pairwise:
        if len(mt.scope) != 2 or not set(mt.scope) <= set(scope):
            raise ValidationError(f"pairwise marginal scope {mt.scope} not inside {scope}")
        pos = tuple(sorted(scope.index(a) for a in mt.scope))
        dense = mt.to_dense(schema)
        if mt.scope != tuple(scope[p] for p in pos):
            dense = dense.T
        targets[pos] = dense
    expected = {(0, 1), (0, 2), (1, 2)}
    if set(targets) != expected:
        raise ValidationError("ipf_fit needs the three distinct pairwise marginals")

    joint = np.full(shape, 1.0 / math.prod(shape))
    pairs = sorted(targets)
    residual = math.inf
    for _ in range(max_sweeps):
        for pos in pairs:
            other = next(ax for ax in range(3) if ax not in pos)
            proj = joint.sum(axis=other)
            t = targets[pos]
            if np.any((proj <= 0.0) & (t > 0.0)):
                raise ConvergenceError(
                    "ipf_fit: positive pairwise target over zero current mass",
                    residual=float(np.abs(proj - t).max()),
                )
            ratio = np.divide(t, proj, out=np.zeros_like(t), where=proj > 0.0)
            joint *= np.expand_dims(ratio, axis=other)
        residual = max(
            float(np.abs(joint.sum(axis=next(ax for ax in range(3) if ax not in pos))
                         - targets[pos]).max())
            for pos in pairs
        )
        if residual < tol:
            return joint
    raise ConvergenceError(
        f"ipf_fit did not reach tolerance {tol} within {max_sweeps} sweeps",
        residual=residual,
    )


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence sum p log(p/q) in nats; p-zero cells contribute nothing."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValidationError("kl_divergence needs distributions over the same cells")
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        raise ValidationError("kl_divergence: q vanishes on the support of p")
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


def _triple_score(pop: Population, triple: tuple[int, int, int]) -> float:
    i, j, k = triple
    observed = marginal(pop, triple).to_dense(pop.schema)
    pairwise = [marginal(pop, (i, j)), marginal(pop, (i, k)), marginal(pop, (j, k))]
    reference = ipf_fit(pop.schema, triple, pairwise)
    return kl_divergence(observed, reference)


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
    """
    schema = pop.schema
    if pop.total == 0:
        raise ValidationError("cannot extract constraints from an empty population")

    scopes: list[RetainedScope] = []
    constraints: list[AtomicConstraint] = []
    scope_scores: dict[tuple[int, ...], float] = {}

    def emit(scope: tuple[int, ...], score: float, method: str) -> None:
        table = marginal(pop, scope)
        sid = len(scopes)
        scopes.append(RetainedScope(scope, score, method))
        for combo in sorted(table.cells):
            pattern = Pattern.of(dict(zip(scope, combo)))
            constraints.append(AtomicConstraint(pattern, table.cells[combo], sid))

    for i in range(schema.k):
        emit((i,), 0.0, "unary")

    if budget.binary is not None:
        candidates = list(combinations(range(schema.k), 2))
        scored = [(pair, nmi(pop, *pair)) for pair in candidates]
        scope_scores.update(dict(scored))
        retained = _rank(scored, budget.binary.resolve(len(candidates)))
        for pair in sorted(retained):
            emit(pair, scope_scores[pair], "nmi")

    if budget.ternary is not None:
        candidates = list(combinations(range(schema.k), 3))
        scored = [(triple, _triple_score(pop, triple)) for triple in candidates]
        scope_scores.update(dict(scored))
        retained = _rank(scored, budget.ternary.resolve(len(candidates)))
        for triple in sorted(retained):
            emit(triple, scope_scores[triple], "kl_ipf")

    out = ConstraintSet(schema, tuple(constraints), tuple(scopes))
    out.validate()
    return out


def arity_counts(cs: ConstraintSet) -> dict[int, int]:
    """Atomic constraint count per arity (the support-size accounting)."""
    counts: dict[int, int] = {}
    for c in cs.constraints:
        counts[c.arity] = counts.get(c.arity, 0) + 1
    return counts
