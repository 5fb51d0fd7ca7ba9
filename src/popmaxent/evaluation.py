"""Scoring synthetic populations and running benchmark grids.

The headline metric is the mean relative constraint error: the average
over constraints of |achieved - target| / target, where the achieved value
is the empirical frequency of the constraint's pattern in a sampled
integer population.  The benchmark harness sweeps (problem, method, size,
seed) cells and reports per-cell errors plus a winner/gap summary per
(problem, size).  The maxent arm is fitted once per problem and sampled
per cell; the raking arm rakes a fresh record pool per cell.  Cells run
one after another in grid order (see :func:`run_benchmark`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._dense import DEFAULT_ENUM_CAP
from .core import Population, check_count, check_seed, check_tolerance
from .errors import PopmaxentError, ValidationError
from .extraction import ConstraintSet
from .model import DEFAULT_MAX_ITER, DEFAULT_TOL, fit_hard, sample_population
from .raking import (
    DEFAULT_RAKE_ITERATIONS,
    _rake,
    pool_constraints,
    sample_weighted,
    unary_pool,
)

METHODS = ("maxent", "raking")


@dataclass(frozen=True)
class WorstConstraint:
    index: int
    pattern: str
    target: float
    achieved: float
    rel_error: float


@dataclass(frozen=True)
class EvalResult:
    """Mean relative constraint error with per-arity breakdown."""

    mre: float
    per_arity: dict[int, float]
    worst: tuple[WorstConstraint, ...]
    n: int


def mre(pop: Population, constraints: ConstraintSet) -> EvalResult:
    """Score a population against a constraint set (lower is better)."""
    if pop.schema != constraints.schema:
        raise ValidationError("population schema does not match constraint set")
    if pop.total == 0:
        raise ValidationError("cannot score an empty population")
    achieved = constraints.layout.sparse_masses(pop.cells, pop.counts, pop.total)
    targets = constraints.targets()
    rel = np.abs(achieved - targets) / targets
    arities = constraints.arities()
    per_arity = {
        int(a): float(rel[arities == a].mean()) for a in np.unique(arities)
    }
    order = np.lexsort((np.arange(rel.size), -rel))[:10]
    worst = tuple(
        WorstConstraint(
            index=int(j),
            pattern=constraints.constraints[j].pattern.describe(constraints.schema),
            target=float(targets[j]),
            achieved=float(achieved[j]),
            rel_error=float(rel[j]),
        )
        for j in order
    )
    return EvalResult(
        mre=float(rel.mean()),
        per_arity=per_arity,
        worst=worst,
        n=pop.total,
    )


@dataclass(frozen=True)
class BenchmarkProblem:
    """One constraint system in a grid, labeled by its name."""

    name: str
    constraints: ConstraintSet

    @property
    def k(self) -> int:
        return self.constraints.schema.k

    @property
    def max_arity(self) -> int:
        return max((c.arity for c in self.constraints.constraints), default=0)


@dataclass(frozen=True)
class BenchmarkGrid:
    """Axes and method options of one benchmark run.

    Cells run one after another whatever ``jobs`` is; it is checked and
    kept for provenance.
    """

    problems: tuple[BenchmarkProblem, ...]
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    methods: tuple[str, ...] = METHODS
    fit_tol: float = DEFAULT_TOL
    fit_max_iter: int = DEFAULT_MAX_ITER
    rake_iterations: int = DEFAULT_RAKE_ITERATIONS
    rake_tol: float | None = None
    enum_cap: int = DEFAULT_ENUM_CAP
    jobs: int = 1

    def __post_init__(self):
        if not self.problems or not self.sizes or not self.seeds:
            raise ValidationError("benchmark grid needs problems, sizes, and seeds")
        for seed in self.seeds:
            check_seed("seed", seed)
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("benchmark seeds must be distinct")
        if any(n < 1 for n in self.sizes):
            raise ValidationError("population sizes must be >= 1")
        check_count("jobs", self.jobs)
        check_count("fit_max_iter", self.fit_max_iter)
        check_count("rake_iterations", self.rake_iterations)
        check_tolerance("fit_tol", self.fit_tol)
        if self.rake_tol is not None:
            check_tolerance("rake_tol", self.rake_tol)
        bad = [m for m in self.methods if m not in METHODS]
        if bad or not self.methods:
            raise ValidationError(f"methods must be a nonempty subset of {METHODS}")


@dataclass(frozen=True)
class BenchmarkRow:
    problem: str
    k: int
    max_arity: int
    method: str
    n: int
    seed: int
    mre: float
    mre_unary: float
    mre_binary: float
    mre_ternary: float
    converged: bool


@dataclass(frozen=True)
class BenchmarkSummary:
    problem: str
    n: int
    mean_mre: dict[str, float]
    winner: str
    gap: float


def relative_gap(winner_mre: float, loser_mre: float) -> float:
    """Relative reduction of the winner over the weaker method."""
    return (loser_mre - winner_mre) / loser_mre


@dataclass
class BenchmarkReport:
    rows: list[BenchmarkRow]
    summaries: list[BenchmarkSummary]
    failures: list[str] = field(default_factory=list)


def _run_cell(grid: BenchmarkGrid, problem: BenchmarkProblem, method: str, fitted,
              n: int, seed: int) -> BenchmarkRow | str:
    """Score one (n, seed) cell of an arm; a raking failure comes back as its line.

    ``fitted`` is the maxent arm's (model, fit report), None for raking.
    The raking pool's generator is the first child of ``SeedSequence(seed)``,
    so it is independent of the stream that samples the individuals.
    """
    cs = problem.constraints
    if method == "maxent":
        model, fit = fitted
        synth = sample_population(model, n, seed)
        converged = fit.converged
    else:
        (pool_seed,) = np.random.SeedSequence(seed).spawn(1)
        try:
            pool = unary_pool(cs, n, pool_seed)
            weights, _, max_dev = _rake(pool_constraints(cs, pool), grid.rake_iterations,
                                        pool, grid.rake_tol, grid.enum_cap)
        except PopmaxentError as exc:  # recorded, not fatal
            return f"{problem.name}/{method}/n={n}/seed={seed}: raking failed: {exc}"
        synth = sample_weighted(weights, n, seed)
        tol = grid.rake_tol if grid.rake_tol is not None else grid.fit_tol
        converged = max_dev <= tol
    scored = mre(synth, cs)
    by_arity = [scored.per_arity.get(a, math.nan) for a in (1, 2, 3)]
    return BenchmarkRow(problem.name, problem.k, problem.max_arity, method, n, seed,
                        scored.mre, *by_arity, converged)


def run_benchmark(grid: BenchmarkGrid) -> BenchmarkReport:
    """Sweep the grid and score one sampled population per (problem, method, n, seed).

    The maxent arm fits once per problem and builds the model's alias
    table once (its "sampling" stage, which enumerates the space that the
    fit's clique tree does not); each (n, seed) cell then draws from that
    table with :func:`~popmaxent.model.sample_population`.  The raking arm
    is record-level generalized raking, run per grid cell: a pool of n
    candidate records drawn from the unary max-ent distribution
    (:func:`~popmaxent.raking.unary_pool`) has its weights raked toward
    the constraints the pool can carry
    (:func:`~popmaxent.raking.pool_constraints`); every constraint is
    still scored, and :func:`~popmaxent.raking.sample_weighted` draws the
    n individuals.  Both arms draw under the cell's seed.

    Cells run one after another in the calling thread, in grid order
    (problem, method, n, seed), which is the order of the rows and of the
    failures; ``grid.jobs`` does not change that.  A failed fit or table
    build, and a failed raking cell, is recorded in the report instead of
    raised.
    """
    rows: list[BenchmarkRow] = []
    failures: list[str] = []
    for problem in grid.problems:
        for method in grid.methods:
            fitted = None
            if method == "maxent":
                stage = "fit"
                try:
                    fitted = fit_hard(problem.constraints, tol=grid.fit_tol,
                                      max_iter=grid.fit_max_iter, enum_cap=grid.enum_cap)
                    stage = "sampling"
                    fitted[0].alias_table  # enumerates the space: a space over the cap fails once
                except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                    failures.append(f"{problem.name}/{method}: {stage} failed: {exc}")
                    continue
            for n in grid.sizes:
                for seed in grid.seeds:
                    row = _run_cell(grid, problem, method, fitted, n, seed)
                    (failures if isinstance(row, str) else rows).append(row)

    summaries: list[BenchmarkSummary] = []
    for problem in grid.problems:
        for n in grid.sizes:
            mean_mre = {}
            for method in grid.methods:
                scores = [r.mre for r in rows
                          if (r.problem, r.n, r.method) == (problem.name, n, method)]
                if scores:
                    mean_mre[method] = float(np.mean(scores))
            if not mean_mre:
                continue
            ordered = sorted(mean_mre.items(), key=lambda kv: kv[1])
            (winner, best), (_, worst) = ordered[0], ordered[-1]
            if best == worst and len(ordered) > 1:
                winner = "equal"
            gap = 0.0 if best == worst else relative_gap(best, worst)
            summaries.append(BenchmarkSummary(problem.name, n, mean_mre, winner, gap))
    return BenchmarkReport(rows, summaries, failures)


RESULT_COLUMNS = (
    "problem", "k", "max_arity", "method", "n", "seed", "mre",
    "mre_unary", "mre_binary", "mre_ternary", "converged",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def results_table(report: BenchmarkReport, header_comments=()) -> str:
    """Flat delimited results table (one row per grid cell)."""
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(RESULT_COLUMNS))
    for row in report.rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in RESULT_COLUMNS))
    return "\n".join(lines) + "\n"


def summary_table(report: BenchmarkReport, header_comments=()) -> str:
    """Per-(problem, n) winner and relative-advantage summary."""
    lines = [f"# {c}" for c in header_comments]
    methods = sorted({m for s in report.summaries for m in s.mean_mre})
    cols = ["problem", "n"] + [f"mre_{m}" for m in methods] + ["winner", "gap"]
    lines.append(",".join(cols))
    for s in report.summaries:
        vals = [s.problem, str(s.n)]
        vals += [_fmt(s.mean_mre.get(m, math.nan)) for m in methods]
        vals += [s.winner, _fmt(s.gap)]
        lines.append(",".join(vals))
    for failure in report.failures:
        lines.append(f"# FAILURE {failure}")
    return "\n".join(lines) + "\n"
