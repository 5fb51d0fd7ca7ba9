"""Scoring synthetic populations and running benchmark grids.

The headline metric is the mean relative constraint error: the average
over constraints of |achieved - target| / target, where the achieved value
is the empirical frequency of the constraint's pattern in a sampled
integer population.  The benchmark harness sweeps (problem, method, size,
seed) cells and reports per-cell errors plus a winner/gap summary per
(problem, size).  The maxent arm is fitted once per problem and sampled
per cell; the raking arm rakes a fresh record pool per cell (see
:func:`run_benchmark`).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._dense import DEFAULT_ENUM_CAP
from .core import Population, check_tolerance
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
    seconds: float = field(compare=False, default=0.0)


def mre(pop: Population, constraints: ConstraintSet) -> EvalResult:
    """Score a population against a constraint set (lower is better)."""
    if pop.schema != constraints.schema:
        raise ValidationError("population schema does not match constraint set")
    if pop.total == 0:
        raise ValidationError("cannot score an empty population")
    t0 = time.perf_counter()
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
        seconds=time.perf_counter() - t0,
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
    """Axes and method options of one benchmark run."""

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
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("benchmark seeds must be distinct")
        if any(n < 1 for n in self.sizes):
            raise ValidationError("population sizes must be >= 1")
        if self.jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {self.jobs}")
        if self.rake_iterations < 1:
            raise ValidationError(f"rake_iterations must be >= 1, got {self.rake_iterations}")
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


def _raking_cell(constraints: ConstraintSet, grid: BenchmarkGrid, n: int, seed: int):
    """Record-level raking for one grid cell; returns (weights, converged).

    The pool's generator is the first child of ``SeedSequence(seed)``, so
    it is independent of the stream that later samples the individuals.
    """
    (pool_seed,) = np.random.SeedSequence(seed).spawn(1)
    pool = unary_pool(constraints, n, pool_seed)
    weights, _, max_dev = _rake(
        pool_constraints(constraints, pool),
        grid.rake_iterations,
        pool,
        grid.rake_tol,
        grid.enum_cap,
    )
    tol = grid.rake_tol if grid.rake_tol is not None else grid.fit_tol
    return weights, max_dev <= tol


def run_benchmark(grid: BenchmarkGrid) -> BenchmarkReport:
    """Sweep the grid and score one sampled population per (problem, method, n, seed).

    The maxent arm fits once per problem and samples the model per
    (n, seed) with :func:`~popmaxent.model.sample_population`, which draws
    from the model's one alias table.  The raking arm is record-level
    generalized raking, run per grid cell: a pool of n candidate records
    drawn from the unary max-ent distribution
    (:func:`~popmaxent.raking.unary_pool`) has its weights raked toward
    the constraints the pool can carry
    (:func:`~popmaxent.raking.pool_constraints`); every constraint is
    still scored, and :func:`~popmaxent.raking.sample_weighted` draws the
    n individuals.  Both arms draw under the cell's seed.

    Fit failures and per-cell raking failures are recorded in the report
    instead of raised.  Rows come back in deterministic grid order
    (problem, method, n, seed) regardless of the worker count.
    """
    rows: list[BenchmarkRow] = []
    failures: list[str] = []
    acc: dict[tuple[str, int, str], list[float]] = {}

    for problem in grid.problems:
        cs = problem.constraints
        for method in grid.methods:
            if method == "maxent":
                stage = "fit"
                try:
                    model, fit = fit_hard(
                        cs, tol=grid.fit_tol, max_iter=grid.fit_max_iter,
                        enum_cap=grid.enum_cap,
                    )
                    # built here, once, so that no two workers build it; it
                    # enumerates the space, which the fit's clique tree does not
                    stage = "sampling"
                    model.alias_table
                except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                    failures.append(f"{problem.name}/{method}: {stage} failed: {exc}")
                    continue

            def cell_job(n: int, seed: int):
                if method == "maxent":
                    synth = sample_population(model, n, seed)
                    converged = fit.converged
                else:
                    try:
                        weights, converged = _raking_cell(cs, grid, n, seed)
                    except PopmaxentError as exc:  # recorded, not fatal
                        return f"{problem.name}/{method}/n={n}/seed={seed}: raking failed: {exc}"
                    synth = sample_weighted(weights, n, seed)
                scored = mre(synth, cs)
                by_arity = {a: scored.per_arity.get(a, math.nan) for a in (1, 2, 3)}
                return BenchmarkRow(
                    problem=problem.name,
                    k=problem.k,
                    max_arity=problem.max_arity,
                    method=method,
                    n=n,
                    seed=seed,
                    mre=scored.mre,
                    mre_unary=by_arity[1],
                    mre_binary=by_arity[2],
                    mre_ternary=by_arity[3],
                    converged=converged,
                )

            cells = [(n, seed) for n in grid.sizes for seed in grid.seeds]
            if grid.jobs > 1:
                with ThreadPoolExecutor(max_workers=grid.jobs) as pool:
                    results = list(pool.map(lambda c: cell_job(*c), cells))
            else:
                results = [cell_job(*c) for c in cells]
            for row in results:
                if isinstance(row, str):
                    failures.append(row)
                    continue
                rows.append(row)
                acc.setdefault((problem.name, row.n, method), []).append(row.mre)

    summaries: list[BenchmarkSummary] = []
    for problem in grid.problems:
        for n in grid.sizes:
            mean_mre = {
                method: float(np.mean(acc[(problem.name, n, method)]))
                for method in grid.methods
                if (problem.name, n, method) in acc
            }
            if not mean_mre:
                continue
            if len(mean_mre) == 1:
                (winner,) = mean_mre
                gap = 0.0
            else:
                ordered = sorted(mean_mre.items(), key=lambda kv: kv[1])
                (winner, best), (_, worst) = ordered[0], ordered[-1]
                if best == worst:
                    winner = "equal"
                    gap = 0.0
                else:
                    gap = relative_gap(best, worst)
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
