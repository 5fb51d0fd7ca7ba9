"""Tests for the mean relative constraint error and the benchmark harness.

Claims:
    - MRE is 0 when every frequency equals its target, matches closed
      forms on one and two constraints, and is invariant to duplicating
      every individual
    - MRE shrinks with sample size for a fixed fitted model
    - the grid runner emits one row per (problem, method, n, seed), runs
      every cell in the calling thread, writes the same results and
      summary tables byte for byte on every run and worker count, failure
      lines included, records fit failures without dying (a space over
      the cap whose cliques fit fails at sampling, and says so), and the
      winner gap follows the relative-reduction convention
    - a raking row is record-level raking: a unary pool drawn under the
      cell's seed, raked on the constraints it can carry, sampled with
      sample_weighted, and scored on every constraint; its converged flag
      reports whether the last pass met the raking tolerance, and a cell
      whose raking fails is recorded as a failure
    - a grid whose fit or raking tolerance is not finite and positive, that
      rakes for zero passes, or whose seeds are not nonnegative integers,
      is rejected, naming the value
"""

import math
import threading

import numpy as np
import pytest

from popmaxent import (
    AttributeSchema,
    BenchmarkGrid,
    BenchmarkProblem,
    ConstraintSet,
    ExtractionBudget,
    Pattern,
    Population,
    UnmatchableConstraintError,
    ValidationError,
    extract_constraints,
    fit_hard,
    mre,
    rake,
    results_table,
    run_benchmark,
    sample_population,
    sample_weighted,
    summary_table,
)
from popmaxent.evaluation import relative_gap
from popmaxent.extraction import AtomicConstraint
from popmaxent.synthetic import mixture_population


def schema_of(*sizes):
    return AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes)
    )


def cs_of(schema, items):
    return ConstraintSet(
        schema, tuple(AtomicConstraint(Pattern.of(f), t) for f, t in items)
    )


class TestMre:
    def test_zero_when_targets_met(self):
        s = schema_of(2, 2)
        pop = Population.from_counts(s, {0: 1, 1: 1, 2: 1, 3: 1})
        cs = cs_of(s, [({0: 0}, 0.5), ({1: 1}, 0.5), ({0: 1, 1: 0}, 0.25)])
        assert mre(pop, cs).mre == 0.0

    def test_single_constraint_closed_form(self):
        s = schema_of(2, 2)
        pop = Population.from_counts(s, {0: 1, 2: 3})  # A=0 frequency 0.25
        cs = cs_of(s, [({0: 0}, 0.5)])
        assert mre(pop, cs).mre == pytest.approx(0.5, abs=1e-15)

    def test_mean_of_two_relative_errors(self):
        s = schema_of(2, 2)
        # A=0 achieved 0.55 vs target 0.5 (rel 0.1); B=0 achieved 0.65 vs 0.5 (rel 0.3)
        pop = Population.from_counts(s, {0: 45, 1: 10, 2: 20, 3: 25})
        cs = cs_of(s, [({0: 0}, 0.5), ({1: 0}, 0.5)])
        result = mre(pop, cs)
        assert result.mre == pytest.approx(0.2, abs=1e-12)
        assert result.per_arity == {1: pytest.approx(0.2, abs=1e-12)}

    def test_duplicating_population_leaves_mre_unchanged(self):
        pop = mixture_population(3, 400, seed=1)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, _ = fit_hard(cs)
        sample = sample_population(model, 500, seed=2)
        doubled = Population(
            sample.schema, sample.cells.copy(), (sample.counts * 2).copy()
        )
        assert mre(doubled, cs).mre == pytest.approx(mre(sample, cs).mre, abs=1e-14)

    def test_per_arity_averages_back_to_mre(self):
        pop = mixture_population(4, 500, seed=12)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, _ = fit_hard(cs)
        result = mre(sample_population(model, 400, seed=1), cs)
        arities = cs.arities()
        weighted = sum(
            result.per_arity[a] * int((arities == a).sum()) for a in result.per_arity
        )
        assert weighted / cs.m == pytest.approx(result.mre, abs=1e-12)

    def test_worst_list_sorted_and_capped(self):
        pop = mixture_population(4, 400, seed=3)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, _ = fit_hard(cs)
        result = mre(sample_population(model, 300, seed=5), cs)
        rels = [w.rel_error for w in result.worst]
        assert rels == sorted(rels, reverse=True)
        assert len(result.worst) == 10

    def test_shrinks_with_sample_size(self):
        pop = mixture_population(4, 500, seed=6)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, _ = fit_hard(cs)
        small = np.mean(
            [mre(sample_population(model, 1_000, seed=s), cs).mre for s in range(5)]
        )
        large = np.mean(
            [mre(sample_population(model, 100_000, seed=s), cs).mre for s in range(5)]
        )
        assert large < small

    def test_schema_mismatch_rejected(self):
        pop = Population.from_counts(schema_of(2, 2), {0: 1})
        cs = cs_of(schema_of(2, 3), [({0: 0}, 0.5)])
        with pytest.raises(ValidationError):
            mre(pop, cs)


class TestGapConvention:
    def test_relative_reduction_matches_published_rows(self):
        # 0.129 vs 0.176 is a 27% reduction; 0.204 vs 0.352 is 42%
        assert relative_gap(0.129, 0.176) == pytest.approx(0.267, abs=0.001)
        assert relative_gap(0.204, 0.352) == pytest.approx(0.420, abs=0.001)


class TestBenchmark:
    def grid(self, **kw):
        pop = mixture_population(3, 400, seed=8)
        cs = extract_constraints(pop, ExtractionBudget.full())
        problem = BenchmarkProblem("toy", cs)
        defaults = dict(
            problems=(problem,),
            sizes=(200,),
            seeds=(1, 2, 3),
            rake_iterations=200,
        )
        defaults.update(kw)
        return BenchmarkGrid(**defaults)

    def test_row_cardinality(self):
        report = run_benchmark(self.grid())
        assert len(report.rows) == 6  # 1 problem x 1 size x 2 methods x 3 seeds
        assert not report.failures

    def test_rows_follow_grid_order(self):
        report = run_benchmark(self.grid())
        keys = [(r.method, r.n, r.seed) for r in report.rows]
        assert keys == [
            ("maxent", 200, 1), ("maxent", 200, 2), ("maxent", 200, 3),
            ("raking", 200, 1), ("raking", 200, 2), ("raking", 200, 3),
        ]

    def test_deterministic_apart_from_wall_times(self):
        a = run_benchmark(self.grid())
        b = run_benchmark(self.grid())
        assert results_table(a) == results_table(b)
        assert summary_table(a) == summary_table(b)

    def test_parallel_jobs_same_rows(self):
        # the second grid also fails: the fit of "lost" and each of its raking cells
        s = schema_of(2, 2)
        lost = BenchmarkProblem("lost", cs_of(s, [({0: 0, 1: 0}, 1.0), ({1: 1}, 0.3)]))
        for kw in ({}, dict(problems=(self.grid().problems[0], lost))):
            a = run_benchmark(self.grid(**kw))
            b = run_benchmark(self.grid(jobs=4, **kw))
            assert results_table(a) == results_table(b)
            assert summary_table(a) == summary_table(b)
        assert summary_table(a).count("# FAILURE ") == 1 + 3

    def test_cells_run_in_the_calling_thread(self, monkeypatch):
        def refuse(thread):
            raise RuntimeError("run_benchmark started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        report = run_benchmark(self.grid(jobs=2))
        assert len(report.rows) == 6 and not report.failures

    def test_maxent_rows_equal_per_cell_sampling(self):
        # one shared alias table draws exactly what sampling each cell alone draws
        grid = self.grid(sizes=(50, 200), jobs=2)
        cs = grid.problems[0].constraints
        model, _ = fit_hard(cs, tol=grid.fit_tol, max_iter=grid.fit_max_iter)
        rows = [r for r in run_benchmark(grid).rows if r.method == "maxent"]
        assert len(rows) == 6
        for row in rows:
            alone = mre(sample_population(model, row.n, row.seed), cs)
            assert (row.mre, row.mre_unary, row.mre_binary, row.mre_ternary) == (
                alone.mre, alone.per_arity[1], alone.per_arity[2], alone.per_arity[3])

    def test_summary_winner_and_gap(self):
        report = run_benchmark(self.grid())
        (summary,) = report.summaries
        assert set(summary.mean_mre) == {"maxent", "raking"}
        if summary.winner != "equal":
            best = summary.mean_mre[summary.winner]
            worst = max(summary.mean_mre.values())
            assert summary.gap == pytest.approx(relative_gap(best, worst), abs=1e-12)

    def test_failure_recorded_not_fatal(self):
        s = schema_of(2, 2)
        # target 1.0 is valid in a constraint set but rejected by the model,
        # so the maxent fit fails while raking still produces rows
        broken = ConstraintSet(s, (AtomicConstraint(Pattern.of({0: 0}), 1.0),))
        grid = BenchmarkGrid(
            problems=(BenchmarkProblem("broken", broken),),
            sizes=(50,),
            seeds=(1,),
            rake_iterations=5,
        )
        report = run_benchmark(grid)
        assert len(report.failures) == 1
        assert "maxent" in report.failures[0]
        assert [r.method for r in report.rows] == ["raking"]

    def test_space_over_the_cap_fails_at_sampling_not_the_fit(self):
        # the fit runs on cliques of 2 cells; the alias table needs all 16
        s = schema_of(2, 2, 2, 2)
        cs = cs_of(s, [({a: 0}, 0.3 + 0.1 * a) for a in range(4)])
        grid = BenchmarkGrid(problems=(BenchmarkProblem("wide", cs),), sizes=(50,),
                             seeds=(1,), methods=("maxent",), enum_cap=8)
        report = run_benchmark(grid)
        assert report.rows == []
        assert len(report.failures) == 1
        assert report.failures[0].startswith("wide/maxent: sampling failed: ")

    def test_results_table_shape(self):
        report = run_benchmark(self.grid())
        text = results_table(report, header_comments=["demo"])
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[0].split(",")[:6] == ["problem", "k", "max_arity", "method", "n", "seed"]
        assert len(lines) == 1 + 6

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            self.grid(seeds=(1, 1))
        with pytest.raises(ValidationError):
            self.grid(sizes=())
        with pytest.raises(ValidationError):
            self.grid(methods=("maxent", "annealing"))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(-2), "3", None])
    def test_grid_rejects_seeds_that_are_not_nonnegative_integers(self, seed):
        with pytest.raises(ValidationError) as exc:
            self.grid(seeds=(1, seed))
        assert str(exc.value) == f"seed must be a nonnegative integer, got {seed!r}"

    @pytest.mark.parametrize("options, message", [
        (dict(fit_tol=0.0), "fit_tol must be finite and > 0, got 0.0"),
        (dict(fit_tol=math.inf), "fit_tol must be finite and > 0, got inf"),
        (dict(rake_tol=math.nan), "rake_tol must be finite and > 0, got nan"),
        (dict(rake_tol=-1e-9), "rake_tol must be finite and > 0, got -1e-09"),
        (dict(rake_iterations=0), "rake_iterations must be >= 1, got 0"),
        (dict(fit_max_iter=0), "fit_max_iter must be >= 1, got 0"),
        (dict(fit_max_iter=-5), "fit_max_iter must be >= 1, got -5"),
    ])
    def test_grid_rejects_unmeetable_stopping_rules(self, options, message):
        with pytest.raises(ValidationError) as exc:
            self.grid(**options)
        assert str(exc.value) == message


class TestRakingArm:
    """The raking arm against a hand-built pool -> rake -> sample pipeline."""

    schema = schema_of(3, 2, 2)
    # A0 leaves c2 no mass, A1 leaves c1 0.3, A2 has no unary target
    probs = ([0.6, 0.4, 0.0], [0.7, 0.3], [0.5, 0.5])
    items = [
        ({0: 0}, 0.6), ({0: 1}, 0.4), ({1: 0}, 0.7),
        ({0: 0, 1: 0}, 0.45), ({0: 1, 2: 1}, 0.15), ({0: 0, 1: 1, 2: 0}, 0.1),
        ({0: 2, 1: 0}, 0.05),  # no pool record can match this pattern
    ]

    def pool(self, n, seed):
        (pool_seed,) = np.random.SeedSequence(seed).spawn(1)
        rng = np.random.default_rng(pool_seed)
        columns = [rng.choice(len(p), size=n, p=p) for p in self.probs]
        return list(zip(*(c.tolist() for c in columns)))

    def hand_built(self, cs, n, seed, iterations):
        records = self.pool(n, seed)
        carried = tuple(
            c for c in cs.constraints
            if any(all(r[a] == v for a, v in c.pattern.fixed) for r in records)
        )
        weights = rake(ConstraintSet(cs.schema, carried), iterations=iterations,
                       base=Population.from_assignments(cs.schema, records))
        return mre(sample_weighted(weights, n, seed), cs), len(carried)

    def test_row_equals_hand_built_pipeline(self):
        cs = cs_of(self.schema, self.items)
        report = run_benchmark(BenchmarkGrid(
            problems=(BenchmarkProblem("toy", cs),), sizes=(40, 300),
            seeds=(1, 2, 3), methods=("raking",), rake_iterations=60,
        ))
        assert not report.failures
        for row in report.rows:
            expected, carried = self.hand_built(cs, row.n, row.seed, 60)
            assert carried == len(self.items) - 1
            assert row.mre == expected.mre
            assert row.mre_unary == expected.per_arity[1]
            assert row.mre_ternary == expected.per_arity[3]

    def test_uncarried_constraint_is_scored(self):
        cs = cs_of(self.schema, self.items)
        report = run_benchmark(BenchmarkGrid(
            problems=(BenchmarkProblem("toy", cs),), sizes=(200,), seeds=(4,),
            methods=("raking",), rake_iterations=20,
        ))
        assert not report.failures
        (row,) = report.rows
        expected, _ = self.hand_built(cs, 200, 4, 20)
        unmatched = [w for w in expected.worst if w.index == len(self.items) - 1]
        assert unmatched and unmatched[0].rel_error == 1.0
        assert row.mre == expected.mre
        assert row.mre_binary == expected.per_arity[2]
        # raking the full set from the same pool fails on that pattern
        pool = Population.from_assignments(cs.schema, self.pool(200, 4))
        with pytest.raises(UnmatchableConstraintError):
            rake(cs, iterations=20, base=pool)

    def test_mass_lost_mid_run_recorded_per_cell(self):
        s = schema_of(2, 2)
        # the target-1 pattern empties B=c1, which the next update needs
        cs = cs_of(s, [({0: 0, 1: 0}, 1.0), ({1: 1}, 0.3)])
        report = run_benchmark(BenchmarkGrid(
            problems=(BenchmarkProblem("lost", cs),), sizes=(50,), seeds=(1, 2),
            methods=("raking",), rake_iterations=5,
        ))
        assert report.rows == []
        assert [f.split(":")[0] for f in report.failures] == [
            "lost/raking/n=50/seed=1", "lost/raking/n=50/seed=2",
        ]

    def test_converged_reports_the_last_pass(self):
        unary = cs_of(self.schema, [({0: 0}, 0.6), ({0: 1}, 0.4)])
        clash = cs_of(self.schema, self.items)
        report = run_benchmark(BenchmarkGrid(
            problems=(BenchmarkProblem("unary", unary), BenchmarkProblem("clash", clash)),
            sizes=(200,), seeds=(1, 2), methods=("raking",),
            rake_iterations=50, rake_tol=1e-12,
        ))
        flags = {(r.problem, r.seed): r.converged for r in report.rows}
        assert flags == {("unary", 1): True, ("unary", 2): True,
                         ("clash", 1): False, ("clash", 2): False}
