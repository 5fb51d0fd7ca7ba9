"""Tests for alias-table sampling and the fitted model's table.

Claims:
    - the alias build gives the same probability and alias arrays, bit for
      bit (sign bits of -0.0 weights included), and the same draws as the
      frozen one-entry-at-a-time Vose build: on all-positive vectors,
      sparse vectors with 1 to n nonzero entries, a single nonzero cell,
      integer weights whose residuals hit exactly 1.0 and 0.0, zero runs
      at both ends of the small stack, a last large entry that is
      exhausted with small entries left, n = 1, and the raked-pool
      weights of a 16-binary-attribute problem
    - weights whose total overflows, or whose total is too small to scale,
      raise a ValidationError naming the total instead of drawing
      uniformly
    - a model builds its alias table once, however often it is sampled;
      its populations equal those of a fresh model with the same
      multipliers; two models do not share a table; sampling leaves the
      saved model's bytes unchanged; the benchmark builds the max-ent
      arm's table once per problem at any worker count
"""

import warnings

import numpy as np
import pytest

from popmaxent import (
    ArityBudget,
    ExtractionBudget,
    MaxEntModel,
    ValidationError,
    extract_constraints,
    rake,
    sample_population,
)
from popmaxent import artifacts
from popmaxent.evaluation import BenchmarkGrid, BenchmarkProblem, run_benchmark
from popmaxent.raking import pool_constraints, unary_pool
from popmaxent.sampling import AliasTable
from popmaxent.synthetic import mixture_population

from oracles import FrozenAliasTable


def assert_same_table(w):
    new, old = AliasTable(w), FrozenAliasTable(w)
    assert np.array_equal(new._prob, old._prob)
    assert np.array_equal(new._alias, old._alias)
    assert np.array_equal(np.signbit(new._prob), np.signbit(old._prob))
    a = new.draw(np.random.default_rng(7), 2000)
    b = old.draw(np.random.default_rng(7), 2000)
    assert np.array_equal(a, b)


def sparse(rng, n, k, values):
    w = np.zeros(n)
    w[rng.choice(n, k, replace=False)] = values
    return w


class TestBitIdenticalBuild:
    def test_all_positive(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 7, 50, 333, 4096):
            assert_same_table(rng.random(n))
            assert_same_table(rng.exponential(size=n) ** 3)

    def test_sparse_one_to_n_nonzero(self):
        rng = np.random.default_rng(2)
        for n in (5, 40, 257):
            for k in sorted({1, 2, 3, n // 4, n // 2, n - 1, n}):
                assert_same_table(sparse(rng, n, k, rng.random(k)))

    def test_single_nonzero_cell(self):
        for n, at in ((1, 0), (2, 0), (2, 1), (100, 0), (100, 57), (100, 99)):
            w = np.zeros(n)
            w[at] = 0.3
            assert_same_table(w)

    def test_integer_weights(self):
        # scaled values and residuals land exactly on 1.0 and 0.0
        rng = np.random.default_rng(3)
        for n in (4, 9, 64, 300):
            assert_same_table(rng.integers(0, 4, n).astype(float))
            assert_same_table(sparse(rng, n, max(1, n // 8), rng.integers(1, 6, max(1, n // 8))))
        assert_same_table(np.array([3.0, 0.0, 0.0, 0.0]))
        assert_same_table(np.array([0.0, 2.0, 0.0, 2.0]))
        # a zero run leaves the large entry at exactly 1.0, still large
        assert_same_table(np.array([0.5, 0.5, 0.0, 0.0, 2.0, 3.0]))

    def test_zero_runs_at_both_ends_of_the_small_stack(self):
        assert_same_table(np.array([0, 0, 0, 5.0, 0.5, 0.2, 3.0, 0, 0, 0, 0]))
        assert_same_table(np.array([0, 0, 7.0, 0, 0, 0, 0, 0.9, 0, 0]))
        assert_same_table(np.array([0, 0.4, 0, 0, 2.5, 0, 0]))

    def test_negative_zero_weights_keep_their_sign(self):
        w = np.array([-0.0, 2.0, -0.0, 0.0, 1.0, -0.0])
        assert_same_table(w)
        assert np.signbit(AliasTable(w)._prob[[0, 2, 5]]).all()

    def test_exhausted_last_large_entry(self):
        # rounding takes the last large entry below 1 with small entries left
        assert_same_table(np.array([4.0, 1.2]))
        assert_same_table(np.array([1.0, 1.0, 0.6, 0.75]))
        assert_same_table(np.array([0.0, 4.0, 0.0, 1.2, 0.0]))

    def test_single_cell(self):
        assert_same_table(np.array([2.5]))
        assert_same_table(np.array([1e-300]))

    def test_raked_pool_of_a_16_attribute_problem(self):
        pop = mixture_population(16, 2000, seed=404, max_categories=2)
        budget = ExtractionBudget(binary=ArityBudget(count=50),
                                  ternary=ArityBudget(count=50))
        cs = extract_constraints(pop, budget)
        (pool_seed,) = np.random.SeedSequence(5).spawn(1)
        pool = unary_pool(cs, 100, pool_seed)
        weights = rake(pool_constraints(cs, pool), 20, base=pool).weights
        assert weights.size == 2 ** 16 and 0 < np.count_nonzero(weights) <= 100
        assert_same_table(weights)


class TestDegenerateTotals:
    def test_total_overflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="total overflows to inf"):
                AliasTable(np.array([1e308, 1e308, 1.0]))

    def test_total_too_small_to_scale_raises(self):
        w = np.array([1e-320, 3e-320])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=repr(float(w.sum()))):
                AliasTable(w)

    def test_small_but_scalable_totals_still_build(self):
        assert_same_table(np.array([1e-300, 3e-300]))
        assert_same_table(np.array([1e300, 3e300, 0.0]))


@pytest.fixture(scope="module")
def model():
    pop = mixture_population(3, 300, seed=4)
    cs = extract_constraints(pop, ExtractionBudget.full())
    return MaxEntModel(cs, np.random.default_rng(8).normal(size=cs.m))


def count_builds(monkeypatch):
    builds = []
    init = AliasTable.__init__

    def counted(self, weights):
        builds.append(len(weights))
        init(self, weights)

    monkeypatch.setattr(AliasTable, "__init__", counted)
    return builds


class TestModelTable:
    def test_one_build_per_model(self, model, monkeypatch):
        model = MaxEntModel(model.constraints, model.lam)
        builds = count_builds(monkeypatch)
        for seed in range(4):
            sample_population(model, 50, seed)
        assert len(builds) == 1

    def test_populations_equal_fresh_models(self, model):
        for seed in range(3):
            a = sample_population(model, 300, seed)
            b = sample_population(MaxEntModel(model.constraints, model.lam), 300, seed)
            assert np.array_equal(a.cells, b.cells) and np.array_equal(a.counts, b.counts)

    def test_models_do_not_share_a_table(self, model):
        other = MaxEntModel(model.constraints, model.lam * 0.5)
        assert model.alias_table is not other.alias_table
        assert not np.array_equal(model.alias_table._prob, other.alias_table._prob)
        assert model.alias_table is model.alias_table

    def test_saved_bytes_unchanged_by_sampling(self, model, tmp_path):
        model = MaxEntModel(model.constraints, model.lam)
        artifacts.save_model(model, tmp_path / "before.json")
        sample_population(model, 100, 1)
        artifacts.save_model(model, tmp_path / "after.json")
        assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_benchmark_builds_one_maxent_table(self, model, monkeypatch, jobs):
        grid = BenchmarkGrid(problems=(BenchmarkProblem("p", model.constraints),), sizes=(30, 60),
                             seeds=(1, 2, 3), methods=("maxent",), jobs=jobs)
        builds = count_builds(monkeypatch)
        report = run_benchmark(grid)
        assert len(report.rows) == 6 and not report.failures
        assert len(builds) == 1
