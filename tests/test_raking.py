"""Tests for the raking baseline and weighted sampling.

Claims:
    - one update sets a single constraint exactly: uniform 2-cell space
      with target 0.7 becomes weights (0.7, 0.3)
    - satisfied constraints are a fixed point; zero-mass patterns raise
      an unmatchable error naming the constraint
    - the scope-batched inner loop reproduces the naive one-constraint-at-
      a-time reference; the pattern mass equals the target right after its
      own update; total mass returns to 1 after every pass
    - unary-only raking converges to the same product distribution the
      maximum-entropy fit reaches (shared oracle)
    - max unary residual is non-increasing across passes; weighted
      sampling concentrates and is seed-deterministic
    - raking from uniform over every cell reaches the maximum-entropy fit
      on a consistent problem, which is why the benchmark's baseline rakes
      a record pool instead; with planted structural zeros it still heads
      there, at IPF's 1/passes rate, and both put near-zero mass on the
      forbidden category pairs
    - cell-space raking over the enumeration cap raises a CapacityError
      that points to the cap, not to a method raking does not have
    - raking a base population over its occupied cells agrees with raking
      the same start over the enumerated space, failures included
    - the unary pool follows the unary targets, and only constraints the
      pool can carry are kept for raking
    - the Python-float replay gives bit-identical weights, pass counts,
      last deviations and errors to the frozen numpy-scalar replay, on
      both carriers, through duplicate patterns, the target-1 restart and
      an early stop; the cell-space carrier, which projects by bincount,
      is compared with the frozen record carrier over every cell, also
      with scope tables over 256 entries, and agrees with the frozen
      dense carrier to 1e-13 relative
    - a raking tolerance must be finite and positive
"""

import math

import numpy as np
import pytest

from popmaxent import (
    ArityBudget,
    AttributeSchema,
    CapacityError,
    ConstraintSet,
    ExtractionBudget,
    Pattern,
    Population,
    UnmatchableConstraintError,
    ValidationError,
    WeightVector,
    extract_constraints,
    fit_hard,
    rake,
    sample_weighted,
)
from popmaxent.extraction import AtomicConstraint
from popmaxent.model import DEFAULT_TOL
from popmaxent.raking import (
    _rake_array,
    pool_constraints,
    unary_pool,
    unary_probabilities,
)
from popmaxent.synthetic import mixture_population

from oracles import frozen_rake_array, naive_rake


def schema_of(*sizes):
    return AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes)
    )


def cs_of(schema, items):
    return ConstraintSet(
        schema, tuple(AtomicConstraint(Pattern.of(f), t) for f, t in items)
    )


def tv(p, q):
    return 0.5 * float(np.abs(p - q).sum())


class TestRakeBasics:
    def test_single_constraint_one_step(self):
        s = AttributeSchema.from_domains([("A", ("x", "y"))])
        cs = cs_of(s, [({0: 0}, 0.7)])
        wv = rake(cs, iterations=1)
        assert np.allclose(wv.weights, [0.7, 0.3], atol=1e-15)

    def test_satisfied_base_is_fixed_point(self):
        s = schema_of(2, 2)
        base = Population.from_counts(s, {0: 1, 1: 1, 2: 1, 3: 1})
        cs = cs_of(s, [({0: 0}, 0.5), ({1: 1}, 0.5)])
        wv = rake(cs, iterations=50, base=base)
        assert np.allclose(wv.weights, 0.25, atol=1e-14)

    def test_zero_mass_pattern_raises_with_index(self):
        s = schema_of(3, 2)
        # base occupies A in {c0, c1} only; the A=c2 pattern is unmatchable
        base = Population.from_assignments(s, [(0, 0), (0, 1), (1, 0), (1, 1)])
        cs = cs_of(s, [({0: 0}, 0.4), ({0: 2}, 0.2)])
        with pytest.raises(UnmatchableConstraintError) as err:
            rake(cs, iterations=1, base=base)
        assert err.value.index == 1

    def test_all_mass_pattern_with_sub_one_target_raises(self):
        s = schema_of(2, 2)
        base = Population.from_counts(s, {0: 1, 1: 1})  # A=0 holds all mass
        with pytest.raises(UnmatchableConstraintError):
            rake(cs_of(s, [({0: 0}, 0.5)]), iterations=1, base=base)

    def test_iterations_must_be_positive(self):
        s = schema_of(2, 2)
        with pytest.raises(ValidationError):
            rake(cs_of(s, [({0: 0}, 0.5)]), iterations=0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        cs = cs_of(schema_of(2, 2), [({0: 0}, 0.5)])
        with pytest.raises(ValidationError, match=rf"^tol must be finite and > 0, got {tol!r}$"):
            rake(cs, iterations=1, tol=tol)

    def test_over_the_cap_points_to_the_cap(self):
        cs = cs_of(schema_of(2, 2, 2), [({0: 0}, 0.5)])
        with pytest.raises(CapacityError, match=r"8 cells, over the enumeration cap 4") as err:
            rake(cs, iterations=1, enum_cap=4)
        assert "raise the cap" in str(err.value) and "Metropolis" not in str(err.value)

    def test_base_schema_must_match(self):
        s = schema_of(2, 2)
        other = Population.from_counts(schema_of(2, 3), {0: 1})
        with pytest.raises(ValidationError):
            rake(cs_of(s, [({0: 0}, 0.5)]), base=other)


class TestSequentialSemantics:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(31)
        s = schema_of(3, 2, 2)
        for trial in range(5):
            items = []
            # deliberately interleaved scopes, including a duplicate pattern
            for _ in range(rng.integers(2, 7)):
                arity = int(rng.integers(1, 4))
                attrs = sorted(rng.choice(3, size=arity, replace=False).tolist())
                fixed = {a: int(rng.integers(0, s.shape[a])) for a in attrs}
                items.append((fixed, float(rng.uniform(0.05, 0.6))))
            items.append(items[0])
            cs = cs_of(s, items)
            fast = rake(cs, iterations=4).weights
            ref = naive_rake(s, cs, iterations=4)
            assert np.allclose(fast, ref, rtol=1e-10, atol=1e-14)

    def test_mass_equals_target_right_after_update(self):
        s = schema_of(2, 2, 3)
        pop = mixture_population(3, 400, seed=3)
        cs = extract_constraints(pop, ExtractionBudget.full())
        cs = ConstraintSet(pop.schema, cs.constraints, cs.scopes)
        checks = []

        def after_update(j, w):
            c = cs.constraints[j]
            mask = np.array([c.pattern.matches(pop.schema, cell)
                             for cell in range(pop.schema.n_cells)])
            checks.append(abs(w[mask].sum() - c.target))

        naive_rake(pop.schema, cs, iterations=2, after_update=after_update)
        assert max(checks) < 1e-12

    def test_mass_conservation_each_pass(self):
        pop = mixture_population(3, 300, seed=5)
        cs = extract_constraints(pop, ExtractionBudget.full())
        n = pop.schema.n_cells
        w = np.full(n, 1.0 / n)
        for _ in range(5):
            w, _, _ = _rake_array(cs, 1, w, None)
            assert abs(w.sum() - 1.0) <= 1e-10


class TestFixedPoints:
    def test_unary_only_matches_maxent_product(self):
        pop = mixture_population(3, 600, seed=7)
        cs = extract_constraints(pop, ExtractionBudget())
        model, report = fit_hard(cs, tol=1e-10)
        assert report.converged
        wv = rake(cs, iterations=1000)
        assert tv(wv.weights, model.probabilities()) < 1e-8

    def test_unary_residual_non_increasing(self):
        pop = mixture_population(4, 500, seed=9)
        cs = extract_constraints(pop, ExtractionBudget())
        masks = [
            np.array([c.pattern.matches(pop.schema, cell)
                      for cell in range(pop.schema.n_cells)])
            for c in cs.constraints
        ]

        def residual(w):
            return max(abs(w[m].sum() - c.target) for m, c in zip(masks, cs.constraints))

        history = [residual(rake(cs, iterations=k).weights) for k in range(1, 8)]
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-15

    def test_uniform_start_reaches_the_maxent_fit(self):
        # IPF from uniform converges to the I-projection of uniform, the
        # max-ent model (Csiszar 1975): over every cell, raking and fitting
        # are one estimator, so a baseline that rakes the whole space
        # cannot differ from maxent by more than float noise
        pop = mixture_population(5, 2000, seed=21)
        cs = extract_constraints(
            pop,
            ExtractionBudget(binary=ArityBudget(rate=1.0), ternary=ArityBudget(count=2)),
        )
        model, report = fit_hard(cs)
        assert report.converged
        wv = rake(cs, iterations=2000, tol=1e-12)
        assert np.abs(wv.weights - model.probabilities()).max() <= DEFAULT_TOL

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_uniform_start_reaches_the_maxent_fit_with_planted_zeros(self, seed):
        # Two category pairs never occur, and full budgets keep both pair
        # tables, so the limit puts zero mass on every cell holding one.
        # Neither side reaches it exactly.  The fit stops at residual tol:
        # a planted cell's mass is its pair table's target sum (1) minus
        # the fitted masses of the table's other entries, each within tol
        # of its target.  IPF meets a zero only in the limit and slowly:
        # scaling [[1, 1], [0, 1]] to unit margins (Sinkhorn's example)
        # leaves 1/(2T + 1) on the vanishing entry after T passes, so
        # raking is held to 1/(2T), and to halving its distance to the fit
        # at least as fast as 1/sqrt(T) does when T doubles.
        forbidden = (((0, 0), (1, 1)), ((2, 1), (3, 0)))
        source = mixture_population(5, 2000, seed=seed)
        coords = source.coords()
        planted = np.zeros(source.cells.size, dtype=bool)
        for combo in forbidden:
            planted |= np.logical_and.reduce([coords[a] == v for a, v in combo])
        pop = Population(source.schema, source.cells[~planted], source.counts[~planted])
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, report = fit_hard(cs)
        assert report.converged
        p = model.probabilities().reshape(cs.schema.shape)
        for (a, u), (b, v) in forbidden:
            index = [slice(None)] * cs.schema.k
            index[a], index[b] = u, v
            table_cells = cs.schema.shape[a] * cs.schema.shape[b]
            assert p[tuple(index)].sum() <= (table_cells - 1) * DEFAULT_TOL
        passes = 200
        near, far = (np.abs(rake(cs, iterations=t).weights - p.ravel()).max()
                     for t in (passes, 2 * passes))
        assert near <= 1.0 / (2 * passes)
        assert far <= near / math.sqrt(2)

    def test_early_stop_matches_full_run_at_fixed_point(self):
        pop = mixture_population(3, 300, seed=11)
        cs = extract_constraints(pop, ExtractionBudget())
        full = rake(cs, iterations=400)
        stopped = rake(cs, iterations=400, tol=1e-13)
        assert np.allclose(full.weights, stopped.weights, atol=1e-12)


def enumerated_rake(cs, base, iterations):
    """Raking of a base population's start over every cell of the space."""
    w = np.zeros(cs.schema.n_cells)
    w[base.cells] = base.counts / base.total
    return _rake_array(cs, iterations, w, None)[0]


class TestSupportPath:
    def test_satisfied_base_matches_enumerated(self):
        s = schema_of(2, 2)
        base = Population.from_counts(s, {0: 1, 1: 1, 2: 1, 3: 1})
        cs = cs_of(s, [({0: 0}, 0.5), ({1: 1}, 0.5)])
        got = rake(cs, iterations=50, base=base).weights
        assert np.abs(got - enumerated_rake(cs, base, 50)).max() <= 1e-12

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_sparse_base_matches_enumerated(self, seed):
        source = mixture_population(4, 3000, seed=seed, min_categories=3,
                                    max_categories=4)
        cs = extract_constraints(source, ExtractionBudget.full())
        empirical = np.zeros(cs.schema.n_cells)
        empirical[source.cells] = source.counts / source.total
        # a small base leaves most cells empty
        base = sample_weighted(WeightVector(cs.schema, empirical), 40, seed=seed)
        kept = pool_constraints(cs, base)
        assert base.cells.size < cs.schema.n_cells / 2
        got = rake(kept, iterations=30, base=base).weights
        assert np.abs(got - enumerated_rake(kept, base, 30)).max() <= 1e-12

    def test_zero_mass_raises_like_enumerated(self):
        s = schema_of(3, 2)
        base = Population.from_assignments(s, [(0, 0), (0, 1), (1, 0), (1, 1)])
        cs = cs_of(s, [({0: 0}, 0.4), ({0: 2}, 0.2)])
        with pytest.raises(UnmatchableConstraintError) as sparse:
            rake(cs, iterations=1, base=base)
        with pytest.raises(UnmatchableConstraintError) as dense:
            enumerated_rake(cs, base, 1)
        assert sparse.value.index == dense.value.index == 1

    def test_target_one_matches_enumerated(self):
        s = schema_of(3, 2)
        base = Population.from_counts(s, {0: 2, 1: 1, 2: 1, 3: 1, 4: 3, 5: 1})
        cs = cs_of(s, [({1: 0}, 0.6), ({0: 1}, 1.0), ({1: 1}, 0.5)])
        got = rake(cs, iterations=3, base=base).weights
        assert np.abs(got - enumerated_rake(cs, base, 3)).max() <= 1e-12
        assert got[[0, 1, 4, 5]].sum() == 0.0


FOUR = [(0, 0), (0, 1), (1, 0), (1, 1)]  # records leaving A0=c2 empty


def replay_both(cs, iterations, start, tol=None, cells=None):
    """(package, frozen reference) results of one replay from copies of ``start``.

    The space carrier projects by ``bincount`` over every cell's scope keys,
    so its reference is the frozen record carrier over every cell.
    """
    ref_cells = np.arange(start.size) if cells is None else cells
    return (
        _rake_array(cs, iterations, start.copy(), tol, cells),
        frozen_rake_array(cs, iterations, start.copy(), tol, ref_cells),
    )


def assert_identical(got, ref):
    assert np.array_equal(got[0], ref[0])
    assert got[1] == ref[1]
    assert got[2] == ref[2]


class TestFrozenReplay:
    """The float replay against the frozen numpy-scalar replay, exactly."""

    @staticmethod
    def uniform(schema):
        return np.full(schema.n_cells, 1.0 / schema.n_cells)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_extracted_problem_both_carriers(self, seed):
        source = mixture_population(5, 1500, seed=seed)
        cs = extract_constraints(source, ExtractionBudget.full())
        assert_identical(*replay_both(cs, 6, self.uniform(cs.schema)))
        pool = unary_pool(cs, 60, seed)
        kept = pool_constraints(cs, pool)
        got, ref = replay_both(kept, 25, pool.counts / pool.total, cells=pool.cells)
        assert_identical(got, ref)
        assert got[1] == 25

    def test_duplicated_pattern(self):
        s = schema_of(3, 2, 2)
        # one run repeats a pattern with a new target; a later run repeats it again
        cs = cs_of(s, [({0: 1, 1: 0}, 0.2), ({0: 2, 1: 1}, 0.3), ({0: 1, 1: 0}, 0.25),
                       ({2: 1}, 0.4), ({0: 1, 1: 0}, 0.22)])
        assert_identical(*replay_both(cs, 7, self.uniform(s)))
        base = Population.from_counts(s, {0: 3, 2: 1, 5: 2, 6: 1, 9: 4, 11: 1})
        assert_identical(*replay_both(cs, 7, base.counts / base.total, cells=base.cells))

    def test_target_one_restart(self):
        s = schema_of(3, 2)
        base = Population.from_counts(s, {0: 2, 1: 1, 2: 1, 3: 1, 4: 3, 5: 1})
        # mid-run, after factors have been folded, one into the target-1
        # pattern itself; a second pass would find A0=c0 emptied, so one pass
        folded = cs_of(s, [({1: 0}, 0.6), ({0: 1}, 0.4), ({0: 0}, 0.3), ({0: 1}, 1.0),
                           ({1: 1}, 0.5)])
        # alone in its run, over several passes
        alone = cs_of(s, [({1: 0}, 0.6), ({0: 1}, 1.0), ({1: 1}, 0.5)])
        for cs, passes in ((folded, 1), (alone, 4)):
            got, ref = replay_both(cs, passes, self.uniform(s))
            assert_identical(got, ref)
            assert got[0].reshape(3, 2)[[0, 2]].sum() == 0.0  # the complement died
            got, ref = replay_both(cs, passes, base.counts / base.total, cells=base.cells)
            assert_identical(got, ref)
            assert got[0][[0, 1, 4, 5]].sum() == 0.0

    def test_early_stop_on_tol(self):
        pop = mixture_population(3, 300, seed=11)
        cs = extract_constraints(pop, ExtractionBudget())
        got, ref = replay_both(cs, 400, self.uniform(cs.schema), tol=1e-13)
        assert_identical(got, ref)
        assert 1 < got[1] < 400
        assert got[2] <= 1e-13
        base = Population.from_counts(
            cs.schema, {c: 1 + c % 3 for c in range(cs.schema.n_cells)})
        kept = pool_constraints(cs, base)
        got, ref = replay_both(kept, 400, base.counts / base.total, tol=1e-13,
                               cells=base.cells)
        assert_identical(got, ref)
        assert got[1] < 400

    def test_scope_tables_over_256_entries(self):
        # 7-category ternary scopes have 343 entries: keys wider than a byte
        source = mixture_population(4, 3000, seed=5, min_categories=7, max_categories=7)
        cs = extract_constraints(source, ExtractionBudget.full())
        assert max(g.size for g in cs.layout.groups) == 343
        assert_identical(*replay_both(cs, 5, self.uniform(cs.schema)))

    @pytest.mark.parametrize("problem", ["mixture-3", "mixture-8", "early-stop"])
    def test_space_carrier_near_the_frozen_dense_carrier(self, problem):
        # the frozen dense carrier projects by numpy's axis sums, which add
        # in another order than bincount: each weight agrees to 1e-13
        # relative (2.8e-15 measured), the pass counts exactly, the last
        # deviation to 1e-13
        source, budget, passes, tol = {
            "mixture-3": (mixture_population(5, 1500, seed=3), ExtractionBudget.full(), 6, None),
            "mixture-8": (mixture_population(5, 1500, seed=8), ExtractionBudget.full(), 6, None),
            "early-stop": (mixture_population(3, 300, seed=11), ExtractionBudget(), 400, 1e-13),
        }[problem]
        cs = extract_constraints(source, budget)
        start = self.uniform(cs.schema)
        got = _rake_array(cs, passes, start.copy(), tol)
        ref = frozen_rake_array(cs, passes, start.copy(), tol)
        assert (np.abs(got[0] - ref[0]) <= 1e-13 * ref[0]).all()
        assert got[1] == ref[1]
        assert abs(got[2] - ref[2]) <= 1e-13

    @pytest.mark.parametrize("sizes, rows, items, index", [
        ((3, 2), FOUR, [({0: 0}, 0.4), ({0: 2}, 0.2)], 1),             # zero mass
        ((3, 2), FOUR, [({1: 1}, 0.5), ({0: 2, 1: 0}, 0.3)], 1),       # in a later run
        ((3, 2), FOUR, [({1: 0}, 0.4), ({0: 0}, 1.0), ({0: 1}, 0.2)], 2),  # after a target 1
        ((2, 2), [(0, 0), (0, 1)], [({1: 0}, 0.5), ({0: 0}, 0.5)], 1),  # all mass
    ])
    def test_unmatchable_same_index_and_message(self, sizes, rows, items, index):
        s = schema_of(*sizes)
        cs = cs_of(s, items)
        base = Population.from_assignments(s, rows)
        start = base.counts / base.total
        with pytest.raises(UnmatchableConstraintError) as got:
            _rake_array(cs, 2, start.copy(), None, base.cells)
        with pytest.raises(UnmatchableConstraintError) as ref:
            frozen_rake_array(cs, 2, start.copy(), None, base.cells)
        assert got.value.index == ref.value.index == index
        assert str(got.value) == str(ref.value)


class TestUnaryPool:
    def test_probabilities_follow_targets_and_share_leftover(self):
        s = schema_of(4, 2, 3)
        cs = cs_of(s, [({0: 0}, 0.4), ({0: 2}, 0.2), ({1: 1}, 0.7),
                       ({0: 1, 2: 0}, 0.1)])
        p0, p1, p2 = unary_probabilities(cs)
        assert np.allclose(p0, [0.4, 0.2, 0.2, 0.2], atol=1e-15)
        assert np.allclose(p1, [0.3, 0.7], atol=1e-15)
        assert np.allclose(p2, np.full(3, 1 / 3), atol=1e-15)

    def test_pool_concentrates_on_unary_targets(self):
        s = schema_of(3, 2)
        cs = cs_of(s, [({0: 0}, 0.5), ({0: 1}, 0.3), ({1: 0}, 0.9)])
        pool = unary_pool(cs, 200_000, seed=4)
        assert pool.total == 200_000
        freq = np.zeros(s.n_cells)
        freq[pool.cells] = pool.counts / pool.total
        joint = freq.reshape(s.shape)
        assert np.abs(joint.sum(axis=1) - [0.5, 0.3, 0.2]).max() < 0.005
        assert np.abs(joint.sum(axis=0) - [0.9, 0.1]).max() < 0.005

    def test_pool_is_seed_deterministic(self):
        s = schema_of(3, 2, 2)
        cs = cs_of(s, [({0: 0}, 0.5), ({2: 1}, 0.2)])
        assert unary_pool(cs, 300, seed=7).equals(unary_pool(cs, 300, seed=7))

    def test_carried_constraints(self):
        s = schema_of(3, 2, 2)
        pool = Population.from_assignments(s, [(0, 0, 0), (0, 1, 0), (1, 0, 0)])
        cs = cs_of(s, [
            ({0: 0}, 0.5),          # carried
            ({0: 2}, 0.1),          # no record matches
            ({2: 0}, 0.5),          # every record matches, target below 1
            ({2: 0}, 1.0),          # every record matches, target 1: carried
            ({0: 1, 1: 0}, 0.2),    # carried
        ])
        kept = pool_constraints(cs, pool)
        assert [c.target for c in kept.constraints] == [0.5, 1.0, 0.2]
        rake(kept, iterations=5, base=pool)  # raking the kept set succeeds
        with pytest.raises(UnmatchableConstraintError):
            rake(cs, iterations=5, base=pool)


class TestWeightVector:
    def test_must_sum_to_one(self):
        s = schema_of(2, 2)
        with pytest.raises(ValidationError):
            WeightVector(s, np.array([0.5, 0.2, 0.1, 0.1]))

    def test_rejects_negative(self):
        s = schema_of(2, 2)
        with pytest.raises(ValidationError):
            WeightVector(s, np.array([0.5, 0.6, -0.05, -0.05]))


class TestSampleWeighted:
    def test_uniform_concentration(self):
        s = schema_of(2, 2)
        wv = WeightVector(s, np.full(4, 0.25))
        pop = sample_weighted(wv, 400_000, seed=13)
        freqs = pop.counts / pop.total
        assert np.abs(freqs - 0.25).max() < 0.005

    def test_point_mass(self):
        s = schema_of(2, 2)
        wv = WeightVector(s, np.array([0.0, 1.0, 0.0, 0.0]))
        pop = sample_weighted(wv, 500, seed=1)
        assert pop.cells.tolist() == [1]
        assert pop.total == 500

    def test_seed_determinism(self):
        s = schema_of(3, 2)
        wv = WeightVector(s, np.array([0.1, 0.2, 0.3, 0.2, 0.1, 0.1]))
        a = sample_weighted(wv, 5000, seed=21)
        b = sample_weighted(wv, 5000, seed=21)
        assert a.equals(b)

    def test_skewed_weights_concentration(self):
        s = schema_of(2, 2)
        target = np.array([0.5, 0.3, 0.2, 0.0])
        wv = WeightVector(s, target)
        pop = sample_weighted(wv, 200_000, seed=8)
        freqs = np.zeros(4)
        freqs[pop.cells] = pop.counts / pop.total
        assert np.abs(freqs - target).max() < 0.005
        assert freqs[3] == 0.0  # zero-weight cell never drawn

    def test_size_must_be_positive(self):
        s = schema_of(2, 2)
        wv = WeightVector(s, np.full(4, 0.25))
        with pytest.raises(ValidationError):
            sample_weighted(wv, 0, seed=1)
