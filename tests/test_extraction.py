"""Tests for pair/triple scoring, IPF references, and budgeted extraction.

Claims:
    - NMI is 0 on exact independence, 1 on copies, bounded in [0, 1], and
      matches hand-computed values on 2x2 tables
    - ipf_fit reproduces its own fixed points, returns uniform for the XOR
      triple, and matches all pairwise projections to 1e-8
    - KL examples: identity 0, point-mass vs fair coin log 2, XOR triple
      vs its IPF reference log 2
    - extraction retains scopes by score with lexicographic ordering, is
      deterministic, resolves rate budgets, and its atomic-constraint count
      equals the summed support sizes of the retained marginals
    - every extracted target equals the pattern's empirical frequency
    - batched scoring is bit-identical to the frozen one-candidate-at-a-time
      path in tests/oracles.py: NMI and triple scores on random schemas
      with domain sizes 2-4, joints of triples that converge at different
      sweeps, and the zero-mass and sweep-cap errors with their residuals
    - at the paper's upper end (40 binary attributes, 50 pairs and 50
      triples) extraction meets its budget and scores bit-identically
"""

import itertools
import math

import numpy as np
import pytest

from popmaxent import (
    ArityBudget,
    AttributeSchema,
    ConstraintSet,
    ExtractionBudget,
    Population,
    ValidationError,
    arity_counts,
    empirical_frequency,
    extract_constraints,
    ipf_fit,
    kl_divergence,
    marginal,
    nmi,
    support_size,
)
from popmaxent.errors import ConvergenceError
from popmaxent.extraction import (
    AtomicConstraint,
    IPF_MAX_SWEEPS,
    IPF_TOL,
    _PAIRS,
    _ipf,
    _tabulate,
    _triple_scores,
)
from popmaxent.core import MarginalTable
from popmaxent.synthetic import mixture_population, parity_chain_population

from oracles import (
    frozen_ipf_fit,
    frozen_nmi,
    frozen_triple_score,
    naive_nmi,
    naive_triple_score,
)


def schema_of(*sizes):
    return AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes)
    )


def pop_of(sizes, rows):
    return Population.from_assignments(schema_of(*sizes), rows)


def xor_population():
    """Exact XOR triple: C = A ^ B over uniform independent A, B."""
    rows = [(a, b, a ^ b) for a in range(2) for b in range(2)]
    return pop_of((2, 2, 2), rows)


class TestNMI:
    def test_copies_give_one(self):
        pop = pop_of((3, 3), [(0, 0), (1, 1), (2, 2), (1, 1), (0, 0)])
        assert nmi(pop, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_exact_independence_gives_zero(self):
        pop = pop_of((2, 2), itertools.product(range(2), range(2)))
        assert nmi(pop, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_hand_values_on_2x2(self):
        perfect = pop_of((2, 2), [(0, 0), (0, 0), (1, 1), (1, 1)])
        assert nmi(perfect, 0, 1) == pytest.approx(1.0, abs=1e-12)
        flat = pop_of((2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert nmi(flat, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        pop = mixture_population(3, 500, seed=9)
        assert nmi(pop, 0, 2) == pytest.approx(nmi(pop, 2, 0), abs=1e-15)

    def test_same_attribute_rejected(self):
        pop = mixture_population(3, 100, seed=9)
        with pytest.raises(ValidationError):
            nmi(pop, 1, 1)

    def test_bounds_on_random_populations(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            pop = mixture_population(3, int(rng.integers(5, 200)), seed=trial)
            for i, j in itertools.combinations(range(3), 2):
                score = nmi(pop, i, j)
                assert 0.0 <= score <= 1.0 + 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        rows = [tuple(r) for r in rng.integers(0, (3, 2, 4), size=(400, 3))]
        pop = pop_of((3, 2, 4), rows)
        for i, j in itertools.combinations(range(3), 2):
            assert nmi(pop, i, j) == pytest.approx(naive_nmi(rows, i, j), abs=1e-12)


class TestIPF:
    def test_independent_uniform_gives_uniform(self):
        pop = pop_of((2, 2, 2), itertools.product(range(2), repeat=3))
        pairs = [marginal(pop, s) for s in [(0, 1), (0, 2), (1, 2)]]
        joint = ipf_fit(pop.schema, (0, 1, 2), pairs)
        assert np.allclose(joint, 1.0 / 8, atol=1e-12)

    def test_xor_triple_gives_uniform(self):
        pop = xor_population()
        pairs = [marginal(pop, s) for s in [(0, 1), (0, 2), (1, 2)]]
        joint = ipf_fit(pop.schema, (0, 1, 2), pairs)
        assert np.allclose(joint, 1.0 / 8, atol=1e-12)

    def test_fixed_point_reproduced(self):
        # oracle: take a population whose joint is itself an IPF solution
        # (product of a pair dependence and an independent third attribute)
        rows = []
        for a, b in [(0, 0)] * 3 + [(0, 1)] * 1 + [(1, 0)] * 2 + [(1, 1)] * 2:
            for c in range(2):
                rows.append((a, b, c))
        pop = pop_of((2, 2, 2), rows)
        joint_obs = marginal(pop, (0, 1, 2)).to_dense(pop.schema)
        pairs = [marginal(pop, s) for s in [(0, 1), (0, 2), (1, 2)]]
        joint = ipf_fit(pop.schema, (0, 1, 2), pairs)
        assert np.allclose(joint, joint_obs, atol=1e-9)
        assert kl_divergence(joint_obs, joint) == pytest.approx(0.0, abs=1e-9)

    def test_projection_property(self):
        for seed in range(5):
            pop = mixture_population(3, 800, seed=seed)
            scopes = [(0, 1), (0, 2), (1, 2)]
            pairs = [marginal(pop, s) for s in scopes]
            joint = ipf_fit(pop.schema, (0, 1, 2), pairs)
            for ax, mt in zip((2, 1, 0), pairs):
                proj = joint.sum(axis=ax)
                assert np.abs(proj - mt.to_dense(pop.schema)).max() < 1e-8

    def test_needs_three_pairs(self):
        pop = mixture_population(3, 100, seed=1)
        with pytest.raises(ValidationError):
            ipf_fit(pop.schema, (0, 1, 2), [marginal(pop, (0, 1))])

    def test_matches_naive_dict_oracle(self):
        from oracles import naive_ipf

        for seed in (0, 1, 2):
            pop = mixture_population(3, 500, seed=seed)
            shape = pop.schema.shape
            pairs = [marginal(pop, s) for s in [(0, 1), (0, 2), (1, 2)]]
            fast = ipf_fit(pop.schema, (0, 1, 2), pairs)
            targets = {
                (0, 1): {c: f for c, f in pairs[0].cells.items()},
                (0, 2): {c: f for c, f in pairs[1].cells.items()},
                (1, 2): {c: f for c, f in pairs[2].cells.items()},
            }
            slow = naive_ipf(targets, shape)
            dense_slow = np.zeros(shape)
            for combo, v in slow.items():
                dense_slow[combo] = v
            assert np.abs(fast - dense_slow).max() < 1e-8


class TestKL:
    def test_identity_zero(self):
        p = np.array([0.25, 0.75])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_fair_coin(self):
        assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_xor_triple_is_log_two(self):
        pop = xor_population()
        observed = marginal(pop, (0, 1, 2)).to_dense(pop.schema)
        pairs = [marginal(pop, s) for s in [(0, 1), (0, 2), (1, 2)]]
        reference = ipf_fit(pop.schema, (0, 1, 2), pairs)
        assert kl_divergence(observed, reference) == pytest.approx(math.log(2), abs=1e-9)

    def test_support_violation_rejected(self):
        with pytest.raises(ValidationError):
            kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) <= 1e-12


class TestBudgets:
    def test_exactly_one_of_count_rate(self):
        with pytest.raises(ValidationError):
            ArityBudget()
        with pytest.raises(ValidationError):
            ArityBudget(count=2, rate=0.5)

    def test_count_at_least_one(self):
        with pytest.raises(ValidationError):
            ArityBudget(count=0)

    def test_rate_in_unit_interval(self):
        with pytest.raises(ValidationError):
            ArityBudget(rate=0.0)
        with pytest.raises(ValidationError):
            ArityBudget(rate=1.5)

    def test_rate_resolution_rounds_up(self):
        assert ArityBudget(rate=1.0).resolve(3) == 3
        assert ArityBudget(rate=0.5).resolve(3) == 2
        assert ArityBudget(count=10).resolve(3) == 3


class TestExtraction:
    def test_full_rate_keeps_all_pairs(self):
        pop = mixture_population(3, 300, seed=2)
        cs = extract_constraints(pop, ExtractionBudget(binary=ArityBudget(rate=1.0)))
        assert len([s for s in cs.scopes if s.arity == 2]) == 3

    def test_unary_only_budget(self):
        pop = mixture_population(4, 300, seed=2)
        cs = extract_constraints(pop, ExtractionBudget())
        assert all(c.arity == 1 for c in cs.constraints)

    def test_accounting_identity(self):
        pop = mixture_population(4, 800, seed=4)
        cs = extract_constraints(pop, ExtractionBudget.full())
        by_arity = arity_counts(cs)
        for arity in (1, 2, 3):
            total = sum(
                support_size(marginal(pop, s.attrs))
                for s in cs.scopes
                if s.arity == arity
            )
            assert by_arity.get(arity, 0) == total
        assert cs.m == sum(by_arity.values())

    def test_targets_are_empirical_frequencies(self):
        pop = mixture_population(4, 500, seed=6)
        cs = extract_constraints(pop, ExtractionBudget.full())
        for c in cs.constraints:
            assert c.target == empirical_frequency(pop, c.pattern)

    def test_deterministic(self):
        pop = mixture_population(4, 500, seed=8)
        budget = ExtractionBudget(binary=ArityBudget(count=3), ternary=ArityBudget(count=2))
        assert extract_constraints(pop, budget) == extract_constraints(pop, budget)

    def test_equal_scores_break_ties_lexicographically(self):
        # exactly uniform population: every pair scores an identical 0.0,
        # so retention falls back to lexicographic scope order
        pop = pop_of((2, 2, 2), itertools.product(range(2), repeat=3))
        budget = ExtractionBudget(binary=ArityBudget(count=2))
        cs = extract_constraints(pop, budget)
        assert [s.attrs for s in cs.scopes if s.arity == 2] == [(0, 1), (0, 2)]

    def test_constraint_order_is_arity_then_lexicographic(self):
        pop = mixture_population(4, 500, seed=8)
        cs = extract_constraints(pop, ExtractionBudget.full())
        keys = [(c.arity, c.pattern.scope, c.pattern.values) for c in cs.constraints]
        assert keys == sorted(keys)

    def test_validate_passes_on_extraction_output(self):
        pop = mixture_population(3, 200, seed=10)
        extract_constraints(pop, ExtractionBudget.full()).validate()

    def test_planted_pair_and_triple_rank_first(self):
        # 5 attributes: (0,1,2) noisy XOR triple, (3,4) strongly dependent
        # pair, verified against brute-force scoring of every candidate
        rng = np.random.default_rng(42)
        n = 6000
        a0 = rng.integers(0, 2, n)
        a1 = rng.integers(0, 2, n)
        a2 = (a0 ^ a1) ^ (rng.random(n) < 0.02)
        a3 = rng.integers(0, 2, n)
        a4 = a3 ^ (rng.random(n) < 0.05)
        rows = [tuple(map(int, r)) for r in np.stack([a0, a1, a2, a3, a4], axis=1)]
        pop = pop_of((2,) * 5, rows)

        budget = ExtractionBudget(binary=ArityBudget(count=1), ternary=ArityBudget(count=1))
        cs = extract_constraints(pop, budget)
        retained_pairs = [s.attrs for s in cs.scopes if s.arity == 2]
        retained_triples = [s.attrs for s in cs.scopes if s.arity == 3]
        assert retained_pairs == [(3, 4)]
        assert retained_triples == [(0, 1, 2)]

        pair_scores = {p: naive_nmi(rows, *p) for p in itertools.combinations(range(5), 2)}
        assert max(pair_scores, key=pair_scores.get) == (3, 4)
        triple_scores = {
            t: naive_triple_score(rows, t) for t in itertools.combinations(range(5), 3)
        }
        assert max(triple_scores, key=triple_scores.get) == (0, 1, 2)

        by_scope = {s.attrs: s.score for s in cs.scopes}
        assert by_scope[(3, 4)] == pytest.approx(pair_scores[(3, 4)], abs=1e-9)
        assert by_scope[(0, 1, 2)] == pytest.approx(triple_scores[(0, 1, 2)], abs=1e-7)

    def test_empty_population_rejected(self):
        s = schema_of(2, 2)
        pop = Population(s, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(ValidationError):
            extract_constraints(pop, ExtractionBudget.full())


def _pair_targets(pop, triple):
    """The three dense pairwise tables of a triple, keyed by position pair."""
    return {
        pos: marginal(pop, (triple[pos[0]], triple[pos[1]])).to_dense(pop.schema)
        for pos in _PAIRS
    }


def _batch(target_maps):
    """``_ipf``'s stacked targets from per-triple position-pair maps."""
    return [np.stack([t[pos] for t in target_maps]) for pos in _PAIRS]


def _ipf_error(fn, *args, **kwargs):
    with pytest.raises(ConvergenceError) as info:
        fn(*args, **kwargs)
    return info.value


class TestBatchedScoring:
    @pytest.mark.parametrize("seed", range(6))
    def test_scores_bit_equal_to_frozen_path(self, seed):
        pop = mixture_population(6, 400 + 300 * seed, seed=100 + seed,
                                 min_categories=2, max_categories=4)
        assert len(set(pop.schema.shape)) > 1
        cs = extract_constraints(pop, ExtractionBudget.full())
        for s in cs.scopes:
            if s.arity == 2:
                assert s.score == frozen_nmi(pop, *s.attrs)
                assert nmi(pop, *s.attrs) == s.score
            elif s.arity == 3:
                assert s.score == frozen_triple_score(pop, s.attrs)

    def test_triples_converging_at_different_sweeps(self):
        # a uniform triple is fitted in one sweep; the parity chain's triples
        # need between 3 and 11
        uniform = pop_of((2, 2, 2), itertools.product(range(2), repeat=3))
        chain = parity_chain_population(5, 3000, seed=4, flip=0.2)
        maps = [_pair_targets(uniform, (0, 1, 2))]
        maps += [_pair_targets(chain, t) for t in itertools.combinations(range(5), 3)]

        def sweeps_needed(targets):
            for sweeps in itertools.count(1):
                try:
                    frozen_ipf_fit(targets, max_sweeps=sweeps)
                    return sweeps
                except ConvergenceError:
                    pass

        assert len({sweeps_needed(t) for t in maps}) >= 5
        joint, errors = _ipf(_batch(maps), IPF_TOL, IPF_MAX_SWEEPS)
        assert errors == {}
        for row, targets in zip(joint, maps):
            assert np.array_equal(row, frozen_ipf_fit(targets))

    def test_zero_mass_triple_among_good_ones(self):
        schema = schema_of(2, 2, 2)
        quarter = {c: 0.25 for c in itertools.product(range(2), repeat=2)}
        # attribute 0 never takes category 1 in the (0, 1) table, but does in (0, 2)
        bad = [MarginalTable((0, 1), {(0, 0): 0.5, (0, 1): 0.5}),
               MarginalTable((0, 2), quarter), MarginalTable((1, 2), quarter)]
        bad_map = {pos: mt.to_dense(schema) for pos, mt in zip(_PAIRS, bad)}
        want = _ipf_error(frozen_ipf_fit, bad_map)
        got = _ipf_error(ipf_fit, schema, (0, 1, 2), bad)
        assert (type(got), str(got), got.residual) == (type(want), str(want), want.residual)

        good = [_pair_targets(mixture_population(3, 500, seed=s, max_categories=2), (0, 1, 2))
                for s in (1, 2)]
        joint, errors = _ipf(_batch([good[0], bad_map, good[1]]), IPF_TOL, IPF_MAX_SWEEPS)
        assert list(errors) == [1]
        assert (str(errors[1]), errors[1].residual) == (str(want), want.residual)
        assert np.isnan(joint[1]).all()
        assert np.array_equal(joint[0], frozen_ipf_fit(good[0]))
        assert np.array_equal(joint[2], frozen_ipf_fit(good[1]))

    @pytest.mark.parametrize("sweeps", [0, 1, 3])
    def test_sweep_cap_residual(self, sweeps):
        pop = parity_chain_population(3, 2000, seed=2, flip=0.2)
        pairs = [marginal(pop, s) for s in [(0, 1), (0, 2), (1, 2)]]
        want = _ipf_error(frozen_ipf_fit, _pair_targets(pop, (0, 1, 2)), max_sweeps=sweeps)
        got = _ipf_error(ipf_fit, pop.schema, (0, 1, 2), pairs, max_sweeps=sweeps)
        assert (type(got), str(got)) == (type(want), str(want))
        assert got.residual == want.residual
        assert sweeps > 0 or got.residual == math.inf

    def test_first_failure_in_candidate_order_is_raised(self, monkeypatch):
        import popmaxent.extraction as ex

        pop = mixture_population(5, 800, seed=3)
        triples = list(itertools.combinations(range(5), 3))
        tables = {}
        _tabulate(pop, list(itertools.combinations(range(5), 2)), tables)
        # every triple hits the sweep cap; the first candidate's error comes out
        monkeypatch.setattr(ex, "IPF_MAX_SWEEPS", 2)
        got = _ipf_error(_triple_scores, pop, triples, tables)
        want = _ipf_error(frozen_ipf_fit, _pair_targets(pop, triples[0]), max_sweeps=2)
        assert (str(got), got.residual) == (str(want), want.residual)

    def test_paper_upper_end(self):
        pop = mixture_population(40, 4000, seed=1, max_categories=2)
        budget = ExtractionBudget(binary=ArityBudget(count=50), ternary=ArityBudget(count=50))
        cs = extract_constraints(pop, budget)
        cs.validate()
        assert [s.arity for s in cs.scopes].count(2) == 50
        assert [s.arity for s in cs.scopes].count(3) == 50
        for s in cs.scopes:
            if s.arity == 3:
                assert s.score == frozen_triple_score(pop, s.attrs)

        triples = list(itertools.combinations(range(40), 3))
        tables = {}
        _tabulate(pop, list(itertools.combinations(range(40), 2)), tables)
        scores = _triple_scores(pop, triples, tables)
        rng = np.random.default_rng(40)
        for n in rng.choice(len(triples), size=50, replace=False):
            assert scores[n] == frozen_triple_score(pop, triples[n])


class TestConstraintSetInvariants:
    def test_rejects_nonpositive_target(self):
        s = schema_of(2, 2)
        with pytest.raises(ValidationError):
            ConstraintSet(s, (AtomicConstraint(_pat(0, 0), 0.0),))

    def test_rejects_target_above_one(self):
        s = schema_of(2, 2)
        with pytest.raises(ValidationError):
            ConstraintSet(s, (AtomicConstraint(_pat(0, 0), 1.2),))

    def test_validate_flags_duplicates(self):
        s = schema_of(2, 2)
        cs = ConstraintSet(s, (AtomicConstraint(_pat(0, 0), 0.5),
                               AtomicConstraint(_pat(0, 0), 0.5)))
        with pytest.raises(ValidationError):
            cs.validate()

    def test_validate_flags_bad_scope_sum(self):
        pop = mixture_population(3, 200, seed=11)
        cs = extract_constraints(pop, ExtractionBudget())
        broken = ConstraintSet(
            cs.schema,
            tuple(
                AtomicConstraint(c.pattern, min(1.0, c.target * 1.5), c.scope_id)
                for c in cs.constraints
            ),
            cs.scopes,
        )
        with pytest.raises(ValidationError):
            broken.validate()


def _pat(attr, value):
    from popmaxent import Pattern

    return Pattern.of({attr: value})
