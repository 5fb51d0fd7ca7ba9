"""Tests for the exponential-family model, dual optimization, and samplers.

Claims:
    - log-partition values match hand enumeration (uniform, constant
      energy shift, single-constraint 2x2 case)
    - moments at lambda = 0 are pattern sizes over the cell count, fitted
      unary models hit their targets, and moments grow monotonically in
      the multiplier
    - the analytic dual gradient matches central finite differences
    - hard fit reaches 1e-6 residuals on extracted problems, and 1e-13,
      where the dual no longer resolves the steps; at 1e-10 the Newton
      polish does the last part, checked against moments summed from the
      cell probabilities, also on criterion 2's seed-2002 problem and a
      K=6 mixture, whose steps need more than 20 conjugate-gradient
      iterations; the empty fit is the zero-iteration uniform model,
      duplicated constraints leave the fitted distribution unchanged
    - soft fit: residual decreases in beta, approaches the hard fit at
      large beta, tolerates inconsistent targets, drops zero-weight
      constraints, rejects targets of 1, reports its evaluations and
      clique tree, and runs on the tree beyond the enumeration cap (and
      raises CapacityError when the cap is below the largest clique)
    - a target of 1 is rejected with a message naming the first such
      pattern; hard, soft and Metropolis fits reject a tolerance that is
      not finite and positive, and an iteration cap below 1, before fitting
    - the driver's rescaled multipliers stay out of sight: hard and soft
      reports give the dual value, residual and soft convergence of the
      returned multipliers, recomputed independently; a weak penalty's
      soft fit that stops on its gradient meets tol; criterion 7's K=4
      problem and criterion 2's seed-2002 problem fit within 150 and 400
      iterations
    - sampling is seeded-deterministic with binomial-level concentration
    - Metropolis estimates agree with exact moments, also over 2^30 cells
      where the chain keeps only the cells it visits, and on a clique over
      the enumeration cap, where the chain reads the clique's scope tables;
      boundary targets and over-cap spaces are rejected with the right errors
    - the chain on clique factors visits the cells the frozen per-scope
      chain visits, on fixed seeds, for one clique, several cliques and
      unary constraints alone
    - fit_metropolis reports the clique tree its chain ran on
    - the dual runs on the clique tree: 30 and 40 binary attributes with
      50 pairs and 50 triples fit to 1e-6 (their cells stay out of reach:
      probabilities and sampling raise CapacityError) and to 1e-10 with
      the Newton polish on the tree, the K=30 model's tree moments agree
      with Metropolis estimates, and planted structural zeros leave
      finite multipliers
"""

import functools
import itertools
import math

import numpy as np
import pytest

from popmaxent import (
    ArityBudget,
    AttributeSchema,
    CapacityError,
    ConstraintSet,
    ExtractionBudget,
    MaxEntModel,
    Pattern,
    Population,
    SoftFitConfig,
    ValidationError,
    dual_objective,
    extract_constraints,
    feature_value,
    fit_hard,
    fit_metropolis,
    fit_soft,
    log_partition,
    marginal,
    metropolis_moments,
    model_moments,
    sample_population,
    uniform_model,
)
from popmaxent._dense import DEFAULT_ENUM_CAP
from popmaxent.extraction import AtomicConstraint
from popmaxent.model import _chain_factors, _run_chain
from popmaxent.synthetic import mixture_population

from oracles import (
    central_difference_gradient,
    frozen_clique_chain,
    frozen_run_chain,
    product_distribution,
)


def schema_of(*sizes):
    return AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes)
    )


def cs_of(schema, items):
    """Hand-built constraint set from (fixed-dict, target) pairs."""
    return ConstraintSet(
        schema, tuple(AtomicConstraint(Pattern.of(f), t) for f, t in items)
    )


def tv(p, q):
    return 0.5 * float(np.abs(p - q).sum())


def enumerated_moments(cs, p):
    """Each pattern's mass, summed from dense cell probabilities by indexing."""
    table = p.reshape(cs.schema.shape)
    moments = []
    for c in cs.constraints:
        fixed = dict(c.pattern.fixed)
        index = tuple(fixed.get(a, slice(None)) for a in range(cs.schema.k))
        moments.append(float(np.sum(table[index])))
    return np.array(moments)


class TestFeatureValue:
    def test_unary_match(self):
        s = schema_of(2, 2)
        assert feature_value(s, Pattern.of({0: 0}), 0) == 1

    def test_binary_mismatch(self):
        s = schema_of(2, 2)
        # cell 0 is (A=0, B=0); the pattern wants B=1
        assert feature_value(s, Pattern.of({0: 0, 1: 1}), 0) == 0

    def test_pattern_size_by_enumeration(self):
        s = schema_of(2, 2)
        hits = sum(feature_value(s, Pattern.of({0: 0}), c) for c in range(4))
        assert hits == 2


class TestLogPartition:
    def test_zero_lambda_is_log_cells(self):
        s = schema_of(6, 6)
        cs = cs_of(s, [({0: 0}, 0.5)])
        model = uniform_model(cs)
        assert log_partition(model) == pytest.approx(math.log(36), abs=1e-12)

    def test_constant_energy_shift(self):
        # constraints jointly covering the space, all at multiplier c
        s = schema_of(3, 2)
        c = 1.7
        cs = cs_of(s, [({0: v}, 1.0 / 3) for v in range(3)])
        model = MaxEntModel(cs, np.full(3, c))
        assert log_partition(model) == pytest.approx(math.log(6) + c, abs=1e-12)

    def test_single_constraint_2x2(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 0.5)])
        model = MaxEntModel(cs, np.array([math.log(3.0)]))
        assert log_partition(model) == pytest.approx(math.log(8), abs=1e-12)

    def test_capacity_error_over_cap(self):
        # the cap bounds the largest clique; a triple makes it the whole space
        s = schema_of(2, 2, 2)
        cs = cs_of(s, [({0: 0, 1: 1, 2: 0}, 0.5)])
        model = MaxEntModel(cs, np.zeros(1), enum_cap=4)
        with pytest.raises(CapacityError):
            log_partition(model)

    def test_space_over_cap_with_cliques_under_it(self):
        s = schema_of(2, 2, 2)
        cs = cs_of(s, [({0: 0}, 0.5)])
        model = MaxEntModel(cs, np.zeros(1), enum_cap=4)
        assert log_partition(model) == pytest.approx(math.log(8), abs=1e-12)
        with pytest.raises(CapacityError):
            model.probabilities()


class TestMoments:
    def test_uniform_moments_are_pattern_shares(self):
        s = schema_of(3, 2, 2)
        cs = cs_of(s, [({0: 1}, 0.2), ({1: 0, 2: 1}, 0.2), ({0: 0, 1: 1, 2: 0}, 0.2)])
        moments = model_moments(uniform_model(cs))
        sizes = [
            sum(c.pattern.matches(s, cell) for cell in range(s.n_cells))
            for c in cs.constraints
        ]
        assert np.allclose(moments, np.array(sizes) / s.n_cells, atol=1e-12)

    def test_fitted_unary_hits_targets(self):
        s = AttributeSchema.from_domains([("A", ("x", "y"))])
        cs = cs_of(s, [({0: 0}, 0.25), ({0: 1}, 0.75)])
        model, report = fit_hard(cs, tol=1e-9)
        assert report.converged
        assert np.allclose(model_moments(model), [0.25, 0.75], atol=1e-8)

    def test_moment_monotone_in_multiplier(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 0.5)])
        vals = [model_moments(MaxEntModel(cs, np.array([l])))[0] for l in (0.0, 2.0, 5.0)]
        assert vals[0] < vals[1] < vals[2] < 1.0
        # closed form e^l / (e^l + 1) for the half-space pattern
        for l, v in zip((0.0, 2.0, 5.0), vals):
            assert v == pytest.approx(math.exp(l) / (math.exp(l) + 1.0), abs=1e-12)


class TestDualObjective:
    def test_zero_lambda_plug_in(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 0.3), ({1: 1}, 0.6)])
        value, grad = dual_objective(uniform_model(cs))
        assert value == pytest.approx(math.log(4), abs=1e-12)
        assert np.allclose(grad, [0.5 - 0.3, 0.5 - 0.6], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            pop = mixture_population(3, 400, seed=trial)
            cs = extract_constraints(pop, ExtractionBudget(binary=None, ternary=None))
            lam = rng.normal(scale=1.0, size=cs.m)

            def value_at(x):
                v, _ = MaxEntModel(cs, x).dual_objective()
                return v

            _, grad = MaxEntModel(cs, lam).dual_objective()
            fd = central_difference_gradient(value_at, lam, step=1e-5)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_gradient_vanishes_at_optimum(self):
        pop = mixture_population(3, 300, seed=3)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, report = fit_hard(cs)
        _, grad = dual_objective(model)
        assert np.abs(grad).max() <= 1e-6
        assert report.converged

    def test_convexity_probe(self):
        rng = np.random.default_rng(21)
        pop = mixture_population(3, 250, seed=1)
        cs = extract_constraints(pop, ExtractionBudget.full())
        for _ in range(20):
            l1 = rng.normal(size=cs.m)
            l2 = rng.normal(size=cs.m)
            t = rng.uniform(0.05, 0.95)
            v1, _ = MaxEntModel(cs, l1).dual_objective()
            v2, _ = MaxEntModel(cs, l2).dual_objective()
            vm, _ = MaxEntModel(cs, t * l1 + (1 - t) * l2).dual_objective()
            assert vm <= t * v1 + (1 - t) * v2 + 1e-9


class TestFitHard:
    def test_extracted_problems_reach_tolerance(self):
        for seed, k in [(1, 3), (2, 4), (3, 5)]:
            pop = mixture_population(k, 1500, seed=seed)
            cs = extract_constraints(pop, ExtractionBudget.full())
            model, report = fit_hard(cs)
            assert report.converged, f"k={k} residual {report.residual}"
            assert report.residual <= 1e-6

    def test_tolerance_below_the_dual_resolution(self):
        # below about 1e-8 a step that shrinks the residual no longer
        # changes the dual in double precision; the fit still gets there
        for seed, k in [(1, 3), (2, 4), (3, 5)]:
            pop = mixture_population(k, 1500, seed=seed)
            cs = extract_constraints(pop, ExtractionBudget.full())
            model, report = fit_hard(cs, tol=1e-13)
            assert report.converged, f"k={k} residual {report.residual}"
            assert np.abs(model_moments(model) - cs.targets()).max() <= 1e-13

    @pytest.mark.parametrize("k, seed, n", [
        (3, 1, 1500), (4, 2, 1500), (5, 3, 1500),
        # Newton steps of 20 conjugate-gradient iterations left these two
        # at 5.2e-10 and 2.4e-10
        (6, 10, 1500), (int(np.random.default_rng(2002).integers(3, 7)), 2002, 1200),
    ], ids=["3-1", "4-2", "5-3", "6-10", "criterion-2-seed-2002"])
    def test_newton_polish_finishes_below_the_dual_resolution(self, k, seed, n):
        # at tol 1e-10 L-BFGS stops on a dual flat to rounding; the Newton
        # steps on the gradient alone carry the residual the rest of the way
        cs = extract_constraints(mixture_population(k, n, seed=seed),
                                 ExtractionBudget.full())
        model, report = fit_hard(cs, tol=1e-10)
        assert "Newton steps on the residual" in report.message
        assert report.converged and report.residual <= 1e-10
        residual = np.abs(enumerated_moments(cs, model.probabilities()) - cs.targets()).max()
        assert residual <= 1e-10

    def test_empty_constraints_is_uniform_zero_iterations(self):
        s = schema_of(2, 3)
        cs = ConstraintSet(s, ())
        model, report = fit_hard(cs)
        assert report.iterations == 0
        assert report.converged
        assert np.allclose(model.probabilities(), 1.0 / 6, atol=1e-15)

    def test_duplicated_constraint_leaves_distribution_unchanged(self):
        s = schema_of(2, 2, 3)
        single = cs_of(s, [({0: 0}, 0.3), ({1: 1, 2: 2}, 0.1)])
        doubled = cs_of(s, [({0: 0}, 0.3), ({0: 0}, 0.3), ({1: 1, 2: 2}, 0.1)])
        m1, r1 = fit_hard(single, tol=1e-9)
        m2, r2 = fit_hard(doubled, tol=1e-9)
        assert r1.converged and r2.converged
        assert tv(m1.probabilities(), m2.probabilities()) < 1e-7

    def test_normalization_for_random_lambda(self):
        rng = np.random.default_rng(8)
        pop = mixture_population(3, 200, seed=5)
        cs = extract_constraints(pop, ExtractionBudget.full())
        for _ in range(5):
            model = MaxEntModel(cs, rng.normal(scale=3.0, size=cs.m))
            assert model.probabilities().sum() == pytest.approx(1.0, abs=1e-10)

    def test_unary_only_fit_is_product_of_targets(self):
        rng = np.random.default_rng(17)
        s = schema_of(3, 2, 4)
        unary = {}
        items = []
        for a, d in enumerate(s.shape):
            probs = rng.dirichlet(np.full(d, 5.0))
            unary[a] = {v: float(probs[v]) for v in range(d)}
            items += [({a: v}, float(probs[v])) for v in range(d)]
        cs = cs_of(s, items)
        model, report = fit_hard(cs, tol=1e-10)
        oracle = product_distribution(s, unary)
        assert tv(model.probabilities(), oracle) < 1e-8

    def test_boundary_target_rejected_at_model_construction(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 1.0)])
        with pytest.raises(ValidationError):
            fit_hard(cs)

    def test_boundary_message_names_the_first_such_pattern(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 0.5), ({1: 1}, 1.0), ({0: 1}, 1.0)])
        expected = ("target frequency 1 is a boundary case not attained at finite "
                    f"multipliers (pattern {cs.constraints[1].pattern.fixed})")
        with pytest.raises(ValidationError) as exc:
            MaxEntModel(cs, np.zeros(cs.m))
        assert str(exc.value) == expected

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_unmeetable_tol_rejected_before_fitting(self, tol):
        cs = cs_of(schema_of(2, 2), [({0: 0}, 0.4)])
        message = rf"^tol must be finite and > 0, got {tol!r}$"
        for fit in (fit_hard, functools.partial(fit_soft, cfg=SoftFitConfig(beta=10.0)),
                    functools.partial(fit_metropolis, seed=1, iterations=1)):
            with pytest.raises(ValidationError, match=message):
                fit(cs, tol=tol)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_iteration_cap_below_1_rejected_before_fitting(self, cap):
        cs = cs_of(schema_of(2, 2), [({0: 0}, 0.4)])
        for fit, name in ((functools.partial(fit_hard, max_iter=cap), "max_iter"),
                          (functools.partial(fit_soft, cfg=SoftFitConfig(beta=10.0),
                                             max_iter=cap), "max_iter"),
                          (functools.partial(fit_metropolis, seed=1, iterations=cap),
                           "iterations")):
            with pytest.raises(ValidationError, match=rf"^{name} must be >= 1, got {cap}$"):
                fit(cs)


@functools.lru_cache(maxsize=None)
def binary_mixture_fit(k):
    """Criterion 9's capped20 recipe at k binary attributes: 50 pairs, 50 triples."""
    pop = mixture_population(k, 4000, seed=1, max_categories=2)
    cs = extract_constraints(pop, ExtractionBudget(binary=ArityBudget(count=50),
                                                   ternary=ArityBudget(count=50)))
    return cs, *fit_hard(cs)


class TestCliqueTreeFits:
    @pytest.mark.parametrize("k", [30, 40])
    def test_over_the_cap_fits_on_small_cliques(self, k):
        cs, model, report = binary_mixture_fit(k)
        assert cs.schema.n_cells == 2 ** k > DEFAULT_ENUM_CAP
        assert report.converged and report.residual <= 1e-6
        assert report.residual == float(np.abs(model_moments(model) - cs.targets()).max())
        assert report.cliques == len(cs.layout.cliques.sizes) > 1
        assert report.largest_clique == cs.layout.cliques.largest <= 2 ** 11
        assert report.evaluations >= report.iterations
        with pytest.raises(CapacityError):
            model.probabilities()
        with pytest.raises(CapacityError):
            sample_population(model, 10, seed=1)

    @pytest.mark.parametrize("k", [30, 40])
    def test_newton_polish_runs_over_the_cap(self, k):
        # the polish reads the clique tree alone; when it enumerated the
        # space these fits skipped it and stopped at 7.1e-9 and 9.7e-9
        cs, _, _ = binary_mixture_fit(k)
        model, report = fit_hard(cs, tol=1e-10)
        assert report.converged
        assert "Newton steps on the residual" in report.message
        assert np.abs(model_moments(model) - cs.targets()).max() <= 1e-10

    def test_tree_moments_are_the_chains_oracle(self):
        # the chain mixes slowly between the mixture's components: over
        # these four chains the moments' largest deviation measured 0.015
        # and their mean 0.0038, against 0.011 for multipliers scaled by 0.9
        cs, model, _ = binary_mixture_fit(30)
        est = np.mean([metropolis_moments(model, sweeps=100_000, burn_in=1_000, seed=s)
                       for s in range(1, 5)], axis=0)
        dev = np.abs(est - model_moments(model))
        assert dev.max() < 0.03 and dev.mean() < 0.006

    def test_planted_zeros_leave_finite_multipliers(self):
        # the cli workload's recipe, smaller: two category pairs never occur,
        # so some multipliers grow without bound as the fit tightens
        rng = np.random.default_rng(808)
        sizes = (4, 4, 3, 3, 3, 2, 2, 2)
        probs = [[rng.dirichlet(np.full(d, 1.2)) for d in sizes] for _ in range(3)]
        which = rng.integers(0, 3, size=5000)
        rows = np.empty((which.size, len(sizes)), dtype=np.int64)
        for c in range(3):
            idx = np.flatnonzero(which == c)
            for a, d in enumerate(sizes):
                rows[idx, a] = rng.choice(d, size=idx.size, p=probs[c][a])
        rows = rows[~(((rows[:, 0] == 3) & (rows[:, 1] == 0))
                      | ((rows[:, 2] == 2) & (rows[:, 5] == 1)))]
        schema = schema_of(*sizes)
        pop = Population.from_codes(schema, np.ravel_multi_index(tuple(rows.T), sizes))
        cs = extract_constraints(pop, ExtractionBudget(binary=ArityBudget(count=8),
                                                       ternary=ArityBudget(count=8)))
        model, report = fit_hard(cs)
        assert report.cliques > 1
        assert report.converged
        assert np.isfinite(model.lam).all()
        assert np.isfinite(model_moments(model)).all()


class TestFitSoft:
    def test_residual_decreases_with_beta(self):
        pop = mixture_population(3, 400, seed=7)
        cs = extract_constraints(pop, ExtractionBudget.full())
        residuals = []
        for beta in (1e2, 1e4, 1e6):
            _, report = fit_soft(cs, SoftFitConfig(beta=beta))
            assert report.converged
            residuals.append(report.residual)
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] <= 1e-3

    def test_large_beta_matches_hard_fit(self):
        pop = mixture_population(3, 400, seed=9)
        cs = extract_constraints(pop, ExtractionBudget.full())
        hard, _ = fit_hard(cs, tol=1e-8)
        soft, _ = fit_soft(cs, SoftFitConfig(beta=1e8), tol=1e-8)
        assert tv(hard.probabilities(), soft.probabilities()) < 1e-4

    def test_inconsistent_targets_converge_and_split(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 0.3), ({0: 0}, 0.6)])
        residuals = []
        for beta in (1e1, 1e3, 1e5):
            model, report = fit_soft(cs, SoftFitConfig(beta=beta))
            assert report.converged
            residuals.append(report.residual)
            moment = model_moments(model)[0]
            assert 0.3 - 1e-6 <= moment <= 0.6 + 1e-6
        assert residuals[0] >= residuals[1] >= residuals[2]

    def test_zero_weights_drop_all_constraints(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 0.3), ({1: 0}, 0.9)])
        model, report = fit_soft(cs, SoftFitConfig(beta=10.0, weights=(0.0, 0.0)))
        assert report.converged
        assert np.allclose(model.probabilities(), 0.25, atol=1e-15)
        assert np.all(model.lam == 0.0)

    def test_report_counts_evaluations_and_cliques(self):
        pop = mixture_population(3, 400, seed=7)
        cs = extract_constraints(pop, ExtractionBudget.full())
        _, report = fit_soft(cs, SoftFitConfig(beta=1e4))
        assert report.evaluations >= report.iterations > 0
        assert report.cliques == 1 and report.largest_clique == cs.schema.n_cells

    def test_boundary_target_rejected(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 1.0)])
        with pytest.raises(ValidationError):
            fit_soft(cs, SoftFitConfig(beta=10.0))

    def test_runs_on_the_clique_tree(self):
        cs, _, hard = binary_mixture_fit(30)
        model, report = fit_soft(cs, SoftFitConfig(beta=1e6))
        assert report.converged
        assert report.cliques == hard.cliques > 1
        assert report.largest_clique == hard.largest_clique <= 2 ** 11
        assert report.residual == float(np.abs(model_moments(model) - cs.targets()).max())
        with pytest.raises(CapacityError):
            fit_soft(cs, SoftFitConfig(beta=1e6), enum_cap=report.largest_clique - 1)

    def test_rejects_bad_config(self):
        with pytest.raises(ValidationError):
            SoftFitConfig(beta=0.0)
        with pytest.raises(ValidationError):
            SoftFitConfig(beta=1.0, weights=(-1.0,))

    def test_matches_direct_primal_solve(self):
        # independent oracle: minimize -H(p) + (beta/2) sum w_j (E_p f_j - a_j)^2
        # directly over the simplex (softmax parameterization, multistart)
        from scipy.optimize import minimize as sp_minimize

        s = schema_of(2, 3)
        cs = cs_of(s, [({0: 0}, 0.7), ({1: 1}, 0.15), ({0: 1, 1: 2}, 0.4)])
        beta, w = 50.0, np.array([1.0, 2.0, 0.5])
        features = np.array(
            [[c.pattern.matches(s, cell) for cell in range(s.n_cells)]
             for c in cs.constraints],
            dtype=float,
        )
        targets = cs.targets()

        def primal(theta):
            z = theta - theta.max()
            p = np.exp(z)
            p /= p.sum()
            viol = features @ p - targets
            with np.errstate(divide="ignore", invalid="ignore"):
                ent = np.where(p > 0, p * np.log(p), 0.0).sum()
            return ent + 0.5 * beta * float(w @ viol**2)

        best = None
        rng = np.random.default_rng(0)
        for _ in range(5):
            res = sp_minimize(primal, rng.normal(size=s.n_cells), method="BFGS",
                              options=dict(gtol=1e-12, maxiter=2000))
            if best is None or res.fun < best.fun:
                best = res
        z = best.x - best.x.max()
        p_primal = np.exp(z)
        p_primal /= p_primal.sum()

        model, rep = fit_soft(cs, SoftFitConfig(beta=beta, weights=tuple(w)),
                              tol=1e-10)
        assert rep.converged
        assert tv(model.probabilities(), p_primal) < 1e-5


class TestScaledDual:
    """L-BFGS runs on rescaled multipliers; reports read the unscaled ones."""

    @pytest.mark.parametrize("max_iter", [3, 5000])
    def test_hard_report_reads_the_returned_multipliers(self, max_iter):
        cs = extract_constraints(mixture_population(4, 1500, seed=2), ExtractionBudget.full())
        model, report = fit_hard(cs, max_iter=max_iter)
        assert report.dual_value == pytest.approx(dual_objective(model)[0], abs=1e-12)
        moments = enumerated_moments(cs, model.probabilities())
        assert report.residual == pytest.approx(np.abs(moments - cs.targets()).max(),
                                                abs=1e-12)
        assert report.converged == (report.residual <= 1e-6) == (max_iter > 3)

    @pytest.mark.parametrize("max_iter", [3, 5000])
    def test_soft_report_reads_the_returned_multipliers(self, max_iter):
        cs = extract_constraints(mixture_population(3, 400, seed=7), ExtractionBudget.full())
        weights = np.random.default_rng(5).uniform(0.2, 3.0, size=cs.m)
        weights[::7] = 0.0
        beta, tol = 1e3, 1e-7
        model, report = fit_soft(cs, SoftFitConfig(beta=beta, weights=tuple(weights)),
                                 tol=tol, max_iter=max_iter)
        active = weights > 0.0
        assert np.all(model.lam[~active] == 0.0)
        penalty = float(np.sum(model.lam[active] ** 2 / (2.0 * beta * weights[active])))
        assert report.dual_value == pytest.approx(dual_objective(model)[0] + penalty,
                                                  abs=1e-12)
        moments = enumerated_moments(cs, model.probabilities())
        assert report.residual == pytest.approx(np.abs(moments - cs.targets()).max(),
                                                abs=1e-12)
        grad = (moments - cs.targets())[active] + model.lam[active] / (beta * weights[active])
        assert report.converged == (np.abs(grad).max() <= tol) == (max_iter > 3)

    @pytest.mark.parametrize("seed", [4, 5, 6, 7])
    def test_weak_penalty_stop_meets_tol_unscaled(self, seed):
        # beta w < 4/3 puts scales below 1, where a scaled gradient within
        # tol can leave the unscaled one over it
        cs = extract_constraints(mixture_population(4, 800, seed=seed), ExtractionBudget.full())
        for beta in (0.1, 0.5):
            model, report = fit_soft(cs, SoftFitConfig(beta=beta))
            grad = model_moments(model) - cs.targets() + model.lam / beta
            assert "PROJECTED GRADIENT" in report.message
            assert report.converged and np.abs(grad).max() <= 1e-6

    def test_criterion_7_problem_iterations(self):
        # unscaled, this problem took 584 iterations; about 75 scaled
        cs = extract_constraints(mixture_population(4, 1500, seed=7001),
                                 ExtractionBudget.full())
        _, report = fit_hard(cs)
        assert report.converged and report.iterations <= 150

    def test_criterion_2_hardest_problem_iterations(self):
        # unscaled, seed 2002 took 1,560 iterations; about 180 scaled
        k = int(np.random.default_rng(2002).integers(3, 7))
        pop = mixture_population(k, 1200, seed=2002, min_categories=2, max_categories=4)
        _, report = fit_hard(extract_constraints(pop, ExtractionBudget.full()))
        assert report.converged and report.iterations <= 400


class TestSampling:
    def test_uniform_concentration(self):
        s = schema_of(2, 2)
        model, _ = fit_hard(ConstraintSet(s, ()))
        pop = sample_population(model, 400_000, seed=3)
        freqs = pop.counts / pop.total
        assert pop.cells.size == 4
        assert np.abs(freqs - 0.25).max() < 0.005

    def test_single_draw(self):
        s = schema_of(2, 2)
        model, _ = fit_hard(ConstraintSet(s, ()))
        pop = sample_population(model, 1, seed=0)
        assert pop.total == 1

    def test_seed_determinism(self):
        pop = mixture_population(3, 300, seed=4)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, _ = fit_hard(cs)
        a = sample_population(model, 2000, seed=11)
        b = sample_population(model, 2000, seed=11)
        c = sample_population(model, 2000, seed=12)
        assert np.array_equal(a.cells, b.cells) and np.array_equal(a.counts, b.counts)
        assert not (np.array_equal(a.cells, c.cells) and np.array_equal(a.counts, c.counts))

    def test_sample_frequencies_track_model(self):
        pop = mixture_population(4, 600, seed=6)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, _ = fit_hard(cs)
        sample = sample_population(model, 200_000, seed=2)
        achieved = np.array(
            [marginal(sample, (a,)).cells.get((v,), 0.0)
             for a in range(cs.schema.k) for v in range(len(cs.schema.domain(a)))]
        )
        expected = np.array(
            [float(model.probabilities().reshape(cs.schema.shape)
                   .sum(axis=tuple(x for x in range(cs.schema.k) if x != a))[v])
             for a in range(cs.schema.k) for v in range(len(cs.schema.domain(a)))]
        )
        assert np.abs(achieved - expected).max() < 0.01


class TestMetropolis:
    def test_uniform_chain_matches_pattern_shares(self):
        s = schema_of(2, 2, 2)
        cs = cs_of(s, [({0: 0}, 0.5), ({1: 1, 2: 0}, 0.25), ({0: 1, 1: 0, 2: 1}, 0.125)])
        model = uniform_model(cs)
        est = metropolis_moments(model, sweeps=100_000, burn_in=1_000, seed=5)
        exact = model_moments(model)
        assert np.abs(est - exact).max() < 0.01

    def test_matches_exact_moments_on_fitted_model(self):
        pop = mixture_population(3, 500, seed=13)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, _ = fit_hard(cs)
        est = metropolis_moments(model, sweeps=200_000, burn_in=2_000, seed=1)
        assert np.abs(est - model_moments(model)).max() < 0.02

    def test_sweep_precondition(self):
        s = schema_of(2, 2)
        model = uniform_model(cs_of(s, [({0: 0}, 0.5)]))
        with pytest.raises(ValidationError):
            metropolis_moments(model, sweeps=100, burn_in=100, seed=0)
        with pytest.raises(ValidationError):
            metropolis_moments(model, sweeps=100, burn_in=-1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.0, False])
    def test_chain_and_stochastic_fit_reject_a_seed_that_is_not_a_nonnegative_integer(
            self, seed):
        model = uniform_model(cs_of(schema_of(2, 2), [({0: 0}, 0.5)]))
        message = f"^seed must be a nonnegative integer, got {seed!r}$"
        with pytest.raises(ValidationError, match=message):
            metropolis_moments(model, sweeps=100, burn_in=10, seed=seed)
        with pytest.raises(ValidationError, match=message):
            fit_metropolis(model.constraints, seed=seed, iterations=2, sweeps=100, burn_in=10)

    def test_works_over_enumeration_cap(self):
        s = schema_of(2, 2, 2, 2)
        cs = ConstraintSet(
            s, (AtomicConstraint(Pattern.of({0: 0}), 0.5),), ()
        )
        model = MaxEntModel(cs, np.zeros(1), enum_cap=8)  # 16 cells, over cap
        with pytest.raises(CapacityError):
            model.probabilities()
        est = metropolis_moments(model, sweeps=50_000, burn_in=500, seed=2)
        assert abs(est[0] - 0.5) < 0.02

    def test_chain_on_a_2_30_cell_space(self):
        s = schema_of(*[2] * 30)
        attrs = range(0, 30, 3)
        model = MaxEntModel(cs_of(s, [({a: 0}, 0.5) for a in attrs]),
                            np.linspace(-1.0, 1.0, len(attrs)))
        est = metropolis_moments(model, sweeps=200_000, burn_in=1_000, seed=3)
        # attributes are independent under a unary model: P(a = 0) = e^lam / (e^lam + 1)
        exact = 1.0 / (1.0 + np.exp(-model.lam))
        assert np.abs(est - exact).max() < 0.05
        visits = _run_chain(model, 200_000, 1_000, 3)
        assert visits.total == 199_000
        assert visits.cells[-1] >= 2 ** 22
        assert np.array_equal(
            model.constraints.layout.sparse_masses(visits.cells, visits.counts, visits.total),
            est)

    def test_chain_runs_on_a_clique_over_the_cap(self):
        # full budgets on six binary attributes: one 64-cell clique, over a cap of 16
        pop = mixture_population(6, 3000, seed=11, max_categories=2)
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, _ = fit_hard(cs)
        capped = MaxEntModel(cs, model.lam, enum_cap=16)
        assert cs.layout.cliques.sizes == [64]
        with pytest.raises(CapacityError):
            capped.moments()
        assert [g.scope for g, _ in _chain_factors(capped)] == [g.scope for g in cs.layout.groups]
        est = metropolis_moments(capped, sweeps=200_000, burn_in=2_000, seed=4)
        assert np.abs(est - model_moments(model)).max() < 0.02

    @pytest.mark.parametrize("sizes, scopes, factors", [
        # every triple of four attributes: one clique
        ((3, 2, 3, 2), list(itertools.combinations(range(4), 3)), 1),
        # a 5-cycle: three cliques after min-fill's two chords
        ((3, 3, 3, 3, 3), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 3),
        # unary constraints alone: one clique per attribute
        ((2, 3, 4, 2), [(0,), (1,), (2,), (3,)], 4),
    ], ids=["one-clique", "multi-clique", "unary-only"])
    def test_chain_visits_the_per_scope_chains_cells(self, sizes, scopes, factors):
        s = schema_of(*sizes)
        patterns = [Pattern.of(dict(zip(scope, combo))) for scope in scopes
                    for combo in itertools.product(*(range(s.shape[a]) for a in scope))]
        cs = ConstraintSet(s, tuple(AtomicConstraint(p, 0.5) for p in patterns))
        model = MaxEntModel(cs, np.random.default_rng(7).normal(size=len(patterns)))
        assert len(_chain_factors(model)) == factors
        for seed in (1, 2, 3):
            visits = _run_chain(model, 20_000, 500, seed)
            cells, counts = np.unique(frozen_run_chain(model, 20_000, 500, seed),
                                      return_counts=True)
            assert np.array_equal(visits.cells, cells)
            assert np.array_equal(visits.counts, counts)

    @pytest.fixture(scope="class", params=[
        "one-clique", "multi-clique", "unary-only", "capped-six", "k40-mixture"])
    def chain_model(self, request):
        """Models whose chain is compared step for step with the frozen one."""
        scopes = {"one-clique": ((3, 2, 3, 2), itertools.combinations(range(4), 3)),
                  "multi-clique": ((3, 3, 3, 3, 3), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
                  "unary-only": ((2, 3, 4, 2), [(0,), (1,), (2,), (3,)])}
        if request.param in scopes:
            sizes, scope_list = scopes[request.param]
            s = schema_of(*sizes)
            patterns = [Pattern.of(dict(zip(scope, combo))) for scope in scope_list
                        for combo in itertools.product(*(range(s.shape[a]) for a in scope))]
            cs = ConstraintSet(s, tuple(AtomicConstraint(p, 0.5) for p in patterns))
            return MaxEntModel(cs, np.random.default_rng(7).normal(size=len(patterns)))
        if request.param == "capped-six":
            # group tables are the factors, so one attribute touches several
            pop = mixture_population(6, 3000, seed=11, max_categories=2)
            cs = extract_constraints(pop, ExtractionBudget.full())
            return MaxEntModel(cs, fit_hard(cs)[0].lam, enum_cap=16)
        pop = mixture_population(40, 4000, seed=1, max_categories=3)
        cs = extract_constraints(pop, ExtractionBudget(binary=ArityBudget(count=100),
                                                       ternary=ArityBudget(count=100)))
        assert len(cs.layout.cliques.sizes) == 27
        return fit_hard(cs)[0]

    @pytest.mark.parametrize("sweeps, burn_in", [
        (20_000, 500), (20_000, 19_999), (1, 0), (2, 0), (2, 1)])
    def test_chain_visits_the_frozen_clique_chains_cells(self, chain_model, sweeps, burn_in):
        for seed in (1, 2, 3):
            visits = _run_chain(chain_model, sweeps, burn_in, seed)
            frozen = frozen_clique_chain(chain_model, sweeps, burn_in, seed)
            assert np.array_equal(visits.cells, frozen.cells)
            assert np.array_equal(visits.counts, frozen.counts)
            assert visits.total == sweeps - burn_in

    def test_fit_metropolis_reduces_residual(self):
        s = schema_of(2, 2)
        cs = cs_of(s, [({0: 0}, 0.3), ({1: 0}, 0.8)])
        model, report = fit_metropolis(
            cs, seed=9, iterations=120, sweeps=3_000, burn_in=300, step=0.8
        )
        exact_residual = np.abs(model_moments(model) - cs.targets()).max()
        assert exact_residual < 0.05  # initial residual at lambda = 0 is 0.3
        assert report.iterations == 120
        # two unary cliques hold as many cells as the space: the one clique of both
        assert (report.cliques, report.largest_clique) == (1, 4)
