"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with  python3 -m pytest tests/test_acceptance.py -v -s  to see the
per-criterion lines.  Criterion 10 is skipped unless the environment
points at a local NPORS 2024 file (POPMAXENT_NPORS_FILE) and a
comma-separated 4-variable selection (POPMAXENT_NPORS_VARS).
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

import popmaxent as pm
from popmaxent import (
    ArityBudget,
    AttributeSchema,
    BenchmarkGrid,
    BenchmarkProblem,
    ConstraintSet,
    ExtractionBudget,
    MaxEntModel,
    Pattern,
    Population,
    SoftFitConfig,
)
from popmaxent.extraction import AtomicConstraint
from popmaxent.synthetic import mixture_population

from oracles import (
    central_difference_gradient,
    naive_nmi,
    naive_triple_score,
    product_distribution,
)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def schema_of(*sizes):
    return AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes)
    )


def cs_of(schema, items):
    return ConstraintSet(
        schema, tuple(AtomicConstraint(Pattern.of(f), t) for f, t in items)
    )


def mixture_rows(sizes, n, seed, comps=3, alpha=1.2):
    """Skewed mixture of product components over fixed domain sizes."""
    rng = np.random.default_rng(seed)
    k = len(sizes)
    schema = schema_of(*sizes)
    probs = [[rng.dirichlet(np.full(d, alpha)) for d in sizes] for _ in range(comps)]
    which = rng.integers(0, comps, size=n)
    rows = np.empty((n, k), dtype=np.int64)
    for c in range(comps):
        idx = np.flatnonzero(which == c)
        for a, d in enumerate(sizes):
            rows[idx, a] = rng.choice(d, size=idx.size, p=probs[c][a])
    codes = np.ravel_multi_index(tuple(rows.T), schema.shape)
    counts = np.bincount(codes, minlength=schema.n_cells)
    cells = np.flatnonzero(counts)
    return Population(schema, cells.astype(np.int64), counts[cells].astype(np.int64))


def test_criterion_1_gradient_fidelity():
    """Analytic dual gradient vs central finite differences (step 1e-5),
    20 random (schema, constraints, lambda) triples with at most 4096 cells."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        k = int(rng.integers(2, 6))
        sizes = rng.integers(2, 5, size=k)
        while int(np.prod(sizes)) > 4096:
            sizes = rng.integers(2, 5, size=k)
        schema = schema_of(*sizes)
        m = int(rng.integers(2, 9))
        items = []
        for _ in range(m):
            arity = int(rng.integers(1, min(3, k) + 1))
            attrs = sorted(rng.choice(k, size=arity, replace=False).tolist())
            fixed = {a: int(rng.integers(0, sizes[a])) for a in attrs}
            items.append((fixed, float(rng.uniform(0.05, 0.95))))
        cs = cs_of(schema, items)
        lam = rng.normal(scale=1.5, size=m)

        def value_at(x):
            return MaxEntModel(cs, x).dual_objective()[0]

        _, grad = MaxEntModel(cs, lam).dual_objective()
        fd = central_difference_gradient(value_at, lam, step=1e-5)
        rel = np.abs(grad - fd) / np.maximum(np.abs(grad), 1e-8)
        worst = max(worst, float(rel.max()))
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-4 and elapsed < 30,
           f"20 random triples, worst relative gradient error {worst:.2e}, "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_2_hard_fit_feasibility():
    """Ten random synthetic populations (K in 3..6, domains 2-4), full
    budgets, hard fit residual <= 1e-6 within 5000 iterations."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        k = int(rng.integers(3, 7))
        pop = mixture_population(k, 1200, seed=2000 + seed,
                                 min_categories=2, max_categories=4)
        cs = pm.extract_constraints(pop, ExtractionBudget.full())
        model, rep = pm.fit_hard(cs)
        worst = max(worst, rep.residual)
        assert rep.converged and rep.iterations <= 5000, (
            f"seed {seed}: residual {rep.residual:.2e} after {rep.iterations} iters"
        )
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-6 and elapsed < 60,
           f"10 populations fit, worst residual {worst:.2e} (<= 1e-6), "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_3_unary_degeneracy_shared_oracle():
    """Unary-only fit equals the product of target marginals within TV 1e-8,
    raking's fixed point within 1e-6 of the same oracle."""
    rng = np.random.default_rng(3001)
    s = schema_of(3, 2, 4)
    unary = {}
    items = []
    for a, d in enumerate(s.shape):
        probs = rng.dirichlet(np.full(d, 4.0))
        unary[a] = {v: float(probs[v]) for v in range(d)}
        items += [({a: v}, float(probs[v])) for v in range(d)]
    cs = cs_of(s, items)
    oracle = product_distribution(s, unary)

    model, rep = pm.fit_hard(cs, tol=1e-10)
    tv_fit = 0.5 * float(np.abs(model.probabilities() - oracle).sum())
    weights = pm.rake(cs, iterations=1000)
    tv_rake = 0.5 * float(np.abs(weights.weights - oracle).sum())
    report(3, tv_fit < 1e-8 and tv_rake < 1e-6,
           f"product-of-marginals oracle: maxent TV {tv_fit:.2e} (< 1e-8), "
           f"raking TV {tv_rake:.2e} (< 1e-6)")


def test_criterion_4_ipf_correctness():
    """IPF projections match pairwise targets within 1e-8; the XOR triple
    has KL(observed || IPF reference) = log 2 within 1e-6."""
    worst_proj = 0.0
    for seed in range(4):
        pop = mixture_population(3, 700, seed=4000 + seed)
        scopes = [(0, 1), (0, 2), (1, 2)]
        pairs = [pm.marginal(pop, sc) for sc in scopes]
        joint = pm.ipf_fit(pop.schema, (0, 1, 2), pairs)
        for ax, mt in zip((2, 1, 0), pairs):
            err = float(np.abs(joint.sum(axis=ax) - mt.to_dense(pop.schema)).max())
            worst_proj = max(worst_proj, err)

    xor_pop = Population.from_assignments(
        schema_of(2, 2, 2), [(a, b, a ^ b) for a in range(2) for b in range(2)]
    )
    observed = pm.marginal(xor_pop, (0, 1, 2)).to_dense(xor_pop.schema)
    pairs = [pm.marginal(xor_pop, sc) for sc in [(0, 1), (0, 2), (1, 2)]]
    reference = pm.ipf_fit(xor_pop.schema, (0, 1, 2), pairs)
    kl = pm.kl_divergence(observed, reference)
    report(4, worst_proj < 1e-8 and abs(kl - math.log(2)) < 1e-6,
           f"worst pairwise projection error {worst_proj:.2e} (< 1e-8), "
           f"XOR KL {kl:.8f} vs log 2 = {math.log(2):.8f}")


def test_criterion_5_extraction_ranking_with_oracle():
    """Planted strongly-dependent pair ranks first among pairs, planted XOR
    triple first among triples, against brute-force oracle scoring."""
    rng = np.random.default_rng(5001)
    n = 6000
    a0 = rng.integers(0, 2, n)
    a1 = rng.integers(0, 2, n)
    a2 = (a0 ^ a1) ^ (rng.random(n) < 0.02)
    a3 = rng.integers(0, 2, n)
    a4 = a3 ^ (rng.random(n) < 0.05)
    rows = [tuple(map(int, r)) for r in np.stack([a0, a1, a2, a3, a4], axis=1)]
    pop = Population.from_assignments(schema_of(2, 2, 2, 2, 2), rows)

    budget = ExtractionBudget(binary=ArityBudget(count=1), ternary=ArityBudget(count=1))
    cs = pm.extract_constraints(pop, budget)
    got_pair = [s.attrs for s in cs.scopes if s.arity == 2]
    got_triple = [s.attrs for s in cs.scopes if s.arity == 3]

    oracle_pair = max(
        itertools.combinations(range(5), 2), key=lambda p: naive_nmi(rows, *p)
    )
    oracle_triple = max(
        itertools.combinations(range(5), 3), key=lambda t: naive_triple_score(rows, t)
    )
    ok = (got_pair == [(3, 4)] == [oracle_pair]
          and got_triple == [(0, 1, 2)] == [oracle_triple])
    report(5, ok,
           f"phase 2 retained {got_pair[0]} (oracle {oracle_pair}), "
           f"phase 3 retained {got_triple[0]} (oracle {oracle_triple})")


def test_criterion_6_soft_mode_limit():
    """Soft fit: residual decreases monotonically over beta in {1e2, 1e4, 1e6}
    with residual <= 1e-3 at 1e6; inconsistent targets converge without error."""
    pop = mixture_population(4, 800, seed=6001)
    cs = pm.extract_constraints(pop, ExtractionBudget.full())
    residuals = []
    for beta in (1e2, 1e4, 1e6):
        _, rep = pm.fit_soft(cs, SoftFitConfig(beta=beta))
        assert rep.converged
        residuals.append(rep.residual)
    monotone = residuals[0] > residuals[1] > residuals[2]

    clash = cs_of(schema_of(2, 2), [({0: 0}, 0.3), ({0: 0}, 0.6)])
    _, clash_rep = pm.fit_soft(clash, SoftFitConfig(beta=1e4))
    report(6, monotone and residuals[2] <= 1e-3 and clash_rep.converged,
           f"residuals over beta ladder {['%.2e' % r for r in residuals]} "
           f"(monotone, last <= 1e-3); inconsistent pair converged="
           f"{clash_rep.converged}")


def test_criterion_7_sampling_concentration():
    """For a fixed fitted K=4 model, mean MRE over 10 seeds at N=100000 is
    at most one third of the mean at N=1000."""
    t0 = time.perf_counter()
    pop = mixture_population(4, 1500, seed=7001)
    cs = pm.extract_constraints(pop, ExtractionBudget.full())
    model, rep = pm.fit_hard(cs)
    assert rep.converged
    small = [pm.mre(pm.sample_population(model, 1_000, seed=s), cs).mre
             for s in range(10)]
    large = [pm.mre(pm.sample_population(model, 100_000, seed=s), cs).mre
             for s in range(10)]
    ratio = float(np.mean(large)) / float(np.mean(small))
    elapsed = time.perf_counter() - t0
    report(7, ratio <= 1 / 3 and elapsed < 120,
           f"mean MRE {np.mean(small):.4f} at N=1e3 vs {np.mean(large):.4f} at "
           f"N=1e5, ratio {ratio:.3f} (<= 0.333), {elapsed:.1f}s (< 120s)")


def test_criterion_8_metropolis_consistency():
    """Metropolis moment estimates at 1e6 sweeps within 0.01 of exact
    moments on a fitted K=4 model, for 3 seeds."""
    pop = mixture_population(4, 1000, seed=8001)
    cs = pm.extract_constraints(pop, ExtractionBudget.full())
    model, rep = pm.fit_hard(cs)
    assert rep.converged
    exact = pm.model_moments(model)
    devs = []
    for seed in (1, 2, 3):
        est = pm.metropolis_moments(model, sweeps=1_000_000, burn_in=10_000, seed=seed)
        devs.append(float(np.abs(est - exact).max()))
    report(8, max(devs) < 0.01,
           f"max |MCMC - exact| over 3 seeds: {['%.4f' % d for d in devs]} (< 0.01)")


@pytest.mark.slow
def test_criterion_9_benchmark_trend():
    """Table-3 trend at desk scale: maxent beats raking at N=100 on a dense-
    ternary 12-attribute problem in >= 8 of 10 seeds, advantage widening on
    a 20-attribute problem."""
    pop12 = mixture_rows([3, 3, 3, 3] + [2] * 8, 2500, seed=303)
    cs12 = pm.extract_constraints(pop12, ExtractionBudget.full())
    pop20 = mixture_rows([2] * 20, 4000, seed=404)
    cs20 = pm.extract_constraints(
        pop20,
        ExtractionBudget(binary=ArityBudget(count=50), ternary=ArityBudget(count=50)),
    )
    grid = BenchmarkGrid(
        problems=(BenchmarkProblem("dense12", cs12), BenchmarkProblem("capped20", cs20)),
        sizes=(100,),
        seeds=tuple(range(1, 11)),
        rake_tol=1e-12,  # early stop only at the fixed point; output unchanged
        jobs=2,
    )
    rep = pm.run_benchmark(grid)
    assert not rep.failures, rep.failures

    by = {}
    for row in rep.rows:
        by.setdefault((row.problem, row.seed), {})[row.method] = row.mre
    wins12 = sum(by[("dense12", s)]["maxent"] < by[("dense12", s)]["raking"]
                 for s in range(1, 11))
    means = {s.problem: s.mean_mre for s in rep.summaries}
    gap12 = (means["dense12"]["raking"] - means["dense12"]["maxent"]) / means["dense12"]["raking"]
    gap20 = (means["capped20"]["raking"] - means["capped20"]["maxent"]) / means["capped20"]["raking"]
    detail = (
        f"12-var maxent wins {wins12}/10 at N=100 "
        f"(mean MRE maxent {means['dense12']['maxent']:.3f} vs raking "
        f"{means['dense12']['raking']:.3f}, gap {gap12:+.1%}); "
        f"20-var gap {gap20:+.1%} (must widen)"
    )
    report(9, wins12 >= 8 and gap20 > gap12, detail)


NPORS_FILE = os.environ.get("POPMAXENT_NPORS_FILE")
NPORS_VARS = os.environ.get("POPMAXENT_NPORS_VARS")


@pytest.mark.skipif(
    not (NPORS_FILE and NPORS_VARS and os.path.exists(NPORS_FILE)),
    reason="NPORS 2024 file not supplied (set POPMAXENT_NPORS_FILE and "
           "POPMAXENT_NPORS_VARS to run the published-accounting check)",
)
def test_criterion_10_npors_accounting():
    """With the published survey file and a 4-variable selection whose
    supports match, extraction reports 12 unary + 54 binary + 92 ternary
    = 158 atomic constraints."""
    import csv as _csv

    variables = [v.strip() for v in NPORS_VARS.split(",")]
    with open(NPORS_FILE, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        idx = [header.index(v) for v in variables]
        rows = [[row[i] for i in idx] for row in reader]
    text = ",".join(variables) + "\n" + "\n".join(",".join(r) for r in rows)
    pop = pm.read_population_text(text)
    cs = pm.extract_constraints(pop, ExtractionBudget.full())
    counts = pm.arity_counts(cs)
    ok = (counts.get(1) == 12 and counts.get(2) == 54 and counts.get(3) == 92
          and cs.m == 158)
    report(10, ok,
           f"published accounting 12/54/92/158, got "
           f"{counts.get(1)}/{counts.get(2)}/{counts.get(3)}/{cs.m}")
