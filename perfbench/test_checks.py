"""Each independent check passes on popmaxent's real output and fails on a
corrupted copy of it.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import popmaxent as pm  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import mixture_rows, population_of  # noqa: E402

SIZES = (3, 2, 2, 2, 2)


@pytest.fixture(scope="module")
def fitted():
    rows = mixture_rows(SIZES, 800, seed=12)
    pop = population_of(pm, SIZES, rows)
    cs = pm.extract_constraints(pop, pm.ExtractionBudget(
        binary=pm.ArityBudget(count=4), ternary=pm.ArityBudget(count=3)))
    model, report = pm.fit_hard(cs, tol=1e-9)
    cons = [(c.pattern.fixed, c.target) for c in cs.constraints]
    return rows, cs, cons, model


@pytest.fixture(scope="module")
def raked(fitted):
    _, cs, _, _ = fitted
    pool = pm.raking.unary_pool(cs, 60, 5)
    carried = pm.raking.pool_constraints(cs, pool)
    cons = [(c.pattern.fixed, c.target) for c in carried.constraints]
    return pool, carried, cons


def test_targets_fail_when_one_individual_moves(fitted):
    rows, _, cons, _ = fitted
    checks.check_targets(rows, SIZES, cons)
    moved = rows.copy()
    moved[0, 0] = (moved[0, 0] + 1) % SIZES[0]
    with pytest.raises(CheckError):
        checks.check_targets(moved, SIZES, cons)


def test_pair_ranking_fails_on_a_swapped_pair(fitted):
    rows, cs, _, _ = fitted
    kept = [s.attrs for s in cs.scopes if len(s.attrs) == 2]
    checks.check_top_pairs(rows, SIZES, kept, 4)
    dropped = next(p for p in [(i, j) for i in range(5) for j in range(i + 1, 5)]
                   if p not in kept)
    with pytest.raises(CheckError):
        checks.check_top_pairs(rows, SIZES, kept[1:] + [dropped], 4)


def test_fit_fails_on_a_perturbed_lambda(fitted):
    _, _, cons, model = fitted
    checks.check_fit(SIZES, cons, model.lam)
    lam = model.lam.copy()
    lam[len(lam) // 2] += 1e-3
    with pytest.raises(CheckError):
        checks.check_fit(SIZES, cons, lam)


def test_binomial_bound_fails_on_a_sample_of_another_model(fitted):
    _, cs, cons, model = fitted
    mom = checks.check_fit(SIZES, cons, model.lam)
    n = 100_000
    good = pm.sample_population(model, n, 3)
    checks.check_binomial(checks.cell_frequencies(good.cells, good.counts, SIZES, cons), mom, n)
    lam = model.lam.copy()
    lam[0] += 0.2
    bad = pm.sample_population(pm.MaxEntModel(cs, lam), n, 3)
    with pytest.raises(CheckError):
        checks.check_binomial(checks.cell_frequencies(bad.cells, bad.counts, SIZES, cons),
                              mom, n)


def test_mre_fails_off_by_1e9_or_on_a_moved_individual(fitted):
    _, cs, cons, model = fitted
    synth = pm.sample_population(model, 100, 4)
    reported = pm.mre(synth, cs).mre
    targets = cs.targets()
    freqs = checks.cell_frequencies(synth.cells, synth.counts, SIZES, cons)
    checks.check_mre(reported, checks.mre_of(freqs, targets))
    with pytest.raises(CheckError):
        checks.check_mre(reported + 1e-9, checks.mre_of(freqs, targets))
    counts = synth.counts.copy()
    counts[0] -= 1
    free = np.setdiff1d(np.arange(int(np.prod(SIZES))), synth.cells)[0]
    cells = np.append(synth.cells, free)
    counts = np.append(counts, 1)
    moved = checks.cell_frequencies(cells, counts, SIZES, cons)
    with pytest.raises(CheckError):
        checks.check_mre(reported, checks.mre_of(moved, targets))


def test_raked_weights_fail_with_weight_off_the_pool(raked):
    pool, carried, _ = raked
    w = pm.rake(carried, 20, base=pool).weights.copy()
    checks.check_raked(w, pool.cells)
    off = np.setdiff1d(np.arange(w.size), pool.cells)[0]
    w[off], w[pool.cells[0]] = w[pool.cells[0]], 0.0
    with pytest.raises(CheckError):
        checks.check_raked(w, pool.cells)


def test_short_rake_fails_on_a_nudged_weight(raked):
    pool, carried, cons = raked
    program = pm.rake(carried, 3, base=pool).weights[pool.cells]
    reference = checks.reference_rake(pool.cells, pool.counts, SIZES, cons, 3)
    checks.check_short_rake(program, reference)
    nudged = program.copy()
    nudged[0] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_short_rake(nudged, reference)


def test_last_constraint_fails_when_weights_are_shuffled(raked):
    pool, carried, cons = raked
    w = pm.rake(carried, 20, base=pool).weights.copy()
    checks.check_last_at_target(w, SIZES, cons[-1])
    w[pool.cells] = w[pool.cells][::-1]
    with pytest.raises(CheckError):
        checks.check_last_at_target(w, SIZES, cons[-1])


def test_mcmc_bound_fails_on_a_shifted_moment(fitted):
    _, _, cons, model = fitted
    mom = checks.check_fit(SIZES, cons, model.lam)
    est = pm.metropolis_moments(model, 50_000, 1_000, 6)
    checks.check_mcmc(est, mom, len(SIZES), 49_000)
    est = est.copy()
    est[1] += 0.1
    with pytest.raises(CheckError):
        checks.check_mcmc(est, mom, len(SIZES), 49_000)


def test_total_variation_fails_on_reordered_weights(fitted):
    _, cs, cons, model = fitted
    probs = checks.model_probabilities(SIZES, cons, model.lam)
    raked = pm.rake(cs, 300).weights
    checks.check_tv(raked, probs, 1e-3)
    with pytest.raises(CheckError):
        checks.check_tv(raked[::-1], probs, 1e-3)


def test_population_file_reads_back_the_written_sample(fitted):
    _, cs, cons, model = fitted
    synth = pm.sample_population(model, 500, 8)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "test_population.csv")
    pm.write_population(synth, path)
    names = list(cs.schema.names)
    domains = [list(cs.schema.domain(a)) for a in range(cs.schema.k)]
    cells, counts = checks.read_counted_csv(path, names, domains)
    assert np.array_equal(cells, synth.cells) and np.array_equal(counts, synth.counts)


def test_self_times_add_up_to_the_parent_span():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.002)
        with tracer.span("inner"):
            with tracer.span("inner"):
                time.sleep(0.002)
    own = tracer.self_times()
    (outer,) = [s for s in tracer.spans if s["name"] == "outer"]
    total = sum(own[s["id"]] for s in tracer.subtree(outer["id"]))
    assert abs(total - (outer["end"] - outer["start"])) < 1e-9
    assert tracer.calls("inner") == 2
    assert len(tracer.outermost(["inner"])) == 1
