"""The benchmark's workloads: input generators and one round of each.

A run repeats whole rounds.  Every round does the same operations on the
same inputs, so the first round is checked against the independent
computations in :mod:`checks` and each later round must reproduce the
first round's outputs exactly.

``dense10`` and ``wide16`` call popmaxent's public functions; ``cli``
goes through ``popmaxent.cli.main`` on files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks

SAMPLE_N = 100_000          # individuals per max-ent draw on the grid workloads
SAMPLE_DRAWS = 8            # draws per round (sample_s is their median)
GRID_N = 100                # individuals per grid population (Criterion 9's N)
GRID_CELLS = 16             # grid seeds per round on the grid workloads
HALVES = 2                  # grid rounds extract and fit once per half
RAKE_PASSES = 100           # raking passes of every record-raking cell
SHORT_RAKE_PASSES = 3       # passes of the run checked one constraint at a time
# A chain's speed depends on where it wanders, so the chains have fixed
# seeds: every run makes the same moves on the same fitted model.
MCMC_SEEDS = tuple(range(901, 909))
MCMC_SWEEPS = 25_000        # per chain
MCMC_BURN_IN = 1_000
SETUP_REPEATS = 3

# Source populations are Criterion 9's skewed mixture of three product
# distributions, drawn from a fixed source seed that is part of the
# workload's definition: extraction and the fit then do the same work
# whatever --seed is, and --seed drives the draws made from the fitted
# problem (samples, grid cells and their raking pools).
MIXTURE_COMPONENTS = 3
MIXTURE_ALPHA = 1.2

# ``extracts`` per half: dense10's extraction takes a quarter of a second,
# too short for two timings to give a steady median
GRID_WORKLOADS = {
    "dense10": dict(sizes=(3, 3, 3, 3, 2, 2, 2, 2, 2, 2), records=2500,
                    budget=None, source_seed=303, extracts=3),
    "wide16": dict(sizes=(2,) * 16, records=4000, budget=(50, 50), source_seed=404,
                   extracts=1),
}

CLI_SIZES = (4, 4, 3, 3, 3, 2, 2, 2)
CLI_RAW_RECORDS = 132_000       # 87,973 survive the forbidden combinations
CLI_SOURCE_SEED = 808
CLI_BUDGET = (16, 24)           # --n2 and --n3 of the extract command
# category combinations no individual may have (attribute, category) pairs
CLI_FORBIDDEN = (((0, 3), (1, 0)), ((2, 2), (5, 1)))
CLI_SAMPLE_N = 1_000_000
CLI_RAKE_PASSES = 100
CLI_GRID_CELLS = 8
CLI_JOBS = 2
# total variation between 100 uniform-start raking passes and the fitted
# model; iterative proportional fitting converges to the max-ent fit, about
# 1/passes slowly with the planted zeros (measured 2.0e-3)
CLI_TV_BOUND = 5e-3


class OperationFailed(RuntimeError):
    """An operation raised or a command exited with a nonzero code."""


def mixture_rows(sizes, n, seed) -> np.ndarray:
    """(n, k) category indices: mixture weights, then records, from one generator."""
    rng = np.random.default_rng(seed)
    probs = [[rng.dirichlet(np.full(d, MIXTURE_ALPHA)) for d in sizes]
             for _ in range(MIXTURE_COMPONENTS)]
    which = rng.integers(0, MIXTURE_COMPONENTS, size=n)
    rows = np.empty((n, len(sizes)), dtype=np.int64)
    for c in range(MIXTURE_COMPONENTS):
        idx = np.flatnonzero(which == c)
        for a, d in enumerate(sizes):
            rows[idx, a] = rng.choice(d, size=idx.size, p=probs[c][a])
    return rows


def cli_rows() -> np.ndarray:
    rows = mixture_rows(CLI_SIZES, CLI_RAW_RECORDS, CLI_SOURCE_SEED)
    forbidden = np.zeros(len(rows), dtype=bool)
    for combo in CLI_FORBIDDEN:
        hit = np.ones(len(rows), dtype=bool)
        for a, v in combo:
            hit &= rows[:, a] == v
        forbidden |= hit
    return rows[~forbidden]


def population_of(pm, sizes, rows):
    schema = pm.AttributeSchema.from_domains(
        (f"A{i}", tuple(f"c{j}" for j in range(d))) for i, d in enumerate(sizes))
    cells, counts = np.unique(np.ravel_multi_index(tuple(rows.T), schema.shape),
                              return_counts=True)
    return pm.Population(schema, cells, counts)


def write_source_csv(path, rows) -> None:
    """One line per individual, labels ``v<category>``."""
    lines = [",".join(f"A{a}" for a in range(rows.shape[1]))]
    lines += [",".join(f"v{v}" for v in row) for row in rows.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def import_seconds(src: str) -> float:
    """Time to import popmaxent in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import popmaxent; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.strip())


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Recorder:
    """Runs and times the operations of a round; counts attempts and failures.

    With a tracer, each operation is also a ``bench.<name>`` span.
    """

    tracer: object = None
    attempted: int = 0
    failed: int = 0
    times: dict = field(default_factory=lambda: defaultdict(list))
    busy: float = 0.0

    def __call__(self, name, fn, *args, **kwargs):
        self.attempted += 1
        span = (self.tracer.span(f"bench.{name}") if self.tracer is not None
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{name}: {exc!r}") from exc
        dt = time.perf_counter() - t0
        self.busy += dt
        self.times[name].append(dt)
        return out

    def cli(self, name, argv):
        from popmaxent import cli
        buf = io.StringIO()

        def run():
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                return cli.main([str(a) for a in argv])

        rc = self(name, run)
        if rc != 0:
            self.failed += 1
            raise OperationFailed(f"popmaxent {argv[0]} exited {rc}: {buf.getvalue()}")


# -- grid workloads (dense10, wide16) -------------------------------------------------


class GridWorkload:
    def __init__(self, pm, name, seed, out_dir):
        spec = GRID_WORKLOADS[name]
        self.pm = pm
        self.sizes = spec["sizes"]
        self.records = spec["records"]
        self.source_seed = spec["source_seed"]
        self.extracts = spec["extracts"]
        self.pair_budget = spec["budget"][0] if spec["budget"] else None
        self.seed = seed
        self.out = out_dir
        self.grid_seeds = [seed * 1000 + i for i in range(1, GRID_CELLS + 1)]
        self.sample_seeds = [seed * 1000 + 500 + i for i in range(SAMPLE_DRAWS)]
        self.first = None

    def build_inputs(self):
        pm = self.pm
        self.rows = mixture_rows(self.sizes, self.records, self.source_seed)
        self.pop = population_of(pm, self.sizes, self.rows)
        self.budget = extraction_budget(pm, self.pair_budget)

    def raking_cell(self, cs, seed):
        """One record-raking cell as ``run_benchmark`` runs it."""
        pm = self.pm
        (pool_seed,) = np.random.SeedSequence(seed).spawn(1)
        pool = pm.raking.unary_pool(cs, GRID_N, pool_seed)
        carried = pm.raking.pool_constraints(cs, pool)
        weights = pm.rake(carried, RAKE_PASSES, base=pool)
        return pool, carried, weights, pm.sample_weighted(weights, GRID_N, seed)

    def round(self, rec: Recorder) -> dict:
        pm = self.pm
        problem = os.path.join(self.out, "problem.json")
        model_path = os.path.join(self.out, "model.json")
        sample_csv = os.path.join(self.out, "sample.csv")
        eval_json = os.path.join(self.out, "eval.json")

        # Repeated operations are spread over the round, so that a slow
        # moment of the machine does not hit all of them.
        cells = GRID_CELLS // HALVES
        sample_at = evenly(SAMPLE_DRAWS // HALVES, cells)
        chain_at = evenly(len(MCMC_SEEDS) // HALVES, cells)
        samples, maxent_cells, raking_cells, est = [], [], [], []
        extracted, fitted = [], []
        for half in range(HALVES):
            for _ in range(self.extracts):
                cs = rec("extract", pm.extract_constraints, self.pop, self.budget)
                extracted.append(cs.targets())
            model, report = rec("fit", pm.fit_hard, cs, tol=checks.FIT_TOL)
            fitted.append(model.lam)
            for i, g in enumerate(self.grid_seeds[half * cells:(half + 1) * cells]):
                synth = rec("grid_maxent", pm.sample_population, model, GRID_N, g)
                maxent_cells.append((synth, rec("mre", pm.mre, synth, cs)))
                cell = rec("rake", self.raking_cell, cs, g)
                raking_cells.append((*cell, rec("mre", pm.mre, cell[3], cs)))
                if i in sample_at:
                    samples.append(rec("sample", pm.sample_population, model, SAMPLE_N,
                                       self.sample_seeds[len(samples)]))
                if i in chain_at:
                    est.append(rec("mcmc", pm.metropolis_moments, model, MCMC_SWEEPS,
                                   MCMC_BURN_IN, MCMC_SEEDS[len(est)]))
        if not all(np.array_equal(a, group[0]) for group in (extracted, fitted) for a in group):
            raise checks.CheckError("a repeated extraction or fit gave other outputs")
        # the same outputs through the artifacts and the command line
        rec("save", pm.artifacts.save_constraints, cs, problem)
        rec("save", pm.artifacts.save_model, model, model_path, report)
        reloaded, _ = rec("load", pm.artifacts.load_model, model_path)
        rec("write_population", pm.write_population, samples[0], sample_csv)
        rec.cli("cli_eval", ["eval", sample_csv, "--constraints", problem, "--out", eval_json])
        bench_dir = os.path.join(self.out, "bench")
        rec.cli("cli_benchmark", [
            "benchmark", "--problems", problem, "--methods", "raking", "--sizes", GRID_N,
            "--seeds", self.grid_seeds[0], "--rake-iterations", RAKE_PASSES,
            "--jobs", 1, "--out-dir", bench_dir])

        out = dict(
            lam=model.lam.copy(), targets=cs.targets(),
            samples=[(s.cells.copy(), s.counts.copy()) for s in samples],
            mre_maxent=[r.mre for _, r in maxent_cells],
            mre_raking=[c[4].mre for c in raking_cells],
            est=np.array(est), eval_digest=digest(eval_json),
        )
        if self.first is None:
            self.check(cs, model, samples, maxent_cells, raking_cells, est, reloaded,
                       sample_csv, eval_json, bench_dir)
            self.first = out
        else:
            same_outputs(self.first, out)
        return out

    def check(self, cs, model, samples, maxent_cells, raking_cells, est, reloaded,
              sample_csv, eval_json, bench_dir):
        pm = self.pm
        sizes = self.sizes
        cons = [(c.pattern.fixed, c.target) for c in cs.constraints]
        targets = cs.targets()
        checks.check_targets(self.rows, sizes, cons)
        if self.pair_budget is not None:
            pairs = [s.attrs for s in cs.scopes if len(s.attrs) == 2]
            checks.check_top_pairs(self.rows, sizes, pairs, self.pair_budget)
        mom = checks.check_fit(sizes, cons, model.lam)
        for s in samples:
            checks.check_binomial(checks.cell_frequencies(s.cells, s.counts, sizes, cons),
                                  mom, SAMPLE_N)
        for synth, result in maxent_cells:
            freqs = checks.cell_frequencies(synth.cells, synth.counts, sizes, cons)
            checks.check_mre(result.mre, checks.mre_of(freqs, targets))
        for pool, carried, weights, synth, result in raking_cells:
            freqs = checks.cell_frequencies(synth.cells, synth.counts, sizes, cons)
            checks.check_mre(result.mre, checks.mre_of(freqs, targets))
            checks.check_raked(weights.weights, pool.cells)
            last = carried.constraints[-1]
            checks.check_last_at_target(weights.weights, sizes,
                                        (last.pattern.fixed, last.target))
        pool, carried = raking_cells[0][0], raking_cells[0][1]
        short = pm.rake(carried, SHORT_RAKE_PASSES, base=pool)
        carried_cons = [(c.pattern.fixed, c.target) for c in carried.constraints]
        checks.check_short_rake(
            short.weights[pool.cells],
            checks.reference_rake(pool.cells, pool.counts, sizes, carried_cons,
                                  SHORT_RAKE_PASSES))
        checks.check_mcmc(np.mean(est, axis=0), mom, len(sizes),
                          len(est) * (MCMC_SWEEPS - MCMC_BURN_IN))
        if not np.array_equal(reloaded.lam, model.lam):
            raise checks.CheckError("artifacts: reloaded multipliers differ")
        names, domains, _ = checks.read_problem(os.path.join(self.out, "problem.json"))
        cells, counts = checks.read_counted_csv(sample_csv, names, domains)
        if not (np.array_equal(cells, samples[0].cells)
                and np.array_equal(counts, samples[0].counts)):
            raise checks.CheckError("population file differs from the sample written")
        freqs = checks.cell_frequencies(cells, counts, sizes, cons)
        checks.check_mre(checks.read_mre(eval_json), checks.mre_of(freqs, targets))
        rows = read_results(os.path.join(bench_dir, "results.csv"))
        if len(rows) != 1 or not math.isclose(float(rows[0]["mre"]), raking_cells[0][4].mre,
                                              rel_tol=1e-9):
            raise checks.CheckError(f"benchmark command raking row {rows} differs from "
                                    f"the raking cell's mre {raking_cells[0][4].mre!r}")


def extraction_budget(pm, pair_budget):
    """Full budgets, or the same count of pairs and of triples."""
    if pair_budget is None:
        return pm.ExtractionBudget.full()
    return pm.ExtractionBudget(binary=pm.ArityBudget(count=pair_budget),
                               ternary=pm.ArityBudget(count=pair_budget))


# -- cli ----------------------------------------------------------------------------


class CliWorkload:
    def __init__(self, pm, name, seed, out_dir):
        self.pm = pm
        self.seed = seed
        self.out = out_dir
        self.src = os.path.join(out_dir, "source.csv")
        self.grid_seeds = [seed * 1000 + i for i in range(1, CLI_GRID_CELLS + 1)]
        self.sample_seed = seed * 1000 + 500
        self.first = None

    def build_inputs(self):
        self.rows = cli_rows()
        write_source_csv(self.src, self.rows)

    def path(self, name):
        return os.path.join(self.out, name)

    def round(self, rec: Recorder) -> dict:
        p = self.path
        est = []

        def chain(model):
            est.append(rec("mcmc", self.pm.metropolis_moments, model, MCMC_SWEEPS,
                           MCMC_BURN_IN, MCMC_SEEDS[len(est)]))

        def sample(name):
            rec.cli("sample", ["sample", p("model.json"), "-n", CLI_SAMPLE_N,
                               "--seed", self.sample_seed, "--out", p(name)])

        def rake(name):
            rec.cli("rake", ["rake", p("problem.json"), "--out", p(name),
                             "--iters", CLI_RAKE_PASSES])

        # two halves, each extracting and fitting once; repeated operations
        # are spread over the round (see GridWorkload.round)
        cells = len(self.grid_seeds) // 2
        fitted = []
        for half in range(2):
            rec.cli("extract", ["extract", self.src, "--out", p("problem.json"),
                                "--n2", CLI_BUDGET[0], "--n3", CLI_BUDGET[1]])
            rec.cli("fit", ["fit", p("problem.json"), "--out", p("model.json")])
            fitted.append((digest(p("problem.json")), digest(p("model.json"))))
            model, _ = rec("load", self.pm.artifacts.load_model, p("model.json"))
            sample(f"pop_{half}a.csv")
            chain(model)
            rake(f"weights_{half}a.json")
            chain(model)
            for g in self.grid_seeds[half * cells:(half + 1) * cells]:
                rec.cli("grid_maxent", ["sample", p("model.json"), "-n", GRID_N,
                                        "--seed", g, "--out", p(f"grid_{g}.csv")])
            chain(model)
            if half == 0:
                rec.cli("eval", ["eval", p("pop_0a.csv"), "--constraints", p("problem.json"),
                                 "--out", p("eval.json")])
                rec.cli("benchmark", [
                    "benchmark", "--problems", p("problem.json"), "--methods", "raking",
                    "--sizes", GRID_N, "--seeds", ",".join(map(str, self.grid_seeds)),
                    "--rake-iterations", RAKE_PASSES, "--jobs", CLI_JOBS,
                    "--out-dir", p("bench")])
            sample(f"pop_{half}b.csv")
            rake(f"weights_{half}b.json")
            chain(model)
        if fitted[1] != fitted[0]:
            raise checks.CheckError("a repeated extract or fit wrote other bytes")

        # results.csv is left out: its rows carry wall times
        files = ["problem.json", "model.json", "eval.json"] + [
            f"{kind}_{half}{copy}.{ext}" for kind, ext in (("pop", "csv"), ("weights", "json"))
            for half in range(2) for copy in "ab"] + [f"grid_{g}.csv" for g in self.grid_seeds]
        out = dict(digests={f: digest(p(f)) for f in files}, est=np.array(est),
                   bench_mre=[r["mre"] for r in read_results(p("bench/results.csv"))])
        if self.first is None:
            out.update(self.check(out))
            self.first = out
        else:
            out.update({k: self.first[k] for k in ("mre_maxent", "mre_raking")})
            same_outputs(self.first, out)
        return out

    def check(self, out) -> dict:
        p = self.path
        est = out["est"]
        names, domains, cons = checks.read_problem(p("problem.json"))
        sizes = [len(d) for d in domains]
        targets = np.array([t for _, t in cons])
        # the generator's category v<i> sits where the command's ingest put it
        position = [np.array([d.index(f"v{i}") for i in range(len(d))]) for d in domains]
        rows = np.stack([position[a][self.rows[:, a]] for a in range(len(sizes))], axis=1)
        checks.check_targets(rows, sizes, cons)
        scopes = {tuple(a for a, _ in fixed) for fixed, _ in cons}
        if not any(all(a in scope for a, _ in combo) for combo in CLI_FORBIDDEN
                   for scope in scopes):
            raise checks.CheckError("no retained marginal covers a planted structural zero")
        lam = checks.read_lambda(p("model.json"))
        probs = checks.model_probabilities(sizes, cons, lam)
        mom = checks.moments(probs, sizes, cons)
        checks.check_fit(sizes, cons, lam)
        for kind in ("pop", "weights"):
            copies = {v for f, v in out["digests"].items() if f.startswith(kind + "_")}
            if len(copies) != 1:
                raise checks.CheckError(f"identical invocations wrote {kind} files "
                                        "with different bytes")
        cells, counts = checks.read_counted_csv(p("pop_0a.csv"), names, domains)
        freqs = checks.cell_frequencies(cells, counts, sizes, cons)
        checks.check_binomial(freqs, mom, CLI_SAMPLE_N)
        checks.check_mre(checks.read_mre(p("eval.json")), checks.mre_of(freqs, targets))
        weights = checks.read_weights(p("weights_0a.json"))
        checks.check_raked(weights, np.arange(weights.size))
        checks.check_tv(weights, probs, CLI_TV_BOUND)
        rows_out = read_results(p("bench/results.csv"))
        with open(p("bench/summary.csv"), encoding="utf-8") as fh:
            failures = "FAILURE" in fh.read()
        if (len(rows_out) != CLI_GRID_CELLS or failures
                or any(r["method"] != "raking" for r in rows_out)):
            raise checks.CheckError(f"benchmark command wrote {len(rows_out)} rows or failures")
        grid_maxent = []
        for g in self.grid_seeds:
            c, n = checks.read_counted_csv(p(f"grid_{g}.csv"), names, domains)
            if n.sum() != GRID_N:
                raise checks.CheckError(f"grid population of {n.sum()} individuals")
            grid_maxent.append(checks.mre_of(checks.cell_frequencies(c, n, sizes, cons), targets))
        checks.check_mcmc(np.mean(est, axis=0), mom, len(sizes),
                          len(est) * (MCMC_SWEEPS - MCMC_BURN_IN))
        return dict(mre_maxent=float(np.mean(grid_maxent)),
                    mre_raking=float(np.mean([float(r["mre"]) for r in rows_out])))


# -- helpers --------------------------------------------------------------------------


def evenly(count: int, slots: int) -> set[int]:
    """``count`` slot indices spread evenly over ``range(slots)``."""
    return {k * slots // count for k in range(count)}


def median(values) -> float:
    return float(np.median(values))


def stage_metrics(rec: Recorder, first: dict) -> dict:
    """End-to-end stage metrics: medians over the operations of every round."""
    return dict(
        extract_s=median(rec.times["extract"]),
        fit_s=median(rec.times["fit"]),
        sample_s=median(rec.times["sample"]),
        rake_s=median(rec.times["rake"]),
        mcmc_sweeps_per_s=MCMC_SWEEPS / median(rec.times["mcmc"]),
        mre_maxent=float(np.mean(first["mre_maxent"])),
        mre_raking=float(np.mean(first["mre_raking"])),
    )


def read_results(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def same_outputs(first: dict, later: dict) -> None:
    for key, value in first.items():
        other = later[key]
        if key == "samples":
            same = all(np.array_equal(a, c) and np.array_equal(b, d)
                       for (a, b), (c, d) in zip(value, other))
        elif isinstance(value, np.ndarray):
            same = np.array_equal(value, other)
        else:
            same = value == other
        if not same:
            raise checks.CheckError(f"a later round's {key} differs from the first round's")


WORKLOADS = {"dense10": GridWorkload, "wide16": GridWorkload, "cli": CliWorkload}
