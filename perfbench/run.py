"""popmaxent's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {dense10,wide16,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; popmaxent is imported from its
``src/``.  Set-up (import plus input generation) runs three times.  Then
whole rounds of the workload run until ``--seconds`` have passed (at least
one round; three with ``--trace 1``).  The first round's outputs are checked
against independent computations, later rounds must reproduce them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics (medians over
traced rounds) and the tracing overhead against the untraced rounds after
the first, and writes the spans as JSONL
under ``perfbench/out/trace/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import workloads
from checks import CheckError
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# the fit span's self times must add up to its duration up to clock rounding
SPAN_SUM_TOL = 1e-6

UNITS = dict(setup_s="s", run_s="s", extract_s="s", fit_s="s", sample_s="s", rake_s="s",
             mcmc_sweeps_per_s="1/s", mre_maxent="ratio", mre_raking="ratio",
             peak_rss_mb="MB")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_popmaxent():
    if not os.path.isfile(os.path.join(SRC, "popmaxent", "__init__.py")):
        sys.exit(f"error: no popmaxent sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import popmaxent
    import popmaxent.artifacts  # noqa: F401 - the workloads reach it as pm.artifacts
    import popmaxent.cli  # noqa: F401
    return popmaxent


def main(argv=None) -> int:
    args = parse_args(argv)
    pm = import_popmaxent()
    from layers import targets, units  # wraps popmaxent, so imported after it

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    work = workloads.WORKLOADS[args.workload](pm, args.workload, args.seed, out_dir)

    setups = []
    for _ in range(workloads.SETUP_REPEATS):
        imported = workloads.import_seconds(SRC)
        t0 = time.perf_counter()
        work.build_inputs()
        setups.append(imported + time.perf_counter() - t0)

    rec = workloads.Recorder()
    correct = True
    plain_rounds, traced = [], []   # (busy seconds, tracer or None)
    plain_fits = []                 # fit times of the untraced rounds
    first = None
    start = time.perf_counter()
    index = 0
    while True:
        tracer = Tracer() if args.trace and index % 2 == 1 else None
        rec.tracer = tracer
        busy0, fits0 = rec.busy, len(rec.times["fit"])
        try:
            if tracer is None:
                result = work.round(rec)
            else:
                with tracer.installed(targets()):
                    result = work.round(rec)
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
            break
        except workloads.OperationFailed:
            traceback.print_exc()
            break
        first = first or result
        # a traced run compares traced rounds with untraced rounds after the
        # first, which also pays for lazy imports and cold file caches
        if tracer is not None:
            traced.append((rec.busy - busy0, tracer))
        elif not args.trace or index > 0:
            plain_rounds.append((rec.busy - busy0, tracer))
            plain_fits += rec.times["fit"][fits0:]
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and index >= (3 if args.trace else 1):
            break

    metrics = {}
    if first is None or (args.trace and not (traced and plain_rounds)):
        correct = False
    elif args.trace:
        try:
            metrics = trace_metrics(args, plain_rounds, plain_fits, traced)
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    else:
        metrics = dict(
            setup_s=workloads.median(setups),
            run_s=workloads.median([busy for busy, _ in plain_rounds]),
            **workloads.stage_metrics(rec, first),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    unit = {**UNITS, **units()}
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


def trace_metrics(args, plain_rounds, plain_fits, traced) -> dict:
    """Per-layer medians over traced rounds, the overhead, and the fit's accounting.

    Writes every traced round's spans and the metrics under ``out/trace/``.
    """
    from layers import layer_metrics
    median = workloads.median
    per_round = [layer_metrics(tracer) for _, tracer in traced]
    metrics = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    metrics["trace.overhead_s"] = (median([busy for busy, _ in traced])
                                   - median([busy for busy, _ in plain_rounds]))
    accounted = []
    for _, tracer in traced:
        own = tracer.self_times()
        for fit in (s for s in tracer.spans if s["name"] == "bench.fit"):
            total = sum(own[s["id"]] for s in tracer.subtree(fit["id"]))
            duration = fit["end"] - fit["start"]
            if abs(total - duration) > SPAN_SUM_TOL:
                raise CheckError(f"fit self times add to {total}, the span lasts {duration}")
            accounted.append(total)
    metrics["trace.fit_gap_s"] = median(accounted) - median(plain_fits)

    path = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}.jsonl")
    if os.path.exists(path):
        os.remove(path)
    for r, (_, tracer) in enumerate(traced):
        tracer.write_jsonl(path, {"workload": args.workload, "seed": args.seed, "round": r})
    with open(path[:-len(".jsonl")] + ".metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
