"""Which popmaxent entry points the traced run wraps, and the per-layer
metrics read back from one traced round.

Layers are named by module; the metrics of ``_dense`` are named
``dense.*``, since a metric name starts with a letter.  ``LAYER_METRICS`` lists every per-layer
metric with its unit and better direction; ``BENCHMARK.json`` repeats it.
"""

from __future__ import annotations

import os

from popmaxent import _dense, artifacts, cli, core, evaluation, extraction, model, raking, sampling


def _count(key, value):
    def after(tracer, args, kwargs, out):
        tracer.add(key, value(args, out))
    return after


def _bytes_written(tracer, args, kwargs, out):
    tracer.add("artifacts.bytes_written", os.path.getsize(args[1]))


def targets():
    """``(owner, attribute, span name, after)`` for :meth:`Tracer.installed`."""
    saves = [(artifacts, name, "artifacts.save", None)
             for name in ("save_constraints", "save_model", "save_weights")]
    loads = [(artifacts, name, "artifacts.load", None)
             for name in ("load_constraints", "load_model", "load_weights", "load_json")]
    return [
        (_dense.ScopeLayout, "__init__", "_dense.layout_build",
         _count("_dense.scope_groups", lambda a, out: len(a[0].groups))),
        (_dense.ScopeLayout, "energies", "_dense.energies", None),
        (_dense.ScopeLayout, "masses", "_dense.masses", None),
        (_dense.ScopeLayout, "sparse_masses", "_dense.sparse_masses", None),
        (model, "fit_hard", "model.fit_hard",
         _count("model.fit_iterations", lambda a, out: out[1].iterations)),
        (model.MaxEntModel, "probabilities", "model.probabilities", None),
        (model, "metropolis_moments", "model.metropolis", None),
        (raking, "_rake", "raking.rake",
         _count("raking.carried_constraints", lambda a, out: a[0].m)),
        (raking, "unary_pool", "raking.unary_pool", None),
        (raking, "pool_constraints", "raking.pool_constraints", None),
        (sampling.AliasTable, "__init__", "sampling.alias_build",
         _count("sampling.alias_cells", lambda a, out: len(a[1]))),
        (sampling.AliasTable, "draw", "sampling.draw", None),
        (extraction, "extract_constraints", "extraction.extract", None),
        (extraction, "ipf_fit", "extraction.ipf_fit", None),
        (extraction, "nmi", "extraction.nmi", None),
        (core, "marginal", "core.marginal", None),
        (core, "read_population", "core.read_population", None),
        (core, "write_population", "core.write_population", None),
        (evaluation, "mre", "evaluation.mre", None),
        (evaluation, "run_benchmark", "evaluation.run_benchmark", None),
        *saves,
        (artifacts, "save_json", "artifacts.save", _bytes_written),
        *loads,
        (cli, "cmd_eval", "cli.eval", None),
        (cli, "cmd_benchmark", "cli.benchmark", None),
    ]


# name, unit, better, reader(tracer)
LAYER_METRICS = [
    ("dense.masses_calls", "count", "lower", lambda t: t.calls("_dense.masses")),
    ("dense.masses_s", "s", "lower", lambda t: t.seconds("_dense.masses")),
    ("dense.energies_calls", "count", "lower", lambda t: t.calls("_dense.energies")),
    ("dense.energies_s", "s", "lower", lambda t: t.seconds("_dense.energies")),
    ("dense.sparse_masses_s", "s", "lower", lambda t: t.seconds("_dense.sparse_masses")),
    ("dense.layout_builds", "count", "lower", lambda t: t.calls("_dense.layout_build")),
    ("dense.layout_build_s", "s", "lower", lambda t: t.seconds("_dense.layout_build")),
    ("dense.scope_groups", "count", "lower", lambda t: t.counts["_dense.scope_groups"]),
    ("model.fit_iterations", "count", "lower", lambda t: t.counts["model.fit_iterations"]),
    ("model.fit_self_s", "s", "lower", lambda t: t.self_seconds("model.fit_hard")),
    ("model.probabilities_s", "s", "lower", lambda t: t.seconds("model.probabilities")),
    ("model.metropolis_s", "s", "lower", lambda t: t.seconds("model.metropolis")),
    ("raking.rake_calls", "count", "lower", lambda t: t.calls("raking.rake")),
    ("raking.rake_s", "s", "lower", lambda t: t.seconds("raking.rake")),
    ("raking.unary_pool_s", "s", "lower", lambda t: t.seconds("raking.unary_pool")),
    ("raking.pool_constraints_s", "s", "lower", lambda t: t.seconds("raking.pool_constraints")),
    ("raking.carried_constraints", "count", "higher",
     lambda t: t.counts["raking.carried_constraints"]),
    ("sampling.alias_builds", "count", "lower", lambda t: t.calls("sampling.alias_build")),
    ("sampling.alias_cells", "count", "lower", lambda t: t.counts["sampling.alias_cells"]),
    ("sampling.alias_build_s", "s", "lower", lambda t: t.seconds("sampling.alias_build")),
    ("sampling.draw_s", "s", "lower", lambda t: t.seconds("sampling.draw")),
    ("extraction.ipf_fit_calls", "count", "lower", lambda t: t.calls("extraction.ipf_fit")),
    ("extraction.ipf_fit_s", "s", "lower", lambda t: t.seconds("extraction.ipf_fit")),
    ("extraction.nmi_calls", "count", "lower", lambda t: t.calls("extraction.nmi")),
    ("extraction.nmi_s", "s", "lower", lambda t: t.seconds("extraction.nmi")),
    ("extraction.self_s", "s", "lower", lambda t: t.self_seconds("extraction.extract")),
    ("core.marginal_calls", "count", "lower", lambda t: t.calls("core.marginal")),
    ("core.marginal_s", "s", "lower", lambda t: t.seconds("core.marginal")),
    ("core.read_population_s", "s", "lower", lambda t: t.seconds("core.read_population")),
    ("core.write_population_s", "s", "lower", lambda t: t.seconds("core.write_population")),
    ("evaluation.mre_calls", "count", "lower", lambda t: t.calls("evaluation.mre")),
    ("evaluation.mre_s", "s", "lower", lambda t: t.seconds("evaluation.mre")),
    ("evaluation.run_benchmark_s", "s", "lower", lambda t: t.seconds("evaluation.run_benchmark")),
    ("artifacts.save_s", "s", "lower", lambda t: t.seconds("artifacts.save")),
    ("artifacts.load_s", "s", "lower", lambda t: t.seconds("artifacts.load")),
    ("artifacts.bytes_written", "bytes", "lower", lambda t: t.counts["artifacts.bytes_written"]),
    ("cli.eval_s", "s", "lower", lambda t: t.seconds("cli.eval")),
    ("cli.benchmark_s", "s", "lower", lambda t: t.seconds("cli.benchmark")),
]

# measured by the traced run as a whole rather than read from one round's spans
TRACE_METRICS = [
    ("trace.overhead_s", "s", "lower"),
    ("trace.fit_gap_s", "s", "lower"),
]


def layer_metrics(tracer) -> dict[str, float]:
    return {name: float(read(tracer)) for name, _, _, read in LAYER_METRICS}


def units() -> dict[str, str]:
    out = {name: unit for name, unit, _, _ in LAYER_METRICS}
    out.update({name: unit for name, unit, _ in TRACE_METRICS})
    return out

