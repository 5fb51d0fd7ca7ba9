"""Command-line surface: extract, fit, sample, rake, eval, benchmark.

One binary with subcommands.  Each subcommand's parser is the one
declaration of its options, with their types and defaults.  Every command
but eval takes ``--config FILE``, a JSON object whose keys are the
command's optional flags that take a value, with ``_`` for ``-``
(``max_arity``, ``rake_iterations``); any other key exits 2.  The file's
values become the parser's defaults, so explicit flags win.  Every
randomized command requires an explicit --seed, and every output carries
a provenance header (tool version, input digests, every resolved option),
so identical invocations produce identical bytes.  Exit codes: 0 success,
2 validation error, 3 non-convergence, 4 capacity.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, artifacts
from ._dense import DEFAULT_ENUM_CAP
from .core import read_population, write_population
from .errors import CapacityError, ConvergenceError, ValidationError
from .evaluation import (
    BenchmarkGrid,
    BenchmarkProblem,
    mre,
    results_table,
    run_benchmark,
    summary_table,
)
from .extraction import ArityBudget, ExtractionBudget, arity_counts, extract_constraints
from .model import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    METROPOLIS_BURN_IN,
    METROPOLIS_ITERATIONS,
    METROPOLIS_SWEEPS,
    SoftFitConfig,
    fit_hard,
    fit_metropolis,
    fit_soft,
    sample_population,
)
from .raking import DEFAULT_RAKE_ITERATIONS, _rake, sample_weighted

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CAPACITY = 4


def _load_config(args, parser: argparse.ArgumentParser) -> None:
    """Make the values of ``args.config`` the defaults of the command's ``parser``.

    A key is one of the command's optional flags that takes a value; a
    value is checked against the flag's type, and null leaves the default.
    """
    try:
        doc = artifacts.load_json(args.config)
    except ValidationError as exc:
        raise ValidationError(f"config file {exc}") from None
    flags = {a.dest: a for a in parser._actions if a.option_strings and a.nargs != 0
             and not a.required and a.dest != "config"}
    unknown = sorted(set(doc) - set(flags))
    if unknown:
        raise ValidationError(f"popmaxent {args.command} does not read config key(s) "
                              f"{', '.join(map(repr, unknown))}")
    parser.set_defaults(**{name: _typed(name, value, flags[name].type)
                           for name, value in doc.items() if value is not None})


def _resolved(args, **summary) -> dict:
    """The provenance config: every resolved option of the command."""
    skip = ("func", "config", "out", "out_dir")
    return {k: v for k, v in vars(args).items() if k not in skip} | summary


def _typed(name: str, value, kind):
    """``value`` as ``kind`` (int, float, or str for a path; None takes any value).

    A ValidationError names option ``name``.
    """
    if kind is None:
        return value
    try:
        if isinstance(value, bool) or (kind is str and not isinstance(value, str)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        noun = {int: "an integer", float: "a number", str: "a file path string"}[kind]
        raise ValidationError(
            f"--{name.replace('_', '-')} needs {noun}, got {value!r}") from None


def _ints(name: str, value) -> tuple[int, ...]:
    """Comma-separated integers from a flag or config string, or a config list."""
    items = value if isinstance(value, list) else str(value).split(",")
    try:
        return tuple(_typed(name, v, int) for v in items)
    except ValidationError:
        raise ValidationError(
            f"--{name} needs comma-separated integers, got {value!r}") from None


def _names(name: str, value) -> tuple[str, ...]:
    """Comma-separated names from a flag or config string, or a config list of strings."""
    items = value.split(",") if isinstance(value, str) else value
    if not (isinstance(items, list) and items and all(isinstance(v, str) for v in items)):
        raise ValidationError(
            f"--{name} needs a comma-separated list or a JSON list of strings, got {value!r}")
    return tuple(items)


def _parse_budget(args, label: str) -> ArityBudget | None:
    count, rate = getattr(args, f"n{label}"), getattr(args, f"rho{label}")
    if count is not None and rate is not None:
        raise ValidationError(f"give at most one of --n{label} and --rho{label}")
    if count is not None:
        return ArityBudget(count=count)
    if rate is not None:
        return ArityBudget(rate=rate)
    return ArityBudget(rate=1.0)


def cmd_extract(args) -> int:
    if args.max_arity not in (1, 2, 3):
        raise ValidationError(f"--max-arity must be 1, 2, or 3, got {args.max_arity}")
    binary, ternary = _parse_budget(args, "2"), _parse_budget(args, "3")
    budget = ExtractionBudget(
        binary=binary if args.max_arity >= 2 else None,
        ternary=ternary if args.max_arity >= 3 else None,
    )

    pop = read_population(args.input)
    cs = extract_constraints(pop, budget)
    prov = artifacts.provenance({args.input: artifacts.digest_file(args.input)},
                                _resolved(args))
    artifacts.save_constraints(cs, args.out, prov)

    counts = arity_counts(cs)
    print(f"extracted constraint problem -> {args.out}")
    print(f"  attributes: {cs.schema.k}, source individuals: {pop.total}")
    print(f"  retained scopes: {len(cs.scopes)}")
    for arity, label in ((1, "unary"), (2, "binary"), (3, "ternary")):
        print(f"  {label:8s} atomic constraints: {counts.get(arity, 0)}")
    print(f"  total    atomic constraints: {cs.m}")
    return EXIT_OK


def cmd_fit(args) -> int:
    if args.iters is None:
        # the stochastic fit counts gradient steps, not dual iterations
        args.iters = METROPOLIS_ITERATIONS if args.metropolis else DEFAULT_MAX_ITER
    cs = artifacts.load_constraints(args.constraints)
    inputs = {args.constraints: artifacts.digest_file(args.constraints)}

    if cs.m == 0:
        print("warning: empty constraint set; fitting the uniform model", file=sys.stderr)

    if args.metropolis:
        if args.seed is None:
            raise ValidationError("--metropolis fitting requires --seed")
        model, report = fit_metropolis(
            cs, seed=args.seed, iterations=args.iters, sweeps=args.sweeps,
            burn_in=args.burn_in, tol=args.tol, enum_cap=args.enum_cap,
        )
    elif args.soft_beta is not None:
        wvec = None
        if args.weights:
            with open(args.weights, "r", encoding="utf-8") as fh:
                wvec = tuple(_typed("weights", line, float) for line in fh.read().split())
            inputs[args.weights] = artifacts.digest_file(args.weights)
        cfg = SoftFitConfig(beta=args.soft_beta, weights=wvec)
        model, report = fit_soft(cs, cfg, tol=args.tol, max_iter=args.iters,
                                 enum_cap=args.enum_cap)
    else:
        model, report = fit_hard(cs, tol=args.tol, max_iter=args.iters, enum_cap=args.enum_cap)

    artifacts.save_model(model, args.out, report, artifacts.provenance(inputs, _resolved(args)))
    print(f"fitted model -> {args.out}")
    print(f"  constraints: {cs.m}, iterations: {report.iterations}, "
          f"residual: {report.residual:.3e}, converged: {report.converged}, "
          f"wall: {report.seconds:.2f}s")
    print(f"  evaluations: {report.evaluations}, cliques: {report.cliques}, "
          f"largest clique: {report.largest_clique} cells")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_sample(args) -> int:
    if args.size < 1:
        raise ValidationError("--size must be a positive individual count")
    doc = artifacts.load_json(args.artifact)
    fmt = doc.get("format")
    if fmt == artifacts.FORMATS["model"]:
        pop = sample_population(artifacts.model_from_dict(doc)[0], args.size, args.seed)
    elif fmt == artifacts.FORMATS["weights"]:
        pop = sample_weighted(artifacts.weights_from_dict(doc), args.size, args.seed)
    else:
        raise ValidationError(
            f"{args.artifact}: expected a model or weights document, got {fmt!r}")
    comments = [
        f"popmaxent {__version__} population",
        f"input {args.artifact} {artifacts.digest_file(args.artifact)}",
        f"config {json.dumps(_resolved(args), sort_keys=True)}",
    ]
    write_population(pop, args.out, counted=True, header_comments=comments)
    print(f"sampled {args.size} individuals -> {args.out}")
    return EXIT_OK


def cmd_rake(args) -> int:
    cs = artifacts.load_constraints(args.constraints)
    inputs = {args.constraints: artifacts.digest_file(args.constraints)}

    base = None
    if args.base:
        base = read_population(args.base, schema=cs.schema)
        inputs[args.base] = artifacts.digest_file(args.base)

    wv, passes, max_dev = _rake(cs, args.iters, base, args.rake_tol, args.enum_cap)
    artifacts.save_weights(wv, args.out, cs, artifacts.provenance(inputs, _resolved(args)))
    print(f"raked weights ({passes} of {args.iters} passes, last max factor deviation "
          f"{max_dev:.3g}) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cs = artifacts.load_constraints(args.constraints)
    pop = read_population(args.population, schema=cs.schema)
    result = mre(pop, cs)
    prov = artifacts.provenance(
        {
            args.population: artifacts.digest_file(args.population),
            args.constraints: artifacts.digest_file(args.constraints),
        },
        _resolved(args),
    )
    doc = artifacts.eval_to_dict(result, prov)
    if args.out:
        artifacts.save_json(doc, args.out)
        print(f"evaluation -> {args.out}")
    print(f"  n: {result.n}, constraints: {cs.m}")
    print(f"  mre: {result.mre:.6g}")
    for arity in sorted(result.per_arity):
        print(f"  mre arity {arity}: {result.per_arity[arity]:.6g}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    paths = _names("problems", args.problems)
    sizes = _ints("sizes", args.sizes)
    seeds = _ints("seeds", args.seeds)
    methods = _names("methods", args.methods)

    inputs = {}
    problems = []
    for path in paths:
        cs = artifacts.load_constraints(path)
        inputs[path] = artifacts.digest_file(path)
        problems.append(BenchmarkProblem(Path(path).stem, cs))

    grid = BenchmarkGrid(
        problems=tuple(problems), sizes=sizes, seeds=seeds, methods=methods,
        fit_tol=args.tol, fit_max_iter=args.iters, rake_iterations=args.rake_iterations,
        rake_tol=args.rake_tol, enum_cap=args.enum_cap, jobs=args.jobs,
    )
    report = run_benchmark(grid)

    resolved = _resolved(
        args, problems=[{"name": p.name, "k": p.k, "max_arity": p.max_arity} for p in problems],
        sizes=list(sizes), seeds=list(seeds), methods=list(methods))
    comments = [
        f"popmaxent {__version__} benchmark",
        *[f"input {p} {d}" for p, d in sorted(inputs.items())],
        f"config {json.dumps(resolved, sort_keys=True)}",
    ]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(results_table(report, comments), encoding="utf-8")
    (out_dir / "summary.csv").write_text(summary_table(report, comments), encoding="utf-8")
    print(f"benchmark: {len(report.rows)} result rows -> {out_dir}/results.csv")
    for s in report.summaries:
        means = ", ".join(f"{m}={v:.4g}" for m, v in sorted(s.mean_mre.items()))
        print(f"  {s.problem} n={s.n}: {means} winner={s.winner} gap={s.gap:+.1%}")
    for failure in report.failures:
        print(f"  FAILURE {failure}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``popmaxent`` parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="popmaxent",
        description="Synthetic populations from multi-way marginal constraints.",
    )
    parser.add_argument("--version", action="version", version=f"popmaxent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON file of option values (flags win)")

    def add_enum_cap(p, capped):
        p.add_argument("--enum-cap", dest="enum_cap", type=int, default=DEFAULT_ENUM_CAP,
                       help=f"enumeration cap in cells (default %(default)s): {capped}")

    p = sub.add_parser("extract", parents=[config], help="extract a budgeted constraint problem")
    p.add_argument("input", help="population file (CSV/TSV, optional __count column)")
    p.add_argument("--out", required=True, help="constraint problem JSON to write")
    p.add_argument("--n2", type=int, help="number of attribute pairs to retain")
    p.add_argument("--rho2", type=float, help="rate of attribute pairs to retain")
    p.add_argument("--n3", type=int, help="number of attribute triples to retain")
    p.add_argument("--rho3", type=float, help="rate of attribute triples to retain")
    p.add_argument("--max-arity", dest="max_arity", type=int, default=3,
                   help="highest constraint arity to extract (1, 2, or 3; default %(default)s)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", parents=[config],
                       help="fit a maximum-entropy model to a constraint problem")
    p.add_argument("constraints", help="constraint problem JSON")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="moment residual tolerance (default %(default)s)")
    p.add_argument("--iters", type=int,
                   help=f"iteration cap (default {DEFAULT_MAX_ITER}; "
                        f"{METROPOLIS_ITERATIONS} gradient steps with --metropolis)")
    p.add_argument("--soft-beta", dest="soft_beta", type=float,
                   help="soft fit: entropy/fidelity trade-off strength")
    p.add_argument("--weights", type=str, help="soft fit: file of per-constraint weights")
    p.add_argument("--metropolis", action="store_true",
                   help="stochastic fit with Metropolis moment estimates (over-cap fallback)")
    p.add_argument("--seed", type=int, help="chain seed (required with --metropolis)")
    p.add_argument("--sweeps", type=int, default=METROPOLIS_SWEEPS,
                   help="chain sweeps per iteration (default %(default)s)")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=METROPOLIS_BURN_IN,
                   help="chain sweeps discarded per iteration (default %(default)s)")
    add_enum_cap(p, "bounds the largest clique of the fit's clique tree, on which the "
                    "Newton polish runs too; the model keeps it for sampling")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", parents=[config],
                       help="sample an integer population from a model or weights")
    p.add_argument("artifact", help="model or weights JSON")
    p.add_argument("--out", required=True, help="population CSV to write")
    p.add_argument("-n", "--size", dest="size", type=int, default=0, help="population size")
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("rake", parents=[config],
                       help="rake a weight vector toward the constraint targets")
    p.add_argument("constraints", help="constraint problem JSON")
    p.add_argument("--out", required=True, help="weight vector JSON to write")
    p.add_argument("--iters", type=int, default=DEFAULT_RAKE_ITERATIONS,
                   help="full passes over the constraints (default %(default)s)")
    p.add_argument("--rake-tol", dest="rake_tol", type=float,
                   help="optional early stop once a pass changes nothing beyond this")
    p.add_argument("--base", type=str,
                   help="optional seed population CSV to rake instead of uniform")
    add_enum_cap(p, "bounds the attribute space raking enumerates")
    p.set_defaults(func=cmd_rake)

    p = sub.add_parser("eval", help="score a population against a constraint problem")
    p.add_argument("population", help="population CSV")
    p.add_argument("--constraints", required=True, help="constraint problem JSON")
    p.add_argument("--out", help="evaluation JSON to write")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("benchmark", parents=[config],
                       help="run a (problem, method, size, seed) grid")
    p.add_argument("--problems", help="comma-separated constraint problem JSON paths")
    p.add_argument("--sizes", help="comma-separated population sizes")
    p.add_argument("--seeds", help="comma-separated sampling seeds")
    p.add_argument("--methods", default="maxent,raking",
                   help="comma-separated subset of maxent,raking (default %(default)s)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="maxent fit tolerance (default %(default)s)")
    p.add_argument("--iters", type=int, default=DEFAULT_MAX_ITER,
                   help="maxent fit iteration cap (default %(default)s)")
    p.add_argument("--rake-iterations", dest="rake_iterations", type=int,
                   default=DEFAULT_RAKE_ITERATIONS, help="raking passes (default %(default)s)")
    p.add_argument("--rake-tol", dest="rake_tol", type=float)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker count, checked (>= 1) and recorded in provenance; "
                        "cells run one after another (default %(default)s)")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    add_enum_cap(p, "bounds the fit's largest clique, and the attribute space that "
                    "max-ent sampling and raking enumerate")
    p.set_defaults(func=cmd_benchmark)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values become the command's defaults; parsing again
            # lets explicit flags win
            _load_config(args, commands[args.command])
            args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"error: {exc} (residual {exc.residual:.3e})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
