"""Command-line surface: extract, fit, sample, rake, eval, benchmark.

One binary with subcommands; options may also come from a JSON config
file, with explicit flags winning on conflict.  Every randomized command
requires an explicit --seed and every output carries a provenance header
(tool version, input digests, resolved config), so identical invocations
produce identical bytes.  Exit codes: 0 success, 2 validation error,
3 non-convergence, 4 capacity.
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


class _Config(dict):
    """A config file's options, and the names a command has looked up."""

    def __init__(self, doc=()):
        super().__init__(doc)
        self.read: set[str] = set()

    def check_read(self, command: str) -> None:
        """Reject the keys ``command`` did not look up, so none is silently dropped."""
        unread = sorted(set(self) - self.read)
        if unread:
            raise ValidationError(f"popmaxent {command} does not read config key(s) "
                                  f"{', '.join(map(repr, unread))}")


def _load_config(args) -> _Config:
    path = getattr(args, "config", None)
    if not path:
        return _Config()
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    return _Config(doc)


def _opt(args, config: _Config, name: str, default):
    """Flag value if given, else config value, else default."""
    config.read.add(name)
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _number(name: str, value, kind):
    """``value`` as ``kind`` (int or float); a ValidationError names option ``name``."""
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(
            f"--{name.replace('_', '-')} needs {noun}, got {value!r}") from None


def _opt_number(args, config: _Config, name: str, kind, default=None):
    """:func:`_opt` as ``kind`` (int or float); None stays None."""
    value = _opt(args, config, name, default)
    return None if value is None else _number(name, value, kind)


def _opt_ints(args, config: _Config, name: str) -> tuple[int, ...]:
    """Comma-separated integers from a flag or config string, or a config list."""
    value = _opt(args, config, name, None)
    items = value if isinstance(value, list) else str(value).split(",")
    try:
        return tuple(_number(name, v, int) for v in items)
    except ValidationError:
        raise ValidationError(
            f"--{name} needs comma-separated integers, got {value!r}") from None


def _parse_budget(args, config: _Config, label: str) -> ArityBudget | None:
    count = _opt_number(args, config, f"n{label}", int)
    rate = _opt_number(args, config, f"rho{label}", float)
    if count is not None and rate is not None:
        raise ValidationError(f"give at most one of --n{label} and --rho{label}")
    if count is not None:
        return ArityBudget(count=count)
    if rate is not None:
        return ArityBudget(rate=rate)
    return ArityBudget(rate=1.0)


def cmd_extract(args) -> int:
    config = _load_config(args)
    max_arity = _opt_number(args, config, "max_arity", int, 3)
    if max_arity not in (1, 2, 3):
        raise ValidationError(f"--max-arity must be 1, 2, or 3, got {max_arity}")
    binary = _parse_budget(args, config, "2")
    ternary = _parse_budget(args, config, "3")
    budget = ExtractionBudget(
        binary=binary if max_arity >= 2 else None,
        ternary=ternary if max_arity >= 3 else None,
    )
    config.check_read("extract")

    pop = read_population(args.input)
    cs = extract_constraints(pop, budget)

    resolved = {
        "command": "extract", "input": str(args.input), "max_arity": max_arity,
        "n2": _opt(args, config, "n2", None), "rho2": _opt(args, config, "rho2", None),
        "n3": _opt(args, config, "n3", None), "rho3": _opt(args, config, "rho3", None),
    }
    prov = artifacts.provenance({str(args.input): artifacts.digest_file(args.input)}, resolved)
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
    config = _load_config(args)
    tol = _opt_number(args, config, "tol", float, DEFAULT_TOL)
    raw_iters = _opt_number(args, config, "iters", int)
    iters = raw_iters if raw_iters is not None else DEFAULT_MAX_ITER
    enum_cap = _opt_number(args, config, "enum_cap", int, DEFAULT_ENUM_CAP)
    soft_beta = _opt_number(args, config, "soft_beta", float)
    weights_path = _opt(args, config, "weights", None)
    seed = _opt_number(args, config, "seed", int)
    sweeps = _opt_number(args, config, "sweeps", int, 20_000)
    burn_in = _opt_number(args, config, "burn_in", int, 1_000)
    config.check_read("fit")

    cs = artifacts.load_constraints(args.constraints)
    inputs = {str(args.constraints): artifacts.digest_file(args.constraints)}
    resolved = {
        "command": "fit", "constraints": str(args.constraints), "tol": tol,
        "iters": iters, "enum_cap": enum_cap, "soft_beta": soft_beta,
        "weights": str(weights_path) if weights_path else None,
        "metropolis": bool(args.metropolis),
    }

    if cs.m == 0:
        print("warning: empty constraint set; fitting the uniform model", file=sys.stderr)

    if args.metropolis:
        if seed is None:
            raise ValidationError("--metropolis fitting requires --seed")
        # the stochastic fit counts gradient steps, not dual iterations, so
        # an unspecified --iters falls back to its own default of 200
        sgd_iters = raw_iters if raw_iters is not None else 200
        resolved.update(seed=seed, sweeps=sweeps, burn_in=burn_in, iters=sgd_iters)
        model, report = fit_metropolis(
            cs, seed=seed, iterations=sgd_iters,
            sweeps=sweeps, burn_in=burn_in, tol=tol, enum_cap=enum_cap,
        )
    elif soft_beta is not None:
        wvec = None
        if weights_path:
            with open(weights_path, "r", encoding="utf-8") as fh:
                wvec = tuple(_number("weights", line, float) for line in fh.read().split())
            inputs[str(weights_path)] = artifacts.digest_file(weights_path)
        cfg = SoftFitConfig(beta=soft_beta, weights=wvec)
        model, report = fit_soft(cs, cfg, tol=tol, max_iter=iters, enum_cap=enum_cap)
    else:
        model, report = fit_hard(cs, tol=tol, max_iter=iters, enum_cap=enum_cap)

    prov = artifacts.provenance(inputs, resolved)
    artifacts.save_model(model, args.out, report, prov)
    print(f"fitted model -> {args.out}")
    print(f"  constraints: {cs.m}, iterations: {report.iterations}, "
          f"residual: {report.residual:.3e}, converged: {report.converged}, "
          f"wall: {report.seconds:.2f}s")
    print(f"  evaluations: {report.evaluations}, cliques: {report.cliques}, "
          f"largest clique: {report.largest_clique} cells")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _load_distribution(path):
    """A model or weight-vector artifact, whichever the file holds."""
    doc = artifacts.load_json(path)
    fmt = doc.get("format")
    if fmt == artifacts.FORMATS["model"]:
        model, _ = artifacts.model_from_dict(doc)
        return ("model", model)
    if fmt == artifacts.FORMATS["weights"]:
        return ("weights", artifacts.weights_from_dict(doc))
    raise ValidationError(f"{path}: expected a model or weights document, got {fmt!r}")


def cmd_sample(args) -> int:
    config = _load_config(args)
    n = _opt_number(args, config, "size", int, 0)
    if n < 1:
        raise ValidationError("--size must be a positive individual count")
    config.check_read("sample")
    kind, dist = _load_distribution(args.artifact)
    if kind == "model":
        pop = sample_population(dist, n, args.seed)
    else:
        pop = sample_weighted(dist, n, args.seed)
    resolved = {"command": "sample", "artifact": str(args.artifact),
                "size": n, "seed": args.seed}
    comments = [
        f"popmaxent {__version__} population",
        f"input {args.artifact} {artifacts.digest_file(args.artifact)}",
        f"config {json.dumps(resolved, sort_keys=True)}",
    ]
    write_population(pop, args.out, counted=True, header_comments=comments)
    print(f"sampled {n} individuals -> {args.out}")
    return EXIT_OK


def cmd_rake(args) -> int:
    config = _load_config(args)
    iters = _opt_number(args, config, "iters", int, DEFAULT_RAKE_ITERATIONS)
    enum_cap = _opt_number(args, config, "enum_cap", int, DEFAULT_ENUM_CAP)
    rake_tol = _opt_number(args, config, "rake_tol", float)
    base_path = _opt(args, config, "base", None)
    config.check_read("rake")
    cs = artifacts.load_constraints(args.constraints)
    inputs = {str(args.constraints): artifacts.digest_file(args.constraints)}

    base = None
    if base_path:
        base = read_population(base_path, schema=cs.schema)
        inputs[str(base_path)] = artifacts.digest_file(base_path)

    wv, passes, max_dev = _rake(cs, iters, base, rake_tol, enum_cap)
    resolved = {"command": "rake", "constraints": str(args.constraints),
                "iters": iters, "enum_cap": enum_cap, "rake_tol": rake_tol,
                "base": str(base_path) if base_path else None}
    prov = artifacts.provenance(inputs, resolved)
    artifacts.save_weights(wv, args.out, cs, prov)
    print(f"raked weights ({passes} of {iters} passes, last max factor deviation "
          f"{max_dev:.3g}) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cs = artifacts.load_constraints(args.constraints)
    pop = read_population(args.population, schema=cs.schema)
    result = mre(pop, cs)
    resolved = {"command": "eval", "population": str(args.population),
                "constraints": str(args.constraints)}
    prov = artifacts.provenance(
        {
            str(args.population): artifacts.digest_file(args.population),
            str(args.constraints): artifacts.digest_file(args.constraints),
        },
        resolved,
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
    config = _load_config(args)
    problem_specs = _opt(args, config, "problems", None)
    if isinstance(problem_specs, str):
        problem_specs = [{"name": Path(path).stem, "constraints": path}
                         for path in problem_specs.split(",")]
    if not problem_specs:
        raise ValidationError("no benchmark problems given (flag --problems or config)")

    sizes = _opt_ints(args, config, "sizes")
    seeds = _opt_ints(args, config, "seeds")
    methods = tuple(str(_opt(args, config, "methods", "maxent,raking")).split(","))

    inputs = {}
    problems = []
    for spec in problem_specs:
        path = spec["constraints"]
        cs = artifacts.load_constraints(path)
        inputs[str(path)] = artifacts.digest_file(path)
        problems.append(BenchmarkProblem(spec.get("name", Path(path).stem), cs))

    grid = BenchmarkGrid(
        problems=tuple(problems),
        sizes=sizes,
        seeds=seeds,
        methods=methods,
        fit_tol=_opt_number(args, config, "tol", float, DEFAULT_TOL),
        fit_max_iter=_opt_number(args, config, "iters", int, DEFAULT_MAX_ITER),
        rake_iterations=_opt_number(args, config, "rake_iterations", int,
                                    DEFAULT_RAKE_ITERATIONS),
        rake_tol=_opt_number(args, config, "rake_tol", float),
        enum_cap=_opt_number(args, config, "enum_cap", int, DEFAULT_ENUM_CAP),
        jobs=_opt_number(args, config, "jobs", int, 1),
    )
    config.check_read("benchmark")
    report = run_benchmark(grid)

    resolved = {
        "command": "benchmark",
        "problems": [
            {"name": p.name, "k": p.k, "max_arity": p.max_arity} for p in problems
        ],
        "sizes": list(sizes), "seeds": list(seeds), "methods": list(methods),
        "tol": grid.fit_tol, "iters": grid.fit_max_iter,
        "rake_iterations": grid.rake_iterations, "rake_tol": grid.rake_tol,
        "enum_cap": grid.enum_cap, "jobs": grid.jobs,
    }
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popmaxent",
        description="Synthetic populations from multi-way marginal constraints.",
    )
    parser.add_argument("--version", action="version", version=f"popmaxent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON file with option defaults (flags win)")

    def add_enum_cap(p, capped):
        p.add_argument("--enum-cap", dest="enum_cap", type=int,
                       help=f"enumeration cap in cells (default {DEFAULT_ENUM_CAP}): {capped}")

    p = sub.add_parser("extract", parents=[config], help="extract a budgeted constraint problem")
    p.add_argument("input", help="population file (CSV/TSV, optional __count column)")
    p.add_argument("--out", required=True, help="constraint problem JSON to write")
    p.add_argument("--n2", type=int, help="number of attribute pairs to retain")
    p.add_argument("--rho2", type=float, help="rate of attribute pairs to retain")
    p.add_argument("--n3", type=int, help="number of attribute triples to retain")
    p.add_argument("--rho3", type=float, help="rate of attribute triples to retain")
    p.add_argument("--max-arity", dest="max_arity", type=int,
                   help="highest constraint arity to extract (1, 2, or 3; default 3)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", parents=[config],
                       help="fit a maximum-entropy model to a constraint problem")
    p.add_argument("constraints", help="constraint problem JSON")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--tol", type=float, help=f"moment residual tolerance (default {DEFAULT_TOL})")
    p.add_argument("--iters", type=int, help=f"iteration cap (default {DEFAULT_MAX_ITER})")
    p.add_argument("--soft-beta", dest="soft_beta", type=float,
                   help="soft fit: entropy/fidelity trade-off strength")
    p.add_argument("--weights", help="soft fit: file of per-constraint weights")
    p.add_argument("--metropolis", action="store_true",
                   help="stochastic fit with Metropolis moment estimates (over-cap fallback)")
    p.add_argument("--seed", type=int, help="chain seed (required with --metropolis)")
    p.add_argument("--sweeps", type=int, help="chain sweeps per iteration (default 20000)")
    p.add_argument("--burn-in", dest="burn_in", type=int,
                   help="chain sweeps discarded per iteration (default 1000)")
    add_enum_cap(p, "bounds the largest clique of the fit's clique tree; the Newton "
                    "polish runs only on spaces within it, and the model keeps it for sampling")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", parents=[config],
                       help="sample an integer population from a model or weights")
    p.add_argument("artifact", help="model or weights JSON")
    p.add_argument("--out", required=True, help="population CSV to write")
    p.add_argument("-n", "--size", dest="size", type=int, help="population size")
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("rake", parents=[config],
                       help="rake a weight vector toward the constraint targets")
    p.add_argument("constraints", help="constraint problem JSON")
    p.add_argument("--out", required=True, help="weight vector JSON to write")
    p.add_argument("--iters", type=int,
                   help=f"full passes over the constraints (default {DEFAULT_RAKE_ITERATIONS})")
    p.add_argument("--rake-tol", dest="rake_tol", type=float,
                   help="optional early stop once a pass changes nothing beyond this")
    p.add_argument("--base", help="optional seed population CSV to rake instead of uniform")
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
    p.add_argument("--methods", help="comma-separated subset of maxent,raking")
    p.add_argument("--tol", type=float, help="maxent fit tolerance")
    p.add_argument("--iters", type=int, help="maxent fit iteration cap")
    p.add_argument("--rake-iterations", dest="rake_iterations", type=int,
                   help=f"raking passes (default {DEFAULT_RAKE_ITERATIONS})")
    p.add_argument("--rake-tol", dest="rake_tol", type=float)
    p.add_argument("--jobs", type=int,
                   help="parallel sampling jobs (default 1)")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    add_enum_cap(p, "bounds the fit's largest clique, and the attribute space that "
                    "max-ent sampling and raking enumerate")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
