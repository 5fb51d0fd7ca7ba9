"""Tests that each CLI option is declared once, on its subcommand's parser.

Claims:
    - the config keys of extract, fit, sample, rake and benchmark are
      exactly the command's optional flags that take a value, read from its
      parser, so a new flag is checked here as soon as it exists
    - every such key, given in a config file, lands in the output's
      provenance with the value its flag gives, and the config form writes
      the same bytes as the flag form; a null value leaves the default
    - ``--out``, ``--out-dir``, ``--config``, ``sample --seed`` and
      ``--metropolis`` are rejected as config keys with exit 2, naming the
      key and the command, before anything is written
"""

import json
from pathlib import Path

import pytest

from popmaxent import write_population
from popmaxent.artifacts import load_constraints
from popmaxent.cli import build_parser, main
from popmaxent.synthetic import mixture_population

# config files per command whose keys together cover every config key;
# "{c}", "{m}", "{source}" and "{weights}" name the fixture's files
CASES = {
    "extract": [{"max_arity": 2, "n2": 3, "n3": 1}, {"rho2": 0.5, "rho3": 0.25}],
    "fit": [{"tol": 1e-5, "iters": 300, "enum_cap": 4096, "soft_beta": 100.0,
             "weights": "{weights}", "seed": 3, "sweeps": 500, "burn_in": 50}],
    "sample": [{"size": 50}],
    "rake": [{"iters": 7, "rake_tol": 1e-9, "base": "{source}", "enum_cap": 4096}],
    "benchmark": [{"problems": ["{c}"], "sizes": [30, 40], "seeds": [1, 2],
                   "methods": ["raking"], "tol": 1e-5, "iters": 300, "rake_iterations": 5,
                   "rake_tol": 1e-9, "enum_cap": 4096, "jobs": 2}],
}


def config_keys(command):
    """The command's optional flags that take a value, by config key."""
    _, commands = build_parser()
    return {a.dest for a in commands[command]._actions
            if a.option_strings and a.nargs != 0 and not a.required
            and a.dest != "config"}


@pytest.fixture()
def files(tmp_path):
    source = tmp_path / "source.csv"
    write_population(mixture_population(4, 600, seed=15), source)
    c, m = tmp_path / "c.json", tmp_path / "m.json"
    assert main(["extract", str(source), "--out", str(c), "--max-arity", "2"]) == 0
    assert main(["fit", str(c), "--out", str(m)]) == 0
    weights = tmp_path / "weights.txt"
    weights.write_text("1.0\n" * load_constraints(c).m)
    return {"source": str(source), "c": str(c), "m": str(m), "weights": str(weights)}


def argv(command, files, out):
    """A command's arguments other than its options."""
    return {
        "extract": [files["source"], "--out", str(out)],
        "fit": [files["c"], "--out", str(out)],
        "sample": [files["m"], "--out", str(out), "--seed", "1"],
        "rake": [files["c"], "--out", str(out)],
        "benchmark": ["--out-dir", str(out)],
    }[command]


def written(command, out):
    """The output's bytes, and the resolved config its provenance records."""
    if command == "benchmark":
        data = [(out / name).read_bytes() for name in ("results.csv", "summary.csv")]
        lines = data[0].decode().splitlines()
    else:
        data = [out.read_bytes()]
        if command != "sample":
            return data, json.loads(data[0])["provenance"]["config"]
        lines = data[0].decode().splitlines()
    (line,) = [ln for ln in lines if ln.startswith("# config ")]
    return data, json.loads(line[len("# config "):])


@pytest.mark.parametrize("command", sorted(CASES))
def test_cases_cover_every_config_key(command):
    covered = set().union(*CASES[command])
    assert covered == config_keys(command), "give each new option a value in CASES"


@pytest.mark.parametrize("command, index", [(c, i) for c in sorted(CASES)
                                            for i in range(len(CASES[c]))])
def test_config_keys_land_in_provenance_as_flags_do(tmp_path, files, command, index):
    config = {k: [x.format(**files) for x in v] if k == "problems"
              else v.format(**files) if isinstance(v, str) else v
              for k, v in CASES[command][index].items()}
    flags = [arg for k, v in config.items() for arg in (
        f"--{k.replace('_', '-')}", ",".join(map(str, v)) if isinstance(v, list) else str(v))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for tag, extra in (("flags", flags), ("config", ["--config", str(cfg)])):
        out = tmp_path / tag
        assert main([command, *argv(command, files, out), *extra]) in (0, 3), tag
        outputs.append(written(command, out))
    (flag_bytes, resolved), (config_bytes, _) = outputs
    assert config_bytes == flag_bytes
    for key, value in config.items():
        if key == "problems":
            assert [p["name"] for p in resolved[key]] == [Path(v).stem for v in value]
        else:
            assert resolved[key] == value, key


def test_null_leaves_the_default(tmp_path, files):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": None, "rake_tol": None, "enum_cap": 4096}))
    out = tmp_path / "w.json"
    assert main(["rake", files["c"], "--out", str(out), "--config", str(cfg)]) == 0
    _, resolved = written("rake", out)
    assert (resolved["iters"], resolved["rake_tol"], resolved["enum_cap"]) == (1000, None, 4096)


@pytest.mark.parametrize("command, key", [
    ("extract", "out"), ("fit", "out"), ("fit", "metropolis"), ("fit", "config"),
    ("sample", "out"), ("sample", "seed"), ("rake", "out"), ("benchmark", "out_dir"),
])
def test_flags_that_are_not_options_are_not_config_keys(tmp_path, files, capsys,
                                                         command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: str(tmp_path / "elsewhere")}))
    out = tmp_path / "out"
    extra = ["--problems", files["c"], "--sizes", "10", "--seeds", "1"]
    capsys.readouterr()
    assert main([command, *argv(command, files, out),
                 *(extra if command == "benchmark" else []), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"popmaxent {command} " in err and repr(key) in err
    assert not out.exists() and not (tmp_path / "elsewhere").exists()
