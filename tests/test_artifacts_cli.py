"""Tests for artifact serialization round-trips and the CLI surface.

Claims:
    - constraint problems, models, and weight vectors reload to equal
      in-memory values with matching digests, real values surviving
      bit-exactly through the 17-digit decimal encoding
    - identical invocations write identical bytes (no timestamps, wall
      times excluded from artifacts)
    - the CLI pipeline extract -> fit -> sample -> eval runs end to end,
      respects config-file/flag precedence, requires explicit seeds, and
      maps validation, non-convergence, and capacity errors to exit codes
      2, 3, and 4; a config file that is not valid JSON exits 2 naming the
      file, and a config value of the wrong type (a number for a path
      option too) exits 2 naming its option, ``sizes``/``seeds`` may be
      JSON integer lists and
      ``problems``/``methods`` JSON lists of strings (any other shape exits 2
      naming the key); a config
      key is either read by its command or rejected with exit 2, naming the
      key and the command, before anything is written
    - fit reports record evaluations and the clique tree, ``fit
      --metropolis`` too, and reports written without those keys still load
    - ``rake`` prints the passes it ran and its last deviation, so an
      early stop on ``--rake-tol`` shows
    - flags that did nothing (``--enum-cap`` on extract, sample and eval,
      ``--config`` on eval) and ``rake``'s own sampling flags are rejected
      with exit 2 before anything is written
    - a fit, raking or benchmark tolerance that is not finite and positive,
      zero benchmark raking passes, a fit iteration cap below 1, and a
      negative seed for sample, fit --metropolis or benchmark, exit 2
      naming the value, before anything is written
    - a model's two digests are checked against its embedded constraint
      and schema documents as stored: an edited or re-spelled target, an
      edited schema, or an edited digest fails the load
    - a weights document's schema digest is checked against its stored
      schema: ``sample`` on a renamed label or a missing digest exits 2,
      and so does a label that is not a string
    - an enumeration cap that is not a positive integer exits 2, from
      ``fit``, ``rake`` and ``benchmark`` flags and from a model document,
      before anything is written
"""

import json
import re

import numpy as np
import pytest

from popmaxent import (
    ExtractionBudget,
    extract_constraints,
    fit_hard,
    rake,
    read_population,
    write_population,
)
from popmaxent.artifacts import (
    canonical_json,
    constraint_order_digest,
    constraints_digest,
    constraints_from_dict,
    constraints_to_dict,
    load_constraints,
    load_model,
    load_weights,
    report_from_dict,
    report_to_dict,
    save_constraints,
    save_model,
    save_weights,
    schema_digest,
)
from popmaxent.cli import main
from popmaxent.synthetic import mixture_population


@pytest.fixture()
def problem(tmp_path):
    pop = mixture_population(4, 900, seed=15)
    source = tmp_path / "source.csv"
    write_population(pop, source)
    return pop, source


class TestArtifacts:
    def test_constraints_roundtrip_and_digest(self, tmp_path, problem):
        pop, _ = problem
        cs = extract_constraints(pop, ExtractionBudget.full())
        path = tmp_path / "c.json"
        save_constraints(cs, path)
        back = load_constraints(path)
        assert back == cs
        assert constraints_digest(back) == constraints_digest(cs)
        assert schema_digest(back.schema) == schema_digest(cs.schema)

    def test_targets_survive_bit_exactly(self, problem):
        pop, _ = problem
        cs = extract_constraints(pop, ExtractionBudget.full())
        doc = constraints_to_dict(cs)
        back = constraints_from_dict(json.loads(canonical_json(doc)))
        for a, b in zip(cs.constraints, back.constraints):
            assert a.target == b.target

    def test_model_roundtrip(self, tmp_path, problem):
        pop, _ = problem
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, report = fit_hard(cs)
        path = tmp_path / "m.json"
        save_model(model, path, report)
        back, back_report = load_model(path)
        assert np.array_equal(back.lam, model.lam)
        assert back.constraints == model.constraints
        assert back_report == report  # wall time excluded from comparison
        assert back_report.evaluations >= report.iterations > 0
        assert back_report.largest_clique == cs.layout.cliques.largest

    def test_report_without_clique_keys_loads(self, problem):
        pop, _ = problem
        model, report = fit_hard(extract_constraints(pop, ExtractionBudget.full()))
        doc = report_to_dict(report)
        assert doc["seconds"] is None
        assert (doc["evaluations"], doc["cliques"]) == (report.evaluations, report.cliques)
        for key in ("evaluations", "cliques", "largest_clique"):
            del doc[key]
        old = report_from_dict(doc)
        assert (old.evaluations, old.cliques, old.largest_clique) == (0, 0, 0)
        assert old.iterations == report.iterations and old.residual == report.residual

    def test_weights_roundtrip(self, tmp_path, problem):
        pop, _ = problem
        cs = extract_constraints(pop, ExtractionBudget.full())
        wv = rake(cs, iterations=20)
        path = tmp_path / "w.json"
        save_weights(wv, path, cs)
        back = load_weights(path)
        assert back.equals(wv)
        doc = json.loads(path.read_text())
        assert doc["constraint_order_digest"] == constraint_order_digest(cs)

    def test_canonical_json_is_deterministic(self, problem):
        pop, _ = problem
        cs = extract_constraints(pop, ExtractionBudget.full())
        assert canonical_json(constraints_to_dict(cs)) == canonical_json(
            constraints_to_dict(cs)
        )

    def test_model_digest_mismatch_detected(self, tmp_path, problem):
        pop, _ = problem
        cs = extract_constraints(pop, ExtractionBudget.full())
        model, report = fit_hard(cs)
        path = tmp_path / "m.json"
        save_model(model, path, report)
        doc = json.loads(path.read_text())
        doc["constraints"]["constraints"][0]["target"] = "4.9999999999999994e-01"
        path.write_text(json.dumps(doc))
        from popmaxent import ValidationError

        with pytest.raises(ValidationError):
            load_model(path)

    @pytest.mark.parametrize("edit", ["respelled-target", "constraints-digest",
                                      "schema-digest", "schema"])
    def test_model_digests_are_of_the_stored_documents(self, tmp_path, problem, edit):
        pop, _ = problem
        model, report = fit_hard(extract_constraints(pop, ExtractionBudget.full()))
        path = tmp_path / "m.json"
        save_model(model, path, report)
        doc = json.loads(path.read_text())
        first = doc["constraints"]["constraints"][0]
        if edit == "respelled-target":
            # the same float in another decimal form no longer matches
            first["target"] = repr(float(first["target"]))
        elif edit == "constraints-digest":
            doc["constraints_digest"] = "sha256:" + "0" * 64
        elif edit == "schema-digest":
            doc["schema_digest"] = "sha256:" + "0" * 64
        else:
            doc["constraints"]["schema"]["attributes"][0]["domain"].reverse()
        path.write_text(json.dumps(doc))
        from popmaxent import ValidationError

        with pytest.raises(ValidationError, match="digest mismatch"):
            load_model(path)


class TestCliPipeline:
    def test_end_to_end_roundtrip(self, tmp_path, problem, capsys):
        import time

        _, source = problem
        t0 = time.perf_counter()
        c = tmp_path / "problem.json"
        m = tmp_path / "model.json"
        p = tmp_path / "pop.csv"
        e = tmp_path / "eval.json"
        assert main(["extract", str(source), "--out", str(c)]) == 0
        assert main(["fit", str(c), "--out", str(m)]) == 0
        assert main(["sample", str(m), "--out", str(p), "-n", "20000", "--seed", "3"]) == 0
        assert main(["eval", str(p), "--constraints", str(c), "--out", str(e)]) == 0
        assert time.perf_counter() - t0 < 60
        out = capsys.readouterr().out
        assert "total    atomic constraints" in out
        assert "converged: True" in out
        assert re.search(r"evaluations: \d+, cliques: 1, largest clique: \d+ cells", out)
        doc = json.loads(e.read_text())
        assert doc["mre"] < 0.2
        # the sampled file reloads against the constraint schema
        cs = load_constraints(c)
        pop = read_population(p, schema=cs.schema)
        assert pop.total == 20000

    def test_identical_invocations_identical_bytes(self, tmp_path, problem, monkeypatch):
        # identical relative paths in two sibling directories: every byte,
        # provenance digests included, must match
        _, source = problem
        outputs = []
        for tag in ("a", "b"):
            workdir = tmp_path / tag
            workdir.mkdir()
            (workdir / "source.csv").write_bytes(source.read_bytes())
            monkeypatch.chdir(workdir)
            main(["extract", "source.csv", "--out", "c.json"])
            main(["fit", "c.json", "--out", "m.json"])
            main(["sample", "m.json", "--out", "p.csv", "-n", "500", "--seed", "9"])
            main(["benchmark", "--problems", "c.json", "--sizes", "100", "--seeds", "1,2",
                  "--rake-iterations", "20", "--out-dir", "bench"])
            outputs.append(tuple((workdir / f).read_bytes()
                                 for f in ("c.json", "m.json", "p.csv",
                                           "bench/results.csv", "bench/summary.csv")))
        assert outputs[0] == outputs[1]

    def test_sample_requires_seed(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c)])
        m = tmp_path / "m.json"
        main(["fit", str(c), "--out", str(m)])
        with pytest.raises(SystemExit) as exc:
            main(["sample", str(m), "--out", str(tmp_path / "p.csv"), "-n", "10"])
        assert exc.value.code == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_capacity_exits_4(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c)])
        assert main(["fit", str(c), "--out", str(tmp_path / "m.json"),
                     "--enum-cap", "4"]) == 4

    def test_extract_over_int64_cells_exits_4(self, tmp_path, capsys):
        # 32 attributes of 4 categories: 2^64 cells, past int64 cell codes
        source = tmp_path / "wide.csv"
        source.write_text("\n".join([",".join(f"A{i}" for i in range(32))]
                                    + [",".join([str(r)] * 32) for r in range(4)]))
        out = tmp_path / "c.json"
        assert main(["extract", str(source), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "2^63 - 1 cells" in err and "Traceback" not in err and not out.exists()

    def test_non_convergence_exits_3(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c)])
        assert main(["fit", str(c), "--out", str(tmp_path / "m.json"),
                     "--iters", "1"]) == 3

    def test_soft_fit_cli(self, tmp_path, problem, capsys):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c)])
        m = tmp_path / "m.json"
        assert main(["fit", str(c), "--out", str(m), "--soft-beta", "1e6"]) == 0
        model, report = load_model(m)
        assert report.converged
        assert report.residual < 1e-3

    def test_soft_fit_weights_file(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c)])
        cs = load_constraints(c)
        wfile = tmp_path / "w.txt"
        wfile.write_text("0.0\n" * cs.m)
        m = tmp_path / "m.json"
        assert main(["fit", str(c), "--out", str(m), "--soft-beta", "10",
                     "--weights", str(wfile)]) == 0
        model, _ = load_model(m)
        assert np.all(model.lam == 0.0)  # all constraints dropped -> uniform

    def test_metropolis_fit_cli(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        m = tmp_path / "m.json"
        # tiny stochastic budget: runs, writes the model, honestly exits 3
        code = main(["fit", str(c), "--out", str(m), "--metropolis",
                     "--seed", "5", "--iters", "5", "--sweeps", "2000",
                     "--burn-in", "200"])
        assert code == 3
        model, report = load_model(m)
        assert model.lam.shape == (load_constraints(c).m,)
        assert not report.converged
        cliques = model.constraints.layout.cliques
        assert report.cliques == len(cliques.sizes) > 0
        assert report.largest_clique == cliques.largest > 0

    def test_metropolis_fit_requires_seed(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        assert main(["fit", str(c), "--out", str(tmp_path / "m.json"),
                     "--metropolis"]) == 2

    def test_rake_defaults_to_1000_passes(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c),
              "--max-arity", "1"])
        w = tmp_path / "w.json"
        assert main(["rake", str(c), "--out", str(w)]) == 0
        doc = json.loads(w.read_text())
        assert doc["provenance"]["config"]["iters"] == 1000

    def test_rake_prints_the_passes_run(self, tmp_path, problem, capsys):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        capsys.readouterr()
        w = tmp_path / "w.json"
        assert main(["rake", str(c), "--out", str(w), "--iters", "500",
                     "--rake-tol", "1e-12"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"raked weights \((\d+) of 500 passes, last max factor "
                      r"deviation (\S+)\)", out)
        assert m, out
        # unary raking from uniform reaches its product fixed point at once
        assert 1 <= int(m.group(1)) < 500
        assert float(m.group(2)) <= 1e-12

    def test_rake_with_sampling(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c)])
        w = tmp_path / "w.json"
        p = tmp_path / "rp.csv"
        assert main(["rake", str(c), "--out", str(w), "--iters", "100"]) == 0
        assert main(["sample", str(w), "--out", str(p), "-n", "1000", "--seed", "4"]) == 0
        cs = load_constraints(c)
        pop = read_population(p, schema=cs.schema)
        assert pop.total == 1000

    @pytest.mark.parametrize("command, flags", [
        ("extract", ["--enum-cap", "4"]),
        ("sample", ["--enum-cap", "4"]),
        ("eval", ["--enum-cap", "4"]),
        ("eval", ["--config", "cfg.json"]),
        ("rake", ["-n", "10"]),
        ("rake", ["-n", "10", "--seed", "4"]),
        ("rake", ["--seed", "4"]),
        ("rake", ["--population-out", "p.csv"]),
    ], ids=["extract-enum-cap", "sample-enum-cap", "eval-enum-cap", "eval-config",
            "rake-size", "rake-size-seed", "rake-seed", "rake-population-out"])
    def test_removed_flags_exit_2(self, tmp_path, problem, command, flags):
        # flags that did nothing, or that sampled what `sample` draws from
        # the weights file, are gone: argparse rejects them before any work
        _, source = problem
        c, m = tmp_path / "c.json", tmp_path / "m.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        main(["fit", str(c), "--out", str(m)])
        main(["sample", str(m), "--out", str(tmp_path / "pop.csv"), "-n", "10", "--seed", "1"])
        (tmp_path / "cfg.json").write_text("{}")
        out = tmp_path / "out"
        argv = {
            "extract": [str(source), "--out", str(out)],
            "sample": [str(m), "--out", str(out), "--seed", "1"],
            "eval": [str(tmp_path / "pop.csv"), "--constraints", str(c), "--out", str(out)],
            "rake": [str(c), "--out", str(out)],
        }[command]
        flags = [str(tmp_path / f) if f.endswith((".json", ".csv")) else f for f in flags]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, *flags])
        assert exc.value.code == 2
        assert not out.exists()
        assert not (tmp_path / "p.csv").exists()

    def test_config_file_with_flag_precedence(self, tmp_path, problem):
        _, source = problem
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_arity": 1}))
        c1 = tmp_path / "c1.json"
        main(["extract", str(source), "--out", str(c1), "--config", str(cfg)])
        assert all(len(s["attrs"]) == 1 for s in json.loads(c1.read_text())["scopes"])
        c2 = tmp_path / "c2.json"
        main(["extract", str(source), "--out", str(c2), "--config", str(cfg),
              "--max-arity", "2"])
        arities = {len(s["attrs"]) for s in json.loads(c2.read_text())["scopes"]}
        assert arities == {1, 2}

    def test_budget_flags(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c), "--n2", "2", "--n3", "1"])
        doc = json.loads(c.read_text())
        assert sum(len(s["attrs"]) == 2 for s in doc["scopes"]) == 2
        assert sum(len(s["attrs"]) == 3 for s in doc["scopes"]) == 1
        assert main(["extract", str(source), "--out", str(c),
                     "--n2", "2", "--rho2", "0.5"]) == 2

    def test_benchmark_cli(self, tmp_path, problem, capsys):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c)])
        out = tmp_path / "bench"
        assert main(["benchmark", "--problems", str(c), "--sizes", "100,500",
                     "--seeds", "1,2", "--rake-iterations", "50",
                     "--out-dir", str(out)]) == 0
        lines = [ln for ln in (out / "results.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert len(lines) == 1 + 8  # header + 1 problem x 2 sizes x 2 methods x 2 seeds
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--seeds", "1"], "--sizes"),
        (["--sizes", "10,x", "--seeds", "1"], "--sizes"),
        (["--sizes", "10"], "--seeds"),
        (["--sizes", "10", "--seeds", "1.5"], "--seeds"),
        (["--sizes", "10", "--seeds", "1", "--jobs", "0"], "jobs"),
    ])
    def test_benchmark_bad_integers_exit_2(self, tmp_path, problem, capsys, flags, named):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        capsys.readouterr()
        assert main(["benchmark", "--problems", str(c), "--out-dir", str(tmp_path / "b"),
                     *flags]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, named", [
        ("fit", ["--tol", "-1"], "tol must be finite and > 0, got -1.0"),
        ("fit", ["--tol", "nan"], "tol must be finite and > 0, got nan"),
        ("fit", ["--tol", "inf"], "tol must be finite and > 0, got inf"),
        ("fit", ["--tol", "0", "--soft-beta", "10"], "tol must be finite and > 0, got 0.0"),
        ("fit", ["--tol", "nan", "--metropolis", "--seed", "1"],
         "tol must be finite and > 0, got nan"),
        ("rake", ["--rake-tol", "-1"], "tol must be finite and > 0, got -1.0"),
        ("rake", ["--rake-tol", "nan"], "tol must be finite and > 0, got nan"),
        ("benchmark", ["--rake-tol", "nan"], "rake_tol must be finite and > 0, got nan"),
        ("benchmark", ["--tol", "inf"], "fit_tol must be finite and > 0, got inf"),
        ("benchmark", ["--rake-iterations", "0"], "rake_iterations must be >= 1, got 0"),
        ("fit", ["--iters", "0"], "max_iter must be >= 1, got 0"),
        ("fit", ["--iters", "-5"], "max_iter must be >= 1, got -5"),
        ("fit", ["--iters", "0", "--metropolis", "--seed", "1"],
         "iterations must be >= 1, got 0"),
        ("benchmark", ["--iters", "0"], "fit_max_iter must be >= 1, got 0"),
        ("fit", ["--enum-cap", "0"], "enum_cap must be >= 1, got 0"),
        ("fit", ["--enum-cap", "-5"], "enum_cap must be >= 1, got -5"),
        ("rake", ["--enum-cap", "0"], "enum_cap must be >= 1, got 0"),
        ("rake", ["--enum-cap", "-5"], "enum_cap must be >= 1, got -5"),
        ("benchmark", ["--enum-cap", "0"], "enum_cap must be >= 1, got 0"),
    ], ids=["fit-negative", "fit-nan", "fit-inf", "soft-zero", "metropolis-nan",
            "rake-negative", "rake-nan", "benchmark-rake-nan", "benchmark-fit-inf",
            "benchmark-zero-passes", "fit-zero-iters", "fit-negative-iters",
            "metropolis-zero-iters", "benchmark-zero-iters", "fit-zero-cap",
            "fit-negative-cap", "rake-zero-cap", "rake-negative-cap", "benchmark-zero-cap"])
    def test_unmeetable_tolerances_exit_2(self, tmp_path, problem, capsys, command, flags,
                                          named):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "fit": [str(c), "--out", str(out)],
            "rake": [str(c), "--out", str(out)],
            "benchmark": ["--problems", str(c), "--sizes", "10", "--seeds", "1",
                          "--out-dir", str(out)],
        }[command]
        assert main([command, *argv, *flags]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, named", [
        ("renamed-label", "weights schema digest mismatch"),
        ("integer-label",
         "attribute 'A0' has a name or a category label that is not a string"),
        ("no-digest", "weights schema digest mismatch"),
    ])
    def test_edited_weights_schema_exits_2(self, tmp_path, problem, capsys, edit, named):
        _, source = problem
        c, w, out = tmp_path / "c.json", tmp_path / "w.json", tmp_path / "p.csv"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        main(["rake", str(c), "--out", str(w), "--iters", "5"])
        doc = json.loads(w.read_text())
        if edit == "no-digest":
            del doc["schema_digest"]
        else:
            doc["schema"]["attributes"][0]["domain"][0] = 7 if edit == "integer-label" else "renamed"
        w.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sample", str(w), "--out", str(out), "-n", "10", "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cap, named", [
        ("x", "an integer >= 1, got 'x'"),
        (2.5, "an integer >= 1, got 2.5"),
        (True, "an integer >= 1, got True"),
        (0, ">= 1, got 0"),
    ], ids=["string", "float", "bool", "zero"])
    def test_model_document_enum_cap_exits_2(self, tmp_path, problem, capsys, cap, named):
        _, source = problem
        c, m, out = tmp_path / "c.json", tmp_path / "m.json", tmp_path / "p.csv"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        main(["fit", str(c), "--out", str(m)])
        doc = json.loads(m.read_text())
        doc["enum_cap"] = cap
        m.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sample", str(m), "--out", str(out), "-n", "10", "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: enum_cap must be {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "fit", "benchmark"])
    def test_negative_seeds_exit_2(self, tmp_path, problem, capsys, command):
        _, source = problem
        c, m = tmp_path / "c.json", tmp_path / "m.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        main(["fit", str(c), "--out", str(m)])
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "sample": [str(m), "--out", str(out), "-n", "10", "--seed", "-1"],
            "fit": [str(c), "--out", str(out), "--metropolis", "--seed", "-1"],
            "benchmark": ["--problems", str(c), "--sizes", "10", "--seeds", "1,-1",
                          "--out-dir", str(out)],
        }[command]
        assert main([command, *argv]) == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, config, named", [
        ("fit", {"tol": "tight"}, "--tol"),
        ("fit", {"iters": 2.5}, "--iters"),
        ("fit", {"enum_cap": "big"}, "--enum-cap"),
        ("fit", {"soft_beta": [1]}, "--soft-beta"),
        ("extract", {"n2": "many"}, "--n2"),
        ("extract", {"max_arity": "three"}, "--max-arity"),
        ("rake", {"rake_tol": "x"}, "--rake-tol"),
        ("sample", {"size": "ten"}, "--size"),
        ("benchmark", {"jobs": "two"}, "--jobs"),
        ("benchmark", {"sizes": [100, "x"]}, "--sizes"),
        ("benchmark", {"seeds": [1, True]}, "--seeds"),
        ("benchmark", {"methods": [1]}, "--methods"),
        ("benchmark", {"methods": []}, "--methods"),
        ("benchmark", {"methods": {"raking": True}}, "--methods"),
        # a path option takes a JSON string, never a file descriptor
        ("fit", {"weights": 3, "soft_beta": 10}, "--weights"),
        ("rake", {"base": 3}, "--base"),
        ("rake", {"base": ["p.csv"]}, "--base"),
        ("benchmark", {"methods": True}, "--methods"),
    ])
    def test_bad_config_values_exit_2(self, tmp_path, problem, capsys, command, config, named):
        _, source = problem
        c, m = tmp_path / "c.json", tmp_path / "m.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        main(["fit", str(c), "--out", str(m)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = {
            "extract": [str(source), "--out", str(tmp_path / "c2.json")],
            "fit": [str(c), "--out", str(tmp_path / "m2.json")],
            "rake": [str(c), "--out", str(tmp_path / "w.json")],
            "sample": [str(m), "--out", str(tmp_path / "p.csv"), "--seed", "1"],
            "benchmark": ["--problems", str(c), "--out-dir", str(tmp_path / "b"),
                          *(["--sizes", "10"] if "sizes" not in config else []),
                          *(["--seeds", "1"] if "seeds" not in config else [])],
        }[command]
        capsys.readouterr()
        assert main([command, *argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("body", ["{not json", "", '{"tol": 1e-6,}', b"\xff\xfe{}"])
    def test_config_that_is_not_json_exits_2(self, tmp_path, problem, capsys, body):
        _, source = problem
        cfg, out = tmp_path / "bad.json", tmp_path / "c.json"
        (cfg.write_bytes if isinstance(body, bytes) else cfg.write_text)(body)
        assert main(["extract", str(source), "--out", str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} is not valid JSON: ")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command, config, unread", [
        ("extract", {"max_arty": 1}, "max_arty"),
        ("fit", {"metropolis": True}, "metropolis"),
        ("fit", {"sweeps": 50, "burn_in": 5, "seed": 3, "iters": 2}, None),
        ("sample", {"seed": 1}, "seed"),
        ("rake", {"iters": 5, "population_out": "p.csv"}, "population_out"),
        ("benchmark", {"sizes": [10], "seeds": [1], "methods": "raking", "problem": "x"},
         "problem"),
    ], ids=["extract-misspelt", "fit-flag-only", "fit-sweeps", "sample-seed",
            "rake-removed", "benchmark-misspelt"])
    def test_config_keys_honoured_or_rejected(self, tmp_path, problem, capsys,
                                              command, config, unread):
        _, source = problem
        c, m = tmp_path / "c.json", tmp_path / "m.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        main(["fit", str(c), "--out", str(m)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = {
            "extract": [str(source), "--out", str(out)],
            "fit": [str(c), "--out", str(out), "--metropolis"],
            "sample": [str(m), "--out", str(out), "-n", "10", "--seed", "1"],
            "rake": [str(c), "--out", str(out)],
            "benchmark": ["--problems", str(c), "--out-dir", str(out)],
        }[command]
        capsys.readouterr()
        code = main([command, *argv, "--config", str(cfg)])
        if unread is None:
            # every key reaches the command: the resolved config records it
            resolved = json.loads(out.read_text())["provenance"]["config"]
            assert {k: resolved[k] for k in config} == config
        else:
            err = capsys.readouterr().err
            assert code == 2 and not out.exists()
            assert f"popmaxent {command} " in err and repr(unread) in err

    def test_benchmark_takes_json_lists(self, tmp_path, problem, capsys):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [100, 200], "seeds": [1, 2]}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--problems", str(c), "--methods", "raking",
                     "--rake-iterations", "5", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        rows = [ln.split(",") for ln in (out / "results.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert sorted((int(r[4]), int(r[5])) for r in rows) == [(100, 1), (100, 2),
                                                                (200, 1), (200, 2)]

    def test_benchmark_takes_json_lists_of_names(self, tmp_path, problem):
        _, source = problem
        c = tmp_path / "c.json"
        main(["extract", str(source), "--out", str(c), "--max-arity", "1"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problems": [str(c)], "methods": ["raking"],
                                   "sizes": [100], "seeds": [1, 2]}))
        out = tmp_path / "bench"
        assert main(["benchmark", "--rake-iterations", "5", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        rows = [ln.split(",") for ln in (out / "results.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert sorted((r[0], r[3], int(r[5])) for r in rows) == [("c", "raking", 1),
                                                                 ("c", "raking", 2)]

    @pytest.mark.parametrize("config", [
        {"problems": [{"constraints": "c.json"}]},
        {"problems": 3},
        {},
    ], ids=["list-of-objects", "number", "missing"])
    def test_benchmark_bad_problems_exit_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [10], "seeds": [1], **config}))
        capsys.readouterr()
        assert main(["benchmark", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert "--problems" in err and "Traceback" not in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
