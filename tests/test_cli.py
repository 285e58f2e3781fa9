import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skolemkit
from skolemkit import synth
from skolemkit.benchgen import gen_factor
from skolemkit.circuits import Circuit, vector_from_circuits
from skolemkit.cli import main
from skolemkit.formula import emit_skolem, parse_spec, write_qdimacs

IDENTITY = "p cnf 2 2\na 1 0\ne 2 0\n-1 2 0\n1 -2 0\n"
FREE_Y = "p cnf 2 1\na 1 0\ne 2 0\n1 2 -2 0\n"


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.qdimacs"
    path.write_text(IDENTITY)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# synth / verify pipeline

def test_synth_then_verify_ok(tmp_path, spec_file):
    out = tmp_path / "vec.skolem"
    rep = tmp_path / "rep.json"
    assert main(["synth", spec_file, "-o", str(out),
                 "--json", str(rep)]) == 0
    report = read_json(str(rep))
    assert report["verdict"] == "valid"
    assert report["command"] == "synth"
    assert report["oracle"]["calls"] >= 1
    assert main(["verify", spec_file, str(out)]) == 0


def test_verify_counterexample_exit_10(tmp_path, spec_file, capsys):
    bad = tmp_path / "bad.skolem"
    bad.write_text("skolem 1 1\ng1 = NOT(x1)\ny1 := g1\n")
    rep = tmp_path / "rep.json"
    assert main(["verify", spec_file, str(bad),
                 "--json", str(rep)]) == 10
    report = read_json(str(rep))
    assert report["verdict"] == "counterexample"
    err = capsys.readouterr().err
    assert "v1 = " in err and "v2 = " in err


def test_verify_gate_list_with_xor_lines(tmp_path):
    # y1 = x1 ^ x2 and y2 = ~x2, read from XOR lines
    spec = tmp_path / "xor.qdimacs"
    spec.write_text("p cnf 4 6\na 1 2 0\ne 3 4 0\n-3 1 2 0\n-3 -1 -2 0\n"
                    "3 -1 2 0\n3 1 -2 0\n4 2 0\n-4 -2 0\n")
    vec = tmp_path / "xor.skolem"
    vec.write_text("skolem 2 2\ng1 = XOR(x1, x2)\ng2 = NOT(x1)\n"
                   "g3 = XOR(y1, g2)\ny1 := g1\ny2 := g3\n")
    assert main(["verify", str(spec), str(vec)]) == 0


def test_synth_strategies_all_valid(tmp_path, spec_file):
    for strat in ("lex", "cover", "unique", "auto"):
        out = tmp_path / f"{strat}.skolem"
        assert main(["synth", spec_file, "--strategy", strat,
                     "-o", str(out)]) == 0
        assert main(["verify", spec_file, str(out)]) == 0


def test_synth_unique_inapplicable_exit_10(tmp_path):
    path = tmp_path / "free.qdimacs"
    path.write_text(FREE_Y)
    rep = tmp_path / "rep.json"
    assert main(["synth", str(path), "--strategy", "unique",
                 "--json", str(rep)]) == 10
    report = read_json(str(rep))
    assert report["verdict"] == "not-unique" and report["failedBit"] == 1


@pytest.mark.parametrize("strategy",
                         [["unique"], ["auto", "--lex-limit", "0"]])
def test_learner_spec_without_inputs(tmp_path, capsys, strategy):
    # no universal inputs: the learned circuit reads one constant-0 slot
    path = tmp_path / "noinput.qdimacs"
    path.write_text("p cnf 2 2\ne 1 2 0\n-1 0\n2 0\n")
    out = tmp_path / "vec.skolem"
    rep = tmp_path / "rep.json"
    assert main(["synth", str(path), "--strategy", *strategy,
                 "-o", str(out), "--json", str(rep)]) == 0
    assert read_json(str(rep))["verdict"] == "valid"
    assert "Traceback" not in capsys.readouterr().err
    assert main(["verify", str(path), str(out)]) == 0


def test_synth_aiger_then_verify_ok(tmp_path, spec_file):
    out = tmp_path / "vec.aag"
    assert main(["synth", spec_file, "--format", "aiger-ascii",
                 "-o", str(out)]) == 0
    assert main(["verify", spec_file, str(out)]) == 0


def test_lex_cli_writes_the_swept_library_vector(tmp_path):
    text = write_qdimacs(gen_factor(4))
    path, out, rep = (tmp_path / f for f in ("f4.qdimacs", "vec", "rep"))
    path.write_text(text)
    assert main(["synth", str(path), "--strategy", "lex", "-o", str(out),
                 "--json", str(rep)]) == 0
    spec = parse_spec(text)
    assert out.read_text() == emit_skolem(synth.synth_lex(spec))
    tuples = list(itertools.product((0, 1), repeat=spec.m))
    selector = synth._selector_vector(spec, tuples)
    assert 3 * read_json(str(rep))["circuitSize"] <= selector.size


def test_auto_checks_the_vector_once(tmp_path, spec_file):
    rep = tmp_path / "rep.json"
    assert main(["synth", spec_file, "--json", str(rep)]) == 0
    # auto picks lex here, which needs no oracle: the one call is the
    # error-formula check
    assert read_json(str(rep))["oracle"]["calls"] == 1


def test_auto_invalid_vector_exit_10(tmp_path, spec_file, monkeypatch):
    zero = Circuit((("const", 0),), (0,))
    monkeypatch.setattr(synth, "synth_lex", lambda spec, m_limit=16:
                        vector_from_circuits(spec.n, [zero] * spec.m))
    rep = tmp_path / "rep.json"
    assert main(["synth", spec_file, "--json", str(rep)]) == 10
    assert read_json(str(rep))["verdict"] == "counterexample"


# ---------------------------------------------------------------------------
# usage errors

def test_verify_malformed_vector_exit_64(tmp_path, spec_file, capsys):
    aag = tmp_path / "vec.aag"
    assert main(["synth", spec_file, "--format", "aiger-ascii",
                 "-o", str(aag)]) == 0
    cut = tmp_path / "cut.aag"
    cut.write_text("\n".join(aag.read_text().splitlines()[:2]) + "\n")
    bad = [cut]
    for i, text in enumerate(["skolem 1 1\ny1 := \n",
                              "skolem 1 1\ng1 = AND(x1,)\ny1 := g1\n"]):
        bad.append(tmp_path / f"bad{i}.skolem")
        bad[-1].write_text(text)
    capsys.readouterr()
    for path in bad:
        assert main(["verify", spec_file, str(path)]) == 64
    assert "Traceback" not in capsys.readouterr().err


def test_verify_redefining_aiger_exit_64(tmp_path, spec_file, capsys):
    # both files read as y1 := x1, a valid vector, if redefinitions pass
    for i, text in enumerate(["aag 1 1 0 1 0\n1\n1\n",
                              "aag 2 1 0 1 1\n2\n3\n3 2 2\n"]):
        path = tmp_path / f"redef{i}.aag"
        path.write_text(text)
        assert main(["verify", spec_file, str(path)]) == 64
    assert "Traceback" not in capsys.readouterr().err


def test_usage_errors_exit_64(tmp_path, spec_file):
    with pytest.raises(SystemExit) as e:
        main(["synth", spec_file, "--strategy", "bogus"])
    assert e.value.code == 64
    assert main(["synth", spec_file, "--strategy", "lex",
                 "--lex-limit", "0"]) == 64
    assert main(["synth", str(tmp_path / "missing.qdimacs")]) == 64
    assert main(["synth", spec_file, "--solver", "magic"]) == 64
    bad = tmp_path / "bad.qdimacs"
    bad.write_text("p cnf oops\n")
    assert main(["verify", str(bad), spec_file]) == 64


def test_missing_external_solver_exit_64(tmp_path, spec_file, capsys):
    assert main(["synth", spec_file, "--solver",
                 f"exec:{tmp_path / 'no-such-solver'}"]) == 64
    err = capsys.readouterr().err
    assert "external solver: cannot run" in err and "Traceback" not in err


def test_verify_shape_mismatch_exit_64(tmp_path, spec_file, capsys):
    vec = tmp_path / "wide.skolem"
    vec.write_text("skolem 1 2\ny1 := x2\n")   # m = 1, n = 2
    assert main(["verify", spec_file, str(vec)]) == 64
    err = capsys.readouterr().err
    assert "does not match spec" in err and "Traceback" not in err


def test_synth_rejects_pool_multiplicity_below_one(spec_file, capsys):
    for d in ("0", "-2"):
        with pytest.raises(SystemExit) as e:
            main(["synth", spec_file, "--strategy", "unique", "--d", d])
        assert e.value.code == 64
        err = capsys.readouterr().err
        assert "--d" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["synth", "{spec}", "-o", "{bad}"],
    ["synth", "{spec}", "--json", "{bad}"],
    ["count", "{spec}", "--json", "{bad}"],
    ["gen", "factor", "--bits", "3", "-o", "{ok}", "--ground-truth", "{bad}"],
    ["interp-exp", "--m", "1", "-o", "{bad}"],
])
def test_unwritable_output_exit_64(tmp_path, spec_file, capsys, argv):
    paths = {"spec": spec_file, "bad": str(tmp_path / "missing" / "out"),
             "ok": str(tmp_path / "ok.qdimacs")}
    assert main([a.format(**paths) for a in argv]) == 64
    err = capsys.readouterr().err
    assert "skolemkit: error:" in err and "Traceback" not in err


def test_solver_timeout_exit_20(spec_file, sleepy_solver, capsys):
    assert main(["check-unique", spec_file, "--bit", "1", "--solver",
                 f"exec:{sleepy_solver}", "--timeout", "0.2"]) == 20
    err = capsys.readouterr().err
    assert "skolemkit: resource limit:" in err and "Traceback" not in err


def test_solver_unknown_exit_20(tmp_path, spec_file, capsys):
    sh = tmp_path / "unknown.sh"
    sh.write_text("#!/bin/sh\ncat > /dev/null\necho 's UNKNOWN'\n")
    sh.chmod(0o755)
    assert main(["check-unique", spec_file, "--bit", "1", "--solver",
                 f"exec:{sh}"]) == 20
    err = capsys.readouterr().err
    assert "skolemkit: resource limit:" in err and "Traceback" not in err


def test_timeout_must_be_above_zero(spec_file, mini_solver, capsys):
    for timeout in ("0", "-1", "nan", "inf"):
        with pytest.raises(SystemExit) as e:
            main(["check-unique", spec_file, "--bit", "1", "--solver",
                  f"exec:{mini_solver}", "--timeout", timeout])
        assert e.value.code == 64
        err = capsys.readouterr().err
        assert "--timeout" in err and "Traceback" not in err


def test_check_unique_exit_codes(tmp_path, spec_file):
    assert main(["check-unique", spec_file, "--bit", "1"]) == 0
    assert main(["check-unique", spec_file, "--bit", "2"]) == 64
    free = tmp_path / "free.qdimacs"
    free.write_text(FREE_Y)
    rep = tmp_path / "rep.json"
    assert main(["check-unique", str(free), "--bit", "1",
                 "--json", str(rep)]) == 10
    assert read_json(str(rep))["unique"] is False


def test_solver_env_selects_exec_backend(tmp_path, unsat_solver,
                                         monkeypatch):
    # bit 1 of FREE_Y is not unique; only the stub can call it unique
    free = tmp_path / "free.qdimacs"
    free.write_text(FREE_Y)
    monkeypatch.setenv("SKOLEMKIT_SOLVER", unsat_solver)
    assert main(["check-unique", str(free), "--bit", "1"]) == 0
    assert main(["check-unique", str(free), "--bit", "1",
                 "--solver", "internal"]) == 10


def test_verify_exec_backend(tmp_path, spec_file, mini_solver):
    vec = tmp_path / "vec.skolem"
    assert main(["synth", spec_file, "--strategy", "lex",
                 "-o", str(vec)]) == 0
    rep = tmp_path / "rep.json"
    assert main(["verify", spec_file, str(vec), "--solver",
                 f"exec:{mini_solver}", "--json", str(rep)]) == 0
    report = read_json(str(rep))
    assert report["verdict"] == "valid"
    assert report["oracle"]["calls"] == 1


# ---------------------------------------------------------------------------
# gen

def test_gen_bphp_pipeline(tmp_path):
    out = tmp_path / "bphp.qdimacs"
    gt = tmp_path / "bphp.json"
    assert main(["gen", "bphp", "--k", "3", "--m", "1", "--regime",
                 "paper", "-o", str(out), "--ground-truth", str(gt)]) == 0
    truth = read_json(str(gt))
    assert truth["family"] == "bphp"
    vec = tmp_path / "vec.skolem"
    assert main(["synth", str(out), "--strategy", "lex",
                 "-o", str(vec)]) == 0
    assert main(["verify", str(out), str(vec)]) == 0


def test_gen_planted_ground_truth(tmp_path):
    out = tmp_path / "planted.qdimacs"
    gt = tmp_path / "planted.json"
    assert main(["gen", "planted", "--n", "4", "--m", "3", "--k", "2",
                 "--seed", "1", "-o", str(out),
                 "--ground-truth", str(gt)]) == 0
    truth = read_json(str(gt))
    assert len(truth["targets"]) == 2
    assert all(len(t) == 3 for t in truth["targets"])


def test_gen_trap_truth_verifies(tmp_path):
    out = tmp_path / "trap.qdimacs"
    gt = tmp_path / "trap.json"
    assert main(["gen", "trap", "--n", "5", "--m", "4",
                 "--window-bits", "2", "-o", str(out),
                 "--ground-truth", str(gt)]) == 0
    vec = tmp_path / "truth.skolem"
    vec.write_text(read_json(str(gt))["skolem"])
    assert main(["verify", str(out), str(vec)]) == 0


def test_gen_invalid_params_exit_64(tmp_path):
    assert main(["gen", "bphp", "--k", "4", "--m", "2",
                 "-o", str(tmp_path / "x.qdimacs")]) == 64


# ---------------------------------------------------------------------------
# count / interp-exp

def test_count_report(tmp_path, spec_file):
    rep = tmp_path / "rep.json"
    assert main(["count", spec_file, "--project", "xy",
                 "--json", str(rep)]) == 0
    report = read_json(str(rep))
    assert report["estimate"] == 2
    assert report["projection"] == "xy"


def test_count_rejects_fewer_than_one_trial(spec_file, capsys):
    for trials in ("0", "-1"):
        assert main(["count", spec_file, "--trials", trials]) == 64
        assert "Traceback" not in capsys.readouterr().err


def test_interp_exp_csv(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["interp-exp", "--m", "1..2", "-o", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["m"] for r in rows] == ["1", "2"]
    assert all(int(r["interpolantSize"]) >= 0 for r in rows)
    assert main(["interp-exp", "--m", "zero"]) == 64


@pytest.mark.parametrize("m", ["7", "40", "1..7", "5,7", "1..1000000000000",
                               "0..2", "3..2"])
def test_interp_exp_rejects_m_out_of_range(m, capsys):
    # m above 6 asks for a ground truth over 2^m + 1 pigeons that no
    # conflict budget bounds; the check runs before any row is computed
    assert main(["interp-exp", "--m", m, "--max-conflicts", "1"]) == 64
    err = capsys.readouterr().err
    assert "1..6" in err and "Traceback" not in err


def test_json_report_to_stdout(spec_file, capsys):
    assert main(["check-unique", spec_file, "--bit", "1",
                 "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "check-unique" and report["unique"] is True


def test_interp_exp_csv_to_stdout(capsys):
    assert main(["interp-exp", "--m", "1"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["m"], r["k"]) for r in rows] == [("1", "3")]


def test_interp_exp_rejects_negative_conflict_budget(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["interp-exp", "--m", "1", "--max-conflicts", "-1"])
    assert e.value.code == 64
    err = capsys.readouterr().err
    assert "--max-conflicts" in err and "Traceback" not in err
    assert main(["interp-exp", "--m", "1", "--max-conflicts", "0",
                 "-o", str(tmp_path / "rows.csv")]) == 0


# ---------------------------------------------------------------------------
# cold start

COLD_START = """
import json, sys
from skolemkit.cli import main
ran = [(None, "numpy" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    ran.append((main(argv), "numpy" in sys.modules))
print(json.dumps(ran))
"""


def test_cold_start_imports_numpy_only_for_the_learner(tmp_path, spec_file):
    # one fresh interpreter imports the CLI, then runs the commands in turn
    spec, vec = str(tmp_path / "planted.qdimacs"), str(tmp_path / "v.skolem")
    commands = [
        ["gen", "planted", "--n", "4", "--m", "3", "--k", "2", "-o", spec],
        ["synth", spec, "--strategy", "cover", "-o", vec],
        ["synth", spec, "--strategy", "lex", "-o", vec],
        ["verify", spec, vec],
        ["count", spec],
        ["check-unique", spec, "--bit", "1"],
        ["synth", spec_file, "--strategy", "unique", "-o", vec],
    ]
    src = str(Path(skolemkit.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    ran = [tuple(r) for r in json.loads(run.stdout.splitlines()[-1])]
    # every command ran to a verdict of 0 (bit 1 of the planted spec is
    # unique); numpy stays out through the import and every command before
    # the learner's exact tier
    assert ran == [(None, False)] + [(0, False)] * 6 + [(0, True)]


# ---------------------------------------------------------------------------
# determinism

def strip_timing(report):
    report.pop("timing", None)
    return report


def test_report_determinism(tmp_path):
    spec = tmp_path / "p.qdimacs"
    gt = tmp_path / "gt.json"
    assert main(["gen", "planted", "--n", "6", "--m", "4", "--k", "3",
                 "--seed", "2", "-o", str(spec),
                 "--ground-truth", str(gt)]) == 0
    reports = []
    for tag in ("a", "b"):
        rep = tmp_path / f"{tag}.json"
        out = tmp_path / f"{tag}.skolem"
        assert main(["synth", str(spec), "--strategy", "cover",
                     "--seed", "9", "-o", str(out),
                     "--json", str(rep)]) == 0
        r = strip_timing(read_json(str(rep)))
        r.pop("outputFile")
        reports.append(r)
    assert reports[0] == reports[1]
