"""Self-tests of the benchmark: every checker accepts the program's real
output on a tiny run of each workload and rejects a corrupted copy.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks      # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402
from skolemkit import benchgen, interplab, synth  # noqa: E402


def first_job(workload, tmp_path):
    job = workload.make_round(7, 0, str(tmp_path), set())[0]
    return job, job.run()


def override(vec_text: str, n: int, x: int, bits) -> str:
    """The vector with its outputs replaced by ``bits`` on input x only."""
    lines = vec_text.strip().splitlines()
    gates = [ln for ln in lines[1:] if ":=" not in ln]
    outs = dict(ln.split(" := ") for ln in lines[1:] if ":=" in ln)
    g = len(gates)
    new = []

    def gate(expr):
        nonlocal g
        g += 1
        new.append(f"g{g} = {expr}")
        return f"g{g}"

    lits = [f"x{i + 1}" if (x >> (n - 1 - i)) & 1 else gate(f"NOT(x{i + 1})")
            for i in range(n)]
    term = lits[0]
    for lit in lits[1:]:
        term = gate(f"AND({term},{lit})")
    off = gate(f"NOT({term})")
    for j, bit in enumerate(bits, start=1):
        keep = gate(f"AND({off},{outs[f'y{j}']})")
        outs[f"y{j}"] = gate(f"OR({keep},{term})") if bit else keep
    return "\n".join([lines[0]] + gates + new + [
        f"y{j} := {outs[f'y{j}']}" for j in range(1, len(bits) + 1)]) + "\n"


def outputs_at(vec_text: str, n: int, x: int) -> list:
    full = (1 << (1 << n)) - 1
    outs, _ = checks.eval_gatelist(vec_text, checks.lane_patterns(n), full)
    return [(mask >> x) & 1 for mask in outs]


def test_cover_checker_rejects_one_flipped_bit(tmp_path):
    w = workloads.CoverPlanted()
    job, (vec, report) = first_job(w, tmp_path)
    assert job.check((vec, report)) > 0
    bits = outputs_at(vec, w.N, 5)
    bits[0] ^= 1
    with pytest.raises(checks.CheckError):
        job.check((override(vec, w.N, 5, bits), report))
    with pytest.raises(checks.CheckError, match="cover size"):
        job.check((vec, dict(report, coverSize=2 * w.K * (w.N + 2) + 1)))


def test_factor_checker_rejects_a_non_lex_pair(tmp_path):
    w = workloads.LexFactor()
    job, vec = first_job(w, tmp_path)            # factor(5)
    assert job.check(vec) > 0
    # 12 = 2*6 = 3*4: (3, 4) is a factorization but not the lex-first one
    bits = [(3 >> (4 - i)) & 1 for i in range(5)] + \
           [(4 >> (4 - i)) & 1 for i in range(5)]
    with pytest.raises(checks.CheckError, match="not lex-first"):
        job.check(override(vec, 5, 12, bits))
    bits = [(5 >> (4 - i)) & 1 for i in range(5)] * 2
    with pytest.raises(checks.CheckError, match="not a nontrivial"):
        job.check(override(vec, 5, 12, bits))


def test_lex_checker_rejects_one_flipped_bit(tmp_path):
    spec, _, _ = benchgen.gen_trap(benchgen.TrapParams(6, 4, 2, seed=3))
    text = workloads.formula.write_qdimacs(spec)
    vec = workloads.formula.emit_skolem(synth.synth_lex(spec))
    assert checks.check_lex(text, vec, chunk_bits=3) > 0
    for x in (0, 37):
        bits = outputs_at(vec, 6, x)
        bits[-1] ^= 1
        with pytest.raises(checks.CheckError):
            checks.check_lex(text, override(vec, 6, x, bits), chunk_bits=3)


def test_learn_checker_rejects_a_negated_gate(tmp_path):
    job, h = first_job(workloads.LearnUnique(), tmp_path)
    assert job.check(h) == checks.gate_count(h.gates)
    negated = type(h)(h.gates + (("not", h.outputs[0]),), (len(h.gates),))
    with pytest.raises(checks.CheckError, match="differs from the target"):
        job.check(negated)


def test_learn_catalog_classes_are_large_and_disjoint():
    seen = set()
    for steps in workloads.LearnUnique.CATALOG:
        orbit = workloads.LearnUnique.orbit(steps)
        assert len(orbit) >= workloads.LearnUnique.MIN_ORBIT
        assert not orbit & seen
        seen |= orbit


def _wrong_literal(steps):
    idx = next(i for i, s in enumerate(steps)
               if s[0] == "resolve" and s[4])
    step = steps[idx]
    clause = (-step[4][0],) + step[4][1:]
    return steps[:idx] + [step[:4] + (clause,)] + steps[idx + 1:]


def test_interp_checkers_reject_corrupted_proof_and_interpolant(tmp_path):
    w = workloads.InterpBphp()
    job, (proof, interp) = first_job(w, tmp_path)
    assert job.check((proof, interp)) > 0
    bad = interplab.ResolutionProof()
    bad.steps = _wrong_literal(proof.steps)
    with pytest.raises(checks.CheckError, match="wrong resolvent"):
        job.check((bad, interp))
    flipped = type(interp)(interp.gates + (("not", interp.outputs[0]),),
                           (len(interp.gates),))
    with pytest.raises(checks.CheckError, match="interpolant is"):
        job.check((proof, flipped))


def test_interp_checkers_exhaustive_for_small_m():
    pair = benchgen.bphp_interpolation_pair(benchgen.BphpParams(5, 2))
    phi0, phi1 = pair.phi0.clauses, pair.phi1.clauses
    status, proof = interplab.solve_with_proof(pair.combined())
    proof = interplab.relabel_axioms(proof, pair)
    interp = interplab.extract_interpolant(pair, proof)
    checks.check_refutation(proof.steps, phi0, phi1)
    assert checks.check_interpolant(interp.gates, interp.outputs, phi0,
                                    phi1, 5, 2, len(proof), seed=0) > 0
    relabelled = list(proof.steps)
    ax = next(i for i, s in enumerate(relabelled) if s[0] == "axiom")
    other = "phi1" if relabelled[ax][2] == "phi0" else "phi0"
    relabelled[ax] = relabelled[ax][:2] + (other,)
    with pytest.raises(checks.CheckError, match="labelled"):
        checks.check_refutation(relabelled, phi0, phi1)
    const = ((("const", 1),), (0,))
    with pytest.raises(checks.CheckError, match="1 on a model of phi1"):
        checks.check_interpolant(*const, phi0, phi1, 5, 2, len(proof), 0)


def test_cnf_truth_matches_circuit_evaluation():
    spec, _, _ = benchgen.gen_trap(benchgen.TrapParams(5, 4, 2, seed=1))
    qd = checks.Qdimacs(workloads.formula.write_qdimacs(spec))
    nv = len(qd.xs) + len(qd.ys)
    full = (1 << (1 << nv)) - 1
    pats = checks.lane_patterns(nv)
    got = checks.cnf_truth(qd.clauses, dict(zip(qd.xs + qd.ys, pats)), full)
    want = checks.eval_gates(spec.matrix.gates, spec.matrix.outputs,
                             dict(zip(spec.x_vars + spec.y_vars, pats)),
                             full)[0]
    assert got == want


def test_tracer_wraps_names_imported_elsewhere_and_restores(tmp_path):
    tr = tracing.Tracer()
    before = synth.approx_count_projected
    undo = tracing.install(tr)
    try:
        assert synth.approx_count_projected is not before
        tr.enabled = True
        job, out = first_job(workloads.CoverPlanted(), tmp_path)
        tr.enabled = False
        tr.end_job(1.0)
    finally:
        undo()
    assert synth.approx_count_projected is before
    assert tr.calls["oracle.approx_count_projected"] > 0
    assert all(span is not None for span in tr.spans)
    metrics = tracing.layer_metrics(tr, 1)
    assert metrics["oracle.count_calls"] > 0
    assert metrics["synth.cover_iterations"] > 0
    assert sum(tr.self_s.values()) <= max(s[3] for s in tr.spans)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == tracing.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "jobs_per_s", "sat_solves", "circuit_gates",
        "peak_rss_mb"}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload",
                        "cover-planted", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
