import collections
import itertools
import os
import random
import stat
import sys

import pytest

from skolemkit.cnf import Cnf
from skolemkit.oracle import (SAMPLE_RETRIES, CountEstimate,
                              ExternalSolverError, Oracle, XorConstraint,
                              approx_count_projected, labeled_rng,
                              sample_projected, sample_with_retries,
                              solve_external)
from skolemkit.solver import ResourceLimitError


def brute_count(cnf, proj):
    proj = list(proj)
    seen = set()
    for bits in itertools.product((0, 1), repeat=cnf.nvars):
        model = dict(zip(range(1, cnf.nvars + 1), bits))
        if all(any(model[abs(l)] == (l > 0) for l in c)
               for c in cnf.clauses):
            seen.add(tuple(model[v] for v in proj))
    return len(seen)


def random_cnf(rng, nv, factor=3.0):
    cnf = Cnf(nv)
    for _ in range(rng.randint(1, int(factor * nv))):
        cnf.add([rng.choice([1, -1]) * rng.randint(1, nv)
                 for _ in range(rng.randint(1, 3))])
    return cnf


def test_solve_trivial():
    c = Cnf(1)
    c.add([1])
    c.add([-1])
    assert not Oracle().solve(c).is_sat
    c2 = Cnf(2)
    c2.add([1, 2])
    res = Oracle().solve(c2, assumptions={1: 0})
    assert res.is_sat and res.model[2] == 1


def test_solve_agrees_with_enumeration():
    rng = random.Random(13)
    for _ in range(100):
        cnf = random_cnf(rng, rng.randint(2, 8))
        got = Oracle().solve(cnf).is_sat
        assert got == (brute_count(cnf, range(1, cnf.nvars + 1)) > 0)


def test_oracle_stats_and_enumerate():
    o = Oracle()
    c = Cnf(3)
    c.add([1, 2])
    o.solve(c)
    assert o.stats()["calls"] == 1
    got = sorted(o.enumerate(c, [1, 2]))
    assert got == [(0, 1), (1, 0), (1, 1)]


def test_labeled_rng_reproducible():
    assert labeled_rng(7, "a").random() == labeled_rng(7, "a").random()
    assert labeled_rng(7, "a").random() != labeled_rng(7, "b").random()


def test_xor_constraint_holds():
    rng = random.Random(1)
    c = XorConstraint([1, 3], 1)
    assert c.holds({1: 1, 2: 0, 3: 0})
    assert not c.holds({1: 1, 2: 1, 3: 1})


# ---------------------------------------------------------------------------
# external adapter

WRAPPER = """#!%(python)s
import itertools, sys
lines = sys.stdin.read().splitlines()
nv = 0
clauses = []
for line in lines:
    t = line.split()
    if not t or t[0] in ("c",):
        continue
    if t[0] == "p":
        nv = int(t[2]); continue
    clauses.append([int(x) for x in t[:-1]])
for bits in itertools.product((0, 1), repeat=nv):
    m = dict(zip(range(1, nv + 1), bits))
    if all(any(m[abs(l)] == (l > 0) for l in c) for c in clauses):
        print("s SATISFIABLE")
        print("v " + " ".join(str(v if m[v] else -v)
                              for v in range(1, nv + 1)) + " 0")
        sys.exit(10)
print("s UNSATISFIABLE")
sys.exit(20)
"""


@pytest.fixture
def mini_solver(tmp_path):
    path = tmp_path / "mini.py"
    path.write_text(WRAPPER % {"python": sys.executable})
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_external_agrees_with_internal(mini_solver):
    rng = random.Random(17)
    for _ in range(25):
        cnf = random_cnf(rng, rng.randint(2, 6))
        res = solve_external(cnf, {"command": mini_solver, "timeout": 30})
        assert res.is_sat == Oracle().solve(cnf).is_sat


def test_external_file_placeholder(tmp_path, mini_solver):
    sh = tmp_path / "file.sh"
    sh.write_text(f"#!/bin/sh\nexec {mini_solver} < \"$1\"\n")
    sh.chmod(0o755)
    cnf = Cnf(2)
    cnf.add([1, 2])
    res = solve_external(cnf, {"command": f"{sh} {{file}}", "timeout": 30})
    assert res.is_sat


def test_external_garbled_output(tmp_path):
    sh = tmp_path / "garbled.sh"
    sh.write_text("#!/bin/sh\necho 'hello world'\n")
    sh.chmod(0o755)
    cnf = Cnf(1)
    cnf.add([1])
    with pytest.raises(ExternalSolverError):
        solve_external(cnf, {"command": str(sh), "timeout": 30})


def test_external_bogus_model_rejected(tmp_path):
    sh = tmp_path / "liar.sh"
    sh.write_text("#!/bin/sh\ncat > /dev/null\n"
                  "echo 's SATISFIABLE'\necho 'v -1 0'\n")
    sh.chmod(0o755)
    cnf = Cnf(1)
    cnf.add([1])
    with pytest.raises(ExternalSolverError):
        solve_external(cnf, {"command": str(sh), "timeout": 30})


def test_external_timeout(tmp_path):
    sh = tmp_path / "slow.sh"
    sh.write_text("#!/bin/sh\ncat > /dev/null\nsleep 30\n")
    sh.chmod(0o755)
    cnf = Cnf(1)
    cnf.add([1])
    with pytest.raises(ResourceLimitError):
        solve_external(cnf, {"command": str(sh), "timeout": 0.2})


def test_external_env_fallback(mini_solver, monkeypatch):
    monkeypatch.setenv("SKOLEMKIT_SOLVER", mini_solver)
    cnf = Cnf(1)
    cnf.add([1])
    assert solve_external(cnf, {}).is_sat


def test_oracle_exec_backend(mini_solver):
    o = Oracle(backend=f"exec:{mini_solver}", timeout=30)
    cnf = Cnf(2)
    cnf.add([1])
    cnf.add([-1, 2])
    res = o.solve(cnf)
    assert res.is_sat and res.model[2] == 1
    got = sorted(o.enumerate(cnf, [1, 2]))
    assert got == [(1, 1)]


# ---------------------------------------------------------------------------
# counting

def test_count_exact_small():
    cnf = Cnf(3)
    cnf.add([1])
    cnf.add([-2])
    est = approx_count_projected(cnf, [1, 2, 3], seed=0)
    assert est.estimate == 2 and est.hash_bits == 0
    unsat = Cnf(1)
    unsat.add([1])
    unsat.add([-1])
    assert approx_count_projected(unsat, [1], seed=0).estimate == 0


def test_count_single_model():
    cnf = Cnf(2)
    cnf.add([1])
    cnf.add([2])
    est = approx_count_projected(cnf, [1, 2], seed=0)
    assert est.estimate == 1


def test_count_within_factor_two_mostly():
    # free cube of dimension 8 inside 10 projected vars: true count 256
    cnf = Cnf(10)
    cnf.add([1])
    cnf.add([2])
    ok = 0
    runs = 20
    for seed in range(runs):
        est = approx_count_projected(cnf, list(range(1, 11)), seed=seed)
        if 128 <= est.estimate <= 512:
            ok += 1
    assert ok >= 0.8 * runs


def test_count_monotone_under_clause_addition():
    cnf = Cnf(9)
    bigger = approx_count_projected(cnf, list(range(1, 10)), seed=3).estimate
    cnf.add([1])
    smaller = approx_count_projected(cnf, list(range(1, 10)), seed=3).estimate
    assert brute_count(cnf, range(1, 10)) == 256
    assert smaller <= 2 * 256 and bigger >= 256


# ---------------------------------------------------------------------------
# sampling

def test_sample_hashbits_zero_is_plain_solve():
    cnf = Cnf(2)
    cnf.add([1])
    res = sample_projected(cnf, [1, 2], 0, seed=5)
    assert res.is_sat and res.model[1] == 1


def test_sample_with_retries_drops_bits_then_solves():
    sat = Cnf(2)
    sat.add([1])
    model = sample_with_retries(sat, [1, 2], 2, 0, Oracle(), label="t")
    assert model[1] == 1
    unsat = Cnf(2)
    unsat.add([1])
    unsat.add([-1])
    o = Oracle()
    assert sample_with_retries(unsat, [1, 2], 2, 0, o, label="t") is None
    # every retry is one sample, then one plain solve decides
    assert o.calls == SAMPLE_RETRIES + 2


def test_sample_models_satisfy_query():
    rng = random.Random(3)
    for seed in range(20):
        cnf = random_cnf(rng, 6, factor=1.5)
        res = sample_projected(cnf, list(range(1, 7)), 2, seed=seed)
        if res.is_sat:
            assert set(res.model) == set(range(1, cnf.nvars + 1))
            for cl in cnf.clauses:
                assert any(res.model[abs(l)] == (l > 0) for l in cl)


def test_sample_empty_cell_allowed():
    cnf = Cnf(2)
    cnf.add([1])
    cnf.add([2])  # single model
    outcomes = {sample_projected(cnf, [1, 2], 2, seed=s).status
                for s in range(10)}
    assert "unsat" in outcomes  # some cells miss the lone model


def test_sample_roughly_uniform():
    # free space over 6 projected vars, hash to cells of ~2
    cnf = Cnf(6)
    freq = collections.Counter()
    draws = 600
    for s in range(draws):
        res = sample_projected(cnf, list(range(1, 7)), 5, seed=s)
        if res.is_sat:
            freq[tuple(res.model[v] for v in range(1, 7))] += 1
    total = sum(freq.values())
    assert total > draws * 0.5
    expected = total / 64
    assert len(freq) >= 48  # most points reachable
    assert max(freq.values()) <= 3 * expected + 3
