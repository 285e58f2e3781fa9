import collections
import itertools
import random
import subprocess

import pytest

import skolemkit.oracle as oracle_mod
from skolemkit.cnf import Cnf
from skolemkit.oracle import (ExternalSolverError, Oracle,
                              approx_count_projected, labeled_rng,
                              sample_projected, solve_external)
from skolemkit.solver import ResourceLimitError, Solver


def projected_models(cnf, proj):
    models = set()
    for bits in itertools.product((0, 1), repeat=cnf.nvars):
        model = dict(zip(range(1, cnf.nvars + 1), bits))
        if all(any(model[abs(l)] == (l > 0) for l in c)
               for c in cnf.clauses):
            models.add(tuple(model[v] for v in proj))
    return models


def brute_count(cnf, proj):
    return len(projected_models(cnf, proj))


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


# ---------------------------------------------------------------------------
# external adapter

def test_external_agrees_with_internal(mini_solver):
    rng = random.Random(17)
    for _ in range(25):
        cnf = random_cnf(rng, rng.randint(2, 6))
        res = solve_external(cnf, mini_solver, 30)
        assert res.is_sat == Oracle().solve(cnf).is_sat


def test_external_file_placeholder(tmp_path, mini_solver):
    sh = tmp_path / "file.sh"
    sh.write_text(f"#!/bin/sh\nexec {mini_solver} < \"$1\"\n")
    sh.chmod(0o755)
    cnf = Cnf(2)
    cnf.add([1, 2])
    res = solve_external(cnf, f"{sh} {{file}}", 30)
    assert res.is_sat


def test_external_garbled_output(tmp_path):
    sh = tmp_path / "garbled.sh"
    sh.write_text("#!/bin/sh\necho 'hello world'\n")
    sh.chmod(0o755)
    cnf = Cnf(1)
    cnf.add([1])
    with pytest.raises(ExternalSolverError):
        solve_external(cnf, str(sh), 30)


def test_external_bogus_model_rejected(tmp_path):
    sh = tmp_path / "liar.sh"
    sh.write_text("#!/bin/sh\ncat > /dev/null\n"
                  "echo 's SATISFIABLE'\necho 'v -1 0'\n")
    sh.chmod(0o755)
    cnf = Cnf(1)
    cnf.add([1])
    with pytest.raises(ExternalSolverError):
        solve_external(cnf, str(sh), 30)


def test_external_timeout(tmp_path):
    sh = tmp_path / "slow.sh"
    sh.write_text("#!/bin/sh\ncat > /dev/null\nsleep 30\n")
    sh.chmod(0o755)
    cnf = Cnf(1)
    cnf.add([1])
    with pytest.raises(ResourceLimitError):
        solve_external(cnf, str(sh), 0.2)


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
# solve counting

@pytest.fixture
def solver_runs(monkeypatch):
    """A list that grows by one on every Solver.solve run."""
    runs = []
    solve = Solver.solve

    def counted(self, *args, **kwargs):
        runs.append(None)
        return solve(self, *args, **kwargs)
    monkeypatch.setattr(Solver, "solve", counted)
    return runs


def test_calls_equal_solver_runs(solver_runs):
    rng = random.Random(29)
    empty = Cnf(2)
    empty.add([])
    cnfs = [empty] + [random_cnf(rng, rng.randint(2, 8), factor=1.0)
                      for _ in range(20)]
    for seed, cnf in enumerate(cnfs):
        proj = list(range(1, cnf.nvars + 1))
        o = Oracle()
        before = len(solver_runs)
        o.solve(cnf)
        list(o.enumerate(cnf, proj))
        list(o.enumerate(cnf, proj[:3], limit=2))
        approx_count_projected(cnf, proj, seed=seed, oracle=o)
        sample_projected(cnf, proj, 3, seed, o, label="t")
        assert o.calls == len(solver_runs) - before


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


def test_count_exact_up_to_pivot_from_any_hint():
    rng = random.Random(43)
    checked = 0
    while checked < 30:
        cnf = random_cnf(rng, rng.randint(4, 8), factor=1.0)
        proj = list(range(1, cnf.nvars + 1))
        truth = brute_count(cnf, proj)
        if truth > oracle_mod.PIVOT:
            continue
        hint = rng.choice([None, 0, 1, 3, len(proj), 2 * len(proj)])
        est = approx_count_projected(cnf, proj, seed=checked,
                                     level_hint=hint)
        assert (est.estimate, est.hash_bits) == (truth, 0)
        checked += 1


def cell_of(points, rows):
    """The points that satisfy every (mask, parity) row."""
    return [m for m in points
            if all(sum(b for i, b in enumerate(m) if mask >> i & 1) % 2 == p
                   for mask, p in rows)]


def test_nested_cell_counts_match_brute_force(monkeypatch):
    # levels probed in any order, deeper or shallower than the last, count
    # min(|cell|, PIVOT + 1) of the cell cut by the trial's first drawn
    # rows, whether the rows enter the query as drawn or reduced; the
    # drawn rows are those of a twin session on the same labeled stream
    monkeypatch.setattr(oracle_mod, "PIVOT", 5)
    rng = random.Random(47)
    for t in range(30):
        cnf = random_cnf(rng, rng.randint(3, 7), factor=0.7)
        proj = list(range(1, cnf.nvars + 1))
        models = projected_models(cnf, proj)
        drawn, cells = (oracle_mod._NestedCells(
            cnf, proj, labeled_rng(t, "cells"), Oracle(), reduce_rows=r)
            for r in (False, True))
        for level in [rng.randint(0, len(proj)) for _ in range(8)]:
            got = drawn.count(level), cells.count(level)
            cell = cell_of(models, drawn.rows[:level])
            assert got == (min(len(cell), 6),) * 2
        # forward elimination: each nonzero encoded row is 0 at the pivots
        # (lowest bits) of the rows before it, so the pivots are distinct
        pivots = []
        for m, _ in cells.rows:
            assert not any(m & p for p in pivots)
            if m:
                pivots.append(m & -m)


def test_dependent_rows_add_no_assumption_or_empty_the_cell():
    # 3 projected variables drawn to 12 levels: past the rows' rank each
    # reduced row is zero; parity 0 adds no assumption and keeps the cell,
    # parity 1 empties the cell and its level is answered without a solve
    points = list(itertools.product((0, 1), repeat=3))
    seen = set()
    for t in range(20):
        for level in range(1, 13):
            o = Oracle()
            cells = oracle_mod._NestedCells(Cnf(3), [1, 2, 3],
                                            labeled_rng(t, "dependent"), o,
                                            reduce_rows=True)
            model = cells.solve(level)
            assert sum(a is not None for a in cells.assumptions) <= 3
            if cells.assumptions[level - 1] is not None:
                continue
            cell = cell_of(points, cells.rows[:level])
            enclosing = cell_of(points, cells.rows[:level - 1])
            if cell:
                assert cell == enclosing and o.calls == 1
                assert tuple(model[v] for v in (1, 2, 3)) in cell
                seen.add(0)
            elif enclosing:
                assert model is None and o.calls == 0
                assert cells.complete == level
                seen.add(1)
    assert seen == {0, 1}


def test_reduced_rows_keep_every_estimate(monkeypatch):
    # reduction changes how each row is encoded, not which cells the rows
    # cut, so counting with the drawn rows gives the same estimates
    monkeypatch.setattr(oracle_mod, "PIVOT", 3)
    rng = random.Random(59)
    cnfs = [random_cnf(rng, rng.randint(4, 9), factor=0.6)
            for _ in range(40)]

    def estimates():
        ests = [approx_count_projected(cnf, range(1, cnf.nvars + 1),
                                       epsilon_trials=3, seed=seed)
                for seed, cnf in enumerate(cnfs)]
        return [(e.estimate, e.hash_bits, e.trials) for e in ests]
    reduced = estimates()
    plain = oracle_mod._NestedCells
    monkeypatch.setattr(
        oracle_mod, "_NestedCells",
        lambda cnf, proj, rng, oracle, reduce_rows=False:
            plain(cnf, proj, rng, oracle))
    assert estimates() == reduced
    assert sum(hash_bits > 0 for _, hash_bits, _ in reduced) >= 20


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


def test_count_is_zero_only_when_unsat(monkeypatch):
    # with a pivot of 1, a cell above level 0 is often empty: a row over
    # fixed variables only, or over none, with the wrong parity
    monkeypatch.setattr(oracle_mod, "PIVOT", 1)
    rng = random.Random(53)
    for seed in range(60):
        cnf = random_cnf(rng, rng.randint(2, 6), factor=1.0)
        proj = list(range(1, cnf.nvars + 1))
        est = approx_count_projected(cnf, proj, epsilon_trials=1, seed=seed)
        assert (est.estimate == 0) == (brute_count(cnf, proj) == 0)


def test_count_same_on_both_backends(monkeypatch, mini_solver):
    # capped cell counts do not depend on which models a solver returns,
    # so neither do the estimates; a small pivot makes 5 variables hash
    monkeypatch.setattr(oracle_mod, "PIVOT", 3)
    processes = []
    run = subprocess.run

    def counted(*args, **kwargs):
        processes.append(None)
        return run(*args, **kwargs)
    monkeypatch.setattr(subprocess, "run", counted)
    rng = random.Random(41)
    hashed = 0
    for seed in range(3):
        cnf = random_cnf(rng, 5, factor=0.5)
        proj = list(range(1, cnf.nvars + 1))
        ext = Oracle(backend=f"exec:{mini_solver}", timeout=30)
        got = approx_count_projected(cnf, proj, epsilon_trials=3, seed=seed,
                                     oracle=ext)
        want = approx_count_projected(cnf, proj, epsilon_trials=3,
                                      seed=seed)
        assert (got.estimate, got.hash_bits, got.trials) == \
            (want.estimate, want.hash_bits, want.trials)
        assert ext.calls == len(processes)
        processes.clear()
        hashed += got.hash_bits > 0
    assert hashed == 3


# ---------------------------------------------------------------------------
# sampling

def test_sample_hashbits_zero_is_plain_solve():
    cnf = Cnf(2)
    cnf.add([1])
    res = sample_projected(cnf, [1, 2], 0, seed=5)
    assert res.is_sat and res.model[1] == 1


def test_sample_unsat_cnf_costs_at_most_hash_bits_plus_one():
    # every clause over 3 variables: unsat, but not at the root
    unsat = Cnf(4)
    for signs in itertools.product((1, -1), repeat=3):
        unsat.add([s * v for s, v in zip(signs, (1, 2, 3))])
    for hash_bits in range(5):
        for seed in range(5):
            o = Oracle()
            res = sample_projected(unsat, [1, 2, 3, 4], hash_bits, seed, o)
            assert not res.is_sat
            assert o.calls <= hash_bits + 1


def test_sample_models_satisfy_query():
    rng = random.Random(3)
    for seed in range(20):
        cnf = random_cnf(rng, 6, factor=1.5)
        res = sample_projected(cnf, list(range(1, 7)), 2, seed=seed)
        if res.is_sat:
            assert set(res.model) == set(range(1, cnf.nvars + 1))
            for cl in cnf.clauses:
                assert any(res.model[abs(l)] == (l > 0) for l in cl)


def test_sample_finds_lone_model():
    # most cells of 2 rows miss the lone model; the sample still finds it
    cnf = Cnf(2)
    cnf.add([1])
    cnf.add([2])
    for s in range(10):
        res = sample_projected(cnf, [1, 2], 2, seed=s)
        assert res.is_sat and (res.model[1], res.model[2]) == (1, 1)


def test_sample_lies_in_deepest_nonempty_prefix_cell():
    rng = random.Random(61)
    for seed in range(30):
        cnf = random_cnf(rng, 6, factor=1.0)
        proj = [1, 2, 3, 4, 5]
        hash_bits = seed % 5
        res = sample_projected(cnf, proj, hash_bits, seed, label="t")
        models = projected_models(cnf, proj)
        assert res.is_sat == bool(models)
        if not models:
            continue
        # redraw the rows: per row, a bit per projected variable, then
        # the parity
        draw = labeled_rng(seed, "t")
        rows = []
        for _ in range(hash_bits):
            picks = [i for i in range(len(proj)) if draw.getrandbits(1)]
            rows.append((picks, draw.getrandbits(1)))
        cells = [{m for m in models
                  if all(sum(m[i] for i in picks) % 2 == parity
                         for picks, parity in rows[:level])}
                 for level in range(hash_bits + 1)]
        deepest = max(lv for lv in range(hash_bits + 1) if cells[lv])
        assert tuple(res.model[v] for v in proj) in cells[deepest]


def test_sample_exec_backend(monkeypatch, mini_solver):
    processes = []
    run = subprocess.run

    def counted(*args, **kwargs):
        processes.append(None)
        return run(*args, **kwargs)
    monkeypatch.setattr(subprocess, "run", counted)
    rng = random.Random(67)
    for seed in range(4):
        cnf = random_cnf(rng, 4, factor=1.0)
        ext = Oracle(backend=f"exec:{mini_solver}", timeout=30)
        res = sample_projected(cnf, [1, 2, 3, 4], 2, seed, ext)
        assert res.is_sat == (brute_count(cnf, [1, 2, 3, 4]) > 0)
        if res.is_sat:
            assert set(res.model) == set(range(1, cnf.nvars + 1))
            for cl in cnf.clauses:
                assert any(res.model[abs(l)] == (l > 0) for l in cl)
        assert ext.calls == len(processes)
        processes.clear()


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
