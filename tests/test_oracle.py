import collections
import itertools
import random
import subprocess

import pytest

import skolemkit.oracle as oracle_mod
from skolemkit.cnf import Cnf
from skolemkit.oracle import (ExternalSolverError, Oracle,
                              approx_count_projected, labeled_rng,
                              solve_external)
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
    assert Oracle().solve(c) is None


def test_solve_agrees_with_enumeration():
    rng = random.Random(13)
    for _ in range(100):
        cnf = random_cnf(rng, rng.randint(2, 8))
        got = Oracle().solve(cnf) is not None
        assert got == (brute_count(cnf, range(1, cnf.nvars + 1)) > 0)


def test_oracle_stats_and_enumerate():
    o = Oracle()
    c = Cnf(3)
    c.add([1, 2])
    o.solve(c)
    assert o.calls == 1
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
        assert (res is None) == (Oracle().solve(cnf) is None)


def test_external_file_placeholder(tmp_path, mini_solver):
    sh = tmp_path / "file.sh"
    sh.write_text(f"#!/bin/sh\nexec {mini_solver} < \"$1\"\n")
    sh.chmod(0o755)
    cnf = Cnf(2)
    cnf.add([1, 2])
    res = solve_external(cnf, f"{sh} {{file}}", 30)
    assert res is not None


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


@pytest.mark.parametrize("answer, error", [
    ("echo 's UNKNOWN'", ResourceLimitError),
    ("echo 's MAYBE'", ExternalSolverError),
    ("echo 's SATISFIABLE'\necho 'v 1 x 0'", ExternalSolverError),
], ids=["unknown", "maybe", "bad-model-line"])
def test_external_status_answers(tmp_path, answer, error):
    sh = tmp_path / "answer.sh"
    sh.write_text(f"#!/bin/sh\ncat > /dev/null\n{answer}\n")
    sh.chmod(0o755)
    cnf = Cnf(1)
    cnf.add([1])
    with pytest.raises(error):
        solve_external(cnf, str(sh), 30)


def test_external_timeout(tmp_path):
    sh = tmp_path / "slow.sh"
    sh.write_text("#!/bin/sh\ncat > /dev/null\nsleep 30\n")
    sh.chmod(0o755)
    cnf = Cnf(1)
    cnf.add([1])
    with pytest.raises(ResourceLimitError):
        solve_external(cnf, str(sh), 0.2)


@pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0, -1])
def test_oracle_rejects_bad_timeout(mini_solver, timeout):
    # inf reached subprocess.run, which raised OverflowError
    with pytest.raises(ValueError):
        Oracle(backend=f"exec:{mini_solver}", timeout=timeout)


def test_oracle_exec_backend(mini_solver):
    o = Oracle(backend=f"exec:{mini_solver}", timeout=30)
    cnf = Cnf(2)
    cnf.add([1])
    cnf.add([-1, 2])
    model = o.solve(cnf)
    assert model is not None and model[2] == 1
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


def test_calls_equal_solver_runs(monkeypatch, solver_runs):
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
        list(itertools.islice(o.enumerate(cnf, proj[:3]), 2))
        approx_count_projected(cnf, proj, seed=seed, oracle=o)
        with monkeypatch.context() as mp:
            # a pivot of 1 often needs trials that only supply the cell
            mp.setattr(oracle_mod, "PIVOT", 1)
            approx_count_projected(cnf, proj, epsilon_trials=1, seed=seed,
                                   oracle=o)
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


class DrawnRows(oracle_mod._NestedCells):
    """_NestedCells that encodes each row as drawn, without reducing it."""

    def _draw_row(self):
        mask = sum(self.rng.getrandbits(1) << i
                   for i in range(len(self.proj)))
        self._add_row(mask, self.rng.getrandbits(1))


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
        drawn, cells = (cls(cnf, proj, labeled_rng(t, "cells"), Oracle())
                        for cls in (DrawnRows, oracle_mod._NestedCells))
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
                                            labeled_rng(t, "dependent"), o)
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
    monkeypatch.setattr(oracle_mod, "_NestedCells", DrawnRows)
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
# sampling: a uniform draw from the counted cell

def draw(cnf, proj, seed, oracle=None, trials=9):
    """A model drawn from the counted cell, or None when cnf is unsat."""
    est = approx_count_projected(cnf, proj, epsilon_trials=trials, seed=seed,
                                 oracle=oracle)
    if not est.estimate:
        return None
    return labeled_rng(seed, "draw").choice(est.cell)


def saturated_cell(models, nproj, seed, t):
    """(level, cell) of counting trial t, from its redrawn rows: the
    smallest level whose cell holds at most PIVOT models, or nproj."""
    rows = []
    cell = models
    rng = labeled_rng(seed, f"count/{t}")
    while len(cell) > oracle_mod.PIVOT and len(rows) < nproj:
        mask = sum(rng.getrandbits(1) << i for i in range(nproj))
        rows.append((mask, rng.getrandbits(1)))
        cell = set(cell_of(models, rows))
    return len(rows), cell


def test_count_cell_is_a_trials_saturated_cell(monkeypatch):
    # the cell is the last counted trial's saturated cell with 0 < size <=
    # PIVOT, or else that of the first later trial that has one
    monkeypatch.setattr(oracle_mod, "PIVOT", 3)
    rng = random.Random(71)
    hashed = 0
    for seed in range(40):
        cnf = random_cnf(rng, rng.randint(3, 8), factor=0.6)
        proj = list(range(1, rng.randint(2, cnf.nvars) + 1))
        models = projected_models(cnf, proj)
        if not models:
            continue
        est = approx_count_projected(cnf, proj, epsilon_trials=3, seed=seed)
        got = [tuple(m[v] for v in proj) for m in est.cell]
        assert 0 < len(got) <= oracle_mod.PIVOT
        # sorted by projection, so a draw depends only on the cell's set
        assert all(a < b for a, b in zip(got, got[1:]))
        for m in est.cell:
            assert set(m) == set(range(1, cnf.nvars + 1))
            for cl in cnf.clauses:
                assert any(m[abs(l)] == (l > 0) for l in cl)
        want = models
        if len(models) > oracle_mod.PIVOT:
            hashed += 1
            cells = [saturated_cell(models, len(proj), seed, t)[1]
                     for t in range(3)]
            while not any(0 < len(c) <= oracle_mod.PIVOT for c in cells):
                cells.append(saturated_cell(models, len(proj), seed,
                                            len(cells))[1])
            want = [c for c in cells if 0 < len(c) <= oracle_mod.PIVOT][-1]
        assert set(got) == want
    assert hashed >= 30


def test_count_draw_only_trials(monkeypatch):
    # models {000, 111} with a pivot of 1: a level-1 row of even weight
    # keeps both points or neither, so trial 0 often has no usable cell;
    # a later trial supplies the cell and leaves the estimate alone
    monkeypatch.setattr(oracle_mod, "PIVOT", 1)
    labels = []
    rng = oracle_mod.labeled_rng

    def recorded(seed, label):
        labels.append(label)
        return rng(seed, label)
    monkeypatch.setattr(oracle_mod, "labeled_rng", recorded)
    cnf = Cnf(3)
    for a, b in ((1, 2), (2, 3), (3, 1)):
        cnf.add([-a, b])
    models = projected_models(cnf, [1, 2, 3])
    assert models == {(0, 0, 0), (1, 1, 1)}
    taken = 0
    for seed in range(100):
        labels.clear()
        est = approx_count_projected(cnf, [1, 2, 3], epsilon_trials=1,
                                     seed=seed)
        level, cell = saturated_cell(models, 3, seed, 0)
        extra = "count/1" in labels
        assert extra == (len(cell) != 1)
        taken += extra
        assert len(est.cell) == 1 and est.trials == 1
        assert est.hash_bits == level
        assert est.estimate == (len(cell) << level if cell
                                else 2 << (level - 1))
    assert 0 < taken < 100


def test_sample_hashbits_zero_is_plain_solve():
    cnf = Cnf(2)
    cnf.add([1])
    est = approx_count_projected(cnf, [1, 2], seed=5)
    assert est.hash_bits == 0 and len(est.cell) == 2
    model = draw(cnf, [1, 2], seed=5)
    assert model is not None and model[1] == 1


def test_sample_models_satisfy_query(monkeypatch):
    # a pivot of 3 makes most of these cells hashed
    monkeypatch.setattr(oracle_mod, "PIVOT", 3)
    rng = random.Random(3)
    for seed in range(20):
        cnf = random_cnf(rng, 6, factor=1.5)
        model = draw(cnf, list(range(1, 7)), seed=seed)
        assert (model is not None) == (brute_count(cnf, range(1, 7)) > 0)
        if model is not None:
            assert set(model) == set(range(1, cnf.nvars + 1))
            for cl in cnf.clauses:
                assert any(model[abs(l)] == (l > 0) for l in cl)


def test_sample_finds_lone_model():
    # a lone model is counted at level 0, so every draw finds it
    cnf = Cnf(2)
    cnf.add([1])
    cnf.add([2])
    for s in range(10):
        model = draw(cnf, [1, 2], seed=s)
        assert model is not None and (model[1], model[2]) == (1, 1)


def test_sample_exec_backend(monkeypatch, mini_solver):
    monkeypatch.setattr(oracle_mod, "PIVOT", 3)
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
        model = draw(cnf, [1, 2, 3, 4], seed, ext, trials=3)
        assert (model is not None) == (brute_count(cnf, [1, 2, 3, 4]) > 0)
        if model is not None:
            assert set(model) == set(range(1, cnf.nvars + 1))
            for cl in cnf.clauses:
                assert any(model[abs(l)] == (l > 0) for l in cl)
        assert ext.calls == len(processes)
        processes.clear()


def test_sample_roughly_uniform():
    # free space over 6 projected vars: 64 models, counted in cells of
    # about 32
    cnf = Cnf(6)
    freq = collections.Counter()
    draws = 600
    for s in range(draws):
        model = draw(cnf, list(range(1, 7)), seed=s, trials=1)
        if model is not None:
            freq[tuple(model[v] for v in range(1, 7))] += 1
    total = sum(freq.values())
    assert total > draws * 0.5
    expected = total / 64
    assert len(freq) >= 48  # most points reachable
    assert max(freq.values()) <= 3 * expected + 3
