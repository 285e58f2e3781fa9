import itertools
import random
from collections import Counter
from heapq import heappush

import pytest

from skolemkit import solver
from skolemkit.benchgen import BphpParams, bphp_interpolation_pair, gen_factor
from skolemkit.cnf import Cnf
from skolemkit.interplab import check_proof, expand_chains
from skolemkit.oracle import Oracle
from skolemkit.solver import ResourceLimitError, Solver, luby
from skolemkit.synth import synth_lex
from skolemkit.verify import build_error_formula


def brute_sat(cnf):
    for bits in itertools.product((0, 1), repeat=cnf.nvars):
        model = dict(zip(range(1, cnf.nvars + 1), bits))
        if all(any(model[abs(l)] == (l > 0) for l in c)
               for c in cnf.clauses):
            return model
    return None


def random_cnf(rng, nv=None, factor=4.0):
    nv = nv or rng.randint(2, 10)
    cnf = Cnf(nv)
    for _ in range(rng.randint(1, int(factor * nv))):
        w = rng.randint(1, 3)
        cnf.add([rng.choice([1, -1]) * rng.randint(1, nv)
                 for _ in range(w)])
    return cnf


def test_trivial_unsat():
    c = Cnf(1)
    c.add([1])
    c.add([-1])
    assert not Solver(c).solve()


def test_assumptions():
    c = Cnf(2)
    c.add([1, 2])
    s = Solver(c)
    assert s.solve([-1])
    assert s.model()[2] == 1
    s2 = Solver(c)
    assert not s2.solve([-1, -2])


def check_watches(s):
    """Each attached clause watches two distinct literals of its own and
    sits exactly once in each of their watch lists and in no other."""
    lists = {}
    for wl in s.watches:
        for cl in wl:
            lists.setdefault(cl, []).append(id(wl))
    for cl, ids in lists.items():
        assert len(cl.lits) >= 2 and cl.w0 != cl.w1
        assert cl.w0 in cl.lits and cl.w1 in cl.lits
        assert sorted(ids) == sorted(id(s.watches[w]) for w in (cl.w0, cl.w1))


def test_reused_solver_under_changing_assumptions():
    # one Solver per CNF: solves under changing assumption sets with
    # blocking clauses added in between, each answer checked by brute force
    # and the watches checked after every solve and blocking clause
    rng = random.Random(31)
    assumption_unsats = 0
    for _ in range(40):
        cnf = random_cnf(rng, nv=rng.randint(3, 7), factor=1.5)
        ref = cnf.copy()
        s = Solver(cnf)
        for _ in range(12):
            picked = rng.sample(range(1, cnf.nvars + 1),
                                rng.randint(0, min(3, cnf.nvars)))
            assumptions = [v if rng.getrandbits(1) else -v for v in picked]
            under = Cnf(ref.nvars, ref.clauses + [[a] for a in assumptions])
            got = s.solve(assumptions)
            check_watches(s)
            assert got == (brute_sat(under) is not None)
            base_sat = brute_sat(ref) is not None
            # only a refutation of the formula itself marks it unsat
            assert not (s.unsat and base_sat)
            if got:
                model = s.model()
                for cl in under.clauses:
                    assert any(model[abs(l)] == (l > 0) for l in cl)
                block = [-v if model[v] else v for v in rng.sample(
                    range(1, cnf.nvars + 1), rng.randint(1, cnf.nvars))]
                s.add_clause(block)
                check_watches(s)
                ref.add(block)
            elif base_sat:
                assumption_unsats += 1
    assert assumption_unsats > 20


def test_assumptions_on_new_variables():
    # variable 3 is in no clause: the session grows to take it
    s = Solver(Cnf(2, [[1, 2]]))
    for lit in (-3, 3, -3):
        assert s.solve([lit])
        model = s.model()
        assert model[3] == (lit > 0)
        assert model[1] or model[2]


def test_growing_session_against_brute_force():
    # one Solver per CNF that grows between solves as the counter's
    # queries do: each step defines a fresh variable as the parity of two
    # older ones (the clauses of cnf.xor_literal), may add a clause over
    # the newest variables, and solves under assumptions on them, one of
    # which may name a variable no clause has mentioned yet; the watches
    # are checked after every solve and blocking clause
    rng = random.Random(47)
    refutations = assumption_unsats = 0
    for _ in range(40):
        ref = random_cnf(rng, nv=rng.randint(2, 4), factor=1.0)
        s = Solver(ref, log_proof=True)
        while ref.nvars < 10 and not s.unsat:
            a, b = rng.sample(range(1, ref.nvars + 1), 2)
            t = ref.fresh()
            new = [[-t, a, b], [-t, -a, -b], [t, -a, b], [t, a, -b]]
            if rng.getrandbits(1):
                new.append([-t, rng.choice([1, -1]) * rng.randint(1, t - 1)])
            for cl in new:
                s.add_clause(cl)
                ref.add(cl)
            assumptions = [rng.choice([1, -1]) * v
                           for v in rng.sample(range(max(1, t - 2), t + 1),
                                               rng.randint(0, 2))]
            if rng.random() < 0.3:
                assumptions.append(rng.choice([1, -1]) * ref.fresh())
            under = Cnf(ref.nvars, ref.clauses + [[l] for l in assumptions])
            got = s.solve(assumptions)
            check_watches(s)
            assert got == (brute_sat(under) is not None)
            base_sat = brute_sat(ref) is not None
            assert not (s.unsat and base_sat)
            if got:
                model = s.model()
                for cl in under.clauses:
                    assert any(model[abs(l)] == (l > 0) for l in cl)
                block = [-v if model[v] else v for v in rng.sample(
                    range(1, t + 1), rng.randint(1, 3))]
                s.add_clause(block)
                check_watches(s)
                ref.add(block)
            elif base_sat:
                assumption_unsats += 1
        if s.unsat or not s.solve():
            # a refutation of the whole formula replays as a proof
            assert brute_sat(ref) is None
            assert check_proof(ref, expand_chains(s.empty_chain))
            refutations += 1
    assert refutations > 20 and assumption_unsats > 10


def brute_projections(cnf, proj, assumptions):
    got = set()
    for bits in itertools.product((0, 1), repeat=cnf.nvars):
        model = dict(zip(range(1, cnf.nvars + 1), bits))
        if all(model[abs(l)] == (l > 0) for l in assumptions) and all(
                any(model[abs(l)] == (l > 0) for l in c) for c in cnf.clauses):
            got.add(tuple(model[v] for v in proj))
    return got


def test_enumeration_without_restarts_against_brute_force():
    # one non-proof Solver per CNF enumerates every projected model under
    # an assumption set, a solve plus a blocking clause per model, which
    # the solver attaches without going back to level 0; the assumption
    # set changes between enumerations, each preceded by a solve under
    # another set, and clauses over fresh variables arrive between and
    # inside them.  A proof-logging twin answers every solve too, and its
    # final refutation replays as a proof.
    rng = random.Random(83)
    resumed = 0
    for _ in range(30):
        ref = random_cnf(rng, nv=rng.randint(3, 6), factor=1.0)
        s, twin = Solver(ref), Solver(ref, log_proof=True)

        def add(cl):
            for solver in (s, twin):
                solver.add_clause(cl)
            ref.add(cl)

        def grow():
            a, b = rng.sample(range(1, ref.nvars + 1), 2)
            t = ref.fresh()
            for cl in ([-t, a, b], [-t, -a, -b], [t, -a, b], [t, a, -b]):
                add(cl)

        # the last enumeration is unassumed over every variable, so it
        # leaves the formula unsat
        for last in [False] * 4 + [True]:
            if ref.nvars < 9 and rng.getrandbits(1):
                grow()
            nv = ref.nvars
            if last:
                proj, assumptions = list(range(1, nv + 1)), []
            else:
                proj = rng.sample(range(1, nv + 1), rng.randint(1, nv))
                assumptions = [rng.choice([1, -1]) * v for v in rng.sample(
                    range(1, nv + 1), rng.randint(0, 2))]
            # a SAT answer under other assumptions leaves its trail behind
            probe = [rng.choice([1, -1]) * v for v in rng.sample(
                range(1, nv + 1), rng.randint(1, 2))]
            assert s.solve(probe) == bool(brute_projections(ref, [], probe))
            want = brute_projections(ref, proj, assumptions)
            got = set()
            while True:
                sat = s.solve(assumptions)
                assert twin.solve(assumptions) == sat
                if not sat:
                    break
                model = s.model()
                for cl in ref.clauses + [[l] for l in assumptions]:
                    assert any(model[abs(l)] == (l > 0) for l in cl)
                bits = tuple(model[v] for v in proj)
                assert bits not in got
                got.add(bits)
                resumed += bool(s.trail_lim)
                add([-v if b else v for v, b in zip(proj, bits)])
                if ref.nvars < 9 and rng.random() < 0.1:
                    grow()
            assert got == want
        assert brute_sat(ref) is None
        assert not twin.solve()
        assert check_proof(ref, expand_chains(twin.empty_chain))
    assert resumed > 100


def test_empty_clause_unsat():
    c = Cnf(1)
    c.add([])
    assert not Solver(c).solve()


@pytest.mark.parametrize("clauses, later, steps", [
    ([[1, 2], []], None, 1),                # the empty clause
    ([[1], [-1]], None, 3),                 # a falsified pending unit
    ([[1], [1, 2]], [-1], 3),               # a clause false at the root
    ([[1], [-1, 2], [-1, -2]], None, 5),    # a conflict at level 0
], ids=["empty", "pending", "root-false", "level0"])
def test_refutation_sites_log_checked_proofs(clauses, later, steps):
    cnf = Cnf(2)
    for c in clauses:
        cnf.add(c)
    s = Solver(cnf, log_proof=True)
    if later is not None:
        assert s.solve()
        s.add_clause(later)
        cnf.add(later)
    assert not s.solve()
    assert s.empty_chain is not None
    proof = expand_chains(s.empty_chain)
    assert len(proof.steps) == steps and check_proof(cnf, proof)


def test_agrees_with_brute_force():
    rng = random.Random(11)
    sats = unsats = 0
    for _ in range(300):
        cnf = random_cnf(rng)
        s = Solver(cnf)
        got = s.solve()
        want = brute_sat(cnf)
        assert got == (want is not None)
        if got:
            sats += 1
            model = s.model()
            for cl in cnf.clauses:
                assert any(model[abs(l)] == (l > 0) for l in cl)
        else:
            unsats += 1
    assert sats > 20 and unsats > 20


def test_enumerate_models_complete():
    rng = random.Random(5)
    for _ in range(40):
        cnf = random_cnf(rng, nv=rng.randint(2, 6), factor=2.0)
        proj = list(range(1, cnf.nvars + 1))
        got = set(Oracle().enumerate(cnf, proj))
        want = set()
        for bits in itertools.product((0, 1), repeat=cnf.nvars):
            model = dict(zip(proj, bits))
            if all(any(model[abs(l)] == (l > 0) for l in c)
                   for c in cnf.clauses):
                want.add(bits)
        assert got == want


def test_enumerate_models_limit():
    cnf = Cnf(4)
    got = list(itertools.islice(Oracle().enumerate(cnf, [1, 2, 3, 4]), 5))
    assert len(got) == 5


def test_conflict_budget():
    # hard pigeonhole-style instance under a tiny budget
    cnf = Cnf(0)
    n = 5  # n+1 pigeons, n holes, direct encoding
    var = {}
    for p in range(n + 1):
        for h in range(n):
            var[(p, h)] = cnf.fresh()
    for p in range(n + 1):
        cnf.add([var[(p, h)] for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                cnf.add([-var[(p1, h)], -var[(p2, h)]])
    with pytest.raises(ResourceLimitError):
        Solver(cnf).solve(max_conflicts=10)


def test_luby_sequence():
    got = [luby(i) for i in range(15)]
    assert got == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def _bphp_pair(k, m):
    return bphp_interpolation_pair(BphpParams(k, m)).combined()


def _factor_error(bits):
    spec = gen_factor(bits)
    return build_error_formula(spec, synth_lex(spec))


@pytest.mark.parametrize("make, args, conflicts, steps", [
    (_bphp_pair, (5, 2), 54, 183),
    (_factor_error, (4,), 34, 1909),
    # the activities are rescaled after about 4,490 conflicts
    (_bphp_pair, (9, 3), 4491, 14947),
])
def test_search_pinned(make, args, conflicts, steps):
    # the decisions of fixed refutations: any change to the branching
    # heuristic, the heap or the learned clauses moves these numbers
    s = Solver(make(*args), log_proof=True)
    assert not s.solve()
    assert ((s.conflicts, len(expand_chains(s.empty_chain)))
            == (conflicts, steps))


def test_heap_pushes_bounded(monkeypatch):
    # a variable's heap entry is pushed when it is unassigned, not at each
    # bump: bPHP(9,3) made 56,039 pushes when bumps pushed, 24,100 without
    pushes = 0

    def counted(heap, item):
        nonlocal pushes
        pushes += 1
        heappush(heap, item)
    monkeypatch.setattr(solver, "heappush", counted)
    assert not Solver(_bphp_pair(9, 3), log_proof=True).solve()
    assert pushes <= 30000


def _watch_state(s):
    """nvars, every watch list of literals +-1..nvars as (lits, w0, w1)
    in list order, the pending units as (lit, lits), unsat."""
    lits = [l for v in range(1, s.nvars + 1) for l in (v, -v)]
    return (s.nvars,
            [[(cl.lits, cl.w0, cl.w1) for cl in s.watches[l]] for l in lits],
            [(lit, cl.lits) for lit, cl in s.pending_units], s.unsat)


def test_one_pass_load_matches_add_clause():
    # Solver(cnf) against Solver() fed cnf.clauses by add_clause, on
    # clauses with repeated literals, tautologies, units, the empty
    # clause and variables above cnf.nvars, with and without proofs
    rng = random.Random(101)
    shapes = Counter()
    for trial in range(200):
        nv = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(0, 14)):
            w = rng.choice([0, 1, 1, 2, 3, 3, 4, 6]) if trial % 4 else \
                rng.randint(1, 4)
            clauses.append([rng.choice([1, -1]) * rng.randint(1, nv + 3)
                            for _ in range(w)])
        for c in clauses:
            shapes["repeat" if len(set(c)) < len(c) else "distinct"] += 1
            shapes["tautology"] += not set(c).isdisjoint(-l for l in c)
            shapes["above"] += any(abs(l) > nv for l in c)
            shapes[f"length{min(len(set(c)), 2)}"] += 1
        cnf = Cnf(nv, clauses)
        for log_proof in (False, True):
            got = Solver(cnf, log_proof=log_proof)
            ref = Solver(log_proof=log_proof)
            ref.ensure_vars(cnf.nvars)
            for c in cnf.clauses:
                ref.add_clause(c)
            assert _watch_state(got) == _watch_state(ref)
            if log_proof and got.empty_chain is not None:
                assert check_proof(cnf, expand_chains(got.empty_chain))
                shapes["refuted"] += 1
            # the same search follows
            assert got.solve() == ref.solve()
            assert got.conflicts == ref.conflicts
            if log_proof and got.unsat:
                assert (expand_chains(got.empty_chain).steps
                        == expand_chains(ref.empty_chain).steps)
    assert min(shapes.values()) >= 20, shapes


def test_one_pass_load_calls_no_add_clause(monkeypatch):
    # Solver(cnf) attaches its clauses without add_clause: the factor(6)
    # error formula made 2,409 calls when the constructor called it
    calls = 0
    add_clause = Solver.add_clause

    def counted(self, lits):
        nonlocal calls
        calls += 1
        return add_clause(self, lits)
    cnf = _factor_error(6)
    monkeypatch.setattr(Solver, "add_clause", counted)
    s = Solver(cnf)
    assert calls == 0
    assert s.nvars == cnf.nvars
