import itertools
import random

from skolemkit.circuits import Builder
from skolemkit.cnf import Cnf, tseitin, xor_literal
from skolemkit.oracle import Oracle
from skolemkit.solver import Solver


def brute_models(cnf, nvars=None):
    nvars = nvars or cnf.nvars
    out = []
    for bits in itertools.product((0, 1), repeat=nvars):
        model = dict(zip(range(1, nvars + 1), bits))
        if all(any(model[abs(l)] == (l > 0) for l in c)
               for c in cnf.clauses):
            out.append(bits)
    return out


def test_cnf_container():
    c = Cnf(2)
    c.add([1, -2])
    c.add([3])
    assert c.nvars == 3
    assert len(c) == 2
    d = c.copy()
    d.add([4])
    assert len(c) == 2 and c.nvars == 3


def test_tseitin_and_gate_shape():
    b = Builder()
    g = b.and_(b.inp("a"), b.inp("b"))
    circ = b.extract([g])
    cnf = Cnf(2)
    [v] = tseitin(circ, lambda n: 1 if n == "a" else 2, cnf)
    sets = [frozenset(c) for c in cnf.clauses]
    assert frozenset([-v, 1]) in sets
    assert frozenset([-v, 2]) in sets
    assert frozenset([v, -1, -2]) in sets
    assert frozenset([v]) in sets


def test_tseitin_clause_budget():
    rng = random.Random(1)
    for _ in range(20):
        b = Builder()
        pool = [b.inp(i) for i in range(1, 4)]
        for _ in range(rng.randint(1, 12)):
            op = rng.choice(["and_", "or_", "not_"])
            if op == "not_":
                pool.append(b.not_(rng.choice(pool)))
            else:
                pool.append(getattr(b, op)(rng.choice(pool),
                                           rng.choice(pool)))
        circ = b.extract([pool[-1]])
        cnf = Cnf(3)
        tseitin(circ, lambda n: n, cnf)
        assert len(cnf.clauses) <= 3 * circ.size + 1


def test_tseitin_equisatisfiable_exhaustive():
    rng = random.Random(7)
    for _ in range(40):
        b = Builder()
        n = rng.randint(1, 4)
        pool = [b.inp(i) for i in range(1, n + 1)]
        for _ in range(rng.randint(1, 10)):
            op = rng.choice(["and_", "or_", "xor_", "not_"])
            if op == "not_":
                pool.append(b.not_(rng.choice(pool)))
            else:
                pool.append(getattr(b, op)(rng.choice(pool),
                                           rng.choice(pool)))
        circ = b.extract([pool[-1]])
        cnf = Cnf(n)
        tseitin(circ, lambda v: v, cnf)
        for bits in itertools.product((0, 1), repeat=n):
            assume = [v if bit else -v
                      for v, bit in zip(range(1, n + 1), bits)]
            s = Solver(cnf)
            sat = s.solve(assume)
            assert sat == bool(
                circ.eval(dict(zip(range(1, n + 1), bits)))[0])


def test_xor_constraint_semantics():
    for nv in (1, 2, 3, 4):
        for parity in (0, 1):
            cnf = Cnf(nv)
            lit = xor_literal(cnf, list(range(1, nv + 1)))
            cnf.add([lit if parity else -lit])
            models = {bits[:nv] for bits in brute_models(cnf)}
            want = {bits for bits in itertools.product((0, 1), repeat=nv)
                    if sum(bits) % 2 == parity}
            assert models == want


def test_xor_clause_budget():
    cnf = Cnf(6)
    cnf.add([xor_literal(cnf, [1, 2, 3, 4, 5, 6])])
    assert len(cnf.clauses) <= 4 * 6


def test_xor_preserves_projected_models():
    # conjoining one xor never adds projected models, only filters them
    rng = random.Random(2)
    for _ in range(20):
        nv = rng.randint(2, 6)
        cnf = Cnf(nv)
        for _ in range(rng.randint(1, 8)):
            cl = [rng.choice([1, -1]) * rng.randint(1, nv)
                  for _ in range(rng.randint(1, 3))]
            cnf.add(cl)
        before = {m[:nv] for m in brute_models(cnf)}
        vs = [v for v in range(1, nv + 1) if rng.getrandbits(1)] or [1]
        parity = rng.getrandbits(1)
        work = cnf.copy()
        lit = xor_literal(work, vs)
        work.add([lit if parity else -lit])
        after = {m[:nv] for m in brute_models(work)}
        want = {m for m in before
                if sum(m[v - 1] for v in vs) % 2 == parity}
        assert after == want


def test_enumerate_models_projected():
    cnf = Cnf(3)
    cnf.add([1, 2])
    got = sorted(Oracle().enumerate(cnf, [1, 2]))
    assert got == [(0, 1), (1, 0), (1, 1)]
