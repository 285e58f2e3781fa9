import itertools
import random

import pytest

from skolemkit.circuits import (Builder, Circuit, CyclicDependencyError,
                                MissingInputError, SkolemVector,
                                constant_vector, input_masks,
                                vector_from_circuits)


def test_basic_gates():
    b = Builder()
    x, y = b.inp("x"), b.inp("y")
    c = b.extract([b.and_(x, y), b.or_(x, y), b.xor_(x, y), b.not_(x)])
    for vx in (0, 1):
        for vy in (0, 1):
            got = c.eval({"x": vx, "y": vy})
            assert got == (vx & vy, vx | vy, vx ^ vy, 1 - vx)


def test_constant_folding():
    b = Builder()
    x = b.inp("x")
    assert b.and_(x, b.const(0)) == b.const(0)
    assert b.and_(x, b.const(1)) == x
    assert b.or_(x, b.const(1)) == b.const(1)
    assert b.not_(b.not_(x)) == x
    assert b.and_(x, b.not_(x)) == b.const(0)
    assert b.or_(x, b.not_(x)) == b.const(1)
    assert b.xor_(x, x) == b.const(0)


def test_hash_consing_dedups():
    b = Builder()
    x, y = b.inp("x"), b.inp("y")
    assert b.and_(x, y) == b.and_(y, x)
    n1 = len(b.gates)
    b.and_(x, y)
    assert len(b.gates) == n1


def test_mux():
    b = Builder()
    s, a, c = b.inp("s"), b.inp("a"), b.inp("c")
    m = b.extract([b.mux_(s, a, c)])
    for vs, va, vc in itertools.product((0, 1), repeat=3):
        assert m.eval({"s": vs, "a": va, "c": vc})[0] == (va if vs else vc)


def test_extract_garbage_collects():
    b = Builder()
    x, y = b.inp("x"), b.inp("y")
    b.and_(x, y)   # dead gate
    keep = b.or_(x, y)
    c = b.extract([keep])
    assert all(g[0] != "and" for g in c.gates)
    assert c.input_names() == ["x", "y"] or set(c.input_names()) == {"x", "y"}


def test_size_counts_non_inputs():
    b = Builder()
    x, y = b.inp("x"), b.inp("y")
    c = b.extract([b.and_(x, y)])
    assert c.size == 1


def test_eval_masks_matches_pointwise():
    rng = random.Random(3)
    for _ in range(20):
        b = Builder()
        names = ["a", "b", "c"]
        pool = [b.inp(n) for n in names]
        for _ in range(rng.randint(1, 10)):
            op = rng.choice(["and_", "or_", "xor_", "not_"])
            if op == "not_":
                pool.append(b.not_(rng.choice(pool)))
            else:
                pool.append(getattr(b, op)(rng.choice(pool),
                                           rng.choice(pool)))
        c = b.extract([pool[-1]])
        masks = c.eval_masks(input_masks(names), width=8)[0]
        for v in range(8):
            assign = {names[i]: (v >> (2 - i)) & 1 for i in range(3)}
            assert (masks >> v) & 1 == c.eval(assign)[0]


def test_circuit_rejects_ops_outside_the_basis():
    with pytest.raises(ValueError):
        Circuit((("in", "a"), ("in", "b"), ("xor", 0, 1)), (2,))


def test_missing_input_raises():
    b = Builder()
    c = b.extract([b.inp("x")])
    with pytest.raises(MissingInputError):
        c.eval({})


def test_skolem_vector_acyclicity():
    b = Builder()
    x = b.inp(("x", 1))
    y2 = b.inp(("y", 2))
    arena = b.extract([y2, x])  # psi_1 reads y_2: cyclic
    with pytest.raises(CyclicDependencyError):
        SkolemVector(1, arena)


def test_skolem_vector_allows_earlier_outputs():
    b = Builder()
    x = b.inp(("x", 1))
    y1 = b.inp(("y", 1))
    vec = SkolemVector(1, b.extract([b.not_(x), b.and_(x, b.not_(y1))]))
    assert vec.m == 2
    # y1 = ~x; y2 = x & ~y1 = x
    assert vec.eval([0]) == [1, 0]
    assert vec.eval([1]) == [0, 1]


def test_psi_extracts_cone():
    b = Builder()
    x1, x2 = b.inp(("x", 1)), b.inp(("x", 2))
    vec = SkolemVector(2, b.extract([b.and_(x1, x2), b.or_(x1, x2)]))
    p1 = vec.psi(1)
    assert set(p1.input_names()) == {("x", 1), ("x", 2)}
    assert p1.eval({("x", 1): 1, ("x", 2): 1})[0] == 1
    assert p1.eval({("x", 1): 1, ("x", 2): 0})[0] == 0


def test_vector_from_circuits_and_constant_vector():
    b = Builder()
    c1 = b.extract([b.inp(("x", 1))])
    vec = vector_from_circuits(2, [c1, c1])
    assert vec.eval([1, 0]) == [1, 1]
    cv = constant_vector(3, [1, 0])
    assert cv.eval([0, 1, 1]) == [1, 0]


def test_vector_eval_masks():
    b = Builder()
    x1, x2 = b.inp(("x", 1)), b.inp(("x", 2))
    y1 = b.inp(("y", 1))
    vec = SkolemVector(2, b.extract([b.xor_(x1, x2), b.not_(y1)]))
    m1, m2 = vec.eval_masks()
    for v in range(4):
        x = [(v >> 1) & 1, v & 1]
        out = vec.eval(x)
        assert (m1 >> v) & 1 == out[0]
        assert (m2 >> v) & 1 == out[1]


def test_psi_matches_cone_of_full_import():
    rng = random.Random(29)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        b = Builder()
        outs = []
        for i in range(1, m + 1):
            pool = [b.inp(("x", j)) for j in range(1, n + 1)]
            pool += [b.inp(("y", j)) for j in range(1, i)]
            for _ in range(rng.randint(0, 8)):
                op = rng.choice(["and_", "or_", "xor_", "not_"])
                if op == "not_":
                    pool.append(b.not_(rng.choice(pool)))
                else:
                    pool.append(getattr(b, op)(rng.choice(pool),
                                               rng.choice(pool)))
            outs.append(pool[-1])
        vec = SkolemVector(n, b.extract(outs))
        for i in range(1, m + 1):
            ref = Builder()
            got = ref.import_circuit(vec.arena, ref.inp)
            want = ref.extract([got[i - 1]])
            psi = vec.psi(i)
            assert (psi.gates, psi.outputs) == (want.gates, want.outputs)
