import itertools
import random

import pytest

from skolemkit import circuits, synth
from skolemkit.benchgen import gen_factor, gen_planted_cover
from skolemkit.circuits import (Builder, Circuit, CyclicDependencyError,
                                MissingInputError, SkolemVector, input_masks,
                                sweep, vector_from_circuits)


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
    cv = vector_from_circuits(3, [Circuit((("const", v),), (0,))
                                  for v in (1, 0)])
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


# ---------------------------------------------------------------------------
# sweep

def truth_tables(c, names):
    return c.eval_masks(input_masks(names), 1 << len(names))


def assert_sweep_sound(c):
    """sweep keeps every output's function, never adds gates, and is
    idempotent gate for gate; returns the swept circuit."""
    names = c.input_names()
    s = sweep(c)
    assert truth_tables(s, names) == truth_tables(c, names)
    assert len(s.gates) <= len(c.gates) and s.size <= c.size
    again = sweep(s)
    assert (again.gates, again.outputs) == (s.gates, s.outputs)
    return s


def random_circuit(rng, names, steps, outputs):
    b = Builder()
    pool = [b.inp(n) for n in names] + [b.const(rng.getrandbits(1))]
    for _ in range(steps):
        op = rng.choice(["and_", "or_", "xor_", "not_", "mux_"])
        if op == "not_":
            pool.append(b.not_(rng.choice(pool)))
        elif op == "mux_":
            pool.append(b.mux_(*(rng.choice(pool) for _ in range(3))))
        else:
            pool.append(getattr(b, op)(rng.choice(pool), rng.choice(pool)))
    return b.extract(rng.sample(pool, min(outputs, len(pool))))


def test_sweep_random_circuits():
    rng = random.Random(16)
    shrunk = 0
    for _ in range(200):
        names = [f"v{i}" for i in range(rng.randint(0, 5))]
        c = random_circuit(rng, names, rng.randint(0, 40), rng.randint(1, 4))
        shrunk += assert_sweep_sound(c).size < c.size
    assert shrunk > 20


def test_sweep_real_vectors():
    spec = gen_factor(5)
    tuples = list(itertools.product((0, 1), repeat=spec.m))
    lex = synth._selector_vector(spec, tuples).arena
    assert assert_sweep_sound(lex).size * 4 < lex.size
    spec, targets = gen_planted_cover(8, 6, 3, seed=2)
    assert_sweep_sound(synth._selector_vector(spec, sorted(targets)).arena)
    enc = synth.encode_bounded_circuits(3, 1, 2, [
        ((x1, x2, x3), (int(x1 + x2 + x3 >= 2),))
        for x1, x2, x3 in itertools.product((0, 1), repeat=3)][:6])
    pool = synth.sample_candidate_pool(enc, 9, seed=4)
    assert_sweep_sound(synth.majority_hypothesis(pool))


def test_sweep_complemented_duplicate_becomes_not():
    # ~a | ~b computes ~(a & b)
    c = Circuit((("in", "a"), ("in", "b"), ("and", 0, 1), ("not", 0),
                 ("not", 1), ("or", 3, 4)), (2, 5))
    s = assert_sweep_sound(c)
    first, second = s.outputs
    assert s.gates[first][0] == "and"
    assert s.gates[second] == ("not", first)
    assert s.size == 2


def test_sweep_constant_cone_becomes_const():
    # a & (b & ~a) is 0, a | (b | ~a) is 1
    c = Circuit((("in", "a"), ("in", "b"), ("not", 0), ("and", 1, 2),
                 ("and", 0, 3), ("or", 1, 2), ("or", 0, 5)), (4, 6))
    s = assert_sweep_sound(c)
    assert s.gates == (("const", 0), ("const", 1))
    assert s.outputs == (0, 1)


def test_sweep_over_budget_returns_circuit_unchanged(monkeypatch):
    c = Circuit((("in", "a"), ("in", "b"), ("and", 0, 1), ("not", 0),
                 ("not", 1), ("or", 3, 4)), (2, 5))
    monkeypatch.setattr(circuits, "SWEEP_LIMIT", (len(c.gates) << 2) - 1)
    assert sweep(c) is c
    monkeypatch.setattr(circuits, "SWEEP_LIMIT", len(c.gates) << 2)
    assert sweep(c).size == 2
