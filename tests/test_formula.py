import itertools
import random

import pytest

from skolemkit.benchgen import BphpParams, gen_bphp, gen_factor
from skolemkit.circuits import (BASIS, Builder, Circuit, SkolemVector,
                                vector_from_circuits)
from skolemkit.formula import (ParseError, Specification, emit_aiger,
                               emit_skolem, parse_aiger, parse_skolem,
                               parse_spec, substitute, write_qdimacs)


def random_spec(rng, n, m):
    b = Builder()
    pool = [b.inp(i) for i in range(1, n + m + 1)]
    for _ in range(rng.randint(2, 12)):
        op = rng.choice(["and_", "or_", "xor_", "not_"])
        if op == "not_":
            pool.append(b.not_(rng.choice(pool)))
        else:
            pool.append(getattr(b, op)(rng.choice(pool), rng.choice(pool)))
    return Specification(list(range(1, n + 1)),
                         list(range(n + 1, n + m + 1)),
                         b.extract([pool[-1]]))


def random_vector(rng, n, m):
    b = Builder()
    outs = []
    for i in range(1, m + 1):
        pool = [b.inp(("x", j)) for j in range(1, n + 1)]
        pool += [b.inp(("y", j)) for j in range(1, i)]
        pool.append(b.const(rng.getrandbits(1)))
        for _ in range(rng.randint(0, 6)):
            op = rng.choice(["and_", "or_", "xor_", "not_"])
            if op == "not_":
                pool.append(b.not_(rng.choice(pool)))
            else:
                pool.append(getattr(b, op)(rng.choice(pool),
                                           rng.choice(pool)))
        outs.append(pool[-1])
    return SkolemVector(n, b.extract(outs))


# ---------------------------------------------------------------------------
# parse_spec

def test_parse_qdimacs_minimal():
    s = parse_spec("p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
    assert s.x_vars == [1] and s.y_vars == [2]
    assert s.eval({1: 0, 2: 0}) == 0
    assert s.eval({1: 0, 2: 1}) == 1


def test_parse_annotated_equivalent():
    q = parse_spec("p cnf 3 2\na 1 2 0\ne 3 0\n1 3 0\n-2 -3 0\n")
    a = parse_spec("c inputs 1 2\nc outputs 3\np cnf 3 2\n"
                   "1 3 0\n-2 -3 0\n")
    assert q.x_vars == a.x_vars and q.y_vars == a.y_vars
    assert q.sat_masks() == a.sat_masks()


@pytest.mark.parametrize("first", ["-3 1 2 0", "-3 -1 -2 0"])
def test_parse_xor_auxiliary(first):
    # aux 3 := x1 xor y1, asserted by the unit 3; the first -3 clause
    # names the operands, plain or both negated
    defs = ["-3 1 2 0", "-3 -1 -2 0", "3 -1 2 0", "3 1 -2 0"]
    defs.remove(first)
    s = parse_spec("c outputs 2\np cnf 3 5\na 1 0\ne 2 3 0\n"
                   + "\n".join([first] + defs + ["3 0"]) + "\n")
    assert s.x_vars == [1] and s.y_vars == [2]
    assert s.sat_masks() == 0b0110
    assert {g[0] for g in s.matrix.gates} <= BASIS


def test_parse_undeclared_variable_reports_line():
    txt = "p cnf 4 2\na 1 2 0\ne 3 0\n1 3 0\n1 4 0\n"
    with pytest.raises(ParseError) as e:
        parse_spec(txt)
    assert e.value.line == 5


def test_parse_malformed_header():
    with pytest.raises(ParseError):
        parse_spec("p dnf 2 1\na 1 0\ne 2 0\n1 2 0\n")


def test_parse_overlapping_blocks():
    with pytest.raises(ParseError):
        parse_spec("p cnf 2 1\na 1 0\ne 1 2 0\n1 2 0\n")


def test_parse_literal_zero_inside_clause():
    with pytest.raises(ParseError):
        parse_spec("p cnf 2 1\na 1 0\ne 2 0\n1 0 2 0\n")


def test_parse_universal_after_existential():
    with pytest.raises(ParseError):
        parse_spec("p cnf 2 1\ne 2 0\na 1 0\n1 2 0\n")


def test_qdimacs_round_trip_semantics():
    rng = random.Random(9)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        spec = random_spec(rng, n, m)
        back = parse_spec(write_qdimacs(spec))
        assert back.x_vars == spec.x_vars
        assert back.y_vars == spec.y_vars
        assert back.sat_masks() == spec.sat_masks()


def test_generator_round_trips():
    spec = gen_bphp(BphpParams(3, 1, regime="paper"))
    back = parse_spec(write_qdimacs(spec))
    assert back.y_vars == spec.y_vars
    assert back.sat_masks() == spec.sat_masks()


# ---------------------------------------------------------------------------
# substitute

def test_substitute_identity_and_negation():
    b = Builder()
    spec = Specification([1], [2], b.extract([b.xnor_(b.inp(1), b.inp(2))]))
    bb = Builder()
    vec = SkolemVector(1, bb.extract([bb.inp(("x", 1))]))
    c = substitute(spec, [vec.psi(1)])
    assert c.eval({1: 0})[0] == 1 and c.eval({1: 1})[0] == 1
    bb = Builder()
    neg = SkolemVector(1, bb.extract([bb.not_(bb.inp(("x", 1)))]))
    c = substitute(spec, [neg.psi(1)])
    assert c.eval({1: 0})[0] == 0 and c.eval({1: 1})[0] == 0


def test_substitute_constants_bphp():
    spec = gen_bphp(BphpParams(3, 1, regime="paper"))
    c = substitute(spec, [0])
    for bits in itertools.product((0, 1), repeat=3):
        a = dict(zip(range(1, 4), bits))
        want = sum(1 for v in bits if v == 0) >= 2
        assert bool(c.eval(a)[0]) == want


def test_substitute_eval_coherence():
    rng = random.Random(4)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        spec = random_spec(rng, n, m)
        vec = random_vector(rng, n, m)
        c = substitute(spec, [vec.psi(j) for j in range(1, m + 1)])
        for _ in range(8):
            xbits = [rng.getrandbits(1) for _ in range(n)]
            a = {i + 1: xbits[i] for i in range(n)}
            ybits = vec.eval(xbits)
            full = dict(a)
            for j, v in enumerate(spec.y_vars):
                full[v] = ybits[j]
            assert c.eval(a)[0] == spec.eval(full)
    # per-output entries: kept input, bit, or a circuit reading an
    # earlier output; inputs renamed through ``names``
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        spec = random_spec(rng, n, m)
        binding = []
        for j in range(1, m + 1):
            kind = rng.randrange(3)
            if kind == 2:
                b = Builder()
                w = b.inp(("x", rng.randint(1, n)))
                if j > 1:
                    w = b.xor_(w, b.inp(("y", rng.randint(1, j - 1))))
                binding.append(b.extract([w]))
            else:
                binding.append(None if kind == 0 else rng.getrandbits(1))
        names = {v: ("v", v) for v in spec.x_vars + spec.y_vars}
        c = substitute(spec, binding, names)
        for _ in range(8):
            full = {v: rng.getrandbits(1) for v in spec.x_vars + spec.y_vars}
            named = {("x", i): full[v]
                     for i, v in enumerate(spec.x_vars, start=1)}
            for j, (v, e) in enumerate(zip(spec.y_vars, binding), start=1):
                if isinstance(e, int):
                    full[v] = e
                elif e is not None:
                    full[v] = e.eval(named)[0]
                named[("y", j)] = full[v]
            got = c.eval({names[v]: bit for v, bit in full.items()})[0]
            assert got == spec.eval(full)


def test_substitute_rejects_bad_binding():
    rng = random.Random(0)
    spec = random_spec(rng, 2, 2)
    for bits in ([1], [1, 0, 1]):
        with pytest.raises(ValueError):
            substitute(spec, bits)


# ---------------------------------------------------------------------------
# skolem emit/parse

def test_emit_parse_gatelist_round_trip():
    rng = random.Random(21)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        vec = random_vector(rng, n, m)
        back = parse_skolem(emit_skolem(vec, "gatelist"))
        assert back.n == vec.n and back.m == vec.m
        for v in range(1 << n):
            x = [(v >> (n - 1 - i)) & 1 for i in range(n)]
            assert back.eval(x) == vec.eval(x)


def test_emit_single_const():
    vec = vector_from_circuits(1, [Circuit((("const", 1),), (0,))])
    text = emit_skolem(vec)
    assert text.splitlines()[0] == "skolem 1 1"
    back = parse_skolem(text)
    assert back.eval([0]) == [1] and back.eval([1]) == [1]


def test_aiger_round_trip():
    rng = random.Random(33)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 2)
        vec = random_vector(rng, n, m)
        back = parse_aiger(emit_aiger(vec))
        assert back.n == vec.n and back.m == vec.m
        for v in range(1 << n):
            x = [(v >> (n - 1 - i)) & 1 for i in range(n)]
            assert back.eval(x) == vec.eval(x)


def test_parse_aiger_rejects_redefined_literals():
    for text in ["aag 1 1 0 1 0\n1\n1\n",           # input literal 1
                 "aag 2 1 0 1 1\n2\n3\n3 2 2\n",    # odd and-gate lhs
                 "aag 3 2 0 1 0\n2\n2\n2\n"]:       # input given twice
        with pytest.raises(ParseError):
            parse_aiger(text)


def test_parse_skolem_rejects_redefinitions():
    for text in ["skolem 1 1\ng1 = NOT(x1)\ng1 = AND(x1, x1)\ny1 := g1\n",
                 "skolem 1 1\ny1 := x1\ny1 := 0\n",
                 "skolem 1 1\ny1 := x1\nskolem 2 2\ny2 := x2\n"]:
        with pytest.raises(ParseError):
            parse_skolem(text)


XOR_GATE_LIST = """skolem 2 2
g1 = XOR(x1, x2)
g2 = NOT(x1)
g3 = XOR(y1, g2)
y1 := g1
y2 := g3
"""


def test_parse_skolem_lowers_xor_lines():
    vec = parse_skolem(XOR_GATE_LIST)
    assert all(g[0] != "xor" for g in vec.arena.gates)
    for x1, x2 in itertools.product((0, 1), repeat=2):
        assert vec.eval([x1, x2]) == [x1 ^ x2, 1 - x2]
    assert "XOR" not in emit_skolem(vec)


def test_parse_skolem_rejects_cyclic():
    text = "skolem 1 1\ny1 := y1\n"
    with pytest.raises((ParseError, ValueError)):
        parse_skolem(text)


# ---------------------------------------------------------------------------
# factorization cross-check

def test_factor_cnf_projection():
    # X-projection of the satisfiable set = composites with both
    # factors != 1
    spec = gen_factor(6)
    composites = set()
    for x in range(64):
        for a in range(64):
            for b in range(64):
                if a * b == x and a != 1 and b != 1:
                    composites.add(x)
    sat_x = set()
    mask = spec.sat_masks()
    nm = spec.n + spec.m
    for idx in range(1 << nm):
        if (mask >> idx) & 1:
            sat_x.add(idx >> spec.m)
    assert sat_x == composites
