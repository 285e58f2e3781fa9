import itertools

import pytest

from skolemkit.benchgen import (BphpParams, TrapParams,
                                bphp_interpolation_pair, bphp_lexfirst_skolem,
                                gen_bphp, gen_factor, gen_planted_cover,
                                gen_trap, simulate_sequential)
from skolemkit.formula import parse_spec, write_qdimacs
from skolemkit.oracle import Oracle
from skolemkit.synth import synth_lex
from skolemkit.verify import verify_skolem


def hole_of(bits):
    return int("".join(map(str, bits)), 2)


def bphp_reference(p, xbits, ybits):
    """Hole named by Y holds at least two pigeons under X."""
    addrs = [hole_of(xbits[(i - 1) * p.m:i * p.m])
             for i in range(1, p.k + 1)]
    return addrs.count(hole_of(ybits)) >= 2


# ---------------------------------------------------------------------------
# bPHP

@pytest.mark.parametrize("k,m,regime", [(3, 1, "paper"), (3, 2, "paper"),
                                        (3, 1, "interpolation"),
                                        (5, 2, "interpolation")])
def test_bphp_characterization(k, m, regime):
    p = BphpParams(k, m, regime=regime)
    spec = gen_bphp(p)
    nm = k * m
    for bits in itertools.product((0, 1), repeat=nm + m):
        a = dict(zip(range(1, nm + m + 1), bits))
        want = bphp_reference(p, list(bits[:nm]), list(bits[nm:]))
        assert bool(spec.eval(a)) == want


def test_bphp_regime_validation():
    with pytest.raises(ValueError):
        BphpParams(4, 2)  # interpolation regime needs k = 2^m + 1
    with pytest.raises(ValueError):
        BphpParams(8, 2, regime="paper")  # n = 16 needs m = 3
    with pytest.raises(ValueError):
        BphpParams(3, 1, regime="nonsense")
    for k, m in [(3, 1), (4, 1), (3, 2), (3, 3)]:
        BphpParams(k, m, regime="paper")


def test_bphp_lexfirst_smallest_collided_hole():
    for k, m, regime in [(3, 1, "interpolation"), (3, 2, "paper")]:
        p = BphpParams(k, m, regime=regime)
        vec = bphp_lexfirst_skolem(p)
        spec = gen_bphp(p)
        assert verify_skolem(spec, vec).is_valid
        for bits in itertools.product((0, 1), repeat=k * m):
            addrs = [hole_of(bits[(i - 1) * m:i * m])
                     for i in range(1, k + 1)]
            collided = sorted(h for h in set(addrs) if addrs.count(h) >= 2)
            got = hole_of(vec.eval(list(bits)))
            if collided:
                assert got == collided[0]


@pytest.mark.parametrize("k,m,regime,size", [
    (3, 1, "interpolation", 15), (4, 1, "paper", 28), (3, 2, "paper", 48),
    (5, 2, "interpolation", 116), (9, 3, "interpolation", 732)])
def test_bphp_lexfirst_size_pinned(k, m, regime, size):
    # the ground truth is the unswept lex selector on gen_bphp: these
    # are criterion 10's lexFirstSize denominators
    p = BphpParams(k, m, regime=regime)
    vec = bphp_lexfirst_skolem(p)
    assert vec.size == size
    if k * m <= 12:
        swept = synth_lex(gen_bphp(p))
        assert swept.size < size
        assert vec.eval_masks() == swept.eval_masks()


def test_bphp_pair_unsat_iff_overloaded():
    overloaded = bphp_interpolation_pair(BphpParams(3, 1))
    assert Oracle().solve(overloaded.combined()) is None
    roomy = bphp_interpolation_pair(BphpParams(3, 3, regime="paper"))
    assert Oracle().solve(roomy.combined()) is not None


def test_bphp_pair_width_and_partition():
    p = BphpParams(5, 2)
    inst = bphp_interpolation_pair(p)
    assert not inst.a_vars and not inst.b_vars
    assert inst.c_vars == set(range(1, 11))
    for side in (inst.phi0, inst.phi1):
        assert all(len(c) == 2 * p.m for c in side.clauses)
    total = len(inst.phi0.clauses) + len(inst.phi1.clauses)
    assert total == (1 << p.m) * p.k * (p.k - 1) // 2


# ---------------------------------------------------------------------------
# sequential trap

def trap_reference(p, truth, info, xbits, y1, y2):
    half = p.half
    if y1 == info["s"]:
        return y2 == tuple(truth.eval(list(xbits))[half:])
    window = hole_of(xbits[:p.window_bits])
    row = info["h"][(window << half) | hole_of(y1)]
    want = tuple((row >> (half - 1 - j)) & 1 for j in range(half))
    return y2 == want


def test_trap_relation_exhaustive():
    p = TrapParams(6, 4, 3, seed=2)
    spec, truth, info = gen_trap(p)
    assert verify_skolem(spec, truth).is_valid
    half = p.half
    for xb in itertools.product((0, 1), repeat=p.n):
        for y1 in itertools.product((0, 1), repeat=half):
            seen = []
            for y2 in itertools.product((0, 1), repeat=half):
                a = dict(zip(range(1, p.n + p.m + 1), xb + y1 + y2))
                if spec.eval(a):
                    seen.append(y2)
                assert bool(spec.eval(a)) == trap_reference(
                    p, truth, info, xb, y1, y2)
            # every block-1 value admits exactly one completion
            assert len(seen) == 1


def test_trap_simulation_statistics():
    p = TrapParams(10, 4, 4, seed=7)
    out = simulate_sequential(p, trials=400, seed=1)
    assert out["trials"] == 400
    assert out["secondBlockMatchesH"]
    # choosing block 1 uniformly hits s with probability 2^-half = 1/4
    assert abs(out["fractionChoseS"] - 0.25) < 3 * (0.25 * 0.75 / 400) ** 0.5


def test_trap_param_validation():
    with pytest.raises(ValueError):
        TrapParams(6, 3, 2)
    with pytest.raises(ValueError):
        TrapParams(6, 4, 0)
    with pytest.raises(ValueError):
        TrapParams(6, 4, 7)


# ---------------------------------------------------------------------------
# factorization

def factor_models(bits):
    spec = gen_factor(bits)
    out = {}
    for x in range(1 << bits):
        xb = [(x >> (bits - 1 - i)) & 1 for i in range(bits)]
        sols = set()
        for a in range(1 << bits):
            for c in range(1 << bits):
                assign = dict(zip(
                    range(1, 3 * bits + 1),
                    xb + [(a >> (bits - 1 - i)) & 1 for i in range(bits)]
                    + [(c >> (bits - 1 - i)) & 1 for i in range(bits)]))
                if spec.eval(assign):
                    sols.add((a, c))
        out[x] = sols
    return out


def test_factor_solution_sets():
    sols = factor_models(3)
    assert sols[6] == {(2, 3), (3, 2)}
    assert sols[4] == {(2, 2)}
    assert sols[7] == set()   # prime: no nontrivial factorization
    assert sols[1] == set()
    # x = 0 factors as 0 * b for any b != 1 (and symmetrically)
    assert (0, 0) in sols[0] and (0, 2) in sols[0] and (0, 1) not in sols[0]
    for x, pairs in sols.items():
        for a, c in pairs:
            assert a * c == x and a != 1 and c != 1


def test_factor_bounds():
    with pytest.raises(ValueError):
        gen_factor(0)
    with pytest.raises(ValueError):
        gen_factor(17)


# ---------------------------------------------------------------------------
# planted covers

def test_planted_cover_exactly_one_target():
    spec, targets = gen_planted_cover(5, 4, 3, seed=11)
    assert len(set(targets)) == 3
    hit = set()
    for xb in itertools.product((0, 1), repeat=5):
        sat_ys = []
        for yb in itertools.product((0, 1), repeat=4):
            a = dict(zip(range(1, 10), xb + yb))
            if spec.eval(a):
                sat_ys.append(yb)
        assert len(sat_ys) == 1
        assert sat_ys[0] in targets
        hit.add(sat_ys[0])
    assert hit == set(targets)  # every target is actually used


def test_planted_cover_seed_determinism():
    a = gen_planted_cover(6, 5, 4, seed=3)
    b = gen_planted_cover(6, 5, 4, seed=3)
    assert a[1] == b[1]
    c = gen_planted_cover(6, 5, 4, seed=4)
    assert a[1] != c[1]


# ---------------------------------------------------------------------------
# round trips through QDIMACS

@pytest.mark.parametrize("make", [
    lambda: gen_bphp(BphpParams(3, 1, regime="paper")),
    lambda: gen_trap(TrapParams(5, 4, 2, seed=1))[0],
    lambda: gen_factor(3),
    lambda: gen_planted_cover(4, 3, 2, seed=0)[0],
])
def test_generator_qdimacs_round_trip(make):
    spec = make()
    back = parse_spec(write_qdimacs(spec))
    assert back.x_vars == spec.x_vars
    assert back.y_vars == spec.y_vars
    assert back.sat_masks() == spec.sat_masks()
