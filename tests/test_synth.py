import itertools
import random

import pytest

import skolemkit.synth as synth_mod
from skolemkit.benchgen import gen_factor, gen_planted_cover
from skolemkit.circuits import Builder, input_masks
from skolemkit.formula import Specification
from skolemkit.oracle import Oracle
from skolemkit.synth import (CoverSet, InconsistentEncodingError,
                             build_cover_circuit, count_consistent,
                             encode_bounded_circuits,
                             majority_hypothesis, sample_candidate_pool,
                             synth_auto, synth_cover, synth_lex,
                             synth_unique_bit)
from skolemkit.verify import check_unique, verify_skolem


def random_spec(rng, n, m):
    b = Builder()
    pool = [b.inp(i) for i in range(1, n + m + 1)]
    for _ in range(rng.randint(2, 14)):
        op = rng.choice(["and_", "or_", "xor_", "not_"])
        if op == "not_":
            pool.append(b.not_(rng.choice(pool)))
        else:
            pool.append(getattr(b, op)(rng.choice(pool), rng.choice(pool)))
    return Specification(list(range(1, n + 1)),
                         list(range(n + 1, n + m + 1)),
                         b.extract([pool[-1]]))


def brute_lex_first(spec, xbits):
    a = {i + 1: xbits[i] for i in range(spec.n)}
    for y in itertools.product((0, 1), repeat=spec.m):
        for j, yv in enumerate(spec.y_vars):
            a[yv] = y[j]
        if spec.eval(a):
            return y
    return None


# ---------------------------------------------------------------------------
# lexicographic-first

def test_lex_identity():
    b = Builder()
    spec = Specification([1], [2],
                         b.extract([b.xnor_(b.inp(1), b.inp(2))]))
    vec = synth_lex(spec)
    assert vec.eval([0]) == [0] and vec.eval([1]) == [1]


def test_lex_matches_brute_force():
    rng = random.Random(41)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        spec = random_spec(rng, n, m)
        vec = synth_lex(spec)
        for v in range(1 << n):
            x = [(v >> (n - 1 - i)) & 1 for i in range(n)]
            want = brute_lex_first(spec, x)
            if want is not None:
                assert tuple(vec.eval(x)) == want
        assert vec.size <= max(1, spec.matrix.size) * m * 4 ** m


def test_lex_factor_examples():
    spec = gen_factor(4)
    vec = synth_lex(spec)
    got6 = vec.eval([0, 1, 1, 0])
    assert got6 == [0, 0, 1, 0, 0, 0, 1, 1]  # (2, 3)
    got4 = vec.eval([0, 1, 0, 0])
    assert got4 == [0, 0, 1, 0, 0, 0, 1, 0]  # (2, 2)


def test_lex_limit_enforced():
    rng = random.Random(2)
    spec = random_spec(rng, 2, 3)
    with pytest.raises(ValueError):
        synth_lex(spec, m_limit=2)


# ---------------------------------------------------------------------------
# covering set

def test_cover_fixed_target():
    b = Builder()
    # F(x, y) = (y1 = 1) & (y2 = 0), x free
    spec = Specification([1], [2, 3],
                         b.extract([b.and_(b.inp(2),
                                           b.not_(b.inp(3)))]))
    vec, cover = synth_cover(spec, Oracle(), seed=1)
    assert cover.elements == [(1, 0)]
    assert verify_skolem(spec, vec).is_valid


def test_cover_unsat_spec():
    b = Builder()
    spec = Specification([1], [2], b.extract([b.const(0)]))
    vec, cover = synth_cover(spec, Oracle(), seed=0)
    assert len(cover) == 0
    assert verify_skolem(spec, vec).is_valid


def test_cover_planted_and_estimates_decrease():
    spec, targets = gen_planted_cover(8, 6, 4, seed=5)
    oracle = Oracle()
    vec, cover = synth_cover(spec, oracle, k_guess0=4, seed=5)
    assert verify_skolem(spec, vec, oracle).is_valid
    assert set(cover.elements) == set(targets)
    assert len(cover) <= 2 * 4 * (8 + 2)
    ests = cover.uncovered_estimates
    assert ests[-1] == 0
    assert all(a > b for a, b in zip(ests, ests[1:]))


def test_build_cover_circuit_lex_in_sprime():
    rng = random.Random(9)
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        spec = random_spec(rng, n, m)
        all_y = list(itertools.product((0, 1), repeat=m))
        sprime = sorted(rng.sample(all_y, rng.randint(1, len(all_y))))
        vec = build_cover_circuit(spec, CoverSet(sprime))
        for v in range(1 << n):
            x = [(v >> (n - 1 - i)) & 1 for i in range(n)]
            a = {i + 1: x[i] for i in range(n)}
            want = None
            for y in sprime:   # lex order: ties to the smaller element
                for j, yv in enumerate(spec.y_vars):
                    a[yv] = y[j]
                if spec.eval(a):
                    want = y
                    break
            if want is not None:
                assert tuple(vec.eval(x)) == want


# ---------------------------------------------------------------------------
# bounded-circuit encoding

def brute_force_structures(enc):
    """All consistent structures of enc in lexicographic order, found by
    evaluating every skeleton and table combination gate by gate.  The
    reference that the masks and the CNF are checked against."""
    def output(choice, tables, inp):
        vals = []
        for t in range(enc.s):
            a, b = enc.pairs[t][choice[t]]
            va = inp[a] if a < enc.p else vals[a - enc.p]
            vb = inp[b] if b < enc.p else vals[b - enc.p]
            vals.append((tables[t] >> (2 * va + vb)) & 1)
        return vals[-1]

    def degenerate_bad(tables):
        # a one-operand gate has no mixed truth-table entries
        return any(enc.pairs[t] == [(0, 0)] and tables[t] & 0b0110
                   for t in range(enc.s))

    for choice in itertools.product(*[range(len(p)) for p in enc.pairs]):
        for tables in itertools.product(range(16), repeat=enc.s):
            if degenerate_bad(tables):
                continue
            if all(output(choice, tables, inp) == tgt
                   for inp, tgt in enc.cases):
                yield choice, tables


def sat_structures(enc):
    o = Oracle()
    out = set()
    for bits in o.enumerate(enc.cnf, enc.structure_vars):
        model = dict(zip(enc.structure_vars, bits))
        out.add(enc.structure_of(model))
    return out


def test_encoding_single_gate_case():
    enc = encode_bounded_circuits(2, 1, 1, [((1, 1), (1,))])
    structs = set(brute_force_structures(enc))
    assert structs == sat_structures(enc)
    funcs = set()
    for choice, tables in structs:
        c = enc.decode_structure(choice, tables)
        masks = c.eval_masks(input_masks([("x", 1), ("x", 2)]), width=4)
        funcs.add(masks[0])
    and_mask = sum(((a & b) << (2 * a + b))
                   for a in (0, 1) for b in (0, 1))
    or_mask = sum(((a | b) << (2 * a + b))
                  for a in (0, 1) for b in (0, 1))
    assert and_mask in funcs and or_mask in funcs and 0b1111 in funcs
    assert 0 not in funcs  # constant 0 contradicts the counterexample


def test_encoding_contradictory_counterexamples_unsat():
    enc = encode_bounded_circuits(2, 1, 1,
                                  [((0, 1), (1,)), ((0, 1), (0,))])
    assert not Oracle().solve(enc.cnf).is_sat
    with pytest.raises(InconsistentEncodingError):
        sample_candidate_pool(enc, 2, Oracle(), seed=0)


def test_encoding_count_matches_enumeration():
    rng = random.Random(55)
    for _ in range(8):
        n = rng.randint(1, 3)
        s = rng.randint(1, 2)
        ces = []
        for _ in range(rng.randint(0, 3)):
            x = tuple(rng.getrandbits(1) for _ in range(n))
            ces.append((x, (rng.getrandbits(1),)))
        enc = encode_bounded_circuits(n, 1, s, ces)
        want = len(list(brute_force_structures(enc)))
        assert count_consistent(enc) == want
        if want:
            assert sat_structures(enc) == set(brute_force_structures(enc))


def test_add_case_narrows_like_rebuild():
    rng = random.Random(83)
    for trial in range(10):
        n = rng.randint(1, 3)
        s = rng.randint(1, 2)
        ces = [(tuple(rng.getrandbits(1) for _ in range(n)),
                (rng.getrandbits(1),)) for _ in range(rng.randint(1, 4))]
        enc = encode_bounded_circuits(n, 1, s, [])
        for r in range(1, len(ces) + 1):
            enc.add_case(*ces[r - 1])
            fresh = encode_bounded_circuits(n, 1, s, ces[:r])
            want = len(list(brute_force_structures(fresh)))
            assert count_consistent(enc) == count_consistent(fresh) == want
            assert enc.cnf.clauses == fresh.cnf.clauses
            pools = []
            for e in (enc, fresh):
                try:
                    pool = sample_candidate_pool(e, 5, Oracle(),
                                                 seed=f"{trial}/{r}")
                except InconsistentEncodingError:
                    pool = None
                else:
                    pool = [(c.gates, c.outputs) for c in pool]
                pools.append(pool)
            assert pools[0] == pools[1]
            assert (pools[0] is None) == (want == 0)


def test_encoding_degenerate_single_input():
    # one input, one gate: exactly const0, const1, id, not
    enc = encode_bounded_circuits(1, 1, 1, [])
    structs = list(brute_force_structures(enc))
    assert len(structs) == 4
    masks = set()
    for choice, tables in structs:
        c = enc.decode_structure(choice, tables)
        masks.add(c.eval_masks(input_masks([("x", 1)]), width=2)[0])
    assert masks == {0b00, 0b11, 0b10, 0b01}


# ---------------------------------------------------------------------------
# sampling and majority

def test_pool_uniform_small_space():
    enc = encode_bounded_circuits(2, 1, 1, [])
    structures = list(brute_force_structures(enc))
    pool = sample_candidate_pool(enc, 2000, Oracle(), seed=8)
    freq = {}
    for c in pool:
        key = c.eval_masks(input_masks([("x", 1), ("x", 2)]), width=4)[0]
        freq[key] = freq.get(key, 0) + 1
    # compare function-level frequencies against the enumeration baseline
    base = {}
    for choice, tables in structures:
        c = enc.decode_structure(choice, tables)
        key = c.eval_masks(input_masks([("x", 1), ("x", 2)]), width=4)[0]
        base[key] = base.get(key, 0) + 1
    total_b = sum(base.values())
    tv = 0.5 * sum(abs(freq.get(k, 0) / 2000 - base.get(k, 0) / total_b)
                   for k in set(freq) | set(base))
    assert tv <= 0.15


def test_pool_vector_tier_consistent():
    ces = [((1, 0, 1, 1), (1,)), ((0, 0, 1, 0), (0,))]
    enc = encode_bounded_circuits(4, 1, 3, ces)
    pool = sample_candidate_pool(enc, 24, Oracle(), seed=3)
    assert len(pool) == 24
    for c in pool:
        for (x, y) in ces:
            a = {("x", j + 1): x[j] for j in range(4)}
            assert c.eval(a)[0] == y[0]


def test_pool_xor_tier_consistent(monkeypatch):
    # force the hash-sampling path on a small encoding
    monkeypatch.setattr(synth_mod, "VECTOR_LIMIT", 1)
    ces = [((1, 1), (1,))]
    enc = encode_bounded_circuits(2, 1, 1, ces)
    pool = sample_candidate_pool(enc, 3, Oracle(), seed=2)
    assert len(pool) == 3
    for c in pool:
        assert c.eval({("x", 1): 1, ("x", 2): 1})[0] == 1


def test_majority_trivial_and_mixed():
    b = Builder()
    x = b.extract([b.inp(("x", 1))])
    b2 = Builder()
    nx = b2.extract([b2.not_(b2.inp(("x", 1)))])
    maj = majority_hypothesis([x, nx, x])
    assert maj.eval({("x", 1): 0})[0] == 0
    assert maj.eval({("x", 1): 1})[0] == 1


def test_majority_matches_counted_votes():
    rng = random.Random(19)
    for _ in range(10):
        circuits = []
        for _ in range(5):
            b = Builder()
            pool = [b.inp(("x", j)) for j in (1, 2, 3)]
            for _ in range(rng.randint(0, 4)):
                op = rng.choice(["and_", "or_", "not_"])
                if op == "not_":
                    pool.append(b.not_(rng.choice(pool)))
                else:
                    pool.append(getattr(b, op)(rng.choice(pool),
                                               rng.choice(pool)))
            circuits.append(b.extract([pool[-1]]))
        maj = majority_hypothesis(circuits)
        for bits in itertools.product((0, 1), repeat=3):
            a = {("x", j + 1): bits[j] for j in range(3)}
            votes = sum(c.eval(a)[0] for c in circuits)
            assert maj.eval(a)[0] == (1 if votes >= 3 else 0)


# ---------------------------------------------------------------------------
# unique-bit learner

def and_spec():
    b = Builder()
    return Specification([1, 2], [3], b.extract(
        [b.xnor_(b.inp(3), b.and_(b.inp(1), b.inp(2)))]))


def test_learner_learns_and():
    spec = and_spec()
    oracle = Oracle()
    h = synth_unique_bit(spec, 1, oracle, seed=7, s0=1)
    for a, b in itertools.product((0, 1), repeat=2):
        assert h.eval({("x", 1): a, ("x", 2): b})[0] == (a & b)


def test_learner_consistent_count_strictly_decreases():
    spec = and_spec()
    log = []
    synth_unique_bit(spec, 1, Oracle(), seed=3, s0=2, state_log=log)
    state = log[-1]
    prev = None
    for r in range(len(state.counterexamples) + 1):
        enc = encode_bounded_circuits(spec.n, 1, state.s,
                                      state.counterexamples[:r])
        cnt = count_consistent(enc)
        if prev is not None:
            assert cnt < prev
        prev = cnt


def test_learner_guard_non_unique():
    b = Builder()
    spec = Specification([1], [2], b.extract([b.const(1)]))  # y free
    assert not check_unique(spec, 1, [1])


# ---------------------------------------------------------------------------
# auto dispatch

def test_auto_lex_path():
    rng = random.Random(61)
    spec = random_spec(rng, 3, 3)
    vec = synth_auto(spec, Oracle(), {"lex_limit": 6})
    assert verify_skolem(spec, vec).is_valid


def test_auto_default_lex_limit_makes_no_oracle_calls():
    # 7 <= m <= LEX_LIMIT: the library default takes lex, as the CLI does
    b = Builder()
    spec = Specification([1], list(range(2, 9)),
                         b.extract([b.xnor_(b.inp(1), b.inp(2))]))
    oracle = Oracle()
    vec = synth_auto(spec, oracle)
    assert oracle.calls == 0
    assert verify_skolem(spec, vec).is_valid


def test_auto_mixed_path():
    # y1 unique (equals x1), y2 free among satisfying rows
    b = Builder()
    spec = Specification(
        [1], [2, 3],
        b.extract([b.xnor_(b.inp(1), b.inp(2))]))
    vec = synth_auto(spec, Oracle(), {"lex_limit": 0, "seed": 5})
    assert verify_skolem(spec, vec).is_valid
