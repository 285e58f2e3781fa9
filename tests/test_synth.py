import collections
import itertools
import random

import pytest

import skolemkit.synth as synth_mod
from skolemkit.benchgen import (TrapParams, gen_factor, gen_planted_cover,
                                gen_trap)
from skolemkit.circuits import Builder, Circuit, SkolemVector, input_masks
from skolemkit.formula import Specification
from skolemkit.oracle import Oracle, labeled_rng
from skolemkit.solver import ResourceLimitError, Solver
from skolemkit.synth import (BudgetExceededError, CoverSet,
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


def reference_selector(spec, tuples):
    """The lex selector with one full import of F per tuple, the loop whose
    gate count and functions partial evaluation in _selector_vector must
    reproduce."""
    b = Builder()
    xpos = {v: j + 1 for j, v in enumerate(spec.x_vars)}
    terms = []
    prefix = b.const(1)
    for bits in tuples:
        binding = dict(zip(spec.y_vars, bits))
        fx = b.import_circuit(
            spec.matrix, lambda v: b.const(binding[v]) if v in binding
            else b.inp(("x", xpos[v])))[0]
        terms.append(b.and_(fx, prefix))
        prefix = b.and_(prefix, b.not_(fx))
    outs = [b.or_many(t for bits, t in zip(tuples, terms) if bits[i] == 1)
            for i in range(spec.m)]
    return b.extract(outs)


def assert_selector_matches_reference(spec, tuples):
    got = synth_mod._selector_vector(spec, tuples)
    want = SkolemVector(spec.n, reference_selector(spec, tuples))
    assert got.size == want.size
    assert got.eval_masks() == want.eval_masks()


def test_selector_size_and_function_on_random_specs():
    rng = random.Random(77)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        spec = random_spec(rng, n, m)
        all_y = list(itertools.product((0, 1), repeat=m))
        assert_selector_matches_reference(spec, all_y)
        assert_selector_matches_reference(
            spec, sorted(rng.sample(all_y, rng.randint(1, len(all_y)))))


def test_selector_size_and_function_corner_cases():
    b = Builder()
    x1, x2, y1, y2 = (b.inp(v) for v in (1, 2, 3, 4))
    nb = Builder()
    raw_xor = nb.and_(nb.inp(1), nb.xor_(nb.inp(3), nb.inp(4)))
    matrices = [b.extract([b.and_(x1, x2)]),               # reads no Y
                b.extract([b.xor_(y1, y2)]),               # Y-only output
                b.extract([b.const(1)]),                   # constant
                b.extract([b.const(0)]),
                b.extract([b.and_(x1, b.and_(y1, y2))]),  # (1, 1): no const 0
                nb.extract([raw_xor])]
    all_y = list(itertools.product((0, 1), repeat=2))
    for matrix in matrices:
        spec = Specification([1, 2], [3, 4], matrix)
        for tuples in (all_y, [], [(0, 1)], [(1, 1)],
                       [(1, 1), (0, 1), (1, 0)]):
            assert_selector_matches_reference(spec, tuples)


def test_lex_binop_count_pinned(monkeypatch):
    # about 34,000 with partial evaluation; a full import per tuple: 190,000
    calls = []
    binop = Builder._binop

    def counted(self, *args):
        calls.append(None)
        return binop(self, *args)
    monkeypatch.setattr(Builder, "_binop", counted)
    synth_lex(gen_factor(5))
    assert len(calls) <= 50_000


def test_lex_binop_count_pinned_at_factor6(monkeypatch):
    # about 76,000 with one rebuild of F per Y-signature; 161,000 with
    # one per tuple
    calls = []
    binop = Builder._binop

    def counted(self, *args):
        calls.append(None)
        return binop(self, *args)
    monkeypatch.setattr(Builder, "_binop", counted)
    synth_lex(gen_factor(6))
    assert len(calls) <= 90_000


def test_lex_rebuilds_f_once_per_y_signature(monkeypatch):
    spec = gen_factor(6)
    gates, out = spec.matrix.gates, spec.matrix.outputs[0]
    reads = []      # per gate: the kinds of input it reads
    for gate in gates:
        if gate[0] == "in":
            reads.append({"y" if gate[1] in spec.y_vars else "x"})
        elif gate[0] == "const":
            reads.append(set())
        else:
            reads.append(reads[gate[1]] | reads[gate[-1]])
    mixed = [g for g, r in zip(gates, reads) if r == {"x", "y"}]
    # a tuple's signature: the Y-only gates that a mixed gate or F reads
    yonly = sorted({c for g in mixed for c in g[1:] if reads[c] == {"y"}}
                   | ({out} if reads[out] == {"y"} else set()))
    width = 1 << spec.m
    assign = {**dict.fromkeys(spec.x_vars, 0), **input_masks(spec.y_vars)}
    cols = Circuit(gates, yonly).eval_masks(assign, width)
    signatures = {tuple(col >> j & 1 for col in cols) for j in range(width)}
    assert len(signatures) < width // 2     # 1,346 of 4,096

    rebuilds = []
    rebuild = Builder.rebuild

    def counted(self, circuit, *args):
        if circuit is spec.matrix:
            rebuilds.append(None)
        return rebuild(self, circuit, *args)
    monkeypatch.setattr(Builder, "rebuild", counted)
    synth_lex(spec)
    # one more for F's constant and X-only gates
    assert len(rebuilds) == len(signatures) + 1


def test_selector_matches_reference_with_repeated_signatures():
    spec = gen_factor(4)        # m = 8: 256 tuples, signatures repeat
    assert_selector_matches_reference(
        spec, list(itertools.product((0, 1), repeat=spec.m)))


def test_lex_flatten_import_pinned(monkeypatch):
    # each output's cone once: about 1,760; the arena once per output
    # and then each cone: about 6,600
    vec = synth_lex(gen_factor(5))
    imported = []
    imp = Builder.import_circuit

    def counted(self, circuit, resolve):
        imported.append(len(circuit.gates))
        return imp(self, circuit, resolve)
    monkeypatch.setattr(Builder, "import_circuit", counted)
    SkolemVector(vec.n, vec.arena).flatten()
    assert sum(imported) <= 1_800


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
    vec, cover = synth_cover(spec, oracle, seed=5)
    assert verify_skolem(spec, vec, oracle).is_valid
    assert set(cover.elements) == set(targets)
    assert len(cover) <= 2 * 4 * (8 + 2)
    ests = cover.uncovered_estimates
    assert ests[-1] == 0
    assert all(a > b for a, b in zip(ests, ests[1:]))


def test_cover_covers_every_output():
    # F = AND_j (y_j <-> x_j): every one of the 2^5 tuples is needed, so
    # the loop runs far past 2(n+2) elements; each uncovered count is at
    # most PIVOT, hence exact
    b = Builder()
    spec = Specification(list(range(1, 6)), list(range(6, 11)),
                         b.extract([b.and_many(
                             b.xnor_(b.inp(j), b.inp(j + 5))
                             for j in range(1, 6))]))
    vec, cover = synth_cover(spec, Oracle(), seed=1)
    assert len(cover) == 32
    assert cover.uncovered_estimates == list(range(32, -1, -1))
    assert verify_skolem(spec, vec).is_valid


def test_cover_solve_count_pinned(monkeypatch):
    # about 370 solves; about 610 when every iteration opens its trials
    # afresh and every model of a cell restarts from level 0, and 1,033
    # when each cell is counted on a fresh query
    runs = []
    solve = Solver.solve

    def counted(self, *args, **kwargs):
        runs.append(None)
        return solve(self, *args, **kwargs)
    monkeypatch.setattr(Solver, "solve", counted)
    oracle = Oracle()
    synth_cover(gen_planted_cover(12, 10, 4, seed=1)[0], oracle, seed=1)
    assert oracle.calls == len(runs) <= 400


@pytest.mark.parametrize("make", [
    lambda: gen_planted_cover(12, 10, 4, seed=1)[0],
    lambda: gen_factor(4),
    lambda: gen_trap(TrapParams(10, 8, 3, seed=1))[0]],
    ids=["planted", "factor", "trap"])
def test_open_trials_count_like_fresh_trials(monkeypatch, make):
    # the cover loop keeps its counting trials open across iterations;
    # at every iteration a fresh count of the same uncovered formula
    # gives the same estimate, level, trials and cell projections
    count = synth_mod.approx_count_projected
    counts = []

    def compared(cnf, proj, **kwargs):
        est = count(cnf, proj, **kwargs)
        assert kwargs["trials"]     # the loop's dict, filled by the count
        fresh = count(cnf, proj, **dict(kwargs, trials=None,
                                         oracle=Oracle()))
        assert ((est.estimate, est.hash_bits, est.trials)
                == (fresh.estimate, fresh.hash_bits, fresh.trials))
        assert ([[m[v] for v in proj] for m in est.cell]
                == [[m[v] for v in proj] for m in fresh.cell])
        counts.append(est.estimate)
        return est
    monkeypatch.setattr(synth_mod, "approx_count_projected", compared)
    spec = make()
    vec, cover = synth_cover(spec, Oracle(), seed=1)
    assert verify_skolem(spec, vec).is_valid
    assert len(counts) == len(cover) + 1 and counts[-1] == 0


def test_cover_solves_only_while_counting(monkeypatch):
    # each element is drawn from a counted cell, so every solve of the
    # cover loop runs inside approx_count_projected
    depth, outside, inside = [0], [], []
    count = synth_mod.approx_count_projected

    def counting(*args, **kwargs):
        depth[0] += 1
        try:
            return count(*args, **kwargs)
        finally:
            depth[0] -= 1
    solve = Solver.solve

    def checked(self, *args, **kwargs):
        (inside if depth[0] else outside).append(None)
        return solve(self, *args, **kwargs)
    monkeypatch.setattr(synth_mod, "approx_count_projected", counting)
    monkeypatch.setattr(Solver, "solve", checked)
    _, cover = synth_cover(gen_planted_cover(12, 10, 4, seed=1)[0],
                           Oracle(), seed=1)
    assert len(cover) == 4 and inside and not outside


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

    # per case: the input slots (X then Y^{1:i-1}) and the target bit
    cases = [(tuple(x) + tuple(y[:enc.i - 1]) or (0,), y[enc.i - 1])
             for x, y in enc.cases]
    for choice in itertools.product(*[range(len(p)) for p in enc.pairs]):
        for tables in itertools.product(range(16), repeat=enc.s):
            if degenerate_bad(tables):
                continue
            if all(output(choice, tables, inp) == tgt
                   for inp, tgt in cases):
                yield choice, tables


def xor_twin(n, i, s, counterexamples):
    """encode_bounded_circuits on the XOR tier: the same space held as
    the bounded-circuit CNF."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth_mod, "VECTOR_LIMIT", 0)
        return encode_bounded_circuits(n, i, s, counterexamples)


def sat_structures(enc):
    """The structures of an XOR-tier encoding, enumerated from its CNF."""
    o = Oracle()
    out = set()
    for bits in o.enumerate(enc.cnf, enc.structure_vars):
        model = dict(zip(enc.structure_vars, bits))
        out.add(enc.structure_of(model))
    return out


def test_encoding_single_gate_case():
    ces = [((1, 1), (1,))]
    enc = encode_bounded_circuits(2, 1, 1, ces)
    structs = set(brute_force_structures(enc))
    assert structs == sat_structures(xor_twin(2, 1, 1, ces))
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
    ces = [((0, 1), (1,)), ((0, 1), (0,))]
    enc = encode_bounded_circuits(2, 1, 1, ces)
    assert Oracle().solve(xor_twin(2, 1, 1, ces).cnf) is None
    assert sample_candidate_pool(enc, 2, Oracle(), seed=0) == []


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
            assert sat_structures(xor_twin(n, 1, s, ces)) == \
                set(brute_force_structures(enc))
        # the structures of one function weigh as much as its groups
        names = [("x", j + 1) for j in range(n)]

        def function(c):
            return c.eval_masks(input_masks(names), width=1 << n)[0]
        per_structure = collections.Counter(
            function(enc.decode_structure(*st))
            for st in brute_force_structures(enc))
        per_group = collections.Counter()
        for g in map(int, enc.weights.nonzero()[0]):
            per_group[function(enc.representative(g))] += int(enc.weights[g])
        assert per_group == per_structure


def test_add_case_narrows_like_rebuild():
    rng = random.Random(83)
    for trial in range(10):
        n = rng.randint(1, 3)
        s = rng.randint(1, 2)
        ces = [(tuple(rng.getrandbits(1) for _ in range(n)),
                (rng.getrandbits(1),)) for _ in range(rng.randint(1, 4))]
        enc = encode_bounded_circuits(n, 1, s, [])
        xenc = xor_twin(n, 1, s, [])
        for r in range(1, len(ces) + 1):
            enc.add_case(*ces[r - 1])
            xenc.add_case(*ces[r - 1])
            fresh = encode_bounded_circuits(n, 1, s, ces[:r])
            want = len(list(brute_force_structures(fresh)))
            assert count_consistent(enc) == count_consistent(fresh) == want
            assert xenc.cnf.clauses == xor_twin(n, 1, s, ces[:r]).cnf.clauses
            pools = [[(c.gates, c.outputs) for c in sample_candidate_pool(
                e, 5, Oracle(), seed=f"{trial}/{r}")] for e in (enc, fresh)]
            assert pools[0] == pools[1]
            assert (pools[0] == []) == (want == 0)


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
    # at s = 2 all three skeletons read both inputs, so their groups merge
    for s in (1, 2):
        enc = encode_bounded_circuits(2, 1, s, [])
        structures = list(brute_force_structures(enc))
        pool = sample_candidate_pool(enc, 2000, Oracle(), seed=8)
        freq = {}
        for c in pool:
            key = c.eval_masks(input_masks([("x", 1), ("x", 2)]), width=4)[0]
            freq[key] = freq.get(key, 0) + 1
        # compare function-level frequencies against the enumeration
        base = {}
        for choice, tables in structures:
            c = enc.decode_structure(choice, tables)
            key = c.eval_masks(input_masks([("x", 1), ("x", 2)]), width=4)[0]
            base[key] = base.get(key, 0) + 1
        total_b = sum(base.values())
        tv = 0.5 * sum(abs(freq.get(k, 0) / 2000 - base.get(k, 0) / total_b)
                       for k in set(freq) | set(base))
        assert tv <= 0.15


def test_pool_xor_tier_uniform(monkeypatch):
    # 64 structures computing 4 functions, just above PIVOT, so each pool
    # is drawn from a hashed cell; one circuit per call, over 200 seeds
    monkeypatch.setattr(synth_mod, "VECTOR_LIMIT", 0)
    enc = encode_bounded_circuits(1, 1, 2, [])
    assert enc.weights is None

    def function(c):
        return c.eval_masks(input_masks([("x", 1)]), width=2)[0]
    base = collections.Counter(function(enc.decode_structure(*st))
                               for st in brute_force_structures(enc))
    assert sum(base.values()) == 64 and len(base) == 4
    draws = 200
    freq = collections.Counter(
        function(sample_candidate_pool(enc, 1, Oracle(), seed=seed)[0])
        for seed in range(draws))
    tv = 0.5 * sum(abs(freq[k] / draws - base[k] / 64)
                   for k in set(freq) | set(base))
    assert tv <= 0.15


def test_pool_vector_tier_consistent():
    ces = [((1, 0, 1, 1), (1,)), ((0, 0, 1, 0), (0,))]
    enc = encode_bounded_circuits(4, 1, 3, ces)
    assert enc.cnf is None  # the exact tier holds the weights only
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


def test_learner_xor_tier(monkeypatch):
    # with no encoding small enough for the masks, the pool is drawn from
    # XOR-hash cells of the bounded-circuit CNF
    monkeypatch.setattr(synth_mod, "VECTOR_LIMIT", 0)
    cases = [((0, 1), (0,)), ((1, 1), (1,)), ((1, 0), (1,))]
    enc = encode_bounded_circuits(2, 1, 1, cases)
    assert enc.weights is None
    pool = sample_candidate_pool(enc, 6, Oracle(), seed=4)
    assert len(pool) == 6
    for c in pool:
        for x, y in cases:
            assert c.eval({("x", 1): x[0], ("x", 2): x[1]})[0] == y[0]
    enc = encode_bounded_circuits(2, 1, 1, [((0, 1), (1,)), ((0, 1), (0,))])
    assert sample_candidate_pool(enc, 2, Oracle(), seed=0) == []
    b = Builder()
    spec = Specification([1, 2], [3], b.extract(
        [b.xnor_(b.inp(3), b.and_(b.inp(1), b.inp(2)))]))
    for s in (1, 2):
        h = synth_unique_bit(spec, 1, Oracle(), s0=s, max_s=s)
        vec = SkolemVector(2, h)
        assert verify_skolem(spec, vec).is_valid


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


def test_learner_default_start_finds_three_gate_targets():
    # the criterion-6 family F(x, y1) = (y1 <-> T(x)), T of 3 gates over
    # 3 or 4 inputs; sizes tried from 1 up stay within the exact tier
    for n, seed in itertools.product((3, 4), range(10)):
        rng = labeled_rng(seed, "acceptance/learner")
        b = Builder()
        pool = [b.inp(v) for v in range(1, n + 1)]
        for _ in range(3):
            op = rng.choice(["and_", "or_", "xor_"])
            g = getattr(b, op)(rng.choice(pool), rng.choice(pool))
            if rng.getrandbits(1):
                g = b.not_(g)
            pool.append(g)
        spec = Specification(list(range(1, n + 1)), [n + 1], b.extract(
            [b.xnor_(b.inp(n + 1), pool[-1])]))
        h = synth_unique_bit(spec, 1, Oracle(), seed=seed, max_s=3)
        assert verify_skolem(spec, SkolemVector(n, h)).is_valid


def test_learner_wide_inputs_stay_exact():
    # p = 10 inputs is exact at s <= 2: weights, not the XOR tier's CNF
    assert encode_bounded_circuits(10, 1, 2, []).weights is not None
    # the target (u xor v) and w needs 2 gates; u, v, w are seeded
    b = Builder()
    u, v, w = random.Random("wide/2-gate").sample(
        [b.inp(j) for j in range(1, 11)], 3)
    spec = Specification(list(range(1, 11)), [11], b.extract(
        [b.xnor_(b.inp(11), b.and_(b.xor_(u, v), w))]))
    oracle = Oracle()
    h = synth_unique_bit(spec, 1, oracle, seed=5, max_s=2)
    assert oracle.calls <= 40
    assert verify_skolem(spec, SkolemVector(10, h)).is_valid


def test_learner_consistent_count_strictly_decreases():
    spec = and_spec()
    log = []
    synth_unique_bit(spec, 1, Oracle(), seed=3, s0=2, state_log=log)
    last = log[-1]
    prev = None
    for r in range(len(last.cases) + 1):
        enc = encode_bounded_circuits(spec.n, 1, last.s, last.cases[:r])
        cnt = count_consistent(enc)
        if prev is not None:
            assert cnt < prev
        prev = cnt


def test_learner_budget_exhausted_on_non_unique_bit():
    # F = ~y1 | x1: at x1 = 1 both values of y1 satisfy F, so every
    # hypothesis meets a counterexample until the size bound runs out
    b = Builder()
    spec = Specification([1], [2], b.extract(
        [b.or_(b.not_(b.inp(2)), b.inp(1))]))
    with pytest.raises(BudgetExceededError) as e:
        synth_unique_bit(spec, 1, Oracle(), max_s=2)
    assert isinstance(e.value, ResourceLimitError)   # the CLI exits 20


def test_learner_guard_non_unique():
    b = Builder()
    spec = Specification([1], [2], b.extract([b.const(1)]))  # y free
    assert not check_unique(spec, 1, [1])


# ---------------------------------------------------------------------------
# auto dispatch

def test_auto_lex_path():
    rng = random.Random(61)
    spec = random_spec(rng, 3, 3)
    vec = synth_auto(spec, Oracle(), lex_limit=6)
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


def test_auto_passes_lex_limit_to_synth_lex(monkeypatch):
    seen = []
    monkeypatch.setattr(synth_mod, "synth_lex",
                        lambda spec, m_limit=None: seen.append(m_limit))
    synth_auto(random_spec(random.Random(3), 2, 3), lex_limit=20)
    assert seen == [20]


def test_auto_mixed_path():
    # y1 unique (equals x1), y2 free among satisfying rows
    b = Builder()
    spec = Specification(
        [1], [2, 3],
        b.extract([b.xnor_(b.inp(1), b.inp(2))]))
    vec = synth_auto(spec, Oracle(), lex_limit=0, seed=5)
    assert verify_skolem(spec, vec).is_valid


def test_auto_learned_bit_between_free_bits():
    # y2 unique (equals x1) between free y1 and y3: the residual spec
    # keeps Y_1 and Y_3 as inputs around the learned circuit
    b = Builder()
    spec = Specification([1], [2, 3, 4],
                         b.extract([b.xnor_(b.inp(1), b.inp(3))]))
    vec = synth_auto(spec, Oracle(), lex_limit=0, seed=5)
    assert verify_skolem(spec, vec).is_valid
    assert [vec.eval([x])[1] for x in (0, 1)] == [0, 1]
