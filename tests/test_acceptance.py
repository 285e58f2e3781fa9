"""Acceptance gate: one test per criterion, one pass/fail line each.

Every criterion is checked at its stated tolerance; each test prints a
single summary line so the gate can be read off the pytest -s output.
"""

import itertools
import math
import random

from skolemkit.benchgen import (BphpParams, TrapParams,
                                bphp_interpolation_pair, bphp_lexfirst_skolem,
                                gen_bphp, gen_factor, gen_planted_cover,
                                gen_trap, interp_size_experiment,
                                simulate_sequential)
from skolemkit.circuits import Builder, SkolemVector
from skolemkit.cnf import Cnf
from skolemkit.formula import Specification
from skolemkit.interplab import (bounded_width_refute, extract_interpolant,
                                 relabel_axioms, solve_with_proof)
from skolemkit.oracle import Oracle, approx_count_projected, labeled_rng
from skolemkit.synth import (count_consistent, encode_bounded_circuits,
                             synth_cover, synth_lex, synth_unique_bit)
from skolemkit.verify import check_unique, verify_skolem

SIZE_CONSTANT = 1  # the C in the lex-first size bound C*|F|*m*2^(2m)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def random_spec(rng, n, m):
    b = Builder()
    pool = [b.inp(i) for i in range(1, n + m + 1)]
    for _ in range(rng.randint(3, 20)):
        op = rng.choice(["and_", "or_", "xor_", "not_"])
        if op == "not_":
            pool.append(b.not_(rng.choice(pool)))
        else:
            pool.append(getattr(b, op)(rng.choice(pool), rng.choice(pool)))
    return Specification(list(range(1, n + 1)),
                         list(range(n + 1, n + m + 1)),
                         b.extract([pool[-1]]))


_corpus = None


def corpus():
    """100 seeded random specs (n <= 10, m <= 6) plus factorization(6),
    each with its lex-first vector."""
    global _corpus
    if _corpus is None:
        rng = random.Random(20260825)
        specs = [random_spec(rng, rng.randint(1, 10), rng.randint(1, 6))
                 for _ in range(100)]
        specs.append(gen_factor(6))
        _corpus = [(s, synth_lex(s)) for s in specs]
    return _corpus


def lex_exhaustive_ok(spec, vec):
    """F(x, psi(x)) = 1 for every x admitting a witness, and psi picks
    the lexicographically smallest witness (checked bit-parallel)."""
    n, m = spec.n, spec.m
    smask = spec.sat_masks()  # bit (x << m) | y, first variable MSB
    ymasks = vec.eval_masks()
    for p in range(1 << n):
        # position p of the masks is the assignment with bits of p,
        # xnames[0] most significant, matching the sat_masks layout
        window = (smask >> (p << m)) & ((1 << (1 << m)) - 1)
        yval = 0
        for i in range(m):
            yval |= ((ymasks[i] >> p) & 1) << (m - 1 - i)
        if window:
            if not (window >> yval) & 1:
                return False
            smaller = window & ((1 << yval) - 1)
            if smaller:
                return False
    return True


def test_criterion_01_lex_correctness():
    bad = sum(0 if lex_exhaustive_ok(s, v) else 1 for s, v in corpus())
    report(1, bad == 0,
           f"{len(corpus())} specs exhaustively checked, {bad} failures")


def test_criterion_02_lex_size():
    worst = 0.0
    ok = True
    for spec, vec in corpus():
        bound = SIZE_CONSTANT * max(1, spec.matrix.size) * spec.m \
            * 4 ** spec.m
        worst = max(worst, vec.size / bound)
        ok = ok and vec.size <= bound
    report(2, ok, f"max size/bound ratio {worst:.4f} with C={SIZE_CONSTANT}")


def semantic_mutation(rng, spec, vec):
    """Negate one output; accept only mutations that change validity,
    confirmed by brute force."""
    n, m = spec.n, spec.m
    smask = spec.sat_masks()
    for _ in range(20):
        i = rng.randrange(m)
        b = Builder()
        outs = list(b.import_circuit(vec.arena, lambda nm: b.inp(nm)))
        outs[i] = b.not_(outs[i])
        mut = SkolemVector(n, b.extract(outs))
        ymasks = mut.eval_masks()
        for p in range(1 << n):
            window = (smask >> (p << m)) & ((1 << (1 << m)) - 1)
            if not window:
                continue
            yval = 0
            for j in range(m):
                yval |= ((ymasks[j] >> p) & 1) << (m - 1 - j)
            if not (window >> yval) & 1:
                return mut  # brute force confirms the mutant is invalid
    return None


def test_criterion_03_error_formula_verifier():
    rng = random.Random(3)
    pairs = list(corpus())
    # top up with extra seeded specs in case some admit no semantic
    # mutation (e.g. an unsatisfiable matrix accepts every vector)
    gen = random.Random(99)
    while len(pairs) < 400:
        s = random_spec(gen, gen.randint(1, 10), gen.randint(1, 6))
        pairs.append((s, synth_lex(s)))
    valid_ok = mut_ok = mutants = valid_checked = 0
    for spec, vec in pairs:
        if mutants >= 100:
            break
        valid_checked += 1
        if verify_skolem(spec, vec).is_valid:
            valid_ok += 1
        mut = semantic_mutation(rng, spec, vec)
        if mut is None:
            continue
        mutants += 1
        if verify_skolem(spec, mut).status == "counterexample":
            mut_ok += 1
    ok = (mutants == 100 and mut_ok == 100
          and valid_ok == valid_checked and valid_checked >= 100)
    report(3, ok, f"{mut_ok}/{mutants} mutants caught, "
                  f"{valid_ok}/{valid_checked} valid vectors confirmed")


def test_criterion_04_cover_synthesis():
    n, m = 14, 12
    runs = failures = 0
    worst = 0
    for k in (2, 4, 8):
        for seed in range(10):
            runs += 1
            spec, targets = gen_planted_cover(n, m, k, seed=seed)
            oracle = Oracle()
            vec, cover = synth_cover(spec, oracle, seed=seed)
            good = (cover.uncovered_estimates[-1] == 0
                    and len(cover) <= 2 * k * (n + 2)
                    and set(cover.elements) <= set(
                        itertools.product((0, 1), repeat=m))
                    and verify_skolem(spec, vec, oracle).is_valid)
            worst = max(worst, len(cover) / (2 * k * (n + 2)))
            if not good:
                failures += 1
    report(4, failures == 0,
           f"{runs} runs, {failures} failures, worst |S'|/budget {worst:.2f}")


def brute_projected_count(cnf, proj):
    seen = set()
    for bits in itertools.product((0, 1), repeat=cnf.nvars):
        model = dict(zip(range(1, cnf.nvars + 1), bits))
        if all(any(model[abs(l)] == (l > 0) for l in c)
               for c in cnf.clauses):
            seen.add(tuple(model[v] for v in proj))
    return len(seen)


def test_criterion_05_hash_counting():
    rng = random.Random(55)
    hits = total = 0
    while total < 50:
        nv = rng.randint(6, 12)
        cnf = Cnf(nv)
        for _ in range(rng.randint(1, 2 * nv)):
            cnf.add([rng.choice([1, -1]) * rng.randint(1, nv)
                     for _ in range(rng.randint(1, 3))])
        proj = list(range(1, nv + 1))
        truth = brute_projected_count(cnf, proj)
        if truth == 0 or truth > 4096:
            continue
        est = approx_count_projected(cnf, proj, seed=total).estimate
        total += 1
        if truth / 2 <= est <= truth * 2:
            hits += 1
    report(5, hits >= 0.8 * total,
           f"{hits}/{total} estimates within a factor 2")


def planted_unique_spec(seed):
    """F(x, y1) = (y1 <-> T(x)) for a seeded target of <= 3 gates over
    4 inputs (well within the <= 6 gates / <= 8 inputs envelope)."""
    rng = labeled_rng(seed, "acceptance/learner")
    b = Builder()
    pool = [b.inp(v) for v in (1, 2, 3, 4)]
    for _ in range(3):
        op = rng.choice(["and_", "or_", "xor_"])
        g = getattr(b, op)(rng.choice(pool), rng.choice(pool))
        if rng.getrandbits(1):
            g = b.not_(g)
        pool.append(g)
    return Specification([1, 2, 3, 4], [5],
                         b.extract([b.xnor_(b.inp(5), pool[-1])]))


def test_criterion_06_unique_bit_learner():
    s = 3
    budget = math.ceil(64 * s * math.log2(s + 2))
    finished = decreases_ok = 0
    runs = 20
    for seed in range(runs):
        spec = planted_unique_spec(seed)
        oracle = Oracle()
        log = []
        try:
            h = synth_unique_bit(spec, 1, oracle, d=4, seed=seed, s0=s,
                                 max_s=s, state_log=log)
        except Exception:
            continue
        last = log[-1]
        if len(last.cases) > budget:
            continue
        # hypothesis must make the error formula unsatisfiable
        b = Builder()
        out = b.import_circuit(h, lambda nm: b.inp(nm))[0]
        vec = SkolemVector(spec.n, b.extract([out]))
        if not verify_skolem(spec, vec, oracle).is_valid:
            continue
        finished += 1
        # one encoding narrowed case by case: the counts of every prefix
        enc = encode_bounded_circuits(spec.n, 1, last.s, [])
        counts = [count_consistent(enc)]
        for case in last.cases:
            enc.add_case(*case)
            counts.append(count_consistent(enc))
        if all(a > b for a, b in zip(counts, counts[1:])):
            decreases_ok += 1
    ok = finished >= 0.9 * runs and decreases_ok == finished
    report(6, ok, f"{finished}/{runs} runs in budget, strict decrease in "
                  f"{decreases_ok}/{finished}")


def test_criterion_07_bphp_ground_truth():
    ok = True
    for k, m in [(3, 1), (4, 1), (3, 2)]:
        regime = "interpolation" if k == (1 << m) + 1 else "paper"
        p = BphpParams(k, m, regime=regime)
        spec = gen_bphp(p)
        vec = bphp_lexfirst_skolem(p)
        ok = ok and lex_exhaustive_ok(spec, vec)
        ok = ok and verify_skolem(spec, vec).is_valid
    spec41 = gen_bphp(BphpParams(4, 1, regime="paper"))
    ok = ok and not check_unique(spec41, 1, spec41.x_vars)
    report(7, ok, "lex vectors exact for (3,1),(4,1),(3,2); "
                  "Y1 not unique at (4,1)")


def test_criterion_08_width_lower_bound():
    inst = bphp_interpolation_pair(BphpParams(5, 2))
    s2, _ = bounded_width_refute(inst.combined(), 2)
    refuted_w = None
    for w in range(3, 13):
        st, _ = bounded_width_refute(inst.combined(), w)
        if st == "refuted":
            refuted_w = w
            break
    inst1 = bphp_interpolation_pair(BphpParams(3, 1))
    s0, _ = bounded_width_refute(inst1.combined(), 0)
    r1, _ = bounded_width_refute(inst1.combined(), 2)
    ok = (s2 == "saturated" and refuted_w is not None
          and s0 == "saturated" and r1 == "refuted")
    report(8, ok, f"m=2: saturated at w=2, refuted at w={refuted_w}; "
                  f"m=1: saturated at w=0, refuted at w=2")


def interpolant_corpus():
    """Every interpolation pair the suite extracts from: the bPHP bit-1
    pairs for m = 1, 2 (|C| = 3 and 10)."""
    for params in (BphpParams(3, 1), BphpParams(5, 2)):
        inst = bphp_interpolation_pair(params)
        status, proof = solve_with_proof(inst.combined())
        assert status == "unsat"
        yield inst, extract_interpolant(inst, relabel_axioms(proof, inst))


def restricted_unsat(cnf, fixed):
    free = [v for v in range(1, cnf.nvars + 1) if v not in fixed]
    for bits in itertools.product((0, 1), repeat=len(free)):
        m = dict(fixed)
        m.update(zip(free, bits))
        if all(any(m[abs(l)] == (l > 0) for l in c) for c in cnf.clauses):
            return False
    return True


def test_criterion_09_interpolant_contract():
    checked = bad = 0
    for inst, circ in interpolant_corpus():
        c_vars = sorted(inst.c_vars)
        assert len(c_vars) <= 12
        for bits in itertools.product((0, 1), repeat=len(c_vars)):
            fixed = dict(zip(c_vars, bits))
            side = inst.phi1 if circ.eval(fixed)[0] else inst.phi0
            checked += 1
            if not restricted_unsat(side, fixed):
                bad += 1
    report(9, bad == 0,
           f"{checked} C-assignments over 2 interpolants, {bad} violations")


def test_criterion_10_interpolation_trend():
    rows = interp_size_experiment(m_range=(1, 2, 3))
    sizes = [r["interpolantSize"] for r in rows]
    ratios = [r["interpolantSize"] / r["lexFirstSize"] for r in rows]
    ok = (None not in sizes
          and all(a <= b for a, b in zip(sizes, sizes[1:]))
          and all(a <= b for a, b in zip(ratios, ratios[1:])))
    report(10, ok, f"sizes {sizes}, ratios "
                   f"{[round(r, 2) for r in ratios]}")


def test_criterion_11_sequential_trap():
    p = TrapParams(10, 8, 4, seed=1)
    out = simulate_sequential(p, trials=200, seed=2)
    ptrue = 2 ** -4
    sigma = (ptrue * (1 - ptrue) / 200) ** 0.5
    dev = abs(out["fractionChoseS"] - ptrue)
    spec, truth, _ = gen_trap(p)
    valid = verify_skolem(spec, truth).is_valid
    ok = dev <= 3 * sigma and out["secondBlockMatchesH"] and valid
    report(11, ok, f"fractionChoseS={out['fractionChoseS']:.4f} "
                   f"(|dev|={dev:.4f} <= {3 * sigma:.4f}), "
                   f"truth vector valid={valid}")
