"""Benchmark families: binary pigeonhole, sequential trap, factorization,
planted covers.

Generators return Specification objects (plus ground truth where it
exists) using a fixed variable layout so instances are reproducible
bit-for-bit from their parameters and seed.
"""

from __future__ import annotations

import itertools
import math

from .circuits import Builder, SkolemVector
from .cnf import Cnf
from .formula import Specification
from .interplab import (InterpolationInstance, extract_interpolant,
                        relabel_axioms, solve_with_proof)
from .oracle import labeled_rng
from .solver import ResourceLimitError
from .synth import _selector_vector


# ---------------------------------------------------------------------------
# binary pigeonhole bPHP^k

class BphpParams:
    """k pigeons, m hole-address bits.

    Variable layout: X_{i,j} (pigeon i's address bit j, j=1 most
    significant) is id (i-1)*m + j; Y_j (the collided hole named by the
    output) is id k*m + j.

    regime "paper" asserts the paper's scaling n = k*m with
    m = ceil(log2 n) - 1; regime "interpolation" asserts k = 2^m + 1 so
    a collision always exists.
    """

    def __init__(self, k: int, m: int, regime: str = "interpolation"):
        if k < 2 or m < 1:
            raise ValueError("need k >= 2 pigeons and m >= 1 address bits")
        if regime == "paper":
            n = k * m
            if m != math.ceil(math.log2(n)) - 1:
                raise ValueError(
                    f"paper regime needs m = ceil(log2(k*m)) - 1; "
                    f"got k={k}, m={m} (n={n})")
        elif regime == "interpolation":
            if k != (1 << m) + 1:
                raise ValueError(
                    f"interpolation regime needs k = 2^m + 1; got k={k}, "
                    f"m={m}")
        else:
            raise ValueError(f"unknown regime {regime!r}")
        self.k = k
        self.m = m

    def xvar(self, i: int, j: int) -> int:
        return (i - 1) * self.m + j

    def yvar(self, j: int) -> int:
        return self.k * self.m + j


def _hole_clause(p: BphpParams, b, i1: int, i2: int):
    """Clause saying: not both pigeons i1, i2 sit in hole b.
    Literal sign: true iff var != b_j."""
    clause = []
    for i in (i1, i2):
        for j in range(1, p.m + 1):
            v = p.xvar(i, j)
            clause.append(-v if b[j - 1] else v)
    return clause


def gen_bphp(p: BphpParams) -> Specification:
    """F(X,Y) = "hole Y holds at least two pigeons under X"."""
    b = Builder()
    xw = {}
    for i in range(1, p.k + 1):
        for j in range(1, p.m + 1):
            xw[(i, j)] = b.inp(p.xvar(i, j))
    yw = [b.inp(p.yvar(j)) for j in range(1, p.m + 1)]
    in_hole = [b.and_many(b.xnor_(xw[(i, j)], yw[j - 1])
                          for j in range(1, p.m + 1))
               for i in range(1, p.k + 1)]
    out = b.or_many(b.and_(in_hole[i1], in_hole[i2])
                    for i1 in range(p.k) for i2 in range(i1 + 1, p.k))
    matrix = b.extract([out])
    x_vars = [p.xvar(i, j) for i in range(1, p.k + 1)
              for j in range(1, p.m + 1)]
    y_vars = [p.yvar(j) for j in range(1, p.m + 1)]
    return Specification(x_vars, y_vars, matrix)


def bphp_lexfirst_skolem(p: BphpParams) -> SkolemVector:
    """Output the smallest collided hole address, Y_1 most significant:
    the lex selector on gen_bphp(p), unswept, so its size is the
    closed form's."""
    return _selector_vector(
        gen_bphp(p), list(itertools.product((0, 1), repeat=p.m)))


def bphp_interpolation_pair(p: BphpParams) -> InterpolationInstance:
    """The bit-1 interpolation pair after universal expansion.

    phi0 collects the collision clauses for holes whose first address
    bit is 0 with all Y-literals dropped (they hold for every value of
    the remaining output bits); phi1 takes the holes with first bit 1.
    Both sides are over X only, so C = X and A = B = empty; together
    they assert that no hole holds two pigeons, unsatisfiable exactly
    when k > 2^m.
    """
    nvars = p.k * p.m
    phi0, phi1 = Cnf(nvars), Cnf(nvars)
    for bits in itertools.product((0, 1), repeat=p.m):
        side = phi1 if bits[0] else phi0
        for i1 in range(1, p.k + 1):
            for i2 in range(i1 + 1, p.k + 1):
                side.add(_hole_clause(p, bits, i1, i2))
    c_vars = range(1, nvars + 1)
    return InterpolationInstance(phi0, phi1, (), (), c_vars)


def interp_size_experiment(m_range=(1, 2, 3), max_conflicts=None):
    """Rows {m, k, proofLength, interpolantSize, lexFirstSize}.

    Uses the k = 2^m + 1 regime where the bit-1 pair is genuinely
    unsatisfiable.  Cells that exhaust resources leave their fields None.
    """
    rows = []
    for m in m_range:
        k = (1 << m) + 1
        row = {"m": m, "k": k, "proofLength": None,
               "interpolantSize": None, "lexFirstSize": None}
        params = BphpParams(k, m, regime="interpolation")
        row["lexFirstSize"] = bphp_lexfirst_skolem(params).size
        try:
            instance = bphp_interpolation_pair(params)
            status, payload = solve_with_proof(instance.combined(),
                                               max_conflicts=max_conflicts)
            if status == "unsat":
                proof = relabel_axioms(payload, instance)
                row["proofLength"] = len(proof)
                row["interpolantSize"] = extract_interpolant(
                    instance, proof).size
        except ResourceLimitError:  # resource limits leave the cell absent
            pass
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# sequential trap

class TrapParams:
    def __init__(self, n: int, m: int, window_bits: int, seed=0):
        if m < 4 or m % 2:
            raise ValueError("m must be even and at least 4")
        if not (1 <= window_bits <= min(n, 12)):
            raise ValueError("window_bits must be in 1..min(n, 12)")
        self.n = n
        self.m = m
        self.window_bits = window_bits
        self.seed = seed

    @property
    def half(self) -> int:
        return self.m // 2


def _mux_tree(b: Builder, selects, leaves):
    """Balanced selector: selects[0] is the most significant index bit."""
    if not selects:
        return leaves[0]
    half = len(leaves) // 2
    lo = _mux_tree(b, selects[1:], leaves[:half])
    hi = _mux_tree(b, selects[1:], leaves[half:])
    return b.mux_(selects[0], hi, lo)


def _trap_pieces(p: TrapParams):
    rng = labeled_rng(p.seed, "trap")
    s_bits = [rng.getrandbits(1) for _ in range(p.half)]
    h_table = [rng.getrandbits(p.half)
               for _ in range(1 << (p.window_bits + p.half))]

    def c_wires(b: Builder, xw):
        """Seeded block-2 circuit of size O(n): per output, a small
        chain over rotated input slices."""
        crng = labeled_rng(p.seed, "trap/c")
        outs = []
        for j in range(p.half):
            acc = xw[(j % p.n)]
            for step in range(max(1, p.n // p.half)):
                other = xw[crng.randrange(p.n)]
                op = crng.choice(("and_", "or_", "xor_"))
                acc = getattr(b, op)(acc, other)
                if crng.getrandbits(1):
                    acc = b.not_(acc)
            outs.append(acc)
        return outs

    return s_bits, h_table, c_wires


def gen_trap(p: TrapParams):
    """Relation forcing the trap: block 1 = s selects the easy branch.

    F(x, (y1, y2)) holds iff y1 = s and y2 = c(x), or y1 != s and
    y2 = h(window(x), y1).  Returns (spec, small ground-truth vector,
    info dict with s, the h table, and the c circuit).
    """
    s_bits, h_table, c_wires = _trap_pieces(p)
    n, half = p.n, p.half
    b = Builder()
    xw = [b.inp(v) for v in range(1, n + 1)]
    y1 = [b.inp(n + 1 + j) for j in range(half)]
    y2 = [b.inp(n + 1 + half + j) for j in range(half)]
    eq_s = b.and_many(y1[j] if s_bits[j] else b.not_(y1[j])
                      for j in range(half))
    cw = c_wires(b, xw)
    eq_c = b.and_many(b.xnor_(y2[j], cw[j]) for j in range(half))
    selects = xw[:p.window_bits] + y1
    hw = []
    for j in range(half):
        leaves = [b.const((row >> (half - 1 - j)) & 1) for row in h_table]
        hw.append(_mux_tree(b, selects, leaves))
    eq_h = b.and_many(b.xnor_(y2[j], hw[j]) for j in range(half))
    out = b.or_(b.and_(eq_s, eq_c), b.and_(b.not_(eq_s), eq_h))
    matrix = b.extract([out])
    spec = Specification(list(range(1, n + 1)),
                         list(range(n + 1, n + 1 + p.m)), matrix)
    gb = Builder()
    gx = [gb.inp(("x", i + 1)) for i in range(n)]
    gouts = [gb.const(s_bits[j]) for j in range(half)]
    gc = c_wires(gb, gx)
    gouts += gc
    truth = SkolemVector(n, gb.extract(gouts))
    info = {"s": tuple(s_bits), "h": list(h_table)}
    return spec, truth, info


def simulate_sequential(p: TrapParams, trials: int = 200, seed=0) -> dict:
    """Simulate a sequential synthesizer fixing block 1 first.

    Every block-1 assignment is consistent with the relation, so a
    majority over uniformly sampled consistent candidates is a uniform
    draw of t; we record how often t hits the planted s, and confirm on
    every window row that the induced block-2 requirement is exactly
    h(window, t) (or c when t = s).
    """
    spec, truth, info = gen_trap(p)
    s = info["s"]
    half = p.half
    rng = labeled_rng(seed, "trap/sim")
    hits = 0
    matches = True
    for _ in range(trials):
        t = tuple(rng.getrandbits(1) for _ in range(half))
        if t == s:
            hits += 1
        window = rng.getrandbits(p.window_bits)
        xbits = [0] * p.n
        for j in range(p.window_bits):
            xbits[j] = (window >> (p.window_bits - 1 - j)) & 1
        assign = {i + 1: xbits[i] for i in range(p.n)}
        for j in range(half):
            assign[p.n + 1 + j] = t[j]
        completions = []
        for y2 in itertools.product((0, 1), repeat=half):
            for j in range(half):
                assign[p.n + 1 + half + j] = y2[j]
            if spec.eval(assign):
                completions.append(y2)
        if t == s:
            want = tuple(truth.eval(xbits)[half:])
        else:
            row = info["h"][(window << half) | int("".join(map(str, t)), 2)]
            want = tuple((row >> (half - 1 - j)) & 1 for j in range(half))
        if completions != [want]:
            matches = False
    return {"fractionChoseS": hits / trials,
            "secondBlockMatchesH": matches, "trials": trials}


# ---------------------------------------------------------------------------
# factorization

def gen_factor(bits: int) -> Specification:
    """F(x, (a, b)) = (x = a*b over 2*bits-wide product) & a != 1 & b != 1.

    All words are unsigned with bit 1 most significant; x is
    zero-extended to the product width, so no wraparound occurs.
    """
    if not (1 <= bits <= 16):
        raise ValueError("bits must be in 1..16")
    b = Builder()
    x = [b.inp(v) for v in range(1, bits + 1)]
    a_ = [b.inp(v) for v in range(bits + 1, 2 * bits + 1)]
    c_ = [b.inp(v) for v in range(2 * bits + 1, 3 * bits + 1)]

    def add_word(u, v):
        # LSB-first ripple-carry addition, fixed width
        out = []
        carry = b.const(0)
        for ub, vb in zip(u, v):
            out.append(b.xor_(b.xor_(ub, vb), carry))
            carry = b.or_(b.and_(ub, vb), b.and_(carry, b.xor_(ub, vb)))
        return out

    width = 2 * bits
    a_ls = list(reversed(a_)) + [b.const(0)] * bits   # LSB first, widened
    acc = [b.const(0)] * width
    for j in range(bits):                             # bit j of c (LSB)
        cbit = c_[bits - 1 - j]
        partial = [b.const(0)] * j + \
                  [b.and_(cbit, w) for w in a_ls[:width - j]]
        acc = add_word(acc, partial)
    x_ls = list(reversed(x)) + [b.const(0)] * bits
    eq = b.and_many(b.xnor_(p, q) for p, q in zip(acc, x_ls))

    def not_one(word):
        is_one = b.and_many([word[-1]] +
                            [b.not_(w) for w in word[:-1]])
        return b.not_(is_one)

    out = b.and_many([eq, not_one(a_), not_one(c_)])
    matrix = b.extract([out])
    return Specification(list(range(1, bits + 1)),
                         list(range(bits + 1, 3 * bits + 1)), matrix)


# ---------------------------------------------------------------------------
# planted covers

def gen_planted_cover(n: int, m: int, k: int, seed=0):
    """F(x, y) = OR_j (prefix_j(x) & y = t_j) for a balanced prefix
    partition of {0,1}^n into k cells and k distinct planted targets.

    Returns (spec, targets) where targets[j] corresponds to cell j.
    """
    if not (1 <= k <= min(1 << n, 1 << m)):
        raise ValueError("need 1 <= k <= min(2^n, 2^m)")
    prefixes = [""]
    while len(prefixes) < k:
        prefixes.sort(key=len)
        p = prefixes.pop(0)
        prefixes += [p + "0", p + "1"]
    prefixes.sort()
    rng = labeled_rng(seed, "planted")
    codes = rng.sample(range(1 << m), k)
    targets = [tuple((c >> (m - 1 - j)) & 1 for j in range(m))
               for c in codes]
    b = Builder()
    x = [b.inp(v) for v in range(1, n + 1)]
    y = [b.inp(v) for v in range(n + 1, n + m + 1)]
    cells = []
    for pref, t in zip(prefixes, targets):
        inpref = b.and_many(x[j] if pref[j] == "1" else b.not_(x[j])
                            for j in range(len(pref)))
        eq = b.and_many(y[j] if t[j] else b.not_(y[j]) for j in range(m))
        cells.append(b.and_(inpref, eq))
    matrix = b.extract([b.or_many(cells)])
    spec = Specification(list(range(1, n + 1)),
                         list(range(n + 1, n + m + 1)), matrix)
    return spec, targets
