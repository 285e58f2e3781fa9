"""Skolem synthesis: lexicographic-first, covering-set, unique-bit learner.

Three routes to a Skolem vector:

* synth_lex    -- oracle-free closed form, selects the lexicographically
                  smallest satisfying output tuple (Y_1 most significant);
                  size grows with 2^m, fine for small m.
* synth_cover  -- greedy covering-set construction driven by XOR-hash
                  counting and sampling; polynomial in the image size k.
* synth_unique_bit -- learns a single uniquely-defined output bit by
                  sampling consistent bounded-size circuits and majority
                  voting, with a counterexample loop.

synth_auto dispatches between them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .circuits import (Builder, Circuit, SkolemVector, constant_vector,
                       vector_from_circuits)
from .cnf import Cnf, tseitin
from .formula import Specification, substitute
from .oracle import (Oracle, approx_count_projected, labeled_rng,
                     sample_with_retries)
from .verify import check_unique

LEX_LIMIT = 16
DOUBLING_CAP = 1 << 10      # max circuit-size guess for the learner


class BudgetExceededError(Exception):
    """A synthesis loop ran out of its iteration or size budget."""


class InconsistentEncodingError(Exception):
    """No bounded circuit is consistent with the stored counterexamples."""


# ---------------------------------------------------------------------------
# lexicographic-first (closed form)

def _lex_terms(spec: Specification, tuples):
    """Shared machinery for lex-style selectors.

    For each y-tuple (in the given order) build
    term_j = F(X, y_j) & AND_{j' < j} ~F(X, y_j'), sharing the running
    prefix product.  Returns (builder, x wires unused, term gate ids).
    """
    b = Builder()
    xpos = {v: j + 1 for j, v in enumerate(spec.x_vars)}

    def resolve_for(bits):
        binding = dict(zip(spec.y_vars, bits))

        def resolve(v):
            if v in binding:
                return b.const(binding[v])
            return b.inp(("x", xpos[v]))
        return resolve

    terms = []
    prefix = b.const(1)     # no smaller tuple satisfies F
    for bits in tuples:
        fx = b.import_circuit(spec.matrix, resolve_for(bits))[0]
        terms.append(b.and_(fx, prefix))
        prefix = b.and_(prefix, b.not_(fx))
    return b, terms


def _selector_vector(spec: Specification, tuples) -> SkolemVector:
    """Vector outputting the first tuple in the list whose F(X, y) holds."""
    b, terms = _lex_terms(spec, tuples)
    outs = []
    for i in range(spec.m):
        outs.append(b.or_many(t for bits, t in zip(tuples, terms)
                              if bits[i] == 1))
    return SkolemVector(spec.n, b.extract(outs))


def synth_lex(spec: Specification, m_limit: int = LEX_LIMIT) -> SkolemVector:
    """Lexicographically smallest satisfying y-tuple, Y_1 most significant.

    Oracle-free; total size is bounded by |F|·m·2^{2m} (empirically far
    smaller thanks to shared prefix products and constant folding).
    """
    if spec.m > m_limit:
        raise ValueError(
            f"m={spec.m} exceeds the lexicographic limit {m_limit} "
            f"(size grows like 2^(2m))")
    tuples = list(itertools.product((0, 1), repeat=spec.m))
    return _selector_vector(spec, tuples)


# ---------------------------------------------------------------------------
# covering-set synthesis

class CoverSet:
    """An ordered covering set S' of output tuples with run statistics."""

    def __init__(self, elements, iterations=0, uncovered_estimates=None):
        self.elements = list(elements)
        assert len(set(self.elements)) == len(self.elements)
        self.iterations = iterations
        self.uncovered_estimates = uncovered_estimates or []

    def __len__(self):
        return len(self.elements)


def _uncovered_cnf(spec: Specification, elements) -> Cnf:
    """F(X,Y) & AND_{y in S'} ~F(X,y)."""
    cnf = spec.cnf.copy()
    for bits in elements:
        c = substitute(spec, list(bits))
        tseitin(c, lambda v: v, cnf, assert_outputs=[0])
    return cnf


def build_cover_circuit(spec: Specification, cover: CoverSet) -> SkolemVector:
    """Select the lexicographically first y in S' with F(x, y) = 1."""
    tuples = sorted(cover.elements)
    if not tuples:
        return constant_vector(spec.n, [0] * spec.m)
    return _selector_vector(spec, tuples)


def synth_cover(spec: Specification, oracle: Oracle = None,
                k_guess0: int = 1, seed=0, count_trials: int = 3
                ) -> tuple:
    """Greedy covering set via hash counting/sampling, then a selector.

    Doubles the image-size guess k whenever S' outgrows the 2k(n+2)
    budget for the current guess.  Certified by a final unsat query on
    the uncovered formula.
    """
    oracle = oracle or Oracle()
    k = max(1, k_guess0)
    elements = []
    estimates = []
    iterations = 0
    level = None
    while True:
        uncov = _uncovered_cnf(spec, elements)
        est = approx_count_projected(
            uncov, spec.x_vars, epsilon_trials=count_trials,
            seed=seed, oracle=oracle, level_hint=level)
        estimates.append(est.estimate)
        level = est.hash_bits
        if est.estimate == 0:
            # exact zero comes from the enumeration path: certified unsat
            break
        hb = max(0, math.ceil(math.log2(max(1, est.estimate / (2 * k)))))
        model = sample_with_retries(uncov, spec.x_vars, hb, seed, oracle,
                                    label=f"cover/{iterations}")
        if model is None:
            break
        ybits = tuple(model[v] for v in spec.y_vars)
        assert ybits not in elements
        elements.append(ybits)
        iterations += 1
        if len(elements) > 2 * k * (spec.n + 2):
            k *= 2
            if k > 1 << spec.m:
                raise BudgetExceededError(
                    f"cover budget exhausted at k={k}")
    cover = CoverSet(elements, iterations, estimates)
    return build_cover_circuit(spec, cover), cover


# ---------------------------------------------------------------------------
# bounded-circuit encoding for the unique-bit learner

VECTOR_LIMIT = 1 << 24      # max skeletons x table-combos for exact work


class CircuitEncoding:
    """The circuits of exactly s gates over X u Y^{1:i-1} consistent with
    the counterexamples added so far, held two ways.

    * cnf: per gate, a one-hot choice among ordered operand pairs (inputs
      and strictly earlier gates) plus 4 truth-table bits; the last gate
      is the output.  With a single available operand the gate
      degenerates to the unary table (mixed entries are forced to 0 to
      avoid double counting).
    * masks: when skeletons x table-combos is at most VECTOR_LIMIT, one
      boolean row per gate-operand skeleton (in itertools.product order)
      over the 16^s table combos, True where the combo is consistent.
      Otherwise None, and sampling goes through the CNF.

    add_case narrows both in place.
    """

    def __init__(self, n: int, i: int, s: int):
        self.n = n
        self.i = i
        self.s = s
        self.p = n + i - 1  # circuit inputs: X then Y_1..Y_{i-1}
        self.cases = []     # (input bits, target bit) per counterexample
        self.cnf = Cnf()
        self.pairs = []      # per gate: list of (a, b) operand slots
        self.sel = []        # per gate: one selection var per pair
        self.tt = []         # per gate: 4 truth-table vars, index 2*va+vb
        self.space_size = 1
        for t in range(s):
            items = self.p + t
            if items >= 2:
                pairs = [(a, b) for a in range(items)
                         for b in range(a + 1, items)]
                factor = 16
            else:
                pairs = [(0, 0)]
                factor = 4
            self.pairs.append(pairs)
            sel = [self.cnf.fresh() for _ in pairs]
            tt = [self.cnf.fresh() for _ in range(4)]
            self.sel.append(sel)
            self.tt.append(tt)
            self.cnf.add(sel)
            for u, v in itertools.combinations(sel, 2):
                self.cnf.add([-u, -v])
            if items < 2:
                self.cnf.add([sel[0]])
                self.cnf.add([-tt[1]])
                self.cnf.add([-tt[2]])
            self.space_size *= len(pairs) * factor
        self.structure_vars = [v for g in range(s)
                               for v in self.sel[g] + self.tt[g]]
        self.skeletons = None
        self.masks = None
        if math.prod(map(len, self.pairs)) * 16 ** s <= VECTOR_LIMIT:
            self.skeletons = list(itertools.product(
                *[range(len(pp)) for pp in self.pairs]))
            combos = np.arange(16 ** s)
            self._digits = [((combos >> (4 * t)) & 15).astype(np.uint8)
                            for t in range(s)]
            base = np.ones(len(combos), dtype=bool)
            for t in range(s):
                if self.pairs[t] == [(0, 0)]:
                    base &= (self._digits[t] & 0b0110) == 0
            self.masks = np.tile(base, (len(self.skeletons), 1))

    def add_case(self, x, y):
        """Keep only the circuits that map x (and y's first i-1 bits) to
        y's bit i."""
        inp = tuple(x) + tuple(y[:self.i - 1])
        target = y[self.i - 1]
        self.cases.append((inp, target))
        self._add_case(inp, target)
        if self.masks is not None:
            self._narrow(inp, target)

    def _add_case(self, inp, target):
        val = [self.cnf.fresh() for _ in range(self.s)]
        for t in range(self.s):
            for pv, (a, b) in zip(self.sel[t], self.pairs[t]):
                for alpha, beta in itertools.product((0, 1), repeat=2):
                    premise = [-pv]
                    ok = True
                    for slot, want in ((a, alpha), (b, beta)):
                        if slot < self.p:
                            if inp[slot] != want:
                                ok = False
                                break
                        else:
                            v = val[slot - self.p]
                            premise.append(-v if want else v)
                    if not ok:
                        continue
                    ttv = self.tt[t][2 * alpha + beta]
                    self.cnf.add(premise + [-val[t], ttv])
                    self.cnf.add(premise + [val[t], -ttv])
        self.cnf.add([val[-1]] if target else [-val[-1]])

    def _narrow(self, inp, target):
        """AND one case into every mask row.  A depth-first walk over the
        gates' operand pairs visits the skeletons in row order and
        evaluates each shared prefix of gates once."""
        p, last = self.p, self.s - 1
        row = 0

        def walk(t, vals):
            nonlocal row
            for a, b in self.pairs[t]:
                va = inp[a] if a < p else vals[a - p]
                vb = inp[b] if b < p else vals[b - p]
                out = (self._digits[t] >> (2 * va + vb)) & 1
                if t == last:
                    self.masks[row] &= out == target
                    row += 1
                else:
                    walk(t + 1, vals + [out])
        walk(0, [])

    def structure_of(self, model: dict):
        choice = []
        tables = []
        for t in range(self.s):
            picked = [j for j, v in enumerate(self.sel[t]) if model[v]]
            if len(picked) != 1:
                raise ValueError("model does not pick one pair per gate")
            choice.append(picked[0])
            tables.append(sum(model[self.tt[t][j]] << j for j in range(4)))
        return tuple(choice), tuple(tables)

    def decode_structure(self, choice, tables) -> Circuit:
        b = Builder()
        names = [("x", j + 1) for j in range(self.n)] + \
                [("y", j + 1) for j in range(self.i - 1)]
        wires = [b.inp(nm) for nm in names]
        gates = []
        for t in range(self.s):
            a, bb = self.pairs[t][choice[t]]
            va = wires[a] if a < self.p else gates[a - self.p]
            vb = wires[bb] if bb < self.p else gates[bb - self.p]
            tt = tables[t]
            low = b.mux_(vb, b.const((tt >> 1) & 1), b.const(tt & 1))
            high = b.mux_(vb, b.const((tt >> 3) & 1), b.const((tt >> 2) & 1))
            gates.append(b.mux_(va, high, low))
        return b.extract([gates[-1]])

    def decode(self, model: dict) -> Circuit:
        return self.decode_structure(*self.structure_of(model))


def encode_bounded_circuits(n: int, i: int, s: int,
                            counterexamples) -> CircuitEncoding:
    """Encoding of size-s circuits for bit i consistent with the cases,
    each a (xbits, ybits) pair with full y."""
    if s < 1:
        raise ValueError("s must be at least 1")
    enc = CircuitEncoding(n, i, s)
    for x, y in counterexamples:
        enc.add_case(x, y)
    return enc


def count_consistent(encoding: CircuitEncoding) -> int:
    """Exact number of consistent structures, read off the masks."""
    if encoding.masks is None:
        raise ValueError(f"space {encoding.space_size} exceeds the exact "
                         f"limit {VECTOR_LIMIT}")
    return int(encoding.masks.sum())


def sample_candidate_pool(encoding: CircuitEncoding, count: int,
                          oracle: Oracle = None, seed=0) -> list:
    """`count` near-uniform consistent circuits: an exact draw from the
    masks when the encoding has them, XOR-hash cells otherwise."""
    oracle = oracle or Oracle()
    circuits = []
    if encoding.masks is not None:
        # exactly uniform: pick a skeleton weighted by its consistent
        # table count, then a uniform consistent table combo inside it
        weights = encoding.masks.sum(axis=1).tolist()
        if sum(weights) == 0:
            raise InconsistentEncodingError(
                "no circuit of this size fits the counterexamples")
        rng = labeled_rng(seed, "pool/vector")
        for _ in range(count):
            j = rng.choices(range(len(weights)), weights=weights)[0]
            combo = int(np.flatnonzero(encoding.masks[j])[
                rng.randrange(weights[j])])
            tables = tuple((combo >> (4 * t)) & 15
                           for t in range(encoding.s))
            circuits.append(encoding.decode_structure(
                encoding.skeletons[j], tables))
        return circuits
    est = approx_count_projected(encoding.cnf, encoding.structure_vars,
                                 epsilon_trials=3, seed=seed, oracle=oracle,
                                 level_hint=max(
                                     0, encoding.space_size.bit_length() - 7))
    if est.estimate == 0:
        raise InconsistentEncodingError(
            "no circuit of this size fits the counterexamples")
    hb = max(0, est.estimate.bit_length() - 4)
    for j in range(count):
        model = sample_with_retries(encoding.cnf, encoding.structure_vars,
                                    hb, seed, oracle, label=f"pool/{j}")
        if model is None:
            raise InconsistentEncodingError(
                "no circuit of this size fits the counterexamples")
        circuits.append(encoding.decode(model))
    return circuits


def majority_hypothesis(pool: list) -> Circuit:
    """Pointwise majority of the pool's circuits, as a unary threshold
    network.

    Even pools are padded by repeating the first circuit so ties cannot
    occur.
    """
    circuits = list(pool)
    if not circuits:
        raise ValueError("empty pool")
    if len(circuits) % 2 == 0:
        circuits.append(circuits[0])
    b = Builder()
    wires = [b.import_circuit(c, lambda nm: b.inp(nm))[0] for c in circuits]
    # counts[j] = "at least j+1 of the wires seen so far are 1"
    counts = []
    for w in wires:
        prev = counts
        counts = []
        for j in range(len(prev) + 1):
            ge = prev[j] if j < len(prev) else b.const(0)
            carry = prev[j - 1] if j >= 1 else b.const(1)
            counts.append(b.or_(ge, b.and_(carry, w)))
    need = (len(circuits) + 1) // 2
    return b.extract([counts[need - 1]])


# ---------------------------------------------------------------------------
# unique-bit learner and dispatcher

class LearnerState:
    def __init__(self, s: int):
        self.s = s
        self.counterexamples = []  # (xbits, ybits), each satisfying F
        self.round = 0


def _hypothesis_counterexample(spec: Specification, i: int, h: Circuit,
                               oracle: Oracle):
    """Model of F(X,Y) & (Y_i != h(X, Y^{1:i-1})), or None."""
    cnf = spec.cnf.copy()

    def invar(name):
        if name[0] == "x":
            return spec.x_vars[name[1] - 1]
        return spec.y_vars[name[1] - 1]

    enc = tseitin(h, invar, cnf, assert_outputs=False)
    hl = enc.output_lits[0]
    yi = spec.y_vars[i - 1]
    cnf.add([yi, hl])
    cnf.add([-yi, -hl])
    res = oracle.solve(cnf)
    if not res.is_sat:
        return None
    x = tuple(res.model[v] for v in spec.x_vars)
    y = tuple(res.model[v] for v in spec.y_vars)
    return x, y


def synth_unique_bit(spec: Specification, i: int, oracle: Oracle = None,
                     d: int = 4, seed=0, s0: int = None,
                     max_s: int = DOUBLING_CAP,
                     state_log: list = None) -> Circuit:
    """Learn a circuit for Y_i over (X, Y^{1:i-1}) by majority voting.

    Caller should have confirmed uniqueness (check_unique); on non-unique
    bits the loop can fail its budget.  Doubles the size bound until the
    hypothesis passes the unsat check.
    """
    oracle = oracle or Oracle()
    s = s0 if s0 is not None else max(spec.n + i, 4)
    while s <= max_s:
        state = LearnerState(s)
        if state_log is not None:
            state_log.append(state)
        budget = math.ceil(64 * s * math.log2(s + 2))
        enc = encode_bounded_circuits(spec.n, i, s, [])
        try:
            for state.round in range(budget):
                pool = sample_candidate_pool(
                    enc, d * s, oracle,
                    seed=f"{seed}/bit{i}/s{s}/r{state.round}")
                h = majority_hypothesis(pool)
                ce = _hypothesis_counterexample(spec, i, h, oracle)
                if ce is None:
                    return h
                state.counterexamples.append(ce)
                enc.add_case(*ce)
        except InconsistentEncodingError:
            pass  # size bound too small for any consistent circuit
        s *= 2
    raise BudgetExceededError(
        f"unique-bit learner failed up to size bound {max_s} for Y_{i}")


def unique_bits(spec: Specification, oracle: Oracle, d: int = 4, seed=0):
    """Yield (i, circuit) for i = 1..m; circuit is None when Y_i is not
    unique given X and Y^{1:i-1}.

    Each bit is checked, then learned, before the next bit is checked; a
    caller that stops at a non-unique bit makes no further oracle calls.
    """
    for i in range(1, spec.m + 1):
        z = spec.x_vars + spec.y_vars[:i - 1]
        if check_unique(spec, i, z, oracle):
            yield i, synth_unique_bit(spec, i, oracle, d=d, seed=seed)
        else:
            yield i, None


def synth_auto(spec: Specification, oracle: Oracle = None,
               cfg: dict = None) -> SkolemVector:
    """Dispatch: small m -> lex; unique bits learned; rest covered.

    The result is not verified here; callers check it with verify_skolem.
    """
    cfg = cfg or {}
    oracle = oracle or Oracle()
    lex_limit = cfg.get("lex_limit", LEX_LIMIT)
    seed = cfg.get("seed", 0)
    if spec.m <= lex_limit:
        return synth_lex(spec)
    psis = {i: c for i, c in unique_bits(spec, oracle, cfg.get("d", 4), seed)
            if c is not None}
    rest = [i for i in range(1, spec.m + 1) if i not in psis]
    if rest:
        residual = _residual_spec(spec, psis, rest)
        vec_rest, _ = synth_cover(residual, oracle, cfg.get("k0", 1), seed)
        for pos, i in enumerate(rest, start=1):
            psis[i] = vec_rest.psi(pos)  # over X only
    return vector_from_circuits(spec.n,
                                [psis[i] for i in range(1, spec.m + 1)])


def _residual_spec(spec: Specification, learned: dict, rest) -> Specification:
    """F with learned bits substituted, over X and the remaining Y."""
    b = Builder()
    xw = {v: b.inp(("x", j + 1)) for j, v in enumerate(spec.x_vars)}
    yw = {}

    def resolve(nm):
        if nm[0] == "x":
            return xw[spec.x_vars[nm[1] - 1]]
        return yw[nm[1]]

    for i in range(1, spec.m + 1):
        if i in learned:
            yw[i] = b.import_circuit(learned[i], resolve)[0]
        else:
            yw[i] = b.inp(("y", i))
    matrix = b.extract(
        b.import_circuit(spec.matrix, lambda v: xw[v] if v in xw
                         else yw[spec.y_vars.index(v) + 1]))
    # renumber inputs to plain variable ids for a fresh Specification
    nb = Builder()
    newx = list(range(1, spec.n + 1))
    newy = list(range(spec.n + 1, spec.n + 1 + len(rest)))
    posmap = {("x", j + 1): newx[j] for j in range(spec.n)}
    for pos, i in enumerate(rest):
        posmap[("y", i)] = newy[pos]
    out = nb.import_circuit(matrix, lambda nm: nb.inp(posmap[nm]))
    return Specification(newx, newy, nb.extract(out))
