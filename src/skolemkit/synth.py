"""Skolem synthesis: lexicographic-first, covering-set, unique-bit learner.

Three routes to a Skolem vector:

* synth_lex    -- oracle-free closed form, selects the lexicographically
                  smallest satisfying output tuple (Y_1 most significant);
                  size grows with 2^m, fine for small m.
* synth_cover  -- greedy covering-set construction driven by XOR-hash
                  counting, sampling from the counted cells; polynomial
                  in the image size k.
* synth_unique_bit -- learns a single uniquely-defined output bit by
                  sampling consistent bounded-size circuits and majority
                  voting, with a counterexample loop.

synth_auto dispatches between them.
"""

from __future__ import annotations

import itertools
import math

from .circuits import (Builder, Circuit, SkolemVector, input_masks, sweep,
                       vector_from_circuits)
from .cnf import Cnf, tseitin
from .formula import Specification, substitute
from .oracle import Oracle, approx_count_projected, labeled_rng
from .solver import ResourceLimitError
from .verify import check_unique

LEX_LIMIT = 16
SIZE_CAP = 1 << 10          # max circuit-size guess for the learner
COUNT_TRIALS = 3            # counting trials per cover iteration


class BudgetExceededError(ResourceLimitError):
    """The unique-bit learner found no hypothesis up to its size bound."""


# ---------------------------------------------------------------------------
# lexicographic-first (closed form)

def _selector_vector(spec: Specification, tuples) -> SkolemVector:
    """Vector outputting the first tuple in the list whose F(X, y) holds.

    For each y-tuple (in the given order) build
    term_j = F(X, y_j) & AND_{j' < j} ~F(X, y_j'), sharing the running
    prefix product; output i is the OR of the terms whose tuple has
    bit i set.

    F enters each tuple by partial evaluation: its constant and X-only
    gates are built once, over the X inputs; gates reading only Y are
    evaluated for all tuples at once (bit j of a mask is the value under
    tuple j); and the gates reading both (mixed) are rebuilt once per
    distinct Y-signature, the values under a tuple of the Y-only gates
    that a mixed gate or the output reads.
    A tuple whose signature was seen before reuses that rebuild's F:
    rebuilding again would feed every mixed gate, in ascending order,
    the same operand ids, and Builder's folding reads only the immutable
    gates of its operands, so every key it reached is already cached; it
    would create no gate and return the same id.  Stale remap entries of
    mixed gates are harmless, as the next rebuild overwrites them in
    ascending order before any is read.  So the gates are those of one
    rebuild per tuple, in the same order, and the selector has the same
    gate count and functions as one full copy of F per tuple.
    """
    b = Builder()
    one, zero = b.const(1), b.const(0)
    xpos = {v: j + 1 for j, v in enumerate(spec.x_vars)}
    gates, out = spec.matrix.gates, spec.matrix.outputs[0]
    reads = []      # per gate: 0 constant, 1 X only, 2 Y only, 3 both
    for gate in gates:
        if gate[0] == "in":
            reads.append(2 if gate[1] in spec.y_vars else 1)
        elif gate[0] == "const":
            reads.append(0)
        else:
            reads.append(reads[gate[1]] | reads[gate[-1]])
    mixed = [i for i, r in enumerate(reads) if r == 3]
    # the Y-only gates that a mixed gate or the output reads
    yonly = sorted({c for i in mixed for c in gates[i][1:] if reads[c] == 2}
                   | ({out} if reads[out] == 2 else set()))
    w = len(tuples)
    assign = dict.fromkeys(spec.x_vars, 0)
    for k, v in enumerate(spec.y_vars):
        # bit j is v's value in tuple j, so tuple 0 is the last digit
        assign[v] = int("0" + "".join("01"[bits[k]]
                                      for bits in reversed(tuples)), 2)
    # row k, character j: the value of gate yonly[k] under tuple j (with
    # no tuple a row reads "0", which the zip with tuples below drops)
    rows = [format(col, f"0{w}b")[::-1]
            for col in Circuit(gates, yonly).eval_masks(assign, width=w)]
    sigs = zip(*rows) if rows else [()] * w

    remap = b.rebuild(spec.matrix, lambda v: b.inp(("x", xpos[v])),
                      [0] * len(gates),
                      [i for i, r in enumerate(reads) if r < 2])
    seen = {}        # Y-signature -> F's id under it
    terms = []
    prefix = one     # no smaller tuple satisfies F
    for _, sig in zip(tuples, sigs):
        fx = seen.get(sig)
        if fx is None:
            for g, c in zip(yonly, sig):
                remap[g] = one if c == "1" else zero
            fx = seen[sig] = b.rebuild(spec.matrix, None, remap, mixed)[out]
        terms.append(b.and_(fx, prefix))
        prefix = b.and_(prefix, b.not_(fx))
    outs = []
    for i in range(spec.m):
        outs.append(b.or_many(t for bits, t in zip(tuples, terms)
                              if bits[i] == 1))
    return SkolemVector(spec.n, b.extract(outs))


def _swept_selector(spec: Specification, tuples) -> SkolemVector:
    """_selector_vector with equivalent gates merged (see sweep).  The
    selector reads only X, so merging cannot add a Y-dependency."""
    return SkolemVector(spec.n, sweep(_selector_vector(spec, tuples).arena))


def synth_lex(spec: Specification, m_limit: int = LEX_LIMIT) -> SkolemVector:
    """Lexicographically smallest satisfying y-tuple, Y_1 most significant.

    Oracle-free; total size is bounded by |F|·m·2^{2m} (empirically far
    smaller thanks to shared prefix products and constant folding).
    F's gates that read both X and Y are rebuilt once per distinct
    Y-signature; the Y-only gates are evaluated once for all 2^m tuples
    (see _selector_vector).  The selector is then swept.
    """
    if spec.m > m_limit:
        raise ValueError(
            f"m={spec.m} exceeds the lexicographic limit {m_limit} "
            f"(size grows like 2^(2m))")
    tuples = list(itertools.product((0, 1), repeat=spec.m))
    return _swept_selector(spec, tuples)


# ---------------------------------------------------------------------------
# covering-set synthesis

class CoverSet:
    """An ordered covering set S' of output tuples with run statistics."""

    def __init__(self, elements, uncovered_estimates=None):
        self.elements = list(elements)
        assert len(set(self.elements)) == len(self.elements)
        self.uncovered_estimates = uncovered_estimates or []

    def __len__(self):
        return len(self.elements)

    @property
    def iterations(self) -> int:
        """Cover-loop iterations: each adds one element."""
        return len(self.elements)


def build_cover_circuit(spec: Specification, cover: CoverSet) -> SkolemVector:
    """Select the lexicographically first y in S' with F(x, y) = 1."""
    return _swept_selector(spec, sorted(cover.elements))


def synth_cover(spec: Specification, oracle: Oracle = None, *,
                seed=0) -> tuple:
    """Greedy covering set via hash counting, then a selector.

    Each element is the y of a model drawn from the counted cell of the
    uncovered formula (see approx_count_projected), so no solve is made
    beyond counting.  Certified by a final unsat query on the uncovered
    formula.
    """
    oracle = oracle or Oracle()
    elements = []
    estimates = []
    level = None
    uncov = spec.cnf.copy()     # F(X,Y) & AND_{y in S'} ~F(X,y)
    trials = {}                 # counting trials, open across iterations
    while True:
        est = approx_count_projected(
            uncov, spec.x_vars, epsilon_trials=COUNT_TRIALS,
            seed=seed, oracle=oracle, level_hint=level, trials=trials)
        estimates.append(est.estimate)
        level = est.hash_bits
        if est.estimate == 0:
            # 0 only from an unsat level-0 solve: certified complete
            break
        model = labeled_rng(seed, f"cover/{len(elements)}").choice(est.cell)
        ybits = tuple(model[v] for v in spec.y_vars)
        assert ybits not in elements
        elements.append(ybits)
        covered = substitute(spec, list(ybits))
        tseitin(covered, lambda v: v, uncov, assert_outputs=[0])
        for cells in trials.values():
            cells.exclude(covered)
    cover = CoverSet(elements, estimates)
    return build_cover_circuit(spec, cover), cover


# ---------------------------------------------------------------------------
# bounded-circuit encoding for the unique-bit learner

VECTOR_LIMIT = 1 << 24      # max skeletons x table-combos for exact work


def _operand_pairs(p: int, s: int) -> list:
    """Per gate, its operand slots (a, b), a < b; (0, 0) if only slot 0."""
    return [list(itertools.combinations(range(p + t), 2)) or [(0, 0)]
            for t in range(s)]


def _function_table(p: int, s: int) -> tuple:
    """The structures of s gates over p input slots, grouped by the input
    slots their skeleton reads and their truth table over those slots.

    Returns (slots, read, tables, weights, reps): per read set, its slots
    in input_masks order; per group, its read set's row, its table, its
    number of structures and its first structure, as an index into
    (operand pair per gate, table per gate).  Skeletons that read slots
    in the same pattern share one evaluation of all table combos, gate
    t's table on axis t.
    """
    import numpy as np
    combos = np.arange(16 ** s, dtype=np.int32)
    if p == 1:      # a one-operand gate has no mixed truth-table entries
        combos = combos[(combos >> 4 * (s - 1) & 0b0110) == 0]
    bits = [[-((np.arange(16) >> k) & 1).reshape((16,) + (1,) * (s - 1 - t))
             for k in range(4)] for t in range(s)]
    rows, shapes, parts = {}, {}, []
    for k, skeleton in enumerate(itertools.product(*_operand_pairs(p, s))):
        slots = tuple(sorted({v for ab in skeleton for v in ab if v < p}))
        w = len(slots)
        shape = (w, tuple(tuple(slots.index(v) if v < p else v - p + w
                                for v in ab) for ab in skeleton))
        if shape not in shapes:
            full = (1 << (1 << w)) - 1
            vals = list(input_masks(range(w)).values())
            for (a, b), (b0, b1, b2, b3) in zip(shape[1], bits):
                va, vb = vals[a], vals[b]
                na, nb = full ^ va, full ^ vb
                vals.append(b0 & (na & nb) | b1 & (na & vb)
                            | b2 & (va & nb) | b3 & (va & vb))
            out = np.broadcast_to(vals[-1], (16,) * s).ravel()[combos]
            out = out.astype(np.min_scalar_type(full))  # sorts faster
            tables, first, counts = np.unique(out, return_index=True,
                                              return_counts=True)
            shapes[shape] = tables, combos[first], counts.astype(np.int32)
        tables, first, counts = shapes[shape]
        parts.append((np.full(len(tables), rows.setdefault(slots, len(rows))),
                      tables, counts, k * 16 ** s + first))
    read, tables, counts, reps = map(np.concatenate, zip(*parts))
    keys, first, inverse = np.unique(read << 32 | tables, return_index=True,
                                     return_inverse=True)
    return (tuple(rows), keys >> 32, keys & 0xFFFFFFFF,
            np.bincount(inverse, counts).astype(np.int64), reps[first])


class CircuitEncoding:
    """The circuits of exactly s gates over X u Y^{1:i-1} consistent with
    the counterexamples added so far, in one form chosen by space size.

    * weights (exact tier, skeletons x table-combos <= VECTOR_LIMIT): per
      group of the table of (p, s) (see _function_table, built with the
      encoding), its number of consistent structures.  A group's
      structures compute one function, so a case keeps or zeroes it.
    * cnf (XOR tier, otherwise): per gate, a one-hot choice among ordered
      operand pairs (inputs and strictly earlier gates) plus 4 truth-table
      bits; the last gate is the output.  A gate with a single operand
      has the unary table (mixed entries are forced to 0).

    The other form is None; add_case narrows the one held in place.  A
    circuit without inputs reads one constant-0 slot.
    """

    def __init__(self, n: int, i: int, s: int):
        self.n, self.i, self.s = n, i, s
        self.p = max(1, n + i - 1)  # input slots: X then Y_1..Y_{i-1}
        self.cases = []     # (xbits, ybits) per counterexample
        self.pairs = _operand_pairs(self.p, s)
        self.space_size = math.prod(len(pp) * (4 if pp == [(0, 0)] else 16)
                                    for pp in self.pairs)
        self.cnf = self.weights = None
        if math.prod(map(len, self.pairs)) * 16 ** s <= VECTOR_LIMIT:
            (self.slots, self.read, self.tables, self.weights,
             self.reps) = _function_table(self.p, s)
            return
        self.cnf = Cnf()
        self.sel = []        # per gate: one selection var per pair
        self.tt = []         # per gate: 4 truth-table vars, index 2*va+vb
        for pairs in self.pairs:
            sel = [self.cnf.fresh() for _ in pairs]
            tt = [self.cnf.fresh() for _ in range(4)]
            self.sel.append(sel)
            self.tt.append(tt)
            self.cnf.add(sel)
            for u, v in itertools.combinations(sel, 2):
                self.cnf.add([-u, -v])
            if pairs == [(0, 0)]:
                for lit in (sel[0], -tt[1], -tt[2]):
                    self.cnf.add([lit])
        self.structure_vars = [v for g in range(s)
                               for v in self.sel[g] + self.tt[g]]

    def add_case(self, x, y):
        """Keep only the circuits that map x (and y's first i-1 bits) to
        y's bit i."""
        inp = tuple(x) + tuple(y[:self.i - 1]) or (0,)
        target = y[self.i - 1]
        self.cases.append((x, y))
        if self.weights is not None:
            import numpy as np
            point = np.array([sum(inp[v] << k for k, v in
                                  enumerate(reversed(slots)))
                              for slots in self.slots])
            self.weights[(self.tables >> point[self.read]) & 1 != target] = 0
            return
        val = [self.cnf.fresh() for _ in range(self.s)]
        for t in range(self.s):
            for pv, (a, b) in zip(self.sel[t], self.pairs[t]):
                for alpha, beta in itertools.product((0, 1), repeat=2):
                    premise = [-pv]
                    for slot, want in ((a, alpha), (b, beta)):
                        if slot >= self.p:
                            v = val[slot - self.p]
                            premise.append(-v if want else v)
                        elif inp[slot] != want:
                            break
                    else:
                        ttv = self.tt[t][2 * alpha + beta]
                        self.cnf.add(premise + [-val[t], ttv])
                        self.cnf.add(premise + [val[t], -ttv])
        self.cnf.add([val[-1]] if target else [-val[-1]])

    def representative(self, group: int) -> Circuit:
        """The circuit of the one structure kept for a group."""
        import numpy as np
        dims = [len(pp) for pp in self.pairs] + [16] * self.s
        index = [int(v) for v in np.unravel_index(self.reps[group], dims)]
        return self.decode_structure(index[:self.s], index[self.s:])

    def structure_of(self, model: dict):
        choice, tables = [], []
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
        wires = [b.inp(nm) for nm in names] or [b.const(0)]
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
    """Exact number of consistent structures, summed over the groups."""
    if encoding.weights is None:
        raise ValueError(f"space {encoding.space_size} exceeds VECTOR_LIMIT")
    return int(encoding.weights.sum())


def sample_candidate_pool(encoding: CircuitEncoding, count: int,
                          oracle: Oracle = None, seed=0) -> list:
    """`count` near-uniform consistent circuits: on the exact tier,
    groups drawn by weight, which over functions is the uniform draw over
    structures; otherwise draws with replacement from the counted cell of
    the CNF (see approx_count_projected).  The pool is empty when no
    circuit of this size fits the counterexamples."""
    oracle = oracle or Oracle()
    if encoding.weights is not None:
        live = encoding.weights.nonzero()[0]
        if len(live):
            rng = labeled_rng(seed, "pool/vector")
            cum = encoding.weights[live].cumsum().tolist()
            picks = rng.choices(live.tolist(), k=count, cum_weights=cum)
            return [encoding.representative(g) for g in picks]
    else:
        est = approx_count_projected(
            encoding.cnf, encoding.structure_vars, epsilon_trials=3,
            seed=seed, oracle=oracle,
            level_hint=max(0, encoding.space_size.bit_length() - 7))
        if est.estimate:
            rng = labeled_rng(seed, "pool/cell")
            return [encoding.decode_structure(*encoding.structure_of(model))
                    for model in rng.choices(est.cell, k=count)]
    return []


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

def _hypothesis_counterexample(spec: Specification, i: int, h: Circuit,
                               oracle: Oracle):
    """Model of F(X,Y) & (Y_i != h(X, Y^{1:i-1})), or None."""
    cnf = spec.cnf.copy()

    def invar(name):
        if name[0] == "x":
            return spec.x_vars[name[1] - 1]
        return spec.y_vars[name[1] - 1]

    hl = tseitin(h, invar, cnf, assert_outputs=False)[0]
    yi = spec.y_vars[i - 1]
    cnf.add([yi, hl])
    cnf.add([-yi, -hl])
    model = oracle.solve(cnf)
    if model is None:
        return None
    return (tuple(model[v] for v in spec.x_vars),
            tuple(model[v] for v in spec.y_vars))


def synth_unique_bit(spec: Specification, i: int, oracle: Oracle = None,
                     d: int = 4, seed=0, s0: int = None,
                     max_s: int = SIZE_CAP,
                     state_log: list = None) -> Circuit:
    """Learn a circuit for Y_i over (X, Y^{1:i-1}) by majority voting.

    Caller should have confirmed uniqueness (check_unique); on non-unique
    bits the loop can fail its budget.  Tries sizes s0, s0+1, ... up to
    max_s until the hypothesis passes the unsat check, and returns that
    hypothesis swept.  state_log, if given, receives each size's
    CircuitEncoding; its cases are that size's counterexamples.
    """
    oracle = oracle or Oracle()
    for s in range(1 if s0 is None else s0, max_s + 1):
        budget = math.ceil(64 * s * math.log2(s + 2))
        enc = encode_bounded_circuits(spec.n, i, s, [])
        if state_log is not None:
            state_log.append(enc)
        for r in range(budget):
            pool = sample_candidate_pool(
                enc, d * s, oracle, seed=f"{seed}/bit{i}/s{s}/r{r}")
            if not pool:
                break  # size bound too small for any consistent circuit
            h = majority_hypothesis(pool)
            ce = _hypothesis_counterexample(spec, i, h, oracle)
            if ce is None:
                return sweep(h)
            enc.add_case(*ce)
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


def synth_auto(spec: Specification, oracle: Oracle = None, *, seed=0,
               d: int = 4, lex_limit: int = LEX_LIMIT) -> SkolemVector:
    """Dispatch: small m -> lex; unique bits learned; rest covered.

    The result is not verified here; callers check it with verify_skolem.
    """
    oracle = oracle or Oracle()
    if spec.m <= lex_limit:
        return synth_lex(spec, m_limit=lex_limit)
    psis = {i: c for i, c in unique_bits(spec, oracle, d, seed)
            if c is not None}
    rest = [i for i in range(1, spec.m + 1) if i not in psis]
    if rest:
        residual = _residual_spec(spec, psis, rest)
        vec_rest, _ = synth_cover(residual, oracle, seed=seed)
        for pos, i in enumerate(rest, start=1):
            psis[i] = vec_rest.psi(pos)  # over X only
    return vector_from_circuits(spec.n,
                                [psis[i] for i in range(1, spec.m + 1)])


def _residual_spec(spec: Specification, learned: dict, rest) -> Specification:
    """F with learned bits substituted, over X (ids 1..n) and the
    remaining Y (ids n+1, ...)."""
    newx = list(range(1, spec.n + 1))
    newy = list(range(spec.n + 1, spec.n + 1 + len(rest)))
    names = dict(zip(spec.x_vars, newx))
    names.update((spec.y_vars[i - 1], v) for i, v in zip(rest, newy))
    matrix = substitute(spec, [learned.get(i) for i in range(1, spec.m + 1)],
                        names)
    return Specification(newx, newy, matrix)
