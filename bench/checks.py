"""Output checkers for the benchmark, written apart from skolemkit.

Nothing here imports skolemkit: specifications are read back from the
QDIMACS text the benchmark wrote, Skolem vectors from the gate-list text
the program wrote, and circuits and proofs from their plain tuples.
Evaluation is bit-parallel: a value is a Python int whose bit ``i`` is
the value in lane ``i``, one lane per assignment.

Every checker raises CheckError on a wrong output and returns the gate
count of the circuit it checked.
"""

from __future__ import annotations

import operator
import random


class CheckError(Exception):
    """A job's output is wrong."""


# ---------------------------------------------------------------------------
# lanes

def lane_patterns(nbits: int) -> list:
    """Masks over 2**nbits lanes; pattern i is bit (nbits-1-i) of the lane
    index, so pattern 0 is the most significant."""
    lanes = 1 << nbits
    full = (1 << lanes) - 1
    pats = []
    for i in range(nbits):
        block = 1 << (nbits - 1 - i)            # run length of equal bits
        period = ((1 << block) - 1) << block    # zeros, then ones
        pats.append(period * (full // ((1 << (2 * block)) - 1)))
    return pats


def lane_values(masks, lanes: int) -> list:
    """Per lane, the integer whose bits are read from masks, first most
    significant."""
    out = [0] * lanes
    for mask in masks:
        for lane in range(lanes):
            out[lane] = (out[lane] << 1) | ((mask >> lane) & 1)
    return out


# ---------------------------------------------------------------------------
# specifications as written by the benchmark

class Qdimacs:
    """Universal ids, output ids (from the ``c outputs`` line) and clauses."""

    def __init__(self, text: str):
        self.xs, self.ys, self.clauses = [], [], []
        for line in text.splitlines():
            toks = line.split()
            if not toks or toks[0] == "p":
                continue
            if toks[0] == "c":
                if toks[1:2] == ["outputs"]:
                    self.ys = [int(t) for t in toks[2:]]
            elif toks[0] == "a":
                self.xs = [int(t) for t in toks[1:-1]]
            elif toks[0] != "e":
                self.clauses.append([int(t) for t in toks[:-1]])


def cnf_truth(clauses, inputs: dict, full: int) -> int:
    """Lanes in which the inputs extend to a model of a Tseitin CNF.

    ``inputs`` maps every input variable to its lane mask.  Unit
    propagation decides each lane: from fixed inputs it determines every
    gate variable, and a lane with a conflict has no model.  Lanes that
    propagation leaves undecided mean the CNF is not a Tseitin encoding
    of a circuit over the inputs, which is reported as a CheckError.
    """
    true = dict(inputs)
    false = {v: full ^ m for v, m in inputs.items()}
    bad = 0
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            fal = [false.get(l, 0) if l > 0 else true.get(-l, 0)
                   for l in clause]
            for i, lit in enumerate(clause):
                forced = full & ~bad
                for j, f in enumerate(fal):
                    if j != i:
                        forced &= f
                if not forced:
                    continue
                side, other = (true, false) if lit > 0 else (false, true)
                v = abs(lit)
                cur = side.get(v, 0)
                if forced & ~cur:
                    side[v] = cur | forced
                    bad |= forced & other.get(v, 0)
                    changed = True
    for clause in clauses:
        for lit in clause:
            v = abs(lit)
            if full & ~bad & ~(true.get(v, 0) | false.get(v, 0)):
                raise CheckError(f"variable {v} is not determined by the "
                                 "inputs; not a Tseitin CNF")
    return full & ~bad


# ---------------------------------------------------------------------------
# circuits

_OPS = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}


def eval_gates(gates, outputs, inputs: dict, full: int) -> list:
    """Evaluate a gate tuple list (("in", name), ("const", b), ("not", a),
    (op, a, b)) under lane masks for its input names."""
    vals = []
    for gate in gates:
        op = gate[0]
        if op == "in":
            if gate[1] not in inputs:
                raise CheckError(f"circuit reads unknown input {gate[1]!r}")
            vals.append(inputs[gate[1]])
        elif op == "const":
            vals.append(full if gate[1] else 0)
        elif op == "not":
            vals.append(full ^ vals[gate[1]])
        elif op in _OPS:
            vals.append(_OPS[op](vals[gate[1]], vals[gate[2]]))
        else:
            raise CheckError(f"unknown gate {gate!r}")
    return [vals[o] for o in outputs]


def gate_count(gates) -> int:
    """Gates other than inputs and constants."""
    return sum(1 for g in gates if g[0] not in ("in", "const"))


def eval_gatelist(text: str, x_masks, full: int):
    """(output masks, gate count) of a gate-list Skolem vector.

    Output ``y_j`` may read earlier outputs; gates are evaluated in
    passes until every output is known.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "skolem":
        raise CheckError("missing skolem header")
    m, n = int(lines[0][1]), int(lines[0][2])
    if n != len(x_masks):
        raise CheckError(f"vector reads {n} inputs, spec has {len(x_masks)}")
    gates, outs = {}, {}
    for toks in lines[1:]:
        if toks[1] == ":=":
            outs[toks[0]] = toks[2]
        else:
            op, args = toks[2].rstrip(")").split("(")
            gates[toks[0]] = (op, args.split(","))
    if sorted(outs) != sorted(f"y{j}" for j in range(1, m + 1)):
        raise CheckError("vector does not define every output once")
    vals = {"0": 0, "1": full}
    vals.update((f"x{i + 1}", mk) for i, mk in enumerate(x_masks))
    pending = dict(gates)
    pending.update((y, ("ID", [arg])) for y, arg in outs.items())
    while pending:
        done = []
        for name, (op, args) in pending.items():
            if not all(a in vals for a in args):
                continue
            a = [vals[x] for x in args]
            if op == "ID":
                vals[name] = a[0]
            elif op == "NOT":
                vals[name] = full ^ a[0]
            else:
                vals[name] = _OPS[op.lower()](a[0], a[1])
            done.append(name)
        if not done:
            raise CheckError("vector has a cyclic or undefined reference")
        for name in done:
            del pending[name]
    return [vals[f"y{j}"] for j in range(1, m + 1)], len(gates)


# ---------------------------------------------------------------------------
# cover-planted

def check_cover(spec_text: str, vec_text: str, targets, cover_size: int):
    """The vector picks, for every x, the one planted target F allows.

    F is evaluated from the written CNF.  Each planted target must hold
    on its own set of inputs, these sets must partition {0,1}^n, and the
    vector must output the target of the set x lies in.  The cover must
    respect the 2k(n+2) bound.
    """
    qd = Qdimacs(spec_text)
    n, k = len(qd.xs), len(targets)
    full = (1 << (1 << n)) - 1
    xm = lane_patterns(n)
    inputs = dict(zip(qd.xs, xm))
    outs, gates = eval_gatelist(vec_text, xm, full)
    covered = 0
    for t in targets:
        const = {y: (full if b else 0) for y, b in zip(qd.ys, t)}
        allowed = cnf_truth(qd.clauses, {**inputs, **const}, full)
        if allowed & covered:
            raise CheckError("two planted targets hold on one input")
        covered |= allowed
        for y_mask, b in zip(outs, t):
            if (y_mask ^ (full if b else 0)) & allowed:
                raise CheckError(f"vector misses planted target {t}")
    if covered != full:
        raise CheckError("some input allows no planted target")
    if cnf_truth(qd.clauses, {**inputs, **dict(zip(qd.ys, outs))},
                 full) != full:
        raise CheckError("vector output falsifies F")
    if not 1 <= cover_size <= 2 * k * (n + 2):
        raise CheckError(f"cover size {cover_size} outside 1..2k(n+2)")
    return gates


# ---------------------------------------------------------------------------
# lex-factor

def check_factor(vec_text: str, bits: int):
    """Output (a, b) is the lexicographically smallest pair with
    a*b = x and a, b != 1, for every x that has one."""
    lanes = 1 << bits
    outs, gates = eval_gatelist(vec_text, lane_patterns(bits),
                                (1 << lanes) - 1)
    if len(outs) != 2 * bits:
        raise CheckError("factor vector needs 2*bits outputs")
    a_vals = lane_values(outs[:bits], lanes)
    b_vals = lane_values(outs[bits:], lanes)
    for x in range(lanes):
        best = (0, 0) if x == 0 else next(
            ((a, x // a) for a in range(2, lanes)
             if x % a == 0 and 1 < x // a < lanes), None)
        if best is None:
            continue
        got = (a_vals[x], b_vals[x])
        if got[0] * got[1] != x or 1 in got:
            raise CheckError(f"x={x}: {got} is not a nontrivial "
                             "factorization")
        if got != best:
            raise CheckError(f"x={x}: {got} is not lex-first ({best})")
    return gates


def check_lex(spec_text: str, vec_text: str, chunk_bits: int = 6):
    """Output is the lexicographically smallest y that satisfies F.

    F is evaluated from the written CNF over every (x, y), ``2**chunk_bits``
    values of x at a time to keep lane masks small.
    """
    qd = Qdimacs(spec_text)
    n, m = len(qd.xs), len(qd.ys)
    chunk_bits = min(chunk_bits, n)
    outs, gates = eval_gatelist(vec_text, lane_patterns(n),
                                (1 << (1 << n)) - 1)
    psi = lane_values(outs, 1 << n)
    low = lane_patterns(chunk_bits + m)     # (x low bits, y) lanes
    full = (1 << (1 << (chunk_bits + m))) - 1
    for hi in range(1 << (n - chunk_bits)):
        inputs = {}
        for i, v in enumerate(qd.xs):
            if i < n - chunk_bits:
                bit = (hi >> (n - chunk_bits - 1 - i)) & 1
                inputs[v] = full if bit else 0
            else:
                inputs[v] = low[i - (n - chunk_bits)]
        inputs.update(zip(qd.ys, low[chunk_bits:]))
        sat = cnf_truth(qd.clauses, inputs, full)
        for lo in range(1 << chunk_bits):
            row = (sat >> (lo << m)) & ((1 << (1 << m)) - 1)
            x = (hi << chunk_bits) | lo
            if row and psi[x] != (row & -row).bit_length() - 1:
                raise CheckError(f"x={x}: output {psi[x]} is not the "
                                 "lex-first y satisfying F")
    return gates


# ---------------------------------------------------------------------------
# learn-unique

def truth_table(target) -> int:
    """Truth table over x1..x4 of a target (perm, flips, negate, steps):
    slot i holds x_{perm[i]+1}, negated when flips[i]; each step
    (op, left, right, negate) appends a slot; T is the last slot, negated
    when ``negate``."""
    perm, flips, negate, steps = target
    full = (1 << 16) - 1
    pats = lane_patterns(4)
    slots = [pats[p] ^ (full if f else 0) for p, f in zip(perm, flips)]
    for op, a, b, neg in steps:
        v = _OPS[op](slots[a], slots[b])
        slots.append(full ^ v if neg else v)
    return slots[-1] ^ (full if negate else 0)


def check_learned(gates, outputs, target):
    """The learned circuit equals the planted target on all 16 inputs."""
    full = (1 << 16) - 1
    inputs = {("x", i + 1): mk for i, mk in enumerate(lane_patterns(4))}
    (got,) = eval_gates(gates, outputs, inputs, full)
    want = truth_table(target)
    if got != want:
        raise CheckError(f"learned circuit differs from the target on "
                         f"{bin(got ^ want).count('1')} inputs")
    return gate_count(gates)


# ---------------------------------------------------------------------------
# interp-bphp

def check_refutation(steps, phi0, phi1):
    """Every axiom is a clause of a side with the right origin label, every
    resolvent is recomputed, and the last clause is empty.

    A premise's clause is read from its own step, which was checked
    before, and turned into a set only while it is used: the check keeps
    no copy of the proof, so its memory stays below the program's."""
    side0 = {frozenset(c) for c in phi0}
    side1 = {frozenset(c) for c in phi1}

    def clause_of(step):
        return step[1] if step[0] == "axiom" else step[4]

    for idx, step in enumerate(steps):
        if step[0] == "axiom":
            key = frozenset(step[1])
            origin = {(True, True): "shared", (True, False): "phi0",
                      (False, True): "phi1"}.get((key in side0,
                                                  key in side1))
            if origin is None:
                raise CheckError(f"step {idx}: axiom in neither side")
            if step[2] != origin:
                raise CheckError(f"step {idx}: axiom labelled {step[2]}, "
                                 f"belongs to {origin}")
            continue
        _, left, right, pivot, clause = step
        if not (0 <= left < idx and 0 <= right < idx):
            raise CheckError(f"step {idx}: premise out of order")
        lc = set(clause_of(steps[left]))
        rc = set(clause_of(steps[right]))
        if pivot in lc and -pivot in rc:
            res = (lc - {pivot}) | (rc - {-pivot})
        elif -pivot in lc and pivot in rc:
            res = (lc - {-pivot}) | (rc - {pivot})
        else:
            raise CheckError(f"step {idx}: premises do not clash on "
                             f"{pivot}")
        if res != set(clause):
            raise CheckError(f"step {idx}: wrong resolvent")
    if not steps or clause_of(steps[-1]):
        raise CheckError("last clause is not empty")


def _side_mask(clauses, inputs: dict, full: int) -> int:
    """Lanes in which every clause has a true literal."""
    sat = full
    for c in clauses:
        any_true = 0
        for lit in c:
            any_true |= inputs[lit] if lit > 0 else full ^ inputs[-lit]
        sat &= any_true
    return sat


def bphp_samples(k: int, m: int, side: int, count: int, rng) -> list:
    """Assignments of k pigeons to 2**m holes (as var -> bool, var
    (i-1)*m + j is pigeon i's address bit j) in which the holes whose
    first bit is ``side`` hold at most one pigeon each."""
    holes = 1 << m
    own = [h for h in range(holes) if (h >> (m - 1)) == side]
    other = [h for h in range(holes) if (h >> (m - 1)) != side]
    out = []
    for _ in range(count):
        r = rng.randint(0, min(k, len(own)))
        placed = rng.sample(own, r) + [rng.choice(other)
                                       for _ in range(k - r)]
        rng.shuffle(placed)
        assign = {}
        for i, h in enumerate(placed):
            for j in range(m):
                assign[i * m + j + 1] = bool((h >> (m - 1 - j)) & 1)
        out.append(assign)
    return out


def check_interpolant(gates, outputs, phi0, phi1, k: int, m: int,
                      proof_len: int, seed, samples: int = 256):
    """1 on every checked x satisfying phi0, 0 on every one satisfying
    phi1; at most 4 gates per proof step.

    For m <= 2 every x in {0,1}^(k*m) is checked; for larger m, seeded
    samples that satisfy each side, plus uniform samples.
    """
    nv = k * m
    if m <= 2:
        full = (1 << (1 << nv)) - 1
        inputs = dict(zip(range(1, nv + 1), lane_patterns(nv)))
    else:
        rng = random.Random(f"bench/interp-check/{seed}")
        assigns = (bphp_samples(k, m, 0, samples, rng)
                   + bphp_samples(k, m, 1, samples, rng)
                   + [{v: bool(rng.getrandbits(1)) for v in
                       range(1, nv + 1)} for _ in range(samples)])
        full = (1 << len(assigns)) - 1
        inputs = {v: sum(1 << i for i, a in enumerate(assigns) if a[v])
                  for v in range(1, nv + 1)}
    (val,) = eval_gates(gates, outputs, inputs, full)
    models0 = _side_mask(phi0, inputs, full)
    models1 = _side_mask(phi1, inputs, full)
    if not models0 or not models1:
        raise CheckError("the sample holds no model of one side")
    if models0 & ~val:
        raise CheckError("interpolant is 0 on a model of phi0")
    if models1 & val:
        raise CheckError("interpolant is 1 on a model of phi1")
    size = gate_count(gates)
    if size > 4 * proof_len:
        raise CheckError(f"interpolant has {size} gates, more than 4x "
                         f"the {proof_len}-step proof")
    return size
