"""Resolution proofs, feasible interpolation, and width experiments.

The internal solver logs each learned clause as an explicit chain of
binary resolution steps, so refutations expand into checkable
ResolutionProof objects.  From a refutation of a partitioned pair
phi0(A,C) & phi1(B,C) the symmetric (Pudlak-style) construction reads
off an interpolant circuit over the shared variables C.
"""

from __future__ import annotations

import heapq
import itertools

from .circuits import Builder, Circuit, vector_from_circuits
from .cnf import Cnf, tseitin
from .formula import Specification
from .solver import Solver


class ProofError(ValueError):
    pass


class InterpolationInapplicableError(Exception):
    """The two sides are jointly satisfiable; no interpolant exists."""

    def __init__(self, bit: int, witness: dict):
        self.bit = bit
        self.witness = witness
        super().__init__(f"interpolation inapplicable at bit {bit}")


class ResolutionProof:
    """Steps: ("axiom", clause, origin) / ("resolve", l, r, pivot, clause).

    Clauses are stored as sorted tuples of literals; origin is one of
    "phi0", "phi1", "shared", or "input" for unpartitioned proofs.
    """

    def __init__(self):
        self.steps = []

    def add_axiom(self, clause, origin="input") -> int:
        self.steps.append(("axiom", tuple(sorted(clause)), origin))
        return len(self.steps) - 1

    def add_resolve(self, left: int, right: int, pivot: int, clause) -> int:
        self.steps.append(
            ("resolve", left, right, pivot, tuple(sorted(clause))))
        return len(self.steps) - 1

    def clause(self, idx: int):
        step = self.steps[idx]
        return step[1] if step[0] == "axiom" else step[4]

    def __len__(self):
        return len(self.steps)

    @property
    def width(self) -> int:
        return max((len(self.clause(i)) for i in range(len(self.steps))),
                   default=0)

    def is_refutation(self) -> bool:
        return bool(self.steps) and self.clause(len(self.steps) - 1) == ()

    def to_text(self) -> str:
        lines = []
        for idx, step in enumerate(self.steps):
            if step[0] == "axiom":
                lits = " ".join(map(str, step[1]))
                lines.append(f"a {idx} {lits} 0 {step[2]}".replace("  ", " "))
            else:
                lits = " ".join(map(str, step[4]))
                lines.append(f"r {idx} {lits} 0 {step[1]} {step[2]} {step[3]}"
                             .replace("  ", " "))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ResolutionProof":
        proof = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            toks = line.split()
            try:
                if toks[0] == "a":
                    zero = toks.index("0", 2)
                    clause = [int(t) for t in toks[2:zero]]
                    origin = toks[zero + 1] if len(toks) > zero + 1 \
                        else "input"
                    proof.add_axiom(clause, origin)
                elif toks[0] == "r":
                    zero = toks.index("0", 2)
                    clause = [int(t) for t in toks[2:zero]]
                    left, right, pivot = (int(t) for t in toks[zero + 1:
                                                               zero + 4])
                    proof.add_resolve(left, right, pivot, clause)
                else:
                    raise ValueError(f"unknown step kind {toks[0]!r}")
            except (ValueError, IndexError) as e:
                raise ProofError(f"line {lineno}: {e}")
        return proof


def resolve_clauses(left, right, pivot: int):
    """Binary resolution on variable pivot; None if the rule misfires."""
    ls, rs = set(left), set(right)
    if pivot in ls and -pivot in rs:
        pass
    elif pivot in rs and -pivot in ls:
        ls, rs = rs, ls
    else:
        return None
    return tuple(sorted((ls - {pivot}) | (rs - {-pivot})))


def check_proof(cnf: Cnf, proof: ResolutionProof,
                return_index: bool = False):
    """Every axiom in cnf, every resolvent exact, last clause empty."""
    known = {tuple(sorted(set(c))) for c in cnf.clauses}

    def fail(i):
        return (False, i) if return_index else False

    for idx, step in enumerate(proof.steps):
        if step[0] == "axiom":
            if step[1] not in known:
                return fail(idx)
        else:
            _, left, right, pivot, clause = step
            if not (0 <= left < idx and 0 <= right < idx):
                return fail(idx)
            got = resolve_clauses(proof.clause(left), proof.clause(right),
                                  pivot)
            if got is None or set(got) != set(clause):
                return fail(idx)
    if not proof.is_refutation():
        return fail(len(proof.steps))
    return (True, None) if return_index else True


# ---------------------------------------------------------------------------
# proof-logging solve

def solve_with_proof(cnf: Cnf, max_conflicts: int = None):
    """("sat", model) or ("unsat", ResolutionProof)."""
    s = Solver(cnf, log_proof=True)
    if s.solve(max_conflicts=max_conflicts):
        return "sat", s.model()
    if s.empty_chain is None:
        raise ProofError("refutation found but no proof chain was recorded")
    return "unsat", expand_chains(s)


def expand_chains(solver: Solver) -> ResolutionProof:
    """Expand the solver's learned-clause chains into binary resolutions.

    Materializes only clauses in the cone of the empty-clause chain;
    axioms are labelled "input".
    """
    proof = ResolutionProof()
    memo = {}

    def build(cid: int) -> int:
        if cid in memo:
            return memo[cid]
        cl = solver.by_id[cid]
        if cl.chain is None:
            idx = proof.add_axiom(cl.lits)
        else:
            idx = replay(cl.chain, set(cl.lits))
        memo[cid] = idx
        return idx

    def replay(chain, expect: set) -> int:
        start, steps = chain
        idx = build(start)
        cur = set(solver.by_id[start].lits)
        for rcid, pivot in steps:
            ridx = build(rcid)
            nxt = resolve_clauses(tuple(cur), solver.by_id[rcid].lits, pivot)
            if nxt is None:
                raise ProofError(
                    f"recorded chain does not resolve on {pivot}")
            idx = proof.add_resolve(idx, ridx, pivot, nxt)
            cur = set(nxt)
        if cur != expect:
            raise ProofError("chain replay did not reach the learned clause")
        return idx

    replay(solver.empty_chain, set())
    return proof


# ---------------------------------------------------------------------------
# interpolation

class InterpolationInstance:
    """phi0 over A u C, phi1 over B u C, with a variable partition."""

    def __init__(self, phi0: Cnf, phi1: Cnf, a_vars, b_vars, c_vars):
        self.phi0 = phi0
        self.phi1 = phi1
        self.a_vars = set(a_vars)
        self.b_vars = set(b_vars)
        self.c_vars = set(c_vars)
        if self.a_vars & self.b_vars or self.a_vars & self.c_vars \
                or self.b_vars & self.c_vars:
            raise ValueError("A, B, C must be pairwise disjoint")
        for clause in phi0.clauses:
            for lit in clause:
                if abs(lit) in self.b_vars:
                    raise ValueError(f"phi0 mentions B variable {abs(lit)}")
        for clause in phi1.clauses:
            for lit in clause:
                if abs(lit) in self.a_vars:
                    raise ValueError(f"phi1 mentions A variable {abs(lit)}")
        self._sides = ({frozenset(c) for c in phi0.clauses},
                       {frozenset(c) for c in phi1.clauses})

    def combined(self) -> Cnf:
        cnf = Cnf(max(self.phi0.nvars, self.phi1.nvars))
        for c in self.phi0.clauses:
            cnf.add(c)
        for c in self.phi1.clauses:
            cnf.add(c)
        return cnf

    def origin_of(self, clause) -> str:
        key = frozenset(clause)
        in0, in1 = (key in side for side in self._sides)
        if in0 and in1:
            return "shared"
        if in0:
            return "phi0"
        if in1:
            return "phi1"
        raise ProofError(f"axiom {clause} belongs to neither side")


def extract_interpolant(instance: InterpolationInstance,
                        proof: ResolutionProof) -> Circuit:
    """Symmetric Pudlak interpolant over C from a refutation of the pair.

    phi0-axioms map to constant 0, phi1-axioms to constant 1 (shared
    axioms count as phi0); A-pivot resolutions take OR, B-pivot AND, and
    C-pivot p selects with p between the two premise circuits.  Size is
    at most 4x the proof length (mux lowering costs 4 gates).
    """
    if not proof.is_refutation():
        raise ProofError("proof is not a refutation")
    b = Builder()
    circ = []
    for idx, step in enumerate(proof.steps):
        if step[0] == "axiom":
            origin = step[2]
            if origin in ("phi0", "shared"):
                circ.append(b.const(0))
            elif origin == "phi1":
                circ.append(b.const(1))
            else:
                raise ProofError(
                    f"step {idx}: axiom origin {origin!r} not partitioned")
        else:
            _, left, right, pivot, _ = step
            if pivot in instance.a_vars:
                circ.append(b.or_(circ[left], circ[right]))
            elif pivot in instance.b_vars:
                circ.append(b.and_(circ[left], circ[right]))
            elif pivot in instance.c_vars:
                # orient: premise holding the positive pivot is taken
                # when the pivot is assigned 0
                if pivot in proof.clause(left):
                    pos, neg = left, right
                else:
                    pos, neg = right, left
                p = b.inp(pivot)
                circ.append(b.mux_(p, circ[neg], circ[pos]))
            else:
                raise ProofError(
                    f"step {idx}: pivot {pivot} outside the partition")
    return b.extract([circ[-1]])


# ---------------------------------------------------------------------------
# Slivovsky-style per-bit synthesis

def _substituted_side(spec: Specification, i: int, bit: int,
                      built: dict, cnf: Cnf) -> set:
    """Tseitin of F with Y_i := bit and later bits replaced by circuits.

    Adds clauses into cnf using spec's ids for X and Y^{1:i-1}; returns
    the fresh side-local auxiliary variables.
    """
    b = Builder()
    xw = {v: b.inp(v) for v in spec.x_vars}
    yw = {}

    def resolve(nm):
        if nm[0] == "x":
            return xw[spec.x_vars[nm[1] - 1]]
        return yw[nm[1]]

    for j in range(1, spec.m + 1):
        if j < i:
            yw[j] = b.inp(spec.y_vars[j - 1])
        elif j == i:
            yw[j] = b.const(bit)
        else:
            yw[j] = b.import_circuit(built[j], resolve)[0]
    out = b.import_circuit(
        spec.matrix,
        lambda v: xw[v] if v in xw
        else yw[spec.y_vars.index(v) + 1])
    circ = b.extract(out)
    enc = tseitin(circ, lambda v: v, cnf, assert_outputs=True)
    return enc.aux_vars


def slivovsky_synth(spec: Specification):
    """Per-bit synthesis by interpolation, last output bit first.

    Every refutation runs on the internal proof-logging engine
    (solve_with_proof), since interpolants are read off its resolution
    proofs; no Oracle session or external backend is involved.

    Returns (SkolemVector, sizes) where sizes[i] is the interpolant size
    for bit i.  Raises InterpolationInapplicableError when some pair is
    satisfiable (the specification leaves that bit genuinely free).
    """
    built = {}   # output index -> Circuit over ("x"/"y") names
    sizes = {}
    for i in range(spec.m, 0, -1):
        base = max(spec.x_vars + spec.y_vars)
        cnf0 = Cnf(base)
        a_vars = _substituted_side(spec, i, 0, built, cnf0)
        cnf1 = Cnf(cnf0.nvars)
        b_vars = _substituted_side(spec, i, 1, built, cnf1)
        c_vars = set(spec.x_vars) | set(spec.y_vars[:i - 1])
        instance = InterpolationInstance(cnf0, cnf1, a_vars, b_vars, c_vars)
        status, payload = solve_with_proof(instance.combined())
        if status == "sat":
            witness = {v: payload[v] for v in sorted(c_vars)}
            raise InterpolationInapplicableError(i, witness)
        interp = relabel_axioms(payload, instance)
        icirc = extract_interpolant(instance, interp)
        sizes[i] = icirc.size
        # I = 0 certifies the Y_i = 0 side false, so the bit must be ~I
        bb = Builder()

        def invar(v):
            if v in spec.x_vars:
                return bb.inp(("x", spec.x_vars.index(v) + 1))
            return bb.inp(("y", spec.y_vars.index(v) + 1))

        built[i] = bb.extract([bb.not_(bb.import_circuit(icirc, invar)[0])])
    return vector_from_circuits(
        spec.n, [built[i] for i in range(1, spec.m + 1)]), sizes


def relabel_axioms(proof: ResolutionProof,
                   instance: InterpolationInstance) -> ResolutionProof:
    """Replace axiom origins using the instance's side membership."""
    out = ResolutionProof()
    for step in proof.steps:
        if step[0] == "axiom":
            out.add_axiom(step[1], instance.origin_of(step[1]))
        else:
            out.add_resolve(step[1], step[2], step[3], step[4])
    return out


# ---------------------------------------------------------------------------
# bounded-width saturation

class WidthBudgetError(Exception):
    """Saturation exceeded its clause budget before deciding."""


def bounded_width_refute(cnf: Cnf, w: int, max_clauses: int = 200000):
    """Saturate resolution keeping derived clauses of width <= w.

    Input clauses of any width participate as premises.  Returns
    ("refuted", ResolutionProof) as soon as the empty clause appears, or
    ("saturated", None) at fixpoint; complete for width-w refutability.
    """
    seen = set()
    parents = {}  # clause -> None (axiom) or (left, right, pivot)
    counter = itertools.count()  # heap tie-breaker
    queue = []
    for c in cnf.clauses:
        cl = tuple(sorted(set(c)))
        if any(-l in cl for l in cl):
            continue
        if cl not in seen:
            seen.add(cl)
            parents[cl] = None
            heapq.heappush(queue, (len(cl), next(counter), cl))

    def reconstruct(goal):
        proof = ResolutionProof()
        idx_of = {}

        def build(cl):
            if cl in idx_of:
                return idx_of[cl]
            par = parents[cl]
            if par is None:
                idx = proof.add_axiom(cl)
            else:
                left, right, pivot = par
                idx = proof.add_resolve(build(left), build(right), pivot, cl)
            idx_of[cl] = idx
            return idx

        build(goal)
        return proof

    if () in seen:
        return "refuted", reconstruct(())
    by_lit = {}

    def index(cl):
        for lit in cl:
            by_lit.setdefault(lit, []).append(cl)

    # narrow clauses first: finds short refutations long before the
    # full width-w closure is materialized
    while queue:
        _, _, cl = heapq.heappop(queue)
        partners = set()
        for lit in cl:
            for other in by_lit.get(-lit, ()):
                partners.add((other, abs(lit)))
        index(cl)
        for other, pivot in partners:
            res = resolve_clauses(cl, other, pivot)
            if res is None or any(-l in res for l in res):
                continue
            if len(res) > w and res != ():
                continue
            if res in seen:
                continue
            seen.add(res)
            parents[res] = (cl, other, pivot)
            if res == ():
                return "refuted", reconstruct(())
            heapq.heappush(queue, (len(res), next(counter), res))
            if len(seen) > max_clauses:
                raise WidthBudgetError(
                    f"saturation exceeded {max_clauses} clauses at width {w}")
    return "saturated", None


# ---------------------------------------------------------------------------
# size experiment

def interp_size_experiment(m_range=(1, 2, 3), max_conflicts=None):
    """Rows {m, k, proofLength, interpolantSize, lexFirstSize}.

    Uses the k = 2^m + 1 regime where the bit-1 pair is genuinely
    unsatisfiable.  Cells that exhaust resources leave their fields None.
    """
    from . import benchgen
    rows = []
    for m in m_range:
        k = (1 << m) + 1
        row = {"m": m, "k": k, "proofLength": None,
               "interpolantSize": None, "lexFirstSize": None}
        params = benchgen.BphpParams(k, m, regime="interpolation")
        row["lexFirstSize"] = benchgen.bphp_lexfirst_skolem(params).size
        try:
            instance = benchgen.bphp_interpolation_pair(params)
            status, payload = solve_with_proof(instance.combined(),
                                               max_conflicts=max_conflicts)
            if status == "unsat":
                proof = relabel_axioms(payload, instance)
                row["proofLength"] = len(proof)
                row["interpolantSize"] = extract_interpolant(
                    instance, proof).size
        except Exception as e:  # resource limits leave the cell absent
            from .solver import ResourceLimitError
            if not isinstance(e, ResourceLimitError):
                raise
        rows.append(row)
    return rows
