"""Relational specifications F(X, Y): parsing, encoding, and file formats.

A Specification holds the matrix as a circuit over declared variable ids
together with a cached Tseitin CNF.  Supported input formats are QDIMACS
2QBF (one universal block X, one existential block Y) and annotated
DIMACS with ``c inputs``/``c outputs`` header comments.  Skolem vectors
round-trip through a plain-text gate-list format and export to ASCII
AIGER.
"""

from __future__ import annotations

from .circuits import Builder, Circuit, SkolemVector, input_masks
from .cnf import Cnf, tseitin


class ParseError(ValueError):
    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line is not None else msg)


class Specification:
    """A relational formula over input variables X and output variables Y."""

    def __init__(self, x_vars, y_vars, matrix: Circuit):
        self.x_vars = list(x_vars)
        self.y_vars = list(y_vars)
        if set(self.x_vars) & set(self.y_vars):
            raise ValueError("X and Y overlap")
        declared = set(self.x_vars) | set(self.y_vars)
        for name in matrix.input_names():
            if name not in declared:
                raise ValueError(f"matrix reads undeclared variable {name}")
        self.matrix = matrix
        self._cnf = None

    @property
    def n(self):
        return len(self.x_vars)

    @property
    def m(self):
        return len(self.y_vars)

    @property
    def cnf(self) -> Cnf:
        """Tseitin CNF with the matrix asserted true."""
        if self._cnf is None:
            self._cnf = Cnf(max(self.x_vars + self.y_vars, default=0))
            tseitin(self.matrix, lambda name: name, self._cnf,
                    assert_outputs=True)
        return self._cnf

    def aux_vars(self) -> range:
        """The Tseitin auxiliaries: every CNF variable above X and Y."""
        return range(max(self.x_vars + self.y_vars, default=0) + 1,
                     self.cnf.nvars + 1)

    def eval(self, assign: dict) -> int:
        """Evaluate F on a total assignment var-id -> bit."""
        return self.matrix.eval(assign)[0]

    def sat_masks(self) -> int:
        """Truth mask of F over all assignments; X most significant.

        Position index encodes (x, y) with X_1 the overall most
        significant bit and Y_m the least.  Desk-scale only.
        """
        names = self.x_vars + self.y_vars
        assign = input_masks(names)
        return self.matrix.eval_masks(assign, 1 << len(names))[0]


def substitute(spec: Specification, binding, names=None) -> Circuit:
    """F with its outputs bound: the one composition of F's matrix.

    ``binding`` has one entry per Y_j (Y_1 first): a bit, a Circuit over
    ("x", i) and earlier ("y", j) names, or None to keep Y_j as an
    input.  ``names`` maps var ids to the result's input names (default:
    the id).  Inputs, constants and bound cones are made in Y order.
    """
    if len(binding) != spec.m:
        raise ValueError(f"binding has {len(binding)} entries for "
                         f"{spec.m} outputs")
    names = names or {}
    b = Builder()
    xg = [b.inp(names.get(v, v)) for v in spec.x_vars]

    def entry(v, e):
        if e is None:
            return b.inp(names.get(v, v))
        return e if isinstance(e, Circuit) else b.const(e)

    yg = b.import_chain((entry(v, e) for v, e in zip(spec.y_vars, binding)),
                        lambda i: xg[i - 1])
    wire = dict(zip(spec.x_vars + spec.y_vars, xg + yg))
    return b.extract(b.import_circuit(spec.matrix, wire.__getitem__))


# ---------------------------------------------------------------------------
# parsing

def parse_spec(text: str) -> Specification:
    """Parse QDIMACS 2QBF or annotated DIMACS into a Specification.

    In QDIMACS files a ``c outputs`` comment may name the true outputs,
    in which case the remaining existential variables are treated as
    clause-local Tseitin auxiliaries and the circuit form is
    reconstructed from their defining clauses.
    """
    nvars = nclauses = None
    xs, ys = [], []
    ann_in, ann_out = [], []
    clauses = []
    fmt = None
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "c":
            if len(toks) >= 2 and toks[1] in ("inputs", "outputs"):
                try:
                    ids = [int(t) for t in toks[2:]]
                except ValueError:
                    raise ParseError("non-integer variable id", lineno)
                (ann_in if toks[1] == "inputs" else ann_out).extend(ids)
            continue
        if toks[0] == "p":
            if len(toks) != 4 or toks[1] != "cnf":
                raise ParseError("malformed problem header", lineno)
            try:
                nvars, nclauses = int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError("malformed problem header", lineno)
            header_line = lineno
            continue
        if toks[0] in ("a", "e"):
            if nvars is None:
                raise ParseError("quantifier block before header", lineno)
            fmt = "qdimacs"
            if toks[-1] != "0":
                raise ParseError("quantifier line must end in 0", lineno)
            try:
                ids = [int(t) for t in toks[1:-1]]
            except ValueError:
                raise ParseError("non-integer variable id", lineno)
            block = xs if toks[0] == "a" else ys
            if toks[0] == "a" and ys:
                raise ParseError("universal block after existential block",
                                 lineno)
            block.extend(ids)
            continue
        # clause line
        if nvars is None:
            raise ParseError("clause before problem header", lineno)
        try:
            lits = [int(t) for t in toks]
        except ValueError:
            raise ParseError("non-integer literal", lineno)
        if lits[-1] != 0:
            raise ParseError("clause must end in 0", lineno)
        lits = lits[:-1]
        for lit in lits:
            if lit == 0:
                raise ParseError("literal 0 inside clause", lineno)
            if abs(lit) > nvars:
                raise ParseError(f"variable {abs(lit)} out of range "
                                 f"(declared {nvars})", lineno)
        # a repeated literal is redundant; gate matching expects none
        clauses.append((lineno, list(dict.fromkeys(lits))))
    if nvars is None:
        raise ParseError("missing problem header")
    aux = []
    if fmt == "qdimacs":
        if ann_out:
            missing = [v for v in ann_out if v not in ys]
            if missing:
                raise ParseError(f"annotated output {missing[0]} is not in "
                                 "the existential block")
            aux = [v for v in ys if v not in set(ann_out)]
            ys = list(ann_out)
    elif ann_in or ann_out:
        xs, ys = ann_in, ann_out
    else:
        raise ParseError("no quantifier blocks or input/output annotations",
                         header_line)
    seen = set()
    for v in xs + ys + aux:
        if v < 1 or v > nvars:
            raise ParseError(f"declared variable {v} out of range")
        if v in seen:
            raise ParseError(f"variable {v} declared in two blocks")
        seen.add(v)
    for lineno, lits in clauses:
        for lit in lits:
            if abs(lit) not in seen:
                raise ParseError(f"variable {abs(lit)} used but not declared "
                                 "in any block", lineno)
    matrix = _reconstruct_matrix(xs, ys, aux,
                                 [lits for _, lits in clauses])
    return Specification(xs, ys, matrix)


def _match_gate_def(g: int, group):
    """Recognize this module's Tseitin clause shapes defining variable g.

    Returns (op, a, b, leftover_clauses) or None; a, b are argument
    literals.
    """
    def fs(*lits):
        return frozenset(lits)

    pool = [fs(*c) for c in group]
    bin_ng = [next(l for l in c if l != -g)
              for c in group if len(c) == 2 and -g in c]
    bin_pg = [next(l for l in c if l != g)
              for c in group if len(c) == 2 and g in c]
    if len(bin_ng) >= 2:
        a, b = bin_ng[0], bin_ng[1]
        used = {fs(-g, a), fs(-g, b), fs(g, -a, -b)}
        if used <= set(pool):
            return "and", a, b, _drop(group, used)
    if len(bin_pg) >= 2:
        a, b = -bin_pg[0], -bin_pg[1]
        used = {fs(g, -a), fs(g, -b), fs(-g, a, b)}
        if used <= set(pool):
            return "or", a, b, _drop(group, used)
    for c in group:
        if len(c) != 3 or -g not in c:
            continue
        a, b = [l for l in c if l != -g]
        used = {fs(-g, a, b), fs(-g, -a, -b), fs(g, -a, b), fs(g, a, -b)}
        if used <= set(pool):
            return "xor", a, b, _drop(group, used)
    return None


def _drop(group, used):
    left = []
    for c in group:
        key = frozenset(c)
        if key in used:
            used = used - {key}
        else:
            left.append(c)
    return left


def _reconstruct_matrix(xs, ys, aux, clauses) -> Circuit:
    """Circuit over X u Y equivalent to "exists aux: AND(clauses)".

    Auxiliaries must be Tseitin-defined (gate clauses or a constant
    unit); their definitions are folded in and the remaining clauses are
    conjoined.
    """
    b = Builder()
    wires = {v: b.inp(v) for v in xs + ys}
    aux_set = set(aux)

    def lit_wire(l):
        w = wires[abs(l)]
        return w if l > 0 else b.not_(w)

    constraints = []
    if aux_set:
        groups = {g: [] for g in aux}
        for c in clauses:
            top = max((abs(l) for l in c if abs(l) in aux_set), default=0)
            if top:
                groups[top].append(c)
            else:
                constraints.append(c)
        for g in sorted(aux):
            group = groups[g]
            m = _match_gate_def(g, group)
            if m is not None:
                op, a, b_lit, leftover = m
                wires[g] = getattr(b, f"{op}_")(lit_wire(a), lit_wire(b_lit))
                constraints.extend(leftover)
            elif any(c == [g] for c in group):
                # constant-true helper variable; other clauses mentioning
                # it stay as constraints evaluated at g = 1
                wires[g] = b.const(1)
                constraints.extend(c for c in group if c != [g])
            elif any(c == [-g] for c in group):
                wires[g] = b.const(0)
                constraints.extend(c for c in group if c != [-g])
            else:
                raise ParseError(
                    f"cannot reconstruct a gate definition for auxiliary "
                    f"variable {g}")
    else:
        constraints = clauses
    out = b.and_many(b.or_many(lit_wire(l) for l in c) for c in constraints)
    return b.extract([out])


def write_qdimacs(spec: Specification) -> str:
    """Emit the spec as QDIMACS with Tseitin clauses.

    Auxiliaries join the existential block; a ``c outputs`` comment
    records the true outputs so parse_spec recovers the X/Y/auxiliary
    split and the circuit form.
    """
    cnf = spec.cnf
    lines = []
    if spec.y_vars:
        lines.append("c outputs " + " ".join(map(str, spec.y_vars)))
    lines.append(f"p cnf {cnf.nvars} {len(cnf.clauses)}")
    if spec.x_vars:
        lines.append("a " + " ".join(map(str, spec.x_vars)) + " 0")
    evars = list(spec.y_vars) + list(spec.aux_vars())
    if evars:
        lines.append("e " + " ".join(map(str, evars)) + " 0")
    for c in cnf.clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Skolem vector gate-list format

def _arg_name(tok: str, lineno: int):
    if tok == "0":
        return ("const", 0)
    if tok == "1":
        return ("const", 1)
    kind, num = tok[:1], tok[1:]
    if kind in ("x", "y", "g") and num.isdigit():
        return (kind, int(num))
    raise ParseError(f"bad argument {tok!r}", lineno)


def emit_skolem(vec: SkolemVector, fmt: str = "gatelist") -> str:
    if fmt == "gatelist":
        return _emit_gatelist(vec)
    if fmt == "aiger-ascii":
        return emit_aiger(vec)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_gatelist(vec: SkolemVector) -> str:
    lines = [f"skolem {vec.m} {vec.n}"]
    names = []
    gid = 0
    for idx, gate in enumerate(vec.arena.gates):
        op = gate[0]
        if op == "in":
            names.append(f"{gate[1][0]}{gate[1][1]}")
            continue
        if op == "const":
            names.append(str(gate[1]))
            continue
        gid += 1
        me = f"g{gid}"
        if op == "not":
            lines.append(f"{me} = NOT({names[gate[1]]})")
        else:
            lines.append(f"{me} = {op.upper()}({names[gate[1]]},{names[gate[2]]})")
        names.append(me)
    for i, o in enumerate(vec.arena.outputs, start=1):
        lines.append(f"y{i} := {names[o]}")
    return "\n".join(lines) + "\n"


def parse_skolem(text: str) -> SkolemVector:
    b = Builder()
    gates: dict[int, int] = {}
    outputs: dict[int, int] = {}
    m = n = None

    def resolve(arg):
        kind, num = arg
        if kind == "const":
            return b.const(num)
        if kind == "g":
            if num not in gates:
                raise ParseError(f"gate g{num} used before definition")
            return gates[num]
        if kind == "x":
            if not (1 <= num <= n):
                raise ParseError(f"input x{num} out of range")
            return b.inp(("x", num))
        if not (1 <= num <= m):
            raise ParseError(f"output y{num} out of range")
        return b.inp(("y", num))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "skolem":
            if len(toks) != 3 or not (toks[1].isdigit() and toks[2].isdigit()):
                raise ParseError("malformed skolem header", lineno)
            if m is not None:
                raise ParseError("second skolem header", lineno)
            m, n = int(toks[1]), int(toks[2])
            continue
        if m is None:
            raise ParseError("missing skolem header", lineno)
        if ":=" in line:
            lhs, rhs = (s.strip() for s in line.split(":=", 1))
            if not (lhs.startswith("y") and lhs[1:].isdigit()):
                raise ParseError(f"bad output name {lhs!r}", lineno)
            idx = int(lhs[1:])
            if not (1 <= idx <= m):
                raise ParseError(f"output y{idx} out of range", lineno)
            if idx in outputs:
                raise ParseError(f"output y{idx} defined twice", lineno)
            outputs[idx] = resolve(_arg_name(rhs, lineno))
            continue
        if "=" not in line:
            raise ParseError("unrecognized line", lineno)
        lhs, rhs = (s.strip() for s in line.split("=", 1))
        if not (lhs.startswith("g") and lhs[1:].isdigit()):
            raise ParseError(f"bad gate name {lhs!r}", lineno)
        gid = int(lhs[1:])
        if gid in gates:
            raise ParseError(f"gate g{gid} defined twice", lineno)
        if "(" not in rhs or not rhs.endswith(")"):
            raise ParseError("malformed gate expression", lineno)
        op, argstr = rhs[:-1].split("(", 1)
        op = op.strip().upper()
        args = [_arg_name(a.strip(), lineno) for a in argstr.split(",")]
        if op == "NOT":
            if len(args) != 1:
                raise ParseError("NOT takes one argument", lineno)
            g = b.not_(resolve(args[0]))
        elif op in ("AND", "OR", "XOR"):
            if len(args) != 2:
                raise ParseError(f"{op} takes two arguments", lineno)
            fn = {"AND": b.and_, "OR": b.or_, "XOR": b.xor_}[op]
            g = fn(resolve(args[0]), resolve(args[1]))
        else:
            raise ParseError(f"unknown operation {op!r}", lineno)
        gates[gid] = g
    if m is None:
        raise ParseError("missing skolem header")
    missing = [i for i in range(1, m + 1) if i not in outputs]
    if missing:
        raise ParseError(f"missing output definitions for y{missing}")
    arena = b.extract([outputs[i] for i in range(1, m + 1)])
    return SkolemVector(n, arena)


# ---------------------------------------------------------------------------
# ASCII AIGER export (OR lowered to AND/NOT)

def emit_aiger(vec: SkolemVector) -> str:
    flat = vec.flatten()
    inp_lit = {("x", i): 2 * i for i in range(1, vec.n + 1)}
    ands = []
    next_var = [vec.n]
    lit = {}

    def and_lit(a, b_):
        next_var[0] += 1
        lhs = 2 * next_var[0]
        ands.append((lhs, a, b_))
        return lhs

    for idx, gate in enumerate(flat.gates):
        op = gate[0]
        if op == "in":
            lit[idx] = inp_lit[gate[1]]
        elif op == "const":
            lit[idx] = 1 if gate[1] else 0
        elif op == "not":
            lit[idx] = lit[gate[1]] ^ 1
        elif op == "and":
            lit[idx] = and_lit(lit[gate[1]], lit[gate[2]])
        else:  # or
            lit[idx] = and_lit(lit[gate[1]] ^ 1, lit[gate[2]] ^ 1) ^ 1
    out_lits = [lit[o] for o in flat.outputs]
    lines = [f"aag {next_var[0]} {vec.n} 0 {vec.m} {len(ands)}"]
    lines += [str(2 * i) for i in range(1, vec.n + 1)]
    lines += [str(o) for o in out_lits]
    lines += [f"{a} {x} {y}" for a, x, y in ands]
    lines += [f"i{i - 1} x{i}" for i in range(1, vec.n + 1)]
    lines += [f"o{i - 1} y{i}" for i in range(1, vec.m + 1)]
    return "\n".join(lines) + "\n"


def parse_aiger(text: str) -> SkolemVector:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    hdr = lines[0].split() if lines else []
    if len(hdr) < 6 or hdr[0] != "aag":
        raise ParseError("not an ascii aiger file", 1)

    def ints(toks, count, what):
        if len(toks) != count:
            raise ParseError(f"{what}: expected {count} fields")
        try:
            vals = [int(t) for t in toks]
        except ValueError:
            raise ParseError(f"{what}: non-integer field")
        if any(v < 0 for v in vals):
            raise ParseError(f"{what}: negative field")
        return vals

    maxv, ni, nl, no, na = ints(hdr[1:6], 5, "header")
    if nl:
        raise ParseError("latches not supported", 1)
    body = lines[1:]
    if len(body) < ni + no + na:
        raise ParseError("truncated aiger body")
    in_lits = [ints(body[i].split(), 1, "input")[0] for i in range(ni)]
    out_lits = [ints(body[ni + i].split(), 1, "output")[0]
                for i in range(no)]
    ands = [ints(body[ni + no + i].split(), 3, "and gate")
            for i in range(na)]
    b = Builder()
    gate_of = {0: b.const(0), 1: b.const(1)}

    def define(l, g, what):
        if l & 1 or l in gate_of:
            raise ParseError(f"{what} literal {l} is odd, a constant or "
                             "already defined")
        gate_of[l] = g
        gate_of[l ^ 1] = b.not_(g)

    for pos, l in enumerate(in_lits, start=1):
        define(l, b.inp(("x", pos)), "input")

    def get(l):
        if l not in gate_of:
            raise ParseError(f"undefined literal {l}")
        return gate_of[l]

    for lhs, r0, r1 in ands:
        define(lhs, b.and_(get(r0), get(r1)), "and gate")
    return SkolemVector(ni, b.extract([get(l) for l in out_lits]))
