"""Fan-in-2 gate DAGs over the basis {IN, CONST, NOT, AND, OR}.

Gates are stored as tuples in topological order:

    ("in", name)     -- named input; names are arbitrary hashable values
    ("const", bit)
    ("not", a)
    ("and", a, b)
    ("or", a, b)

where a, b are indices of earlier gates.  The Builder hash-conses and
constant-folds; XOR enters a circuit only through ``Builder.xor_``, which
lowers it to AND/OR/NOT, so CNF encodings take 3 clauses per AND/OR gate.
"""

from __future__ import annotations


class Builder:
    """Hash-consing circuit builder with light constant folding."""

    def __init__(self):
        self.gates: list[tuple] = []
        self._cache: dict[tuple, int] = {}

    def _mk(self, key: tuple) -> int:
        g = self._cache.get(key)
        if g is None:
            g = len(self.gates)
            self.gates.append(key)
            self._cache[key] = g
        return g

    def inp(self, name) -> int:
        return self._mk(("in", name))

    def const(self, bit) -> int:
        return self._mk(("const", 1 if bit else 0))

    def not_(self, a: int) -> int:
        gate = self.gates[a]
        if gate[0] == "const":
            return self.const(1 - gate[1])
        if gate[0] == "not":
            return gate[1]
        return self._mk(("not", a))

    def _binop(self, op: str, a: int, b: int) -> int:
        # The hot path of every Builder user, so const-ness is read and
        # the key hash-consed inline.  Each constant gate is unique (all
        # gates enter through the cache), so a constant operand that
        # absorbs (0 for AND, 1 for OR) is the folded result itself.
        if a > b:
            a, b = b, a
        gates = self.gates
        ga, gb = gates[a], gates[b]
        absorb = 0 if op == "and" else 1
        if ga[0] == "const":
            return a if ga[1] == absorb else b
        if gb[0] == "const":
            return b if gb[1] == absorb else a
        if a == b:
            return a
        if gb == ("not", a) or ga == ("not", b):
            return self.const(absorb)
        key = (op, a, b)
        g = self._cache.get(key)
        if g is None:
            g = len(gates)
            gates.append(key)
            self._cache[key] = g
        return g

    def and_(self, a: int, b: int) -> int:
        return self._binop("and", a, b)

    def or_(self, a: int, b: int) -> int:
        return self._binop("or", a, b)

    def xor_(self, a: int, b: int) -> int:
        # a^b == (a|b) & ~(a&b); NOT is free in the clausal encoding
        return self.and_(self.or_(a, b), self.not_(self.and_(a, b)))

    def xnor_(self, a: int, b: int) -> int:
        return self.not_(self.xor_(a, b))

    def mux_(self, sel: int, if1: int, if0: int) -> int:
        """sel ? if1 : if0."""
        return self.or_(self.and_(sel, if1), self.and_(self.not_(sel), if0))

    def and_many(self, gs) -> int:
        acc = self.const(1)
        for g in gs:
            acc = self.and_(acc, g)
        return acc

    def or_many(self, gs) -> int:
        acc = self.const(0)
        for g in gs:
            acc = self.or_(acc, g)
        return acc

    def import_circuit(self, circuit: "Circuit", resolve) -> list[int]:
        """Copy a circuit into this builder.

        ``resolve(name)`` maps each input name of ``circuit`` to a gate id
        in this builder (allowing substitution of inputs by arbitrary
        subcircuits).  Returns the new ids of the circuit's outputs.
        """
        n = len(circuit.gates)
        remap = self.rebuild(circuit, resolve, [0] * n, range(n))
        return [remap[o] for o in circuit.outputs]

    def import_chain(self, entries, xwire) -> list[int]:
        """Wire per-output entries in order; returns the id of each.

        An entry is a gate id of this builder or a single-output circuit
        over ("x", i) and ("y", j) names: ("x", i) reads ``xwire(i)``
        and ("y", j) reads the id of entry j, which comes earlier.
        """
        ids: list[int] = []

        def resolve(name):
            return xwire(name[1]) if name[0] == "x" else ids[name[1] - 1]

        for e in entries:
            ids.append(e if isinstance(e, int)
                       else self.import_circuit(e, resolve)[0])
        return ids

    def rebuild(self, circuit: "Circuit", resolve, remap: list,
                order) -> list:
        """Import the gates of ``circuit`` listed in ascending ``order``
        into ``remap``, which must already hold the id here of every
        unlisted gate that a listed one reads.  Returns ``remap``."""
        gates = circuit.gates
        for idx in order:
            gate = gates[idx]
            op = gate[0]
            if op == "in":
                remap[idx] = resolve(gate[1])
            elif op == "const":
                remap[idx] = self.const(gate[1])
            elif op == "not":
                remap[idx] = self.not_(remap[gate[1]])
            else:
                remap[idx] = self._binop(op, remap[gate[1]], remap[gate[2]])
        return remap

    def extract(self, outputs) -> "Circuit":
        """Garbage-collect to the cone of ``outputs`` and freeze."""
        return _cone(self.gates, outputs)


def _cone(gates, outputs) -> "Circuit":
    """The gates that ``outputs`` read, renumbered in their order."""
    outputs = list(outputs)
    seen = set()
    stack = list(outputs)
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            gate = gates[g]
            if gate[0] not in ("in", "const"):
                stack.extend(gate[1:])
    keep = sorted(seen)
    remap = {old: new for new, old in enumerate(keep)}
    cut = []
    for old in keep:
        gate = gates[old]
        if gate[0] in ("in", "const"):
            cut.append(gate)
        elif gate[0] == "not":
            cut.append(("not", remap[gate[1]]))
        else:
            cut.append((gate[0], remap[gate[1]], remap[gate[2]]))
    return Circuit(tuple(cut), tuple(remap[o] for o in outputs))


BASIS = frozenset(("in", "const", "not", "and", "or"))


class Circuit:
    """An immutable fan-in-2 gate DAG with an ordered list of outputs."""

    def __init__(self, gates: tuple, outputs: tuple):
        self.gates = tuple(gates)
        self.outputs = tuple(outputs)
        bad = {g[0] for g in self.gates} - BASIS
        if bad:
            raise ValueError(f"gate ops {bad} are outside the basis")

    @property
    def size(self) -> int:
        """Number of non-input gates."""
        return sum(1 for g in self.gates if g[0] != "in")

    def input_names(self) -> list:
        seen = []
        for g in self.gates:
            if g[0] == "in":
                seen.append(g[1])
        return seen

    def eval(self, assign: dict) -> tuple:
        """Evaluate under a total assignment of input names to bits."""
        return self.eval_masks(assign, 1)

    def eval_masks(self, assign: dict, width: int) -> tuple:
        """Bit-parallel evaluation of ``width`` assignments at once.

        Bit p of each input and output value belongs to assignment p;
        ``width=1`` is plain single-assignment evaluation.
        """
        mask = (1 << width) - 1
        vals = [0] * len(self.gates)
        for idx, gate in enumerate(self.gates):
            op = gate[0]
            if op == "in":
                try:
                    vals[idx] = assign[gate[1]] & mask
                except KeyError:
                    raise MissingInputError(gate[1])
            elif op == "const":
                vals[idx] = mask if gate[1] else 0
            elif op == "not":
                vals[idx] = vals[gate[1]] ^ mask
            elif op == "and":
                vals[idx] = vals[gate[1]] & vals[gate[2]]
            else:
                vals[idx] = vals[gate[1]] | vals[gate[2]]
        return tuple(vals[o] for o in self.outputs)


class MissingInputError(KeyError):
    pass


class CyclicDependencyError(ValueError):
    pass


def input_masks(names) -> dict:
    """Standard bit-parallel input patterns for exhaustive evaluation.

    ``names[0]`` is the most significant position: assignment index
    ``v`` (0 <= v < 2**len(names)) has ``names[i]`` set iff the bit of
    weight 2**(len(names)-1-i) of v is set.
    """
    n = len(names)
    total = 1 << n
    assign = {}
    for i, name in enumerate(names):
        weight = n - 1 - i
        block = 1 << weight
        pat = 0
        v = 0
        while v < total:
            pat |= ((1 << block) - 1) << (v + block)
            v += 2 * block
        assign[name] = pat
    return assign


class SkolemVector:
    """An ordered tuple of per-output circuits with acyclic Y-dependencies.

    Internally one shared gate arena with m outputs; input names are
    ("x", i) for 1 <= i <= n and ("y", j) for earlier outputs.  Output i
    may reference ("y", j) only for j < i.
    """

    def __init__(self, n: int, arena: Circuit):
        self.n = n
        self.arena = arena
        self.m = len(arena.outputs)
        self._check_acyclic()
        self._flat = None

    def _check_acyclic(self):
        # max y index in the cone of each gate
        maxy = [0] * len(self.arena.gates)
        for idx, gate in enumerate(self.arena.gates):
            if gate[0] == "in":
                name = gate[1]
                if isinstance(name, tuple) and name[0] == "y":
                    maxy[idx] = name[1]
                elif not (isinstance(name, tuple) and name[0] == "x"):
                    raise ValueError(f"unexpected input name {name!r} in Skolem vector")
                elif name[1] < 1 or name[1] > self.n:
                    raise ValueError(f"input {name!r} out of range")
            elif gate[0] in ("not",):
                maxy[idx] = maxy[gate[1]]
            elif gate[0] != "const":
                maxy[idx] = max(maxy[gate[1]], maxy[gate[2]])
        for i, out in enumerate(self.arena.outputs, start=1):
            if maxy[out] >= i:
                raise CyclicDependencyError(
                    f"psi_{i} depends on Y_{maxy[out]} (needs j < {i})"
                )

    def psi(self, i: int) -> Circuit:
        """The circuit for output i (1-based), as its own cone."""
        return _cone(self.arena.gates, [self.arena.outputs[i - 1]])

    def flatten(self) -> Circuit:
        """The vector as one circuit over ("x", i) names only, m outputs.

        Each ("y", j) input is replaced by output j's cone.  Computed on
        first use and kept: the vector is immutable.
        """
        if self._flat is None:
            b = Builder()
            self._flat = b.extract(b.import_chain(
                [self.psi(i) for i in range(1, self.m + 1)],
                lambda i: b.inp(("x", i))))
        return self._flat

    @property
    def size(self) -> int:
        return self.arena.size

    def eval(self, xbits) -> list:
        assign = {("x", i + 1): xbits[i] for i in range(self.n)}
        return list(self.flatten().eval(assign))

    def eval_masks(self) -> list:
        """Outputs on all 2**n X-assignments at once (see input_masks)."""
        assign = input_masks([("x", i) for i in range(1, self.n + 1)])
        return list(self.flatten().eval_masks(assign, 1 << self.n))


def vector_from_circuits(n: int, psis) -> SkolemVector:
    """Assemble a SkolemVector from single-output circuits over x/y names."""
    b = Builder()
    outs = []
    for c in psis:
        outs.extend(b.import_circuit(c, lambda name: b.inp(name)))
    return SkolemVector(n, b.extract(outs))


SWEEP_LIMIT = 1 << 27       # max gates x 2^k signature bits for sweep


def sweep(circuit: Circuit) -> Circuit:
    """The circuit with gates that compute the same function merged.

    Every gate is simulated on all 2^k assignments of the k input names
    (its signature).  Gates are then rebuilt in order: a constant
    signature becomes a constant, a signature seen before maps to the
    earlier gate, the complement of one seen before to its NOT, and any
    other gate is rebuilt from its mapped operands.  Circuits whose
    signatures would exceed SWEEP_LIMIT bits come back unchanged.
    """
    names = circuit.input_names()
    n = len(circuit.gates)
    if n << len(names) > SWEEP_LIMIT:
        return circuit
    width = 1 << len(names)
    full = (1 << width) - 1
    sigs = Circuit(circuit.gates, range(n)).eval_masks(input_masks(names),
                                                       width)
    b = Builder()
    seen: dict[int, int] = {}   # signature -> gate id in b
    remap = [0] * n
    for idx, sig in enumerate(sigs):
        if sig == 0 or sig == full:
            remap[idx] = b.const(sig)
        elif sig in seen:
            remap[idx] = seen[sig]
        elif sig ^ full in seen:
            remap[idx] = b.not_(seen[sig ^ full])
        else:
            seen[sig] = b.rebuild(circuit, b.inp, remap, (idx,))[idx]
    return b.extract([remap[o] for o in circuit.outputs])
