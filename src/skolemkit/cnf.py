"""CNF containers, the Tseitin transformation, and XOR parity encoding.

Clauses are lists of nonzero DIMACS-style integer literals.  The Tseitin
encoding maps every gate of the basis {IN, CONST, NOT, AND, OR} to a
*literal* rather than a variable, so NOT gates cost no clauses and each
AND/OR gate costs 3 clauses.
"""

from __future__ import annotations

from .circuits import Circuit


class Cnf:
    def __init__(self, nvars: int = 0, clauses=None):
        self.nvars = nvars
        self.clauses: list[list[int]] = [list(c) for c in (clauses or [])]

    def add(self, clause):
        clause = list(clause)
        for lit in clause:
            if abs(lit) > self.nvars:
                self.nvars = abs(lit)
        self.clauses.append(clause)

    def fresh(self) -> int:
        self.nvars += 1
        return self.nvars

    def copy(self) -> "Cnf":
        return Cnf(self.nvars, self.clauses)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.nvars} {len(self.clauses)}"]
        for c in self.clauses:
            lines.append(" ".join(map(str, c)) + " 0")
        return "\n".join(lines) + "\n"

    def __len__(self):
        return len(self.clauses)


def tseitin(circuit: Circuit, input_var, cnf: Cnf,
            assert_outputs=True) -> list:
    """Encode ``circuit`` into ``cnf`` and return its output literals.

    ``input_var(name)`` maps every input name to an existing CNF variable.
    When ``assert_outputs`` is True (or a list of polarities), a unit
    clause fixes each output accordingly.  Adds 3 clauses per AND/OR
    gate; NOT and CONST gates are free.  The variables it adds are
    fresh: the ids above ``cnf.nvars`` at entry.
    """
    units = set()
    true_lit = [None]  # lazily allocated var fixed to 1, for bare constants

    def get_true():
        if true_lit[0] is None:
            v = cnf.fresh()
            cnf.add([v])
            units.add(v)
            true_lit[0] = v
        return true_lit[0]

    lits: list[int] = [0] * len(circuit.gates)
    for idx, gate in enumerate(circuit.gates):
        op = gate[0]
        if op == "in":
            lits[idx] = input_var(gate[1])
        elif op == "const":
            lits[idx] = get_true() if gate[1] else -get_true()
        elif op == "not":
            lits[idx] = -lits[gate[1]]
        else:
            a, b = lits[gate[1]], lits[gate[2]]
            g = cnf.fresh()
            if op == "and":
                cnf.add([-g, a])
                cnf.add([-g, b])
                cnf.add([g, -a, -b])
            else:  # or
                cnf.add([g, -a])
                cnf.add([g, -b])
                cnf.add([-g, a, b])
            lits[idx] = g

    out_lits = [lits[o] for o in circuit.outputs]
    if assert_outputs:
        pols = assert_outputs if isinstance(assert_outputs, (list, tuple)) \
            else [1] * len(out_lits)
        for lit, pol in zip(out_lits, pols):
            unit = lit if pol else -lit
            if unit not in units:
                cnf.add([unit])
                units.add(unit)
    return out_lits


def xor_literal(cnf: Cnf, variables) -> int:
    """A literal equal to ``xor(variables)``, which must be nonempty.

    One variable is its own literal; more end a chain of fresh
    equivalence variables, 4 clauses per link, added to ``cnf``.
    """
    variables = list(variables)
    acc = variables[0]
    for v in variables[1:]:
        t = cnf.fresh()
        # t <-> acc xor v
        cnf.add([-t, acc, v])
        cnf.add([-t, -acc, -v])
        cnf.add([t, -acc, v])
        cnf.add([t, acc, -v])
        acc = t
    return acc

