"""Candidate checking: the error formula, counterexamples, uniqueness.

A candidate vector Psi is a Skolem vector for F exactly when the error
formula E(X, Y, Y') = F(X,Y) & ~F(X,Y') & (Y' <-> Psi(X)) is
unsatisfiable; any model is a counterexample input together with a
witnessing good Y.
"""

from __future__ import annotations

from .circuits import SkolemVector
from .cnf import Cnf, tseitin
from .formula import Specification
from .oracle import Oracle


class Verdict:
    def __init__(self, status: str, witness: dict = None):
        assert status in ("valid", "counterexample")
        self.status = status
        self.witness = witness  # var -> bit over X and Y when counterexample

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    def __repr__(self):
        return f"Verdict({self.status})"


def build_error_formula(spec: Specification, candidate: SkolemVector) -> Cnf:
    """CNF satisfiable iff the candidate is not a Skolem vector for spec.

    Variables: spec's X and Y keep their ids; fresh variables hold the
    primed copy Y' plus Tseitin auxiliaries.  ~F(X,Y') is encoded by
    asserting the Tseitin output of the second matrix copy false.
    """
    if candidate.m != spec.m or candidate.n != spec.n:
        raise ValueError("candidate shape does not match spec")
    cnf = spec.cnf.copy()   # F(X, Y) on the original variables
    xv = {("x", i + 1): v for i, v in enumerate(spec.x_vars)}

    # primed outputs
    yprime = [cnf.fresh() for _ in range(spec.m)]

    # Y' <-> Psi(X) with internal Y-dependencies read from Y'
    def invar(name):
        if name[0] == "x":
            return xv[name]
        return yprime[name[1] - 1]

    outs = tseitin(candidate.arena, invar, cnf, assert_outputs=False)
    for yp, lit in zip(yprime, outs):
        cnf.add([-yp, lit])
        cnf.add([yp, -lit])

    # ~F(X, Y')
    def negvar(v):
        if v in spec.y_vars:
            return yprime[spec.y_vars.index(v)]
        return v

    tseitin(spec.matrix, negvar, cnf, assert_outputs=[0])
    return cnf


def verify_skolem(spec: Specification, candidate: SkolemVector,
                  oracle: Oracle = None) -> Verdict:
    """Valid, or a counterexample projected to X and Y."""
    oracle = oracle or Oracle()
    model = oracle.solve(build_error_formula(spec, candidate))
    if model is None:
        return Verdict("valid")
    witness = {v: model[v] for v in spec.x_vars + spec.y_vars}
    return Verdict("counterexample", witness)


def check_unique(spec: Specification, i: int, z_vars,
                 oracle: Oracle = None) -> bool:
    """Is Y_i uniquely defined in terms of the variables Z?

    Builds F(X,Y) & F(X^,Y^) & (Y_i != Y^_i), where the hatted copy reads
    Z's own variables and fresh ones for the rest, and reports
    unsatisfiability.
    """
    z_vars = list(z_vars)
    yi = spec.y_vars[i - 1]
    allowed = set(spec.x_vars) | set(spec.y_vars) - {yi}
    for z in z_vars:
        if z not in allowed:
            raise ValueError(f"Z contains disallowed variable {z}")
    oracle = oracle or Oracle()
    cnf = spec.cnf.copy()
    hat = {v: v if v in z_vars else cnf.fresh()
           for v in spec.x_vars + spec.y_vars}
    tseitin(spec.matrix, lambda v: hat[v], cnf, assert_outputs=True)
    cnf.add([yi, hat[yi]])
    cnf.add([-yi, -hat[yi]])
    return oracle.solve(cnf) is None
