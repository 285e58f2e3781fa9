"""NP-oracle layer: SAT queries, XOR-hash projected counting and sampling.

An Oracle session answers satisfiability queries either with the
built-in CDCL engine or by shelling out to an external SAT solver that
speaks DIMACS / SAT-competition output.  On top of plain queries sit
ApproxMC-style projected approximate counting and hash-cell sampling.

Randomness: one integer seed drives everything; each derived stream is
seeded from the string "seed/label" so results are reproducible and
independent of scheduling.
"""

from __future__ import annotations

import os
import random
import shlex
import subprocess
import tempfile
import time

from .cnf import Cnf, add_xor_constraint
from .solver import Solver, ResourceLimitError


class ExternalSolverError(Exception):
    """The external solver process failed or produced unparseable output."""


def labeled_rng(seed, label: str) -> random.Random:
    """Deterministic per-purpose random stream."""
    return random.Random(f"{seed}/{label}")


class OracleResult:
    """Outcome of a single satisfiability query."""

    def __init__(self, status: str, model: dict = None):
        assert status in ("sat", "unsat")
        self.status = status
        self.model = model  # var -> 0/1, total over queried vars when sat

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    def __repr__(self):
        return f"OracleResult({self.status})"


class CountEstimate:
    """A hash-based projected model-count estimate."""

    def __init__(self, estimate: int, hash_bits: int, trials: int):
        self.estimate = estimate
        self.hash_bits = hash_bits
        self.trials = trials

    def __repr__(self):
        return (f"CountEstimate({self.estimate}, hash_bits={self.hash_bits}, "
                f"trials={self.trials})")


class _ExecQuery(Cnf):
    """An open exec: query: a CNF copy extended by add_clause, like a
    Solver, and never known unsat before a solve."""

    unsat = False

    def add_clause(self, lits):
        self.add(lits)


class Oracle:
    """A SAT oracle session: the one place a query is opened, solved and
    counted.

    backend is "internal" or "exec:<command>"; the command receives
    DIMACS on standard input unless it contains a "{file}" placeholder,
    in which case a temporary file path is substituted.  Sessions are
    independent: answers depend only on the query and the engine.  Every
    solve, including each step of an enumeration, adds one to calls: a
    Solver.solve run on "internal", a solver process on "exec:".
    """

    def __init__(self, backend: str = "internal", max_conflicts: int = None,
                 timeout: float = None):
        if not (backend == "internal"
                or backend.startswith("exec:") and backend[5:].strip()):
            raise ValueError(f"solver backend must be internal or "
                             f"exec:COMMAND, got {backend!r}")
        self.backend = backend
        self.max_conflicts = max_conflicts
        self.timeout = timeout
        self.calls = 0
        self.wall_time = 0.0
        self.max_query_vars = 0
        self.max_query_clauses = 0

    def stats(self) -> dict:
        return {"calls": self.calls, "wallTime": self.wall_time,
                "maxQueryVars": self.max_query_vars,
                "maxQueryClauses": self.max_query_clauses}

    def _open(self, cnf: Cnf):
        """A query on cnf that later solves may extend by clauses: an
        incremental Solver on "internal", a copy of cnf on "exec:"."""
        if self.backend == "internal":
            return Solver(cnf)
        return _ExecQuery(cnf.nvars, cnf.clauses)

    def _solve(self, query, cnf: Cnf) -> OracleResult:
        """One counted solve of an open query on cnf.  The query size
        recorded is cnf's, without the blocking clauses added since."""
        t0 = time.monotonic()
        try:
            if isinstance(query, _ExecQuery):
                return solve_external(query, self.backend[5:], self.timeout)
            if query.solve(max_conflicts=self.max_conflicts):
                return OracleResult("sat", query.model())
            return OracleResult("unsat")
        finally:
            self.calls += 1
            self.wall_time += time.monotonic() - t0
            self.max_query_vars = max(self.max_query_vars, cnf.nvars)
            self.max_query_clauses = max(self.max_query_clauses,
                                         len(cnf.clauses))

    def solve(self, cnf: Cnf) -> OracleResult:
        """Decide cnf with one solve."""
        return self._solve(self._open(cnf), cnf)

    def enumerate(self, cnf: Cnf, proj, limit: int = None):
        """Distinct models projected to proj (order deterministic).

        One solve per model, on one query that blocks each model found.
        The enumeration ends without a solve once the query is known
        unsat, as a blocking clause can show on "internal".
        """
        proj = list(proj)
        query = self._open(cnf)
        count = 0
        while count != limit and not query.unsat:
            res = self._solve(query, cnf)
            if not res.is_sat:
                return
            bits = tuple(res.model[v] for v in proj)
            yield bits
            count += 1
            query.add_clause([(-v if b else v) for v, b in zip(proj, bits)])


def solve_external(cnf: Cnf, command: str, timeout: float = None
                   ) -> OracleResult:
    """Run an external DIMACS solver and parse SAT-competition output.

    A model is checked against every clause of cnf; timeout is in seconds.
    """
    dimacs = cnf.to_dimacs()
    argv = shlex.split(command)
    tmp = None
    try:
        if any("{file}" in a for a in argv):
            fd, tmp = tempfile.mkstemp(suffix=".cnf", text=True)
            with os.fdopen(fd, "w") as fh:
                fh.write(dimacs)
            argv = [a.replace("{file}", tmp) for a in argv]
            stdin = None
        else:
            stdin = dimacs
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ResourceLimitError(
                f"external solver exceeded {timeout}s")
        except OSError as e:
            raise ExternalSolverError(f"cannot run {argv[0]}: {e}")
    finally:
        if tmp is not None:
            os.unlink(tmp)
    status = None
    model = {}
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            word = line[2:].strip()
            if word == "SATISFIABLE":
                status = "sat"
            elif word == "UNSATISFIABLE":
                status = "unsat"
            else:
                raise ExternalSolverError(f"unrecognized status line {line!r}")
        elif line.startswith("v "):
            try:
                for lit in map(int, line[2:].split()):
                    if lit != 0:
                        model[abs(lit)] = 1 if lit > 0 else 0
            except ValueError:
                raise ExternalSolverError(f"unparseable model line {line!r}")
    if status is None:
        raise ExternalSolverError("no status line in solver output")
    if status == "unsat":
        return OracleResult("unsat")
    for v in range(1, cnf.nvars + 1):
        model.setdefault(v, 0)
    for clause in cnf.clauses:
        if not any(model[abs(l)] == (1 if l > 0 else 0) for l in clause):
            raise ExternalSolverError(
                "external model does not satisfy the query")
    return OracleResult("sat", model)


# ---------------------------------------------------------------------------
# hash-based projected counting and sampling

PIVOT = 40
SAMPLE_RETRIES = 8          # empty-cell retries, one fewer hash bit each


def _hashed(cnf: Cnf, proj, bits: int, rng) -> Cnf:
    """A copy of cnf cut to a random cell by `bits` XOR constraints over
    proj.  Each constraint draws one bit per projected variable (is it
    included?) and then its parity."""
    work = cnf.copy()
    for _ in range(bits):
        add_xor_constraint(work, [v for v in proj if rng.getrandbits(1)],
                           rng.getrandbits(1))
    return work


def _survivors(cnf: Cnf, proj, level: int, rng, oracle: Oracle, cap: int):
    """Projected models surviving `level` fresh XOR constraints, up to cap."""
    return sum(1 for _ in oracle.enumerate(_hashed(cnf, proj, level, rng),
                                           proj, limit=cap))


def approx_count_projected(cnf: Cnf, proj, epsilon_trials: int = 9,
                           seed=0, oracle: Oracle = None,
                           level_hint: int = None) -> CountEstimate:
    """ApproxMC-style projected count: median of survivors × 2^level.

    Exact when the projected count is at most the pivot.  With an odd
    trial count and median aggregation the estimate is within a factor
    of 2 of the truth with high empirical probability.  level_hint
    starts the saturation-level search near a previously found level.
    """
    proj = list(proj)
    oracle = oracle or Oracle()
    cap = 2 * PIVOT + 1
    base = _survivors(cnf, proj, 0, None, oracle, PIVOT + 1)
    if base <= PIVOT:
        return CountEstimate(base, 0, 1)
    # saturation level: smallest level whose cell holds <= pivot survivors
    probe = labeled_rng(seed, "count/probe")

    def small(lv):
        return _survivors(cnf, proj, lv, probe, oracle, PIVOT + 1) <= PIVOT

    level = min(max(level_hint or 1, 1), len(proj))
    if small(level):
        while level > 1 and small(level - 1):
            level -= 1
    else:
        level += 1
        while level < len(proj) and not small(level):
            level += 1
    ests = []
    for t in range(epsilon_trials):
        rng = labeled_rng(seed, f"count/{t}")
        s = _survivors(cnf, proj, level, rng, oracle, cap)
        if s == 0 and level > 0:
            # unlucky empty cell: step one level down for this trial
            rng2 = labeled_rng(seed, f"count/{t}/retry")
            s = _survivors(cnf, proj, level - 1, rng2, oracle, cap) / 2
        ests.append(s * (1 << level))
    ests.sort()
    return CountEstimate(int(ests[len(ests) // 2]), level, epsilon_trials)


def sample_projected(cnf: Cnf, proj, hash_bits: int, seed,
                     oracle: Oracle = None, label: str = "sample"
                     ) -> OracleResult:
    """Solve cnf in a random XOR cell of 2^-hash_bits of the projection.

    An unsat result means the cell was empty; sample_with_retries retries
    with fewer bits.
    """
    if hash_bits < 0:
        raise ValueError("hash_bits must be nonnegative")
    oracle = oracle or Oracle()
    res = oracle.solve(_hashed(cnf, proj, hash_bits,
                               labeled_rng(seed, label)))
    if res.is_sat:
        # report only original variables
        res = OracleResult("sat", {v: res.model[v]
                                   for v in range(1, cnf.nvars + 1)})
    return res


def sample_with_retries(cnf: Cnf, proj, hash_bits: int, seed, oracle: Oracle,
                        label: str):
    """A model of cnf from a random XOR cell, or None when cnf is unsat.

    Each empty cell is retried with one fewer hash bit, as sample_projected
    labelled f"{label}/{r}" for retry r, up to SAMPLE_RETRIES times; if
    hashing keeps missing a nonempty set, a plain solve decides.
    """
    for r in range(SAMPLE_RETRIES + 1):
        res = sample_projected(cnf, proj, max(0, hash_bits - r), seed,
                               oracle, label=f"{label}/{r}")
        if res.is_sat:
            return res.model
    res = oracle.solve(cnf)
    return res.model if res.is_sat else None
