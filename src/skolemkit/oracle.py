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
from .solver import Solver, ResourceLimitError, enumerate_models


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


class XorConstraint:
    """A random parity constraint over a projection set."""

    def __init__(self, vars, parity: int):
        self.vars = list(vars)
        self.parity = parity

    @classmethod
    def draw(cls, rng: random.Random, proj) -> "XorConstraint":
        """Each variable included independently w.p. 1/2; uniform parity."""
        return cls([v for v in proj if rng.getrandbits(1)], rng.getrandbits(1))

    def add_to(self, cnf: Cnf):
        return add_xor_constraint(cnf, self.vars, self.parity)

    def holds(self, model: dict) -> bool:
        return sum(model[v] for v in self.vars) % 2 == self.parity


class CountEstimate:
    """A hash-based projected model-count estimate."""

    def __init__(self, estimate: int, hash_bits: int, trials: int, seed):
        self.estimate = estimate
        self.hash_bits = hash_bits
        self.trials = trials
        self.seed = seed

    def __repr__(self):
        return (f"CountEstimate({self.estimate}, hash_bits={self.hash_bits}, "
                f"trials={self.trials})")


class Oracle:
    """A SAT oracle session.

    backend is "internal" or "exec:<command>"; the command receives
    DIMACS on standard input unless it contains a "{file}" placeholder,
    in which case a temporary file path is substituted.  Sessions are
    independent: answers depend only on the query and the engine.
    """

    def __init__(self, backend: str = "internal", max_conflicts: int = None,
                 timeout: float = None):
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

    def _record(self, cnf: Cnf, t0: float):
        self.calls += 1
        self.wall_time += time.monotonic() - t0
        self.max_query_vars = max(self.max_query_vars, cnf.nvars)
        self.max_query_clauses = max(self.max_query_clauses, len(cnf.clauses))

    def solve(self, cnf: Cnf, assumptions: dict = None) -> OracleResult:
        """Decide cnf under a partial assignment of variables to bits."""
        t0 = time.monotonic()
        try:
            if self.backend == "internal":
                s = Solver(cnf)
                if s.solve(_assumption_lits(assumptions),
                           max_conflicts=self.max_conflicts):
                    res = OracleResult("sat", s.model())
                else:
                    res = OracleResult("unsat")
            elif self.backend.startswith("exec:"):
                res = solve_external(cnf, {"command": self.backend[5:],
                                           "timeout": self.timeout},
                                     assumptions)
            else:
                raise ValueError(f"unknown backend {self.backend!r}")
        finally:
            self._record(cnf, t0)
        return res

    def enumerate(self, cnf: Cnf, proj, limit: int = None):
        """Distinct models projected to proj (order deterministic)."""
        if self.backend == "internal":
            t0 = time.monotonic()
            try:
                yield from enumerate_models(cnf, proj, limit)
            finally:
                self._record(cnf, t0)
            return
        work = cnf.copy()
        proj = list(proj)
        count = 0
        while limit is None or count < limit:
            res = self.solve(work, None)
            if not res.is_sat:
                return
            bits = tuple(res.model[v] for v in proj)
            yield bits
            count += 1
            work.add([(-v if b else v) for v, b in zip(proj, bits)])


def _assumption_lits(assumptions) -> list:
    if not assumptions:
        return []
    if isinstance(assumptions, dict):
        return [v if b else -v for v, b in assumptions.items()]
    return list(assumptions)


def solve_external(cnf: Cnf, adapter_config: dict,
                   assumptions: dict = None) -> OracleResult:
    """Run an external DIMACS solver and parse SAT-competition output.

    adapter_config: {"command": str, "timeout": seconds or None}.  The
    command may come from the SKOLEMKIT_SOLVER environment variable when
    absent.  Assumptions are appended as unit clauses.
    """
    command = adapter_config.get("command") or os.environ.get(
        "SKOLEMKIT_SOLVER")
    if not command:
        raise ExternalSolverError("no external solver command configured")
    timeout = adapter_config.get("timeout")
    work = cnf
    lits = _assumption_lits(assumptions)
    if lits:
        work = cnf.copy()
        for lit in lits:
            work.add([lit])
    dimacs = work.to_dimacs()
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
    for v in range(1, work.nvars + 1):
        model.setdefault(v, 0)
    for clause in work.clauses:
        if not any(model[abs(l)] == (1 if l > 0 else 0) for l in clause):
            raise ExternalSolverError(
                "external model does not satisfy the query")
    return OracleResult("sat", model)


# ---------------------------------------------------------------------------
# hash-based projected counting and sampling

PIVOT = 40
SAMPLE_RETRIES = 8          # empty-cell retries, one fewer hash bit each


def _survivors(cnf: Cnf, proj, level: int, rng, oracle: Oracle, cap: int):
    """Projected models surviving `level` fresh XOR constraints, up to cap."""
    work = cnf.copy()
    for _ in range(level):
        XorConstraint.draw(rng, proj).add_to(work)
    n = 0
    for _ in oracle.enumerate(work, proj, limit=cap):
        n += 1
    return n


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
        return CountEstimate(base, 0, 1, seed)
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
    return CountEstimate(int(ests[len(ests) // 2]), level,
                         epsilon_trials, seed)


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
    rng = labeled_rng(seed, label)
    work = cnf.copy()
    constraints = [XorConstraint.draw(rng, proj) for _ in range(hash_bits)]
    for c in constraints:
        c.add_to(work)
    res = oracle.solve(work)
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
