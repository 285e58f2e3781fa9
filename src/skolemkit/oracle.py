"""NP-oracle layer: SAT queries, XOR-hash projected counting and sampling.

An Oracle session answers satisfiability queries either with the
built-in CDCL engine or by shelling out to an external SAT solver that
speaks DIMACS / SAT-competition output.  On top of plain queries sits
projected approximate counting, which also returns a cell to sample from.

Both rest on one primitive, _NestedCells: one sequence of random XOR
rows over the projection, entered as parity literals on one incremental
query, so its cells are nested (cell L+1 lies inside cell L) and each
level's solves only assume the literals of its rows.  Every projected
model found is kept and blocked, so no model is found twice; on
"internal" the blocking clause leaves the solver's trail in place, so
the next model of a cell is searched for without going back to level 0.
Each drawn row is reduced by Gaussian elimination against the rows
before it, in draw order: the same cells, cut by shorter parity chains.
A formula that only loses models between counts, such as the cover
loop's uncovered formula, keeps its trials open: each removed set is
excluded from every trial's query and kept models.

Counting follows ApproxMC2 (Chakraborty, Meel & Vardi, IJCAI 2016).  One
row sequence per trial serves every level.  The trial's level is the
smallest whose cell holds at most PIVOT models, searched from the
previous trial's level; the estimate is the median of count x 2^level,
and its hash_bits is the last trial's level.  Sampling follows UniGen
(Chakraborty, Meel & Vardi, DAC 2014): a saturated cell with at most
PIVOT models has been enumerated in full, so a caller draws uniformly
among its models, sorted by projection, several draws per cell as in
UniGen2 (Chakraborty, Fremont, Meel, Seshia & Vardi, TACAS 2015).  On
"exec:" each solve is one process on a copy of the query with the
assumptions as unit clauses.

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

from .cnf import Cnf, tseitin, xor_literal
from .solver import Solver, ResourceLimitError


class ExternalSolverError(Exception):
    """The external solver process failed or produced unparseable output."""


def labeled_rng(seed, label: str) -> random.Random:
    """Deterministic per-purpose random stream."""
    return random.Random(f"{seed}/{label}")


class CountEstimate:
    """A hash-based projected model-count estimate."""

    def __init__(self, estimate: int, hash_bits: int, trials: int,
                 cell: list):
        self.estimate = estimate
        self.hash_bits = hash_bits
        self.trials = trials
        self.cell = cell    # models to sample from (approx_count_projected)

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
    Solver.solve run on "internal", a solver process on "exec:".  timeout
    (None, or seconds, finite and above 0) bounds each solver process.
    """

    def __init__(self, backend: str = "internal", *, timeout: float = None):
        if not (backend == "internal"
                or backend.startswith("exec:") and backend[5:].strip()):
            raise ValueError(f"solver backend must be internal or "
                             f"exec:COMMAND, got {backend!r}")
        if timeout is not None and not 0 < timeout < float("inf"):
            raise ValueError(f"timeout must be None or finite and above "
                             f"0, got {timeout!r}")
        self.backend = backend
        self.timeout = timeout
        self.calls = 0
        self.wall_time = 0.0
        self.max_query_vars = 0
        self.max_query_clauses = 0

    def _open(self, cnf: Cnf):
        """A query on cnf that later solves may extend by clauses: an
        incremental Solver on "internal", a copy of cnf on "exec:"."""
        if self.backend == "internal":
            return Solver(cnf)
        return _ExecQuery(cnf.nvars, cnf.clauses)

    def _solve(self, query, cnf: Cnf, assumptions=()):
        """One counted solve of an open query on cnf under assumption
        literals: a model (var -> 0/1, total over the query's variables),
        or None when the query is unsat.  On "exec:" the assumptions
        become unit clauses of a one-shot copy of the query.  The query
        size recorded is cnf's, without the blocking clauses added since."""
        t0 = time.monotonic()
        try:
            if isinstance(query, _ExecQuery):
                if assumptions:
                    query = Cnf(query.nvars, query.clauses
                                + [[a] for a in assumptions])
                return solve_external(query, self.backend[5:], self.timeout)
            return query.model() if query.solve(assumptions) else None
        finally:
            self.calls += 1
            self.wall_time += time.monotonic() - t0
            self.max_query_vars = max(self.max_query_vars, cnf.nvars)
            self.max_query_clauses = max(self.max_query_clauses,
                                         len(cnf.clauses))

    def solve(self, cnf: Cnf):
        """A model of cnf, or None when it is unsat, from one solve."""
        return self._solve(self._open(cnf), cnf)

    def enumerate(self, cnf: Cnf, proj):
        """Distinct models projected to proj (order deterministic).

        One level-0 solve of a _NestedCells per model, so each model found
        is blocked.  The enumeration ends without a solve once the query
        is known unsat, as a blocking clause can show on "internal".
        """
        proj = list(proj)
        cells = _NestedCells(cnf, proj, None, self)
        while (model := cells.solve(0)) is not None:
            yield tuple(model[v] for v in proj)


def solve_external(cnf: Cnf, command: str, timeout: float = None):
    """Run an external DIMACS solver and parse SAT-competition output:
    a model of cnf, or None when the solver reports it unsat.

    A model is checked against every clause of cnf; timeout is in seconds.
    A timeout or an ``s UNKNOWN`` answer raises ResourceLimitError.
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
            elif word == "UNKNOWN":  # the solver gave up
                raise ResourceLimitError(f"external solver answered {line!r}")
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
        return None
    for v in range(1, cnf.nvars + 1):
        model.setdefault(v, 0)
    for clause in cnf.clauses:
        if not any(model[abs(l)] == (1 if l > 0 else 0) for l in clause):
            raise ExternalSolverError(
                "external model does not satisfy the query")
    return model


# ---------------------------------------------------------------------------
# hash-based projected counting and sampling

PIVOT = 40


class _NestedCells:
    """The nested cells of one XOR row sequence, all on one open query.

    Rows are drawn from rng as levels need them (so rng may be None when
    only level 0 is solved): one bit per projected variable (is it
    included?), then the parity.  A drawn row is reduced by one pass of
    Gaussian elimination over the earlier rows in draw order, each with
    its lowest bit as pivot, so it is 0 at every earlier pivot: each
    prefix of rows spans the same space as the drawn prefix, so every
    cell is the same, but a chain reads fewer variables and a dependent
    row adds none.  `rows` holds the rows as reduced; they enter the
    query as parity chains (cnf.xor_literal), and a level's solves assume
    the parity literals of its first `level` rows, so cell L+1 lies inside
    cell L.  Every projected model found is blocked once and kept as a
    bit mask over proj, next to the model restricted to cnf's variables,
    so cell(level) is the kept models that pass its rows (a parity check,
    no solve), and count(level) adds the new models its solves find.
    exclude(circuit) removes models from the formula while the session
    stays open: the kept models and the marks of fully enumerated cells
    stay valid, because the formula only loses models.
    """

    def __init__(self, cnf: Cnf, proj, rng, oracle: Oracle):
        self.proj = proj
        self.rng = rng
        self.oracle = oracle
        self.nvars = cnf.nvars
        self.work = cnf.copy()      # the query without its blocking clauses
        self.query = oracle._open(self.work)
        self.rows = []              # encoded (mask over proj, parity)
        self.assumptions = []       # per row; None for a row without variables
        self.kept = []              # (mask over proj, model) per model found
        self.complete = float("inf")  # smallest level whose cell is all kept

    def _draw_row(self):
        mask = sum(self.rng.getrandbits(1) << i
                   for i in range(len(self.proj)))
        parity = self.rng.getrandbits(1)
        for m, p in self.rows:
            if mask & m & -m:
                mask ^= m
                parity ^= p
        self._add_row(mask, parity)

    def _add_row(self, mask: int, parity: int):
        self.rows.append((mask, parity))
        if not mask:
            # parity 0 holds everywhere; parity 1 empties the cell
            self.assumptions.append(None)
            if parity:
                self.complete = min(self.complete, len(self.rows))
            return
        n0 = len(self.work.clauses)
        lit = xor_literal(self.work, [v for i, v in enumerate(self.proj)
                                      if mask >> i & 1])
        for clause in self.work.clauses[n0:]:
            self.query.add_clause(clause)
        self.assumptions.append(lit if parity else -lit)

    def solve(self, level: int):
        """A model with a new projection in cell `level`, or None.

        One counted solve, whose projected model is then kept and blocked;
        no solve when the cell is known to hold only kept models or the
        query is known unsat.
        """
        while len(self.rows) < level:
            self._draw_row()
        if level >= self.complete or self.query.unsat:
            return None
        found = self.oracle._solve(
            self.query, self.work,
            [a for a in self.assumptions[:level] if a is not None])
        if found is None:
            self.complete = level
            return None
        model = {v: found[v] for v in range(1, self.nvars + 1)}
        bits = [model[v] for v in self.proj]
        self.kept.append((sum(b << i for i, b in enumerate(bits)), model))
        self.query.add_clause([-v if b else v
                               for v, b in zip(self.proj, bits)])
        return model

    def _kept_in(self, level: int) -> list:
        """The kept models in cell `level`, in the order found."""
        while len(self.rows) < level:
            self._draw_row()
        rows = self.rows[:level]
        return [model for m, model in self.kept
                if all((m & mask).bit_count() & 1 == p for mask, p in rows)]

    def cell(self, level: int) -> list:
        """The kept models in cell `level`, sorted by their projections
        (the first variable of proj most significant): all of the cell's
        models once a count there stops below PIVOT + 1."""
        return sorted(self._kept_in(level),
                      key=lambda model: [model[v] for v in self.proj])

    def exclude(self, circuit):
        """Remove from the formula the models that circuit, over cnf's
        variables, is 1 on.  Its negation is Tseitin-encoded into the
        work CNF, whose ids already run past cnf's through the chain
        variables, and enters the query; the kept models it is 1 on are
        dropped.  The formula only loses models, so every kept model,
        complete mark and unsat answer stays valid."""
        n0 = len(self.work.clauses)
        tseitin(circuit, lambda v: v, self.work, assert_outputs=[0])
        for clause in self.work.clauses[n0:]:
            self.query.add_clause(clause)
        self.kept = [(m, model) for m, model in self.kept
                     if not circuit.eval(model)[0]]

    def count(self, level: int) -> int:
        """Projected models in cell `level`, capped at PIVOT + 1."""
        n = len(self._kept_in(level))
        while n <= PIVOT and self.solve(level) is not None:
            n += 1
        return min(n, PIVOT + 1)

    def saturation_level(self, hint: int) -> int:
        """The smallest level whose cell holds at most PIVOT models (at
        most len(proj)), found by galloping from hint, then bisecting."""
        top = len(self.proj)

        def small(lv):
            return lv >= top or self.count(lv) <= PIVOT

        # once set: level `big` overflows (-1 stands below level 0) and
        # level `fit` is small
        level, step = min(max(hint, 0), top), 1
        if small(level):
            fit = level
            while fit - step >= 0 and small(fit - step):
                fit -= step
                step *= 2
            big = max(fit - step, -1)
        else:
            big = level
            while big + step < top and not small(big + step):
                big += step
                step *= 2
            fit = min(big + step, top)
        while fit - big > 1:
            mid = (big + fit) // 2
            if small(mid):
                fit = mid
            else:
                big = mid
        return fit


def approx_count_projected(cnf: Cnf, proj, epsilon_trials: int = 9,
                           seed=0, oracle: Oracle = None,
                           level_hint: int = None,
                           trials: dict = None) -> CountEstimate:
    """ApproxMC2-style projected count: the median over trials of the
    saturated cell's count x 2^level, with a cell to sample from.

    Trial t hashes with rows from labeled_rng(seed, f"count/{t}") on its
    own _NestedCells query and saturates at the smallest level whose cell
    holds at most PIVOT models, searched from the previous trial's level
    (level_hint for the first).  Level 0 returns the exact count at once,
    so the count is exact when it is at most PIVOT, and 0 only when the
    unhashed query is unsat.  An empty cell above level 0 counts as the
    level below, which overflowed.  hash_bits is the last trial's level.

    cell holds the models of the last trial whose saturated cell is
    nonempty and fully enumerated (0 < count <= PIVOT), each restricted
    to cnf's variables with a distinct projection: a uniform draw from it
    is a near-uniform sample of the projected models, as in UniGen
    (Chakraborty, Meel & Vardi, DAC 2014).  When no trial has such a cell
    (it came out empty, or still overflows at level len(proj)), trials
    t >= epsilon_trials run until one has; they only supply the cell.
    The cell is sorted by projection, so a draw from it depends only on
    the cell's set of models, not on the order the search found them.

    trials maps t to trial t's open _NestedCells: a trial found there is
    reused, and a trial opened here is stored there.  A caller whose cnf
    only loses models between counts passes the same dict each time and
    excludes each removed set from every open trial (_NestedCells.exclude);
    trial t draws the same rows every time, so every count, level, cell
    and estimate is that of a fresh count.
    """
    if epsilon_trials < 1:
        raise ValueError(f"counting needs at least 1 trial, got "
                         f"{epsilon_trials}")
    proj = list(proj)
    oracle = oracle or Oracle()
    level = level_hint or 0
    ests, cell = [], []
    trials = {} if trials is None else trials
    t = 0
    # past epsilon_trials the formula has more than PIVOT models (level 0
    # would have returned), so a trial's cell is empty or overflows with
    # probability about 1/2 at most (the last row's parity bit), and the
    # loop ends
    while len(ests) < epsilon_trials or not cell:
        cells = trials.get(t)
        if cells is None:
            cells = trials[t] = _NestedCells(
                cnf, proj, labeled_rng(seed, f"count/{t}"), oracle)
        lv = cells.saturation_level(level)
        n = cells.count(lv)
        if lv == 0:
            return CountEstimate(n, 0, t + 1, cells.cell(0))
        if 0 < n <= PIVOT:
            cell = cells.cell(lv)
        if len(ests) < epsilon_trials:
            level = lv
            ests.append(n << lv if n else (PIVOT + 1) << (lv - 1))
        t += 1
    ests.sort()
    return CountEstimate(ests[len(ests) // 2], level, epsilon_trials, cell)
