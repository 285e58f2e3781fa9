"""Incremental CDCL SAT solver with optional resolution-chain logging.

Watched literals, activity-based decisions with phase saving, Luby
restarts, 1UIP clause learning.  Learning is done on explicit literal
sets so that every learned clause carries the exact sequence of binary
resolution steps that derives it; a refutation can then be replayed as a
checkable resolution proof.
"""

from __future__ import annotations

from heapq import heappush, heappop

from .cnf import Cnf


class ResourceLimitError(Exception):
    """Raised when a configured conflict budget is exhausted."""


def luby(i: int) -> int:
    """Luby restart sequence, 0-based: 1 1 2 1 1 2 4 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i = i % size
    return 1 << seq


class _Clause:
    __slots__ = ("lits", "cid", "learned", "chain", "w")

    def __init__(self, lits, cid, learned=False, chain=None):
        self.lits = lits
        self.cid = cid
        self.learned = learned
        self.chain = chain  # (start_cid, [(reason_cid, pivot_var), ...])
        self.w = None       # the two watched literals


class Solver:
    def __init__(self, cnf: Cnf = None, log_proof: bool = False):
        self.nvars = 0
        self.log_proof = log_proof
        self.by_id: dict[int, _Clause] = {}
        self.next_cid = 1
        self.watches: dict[int, list] = {}
        self.assign: dict[int, bool] = {}
        self.level: dict[int, int] = {}
        self.reason: dict[int, _Clause] = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: dict[int, float] = {}
        self.var_inc = 1.0
        self.saved: dict[int, bool] = {}
        self.heap: list = []
        self.unsat = False
        self.empty_chain = None  # chain deriving the empty clause
        self.conflicts = 0
        self.pending_units: list = []  # (lit, clause) to enqueue at level 0
        if cnf is not None:
            self.ensure_vars(cnf.nvars)
            for c in cnf.clauses:
                self.add_clause(c)

    # ---------- setup ----------

    def ensure_vars(self, n: int):
        for v in range(self.nvars + 1, n + 1):
            self.watches[v] = []
            self.watches[-v] = []
            self.activity[v] = 0.0
            self.saved[v] = False
        self.nvars = max(self.nvars, n)

    def _watch(self, cl: _Clause, a: int, b: int):
        cl.w = [a, b]
        self.watches[a].append(cl)
        self.watches[b].append(cl)

    def add_clause(self, lits, _learned=False, _chain=None):
        """Add a clause.  External calls must happen between solve() calls;
        the solver backtracks to the root level first."""
        seen = set()
        clause = []
        for lit in lits:
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
            self.ensure_vars(abs(lit))
        if any(-l in seen for l in seen):
            return None  # tautology
        cid = self.next_cid
        self.next_cid += 1
        cl = _Clause(tuple(clause), cid, _learned, _chain)
        self.by_id[cid] = cl
        if not clause:
            self.unsat = True
            self.empty_chain = (cid, [])
            return cl
        if _learned:
            # caller guarantees clause[0] is the asserting literal and
            # clause[1] has the backjump level
            if len(clause) == 1:
                self.pending_units.append((clause[0], cl))
            else:
                self._watch(cl, clause[0], clause[1])
            return cl
        self._backjump(0)
        nonfalse = [l for l in clause if self.value(l) is not False]
        if not nonfalse:
            self.unsat = True
            if self.log_proof:
                self._derive_falsified(cl)
            return cl
        if len(nonfalse) == 1:
            self.pending_units.append((nonfalse[0], cl))
            if len(clause) >= 2:
                # still watch it so the structure is uniform
                rest = [l for l in clause if l != nonfalse[0]]
                self._watch(cl, nonfalse[0], rest[0])
        else:
            self._watch(cl, nonfalse[0], nonfalse[1])
        return cl

    # ---------- assignment primitives ----------

    def value(self, lit: int):
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int, reason):
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self):
        while self.qhead < len(self.trail):
            false_lit = -self.trail[self.qhead]
            self.qhead += 1
            watchlist = self.watches[false_lit]
            i = 0
            while i < len(watchlist):
                cl = watchlist[i]
                w = cl.w
                other = w[1] if w[0] == false_lit else w[0]
                if self.value(other) is True:
                    i += 1
                    continue
                # look for a replacement watch
                moved = False
                for cand in cl.lits:
                    if cand == false_lit or cand == other:
                        continue
                    if self.value(cand) is not False:
                        w[0 if w[0] == false_lit else 1] = cand
                        self.watches[cand].append(cl)
                        watchlist[i] = watchlist[-1]
                        watchlist.pop()
                        moved = True
                        break
                if moved:
                    continue
                if self.value(other) is False:
                    return cl  # conflict
                self._enqueue(other, cl)
                i += 1
        return None

    # ---------- heuristics ----------

    def _bump(self, var: int):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in self.activity:
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        heappush(self.heap, (-self.activity[var], var))

    def _decay(self):
        self.var_inc /= 0.95

    def _pick_branch_var(self):
        while self.heap:
            negact, var = heappop(self.heap)
            if var not in self.assign and -negact == self.activity[var]:
                return var
        for var in range(1, self.nvars + 1):
            if var not in self.assign:
                return var
        return None

    # ---------- conflict analysis ----------

    def _analyze(self, conflict: _Clause):
        """1UIP learning on explicit literal sets.

        Returns (learned_lits ordered by decreasing level, backjump_level,
        chain) where chain mirrors the performed resolutions.
        """
        cur_level = len(self.trail_lim)
        lits = set(conflict.lits)
        chain = [] if self.log_proof else None
        start = conflict.cid
        idx = len(self.trail) - 1
        while True:
            at_cur = [l for l in lits if self.level[abs(l)] == cur_level]
            if len(at_cur) <= 1:
                break
            while idx >= 0:
                t = self.trail[idx]
                if -t in lits and self.level[abs(t)] == cur_level \
                        and self.reason.get(abs(t)) is not None:
                    break
                idx -= 1
            else:
                break  # only decision literals remain at this level
            t = self.trail[idx]
            idx -= 1
            r = self.reason[abs(t)]
            lits.discard(-t)
            lits |= set(x for x in r.lits if x != t)
            self._bump(abs(t))
            if chain is not None:
                chain.append((r.cid, abs(t)))
        learned = sorted(lits, key=lambda l: -self.level[abs(l)])
        for l in learned:
            self._bump(abs(l))
        bj = self.level[abs(learned[1])] if len(learned) > 1 else 0
        return learned, bj, ((start, chain) if chain is not None else None)

    def _resolve_to_empty(self, start_cl: _Clause, lits: set):
        """All of ``lits`` are false at level 0: chain down to empty."""
        lits = set(lits)
        chain = []
        idx = len(self.trail) - 1
        while lits:
            while idx >= 0 and -self.trail[idx] not in lits:
                idx -= 1
            if idx < 0:
                return None
            t = self.trail[idx]
            idx -= 1
            r = self.reason[abs(t)]
            if r is None:
                return None
            lits.discard(-t)
            lits |= set(x for x in r.lits if x != t)
            chain.append((r.cid, abs(t)))
        return (start_cl.cid, chain)

    def _derive_falsified(self, cl: _Clause):
        self.empty_chain = self._resolve_to_empty(cl, set(cl.lits))

    def _backjump(self, lvl: int):
        while len(self.trail_lim) > lvl:
            lim = self.trail_lim.pop()
            while len(self.trail) > lim:
                lit = self.trail.pop()
                var = abs(lit)
                self.saved[var] = self.assign[var]
                del self.assign[var]
                del self.level[var]
                self.reason.pop(var, None)
                heappush(self.heap, (-self.activity[var], var))
        self.qhead = min(self.qhead, len(self.trail))

    # ---------- main ----------

    def solve(self, assumptions=(), max_conflicts=None) -> bool:
        """Decide satisfiability under ``assumptions``.

        On True, ``model()`` returns a satisfying total assignment.  On
        False without assumptions the formula is unsatisfiable (with a
        loggable refutation in proof mode); with assumptions, it is
        unsatisfiable under them.
        """
        if self.unsat:
            return False
        self._backjump(0)
        for lit, cl in self.pending_units:
            val = self.value(lit)
            if val is False:
                self.unsat = True
                if self.log_proof:
                    self._derive_falsified(cl)
                return False
            if val is None:
                self._enqueue(lit, cl)
        self.pending_units = []
        conflict_budget = 0
        restarts = 0
        local_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                local_conflicts += 1
                conflict_budget += 1
                if max_conflicts is not None and local_conflicts > max_conflicts:
                    self._backjump(0)
                    raise ResourceLimitError(
                        f"conflict budget {max_conflicts} exceeded")
                if len(self.trail_lim) == 0:
                    self.unsat = True
                    if self.log_proof:
                        self._derive_falsified(conflict)
                    return False
                learned, bj, chain = self._analyze(conflict)
                cur = [l for l in learned
                       if self.level[abs(l)] == len(self.trail_lim)]
                if len(cur) != 1:
                    # conflict hinges on assumption decisions only
                    self._backjump(0)
                    return False
                self._decay()
                # asserting literal first, then a backjump-level literal
                ordered = [cur[0]] + [l for l in learned if l != cur[0]]
                self._backjump(bj)
                cl = self.add_clause(ordered, _learned=True, _chain=chain)
                if self.unsat:
                    return False
                if len(cl.lits) == 1:
                    self.pending_units = [
                        (l, c) for (l, c) in self.pending_units if c is not cl]
                self._enqueue(cur[0], cl)
                if conflict_budget >= 100 * luby(restarts):
                    restarts += 1
                    conflict_budget = 0
                    self._backjump(0)
                continue
            next_assump = None
            for a in assumptions:
                val = self.value(a)
                if val is False:
                    self._backjump(0)
                    return False
                if val is None:
                    next_assump = a
                    break
            if next_assump is not None:
                self.trail_lim.append(len(self.trail))
                self._enqueue(next_assump, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                return True
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.saved[var] else -var, None)

    def model(self) -> dict:
        """Total assignment (unassigned vars take their saved phase)."""
        m = {}
        for v in range(1, self.nvars + 1):
            if v in self.assign:
                m[v] = 1 if self.assign[v] else 0
            else:
                m[v] = 1 if self.saved[v] else 0
        return m

