"""Incremental CDCL SAT solver with optional resolution-chain logging.

Watched literals, activity-based decisions with phase saving, Luby
restarts, 1UIP clause learning.  Learning is done on explicit literal
sets so that every learned clause carries the exact sequence of binary
resolution steps that derives it; the same walk at level 0 derives the
empty clause, so a refutation can be replayed as a checkable proof.

State lives in flat lists, as in MiniSat (Eén & Sörensson, SAT 2003).
Level, reason, saved phase and activity are indexed by variable.  Values
and watch lists are indexed by literal: a list of length 2*cap + 1 holds
literal v at index v and literal -v, through Python's negative indexing,
at index 2*cap + 1 - v.  ``ensure_vars`` doubles the capacity, so every
literal must pass through it before it is looked up.  A clause of two or
more literals holds its two watched literals in the slots w0 and w1 and
sits once in each of their watch lists; propagation keeps the literal
just made false in w1.  The decision heap holds (-activity, var)
entries, valid while they match the variable's activity; an entry is
pushed when its variable is unassigned, since every bumped variable is
assigned.  The 1UIP loop counts the current-level literals of the clause
being derived (Zhang et al., ICCAD 2001) instead of recounting them
after every resolution.
"""

from __future__ import annotations

from heapq import heappush, heappop
from operator import neg

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
    __slots__ = ("lits", "chain", "w0", "w1")

    def __init__(self, lits, chain=None):
        self.lits = lits
        self.chain = chain  # (start_cl, [(reason_cl, pivot_var), ...]) or None
        self.w0 = self.w1 = None  # the two watched literals


class Solver:
    def __init__(self, cnf: Cnf = None, log_proof: bool = False):
        self.nvars = 0
        self.log_proof = log_proof
        # by literal (length 2*cap + 1): True, False or None when unassigned
        self.vals: list = [None]
        self.watches: list[list] = [[]]
        # by variable (length cap + 1)
        self.level: list[int] = [0]
        self.reason: list = [None]  # stale once the variable is unassigned
        self.saved: list[bool] = [False]
        self.activity: list[float] = [0.0]
        # the activity of var's one entry known to be in the heap, or None
        self.live: list = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.heap: list = []
        self.unsat = False
        self.empty_chain = None  # chain deriving the empty clause
        self.conflicts = 0
        self.pending_units: list = []  # (lit, clause) to enqueue at level 0
        self.resume = None  # assumptions of the SAT answer the trail holds
        if cnf is not None:
            self.ensure_vars(cnf.nvars)
            for c in cnf.clauses:
                self.add_clause(c)

    # ---------- setup ----------

    def ensure_vars(self, n: int):
        if n <= self.nvars:
            return
        cap = len(self.level) - 1
        if n > cap:
            new = max(n, 2 * cap)
            extra = new - cap
            # literals -cap..-1 sit at the end; keep them there
            self.vals = (self.vals[:cap + 1] + [None] * (2 * extra)
                         + self.vals[cap + 1:])
            self.watches = (self.watches[:cap + 1]
                            + [[] for _ in range(2 * extra)]
                            + self.watches[cap + 1:])
            self.level += [0] * extra
            self.reason += [None] * extra
            self.saved += [False] * extra
            self.activity += [0.0] * extra
            self.live += [None] * extra
        self.nvars = n

    def _watch(self, cl: _Clause, a: int, b: int):
        cl.w0, cl.w1 = a, b
        self.watches[a].append(cl)
        self.watches[b].append(cl)

    def add_clause(self, lits):
        """Add a clause.  External calls must happen between solve() calls;
        the solver backtracks to the root level first, except for a
        clause that the total assignment of a SAT answer falsifies, such
        as a blocking clause.  Outside proof mode that clause is attached
        like a learned one: the solver backjumps to its second-highest
        level and asserts its top literal when that is alone on its
        level, or else backjumps to one below the top level.  The next
        solve under the same assumptions then goes on from the trail, so
        a cell's models are enumerated without restarts (Toda & Soh, ACM
        JEA 2016).  A blocking clause is not implied, so a proof-logging
        solver always takes the root-level path."""
        clause = list(dict.fromkeys(lits))
        self.ensure_vars(max(map(abs, clause), default=0))
        if not set(clause).isdisjoint(map(neg, clause)):
            return None  # tautology
        cl = _Clause(tuple(clause))
        if not clause:
            self._refute(cl)
            return cl
        vals, level = self.vals, self.level
        if (self.trail_lim and not self.log_proof and len(clause) > 1
                and all(vals[l] is False for l in clause)):
            clause.sort(key=lambda l: -level[abs(l)])
            top, second = level[abs(clause[0])], level[abs(clause[1])]
            if top:
                self._backjump(second if top > second else top - 1)
                cl = self._learn(clause, None)
                if top > second:
                    self._enqueue(clause[0], cl)
                return cl
        self._backjump(0)
        nonfalse = [l for l in clause if vals[l] is not False]
        if not nonfalse:
            self._refute(cl)
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

    def _learn(self, lits, chain) -> _Clause:
        """Attach a learned clause of distinct literals over existing
        variables, watching lits[0] and lits[1] (see solve)."""
        cl = _Clause(tuple(lits), chain)
        if len(lits) > 1:
            self._watch(cl, lits[0], lits[1])
        return cl

    # ---------- assignment primitives ----------

    def _enqueue(self, lit: int, reason):
        var = abs(lit)
        self.vals[lit] = True
        self.vals[-lit] = False
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self):
        trail, vals, watches = self.trail, self.vals, self.watches
        level, reason = self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchlist = watches[false_lit]
            i = 0
            n = len(watchlist)
            while i < n:
                cl = watchlist[i]
                other = cl.w0
                if other == false_lit:  # keep false_lit in w1
                    other = cl.w0 = cl.w1
                    cl.w1 = false_lit
                v_other = vals[other]
                if v_other is True:
                    i += 1
                    continue
                # look for a replacement watch (false_lit itself is False)
                for cand in cl.lits:
                    if vals[cand] is not False and cand != other:
                        cl.w1 = cand
                        watches[cand].append(cl)
                        n -= 1
                        last = watchlist.pop()
                        if i < n:
                            watchlist[i] = last
                        break
                else:
                    if v_other is False:
                        self.qhead = qhead
                        return cl  # conflict
                    vals[other] = True
                    vals[-other] = False
                    var = other if other > 0 else -other
                    level[var] = lvl
                    reason[var] = cl
                    trail.append(other)
                    i += 1
        self.qhead = qhead
        return None

    # ---------- heuristics ----------

    def _bump(self, variables):
        """Raise the activity of each variable in turn.  Every variable
        bumped is assigned, so its entry is pushed when it is unassigned."""
        activity, live, inc = self.activity, self.live, self.var_inc
        for var in variables:
            activity[var] += inc
            if activity[var] > 1e100:
                activity[:] = [a * 1e-100 for a in activity]
                inc *= 1e-100
                # entries of activity 0 are the only ones still valid
                live[:] = [a if a == 0 else None for a in live]
            live[var] = None
        self.var_inc = inc

    def _decay(self):
        self.var_inc /= 0.95

    def _pick_branch_var(self):
        heap, vals, activity, live = (self.heap, self.vals, self.activity,
                                      self.live)
        while heap:
            negact, var = heappop(heap)
            if -negact == activity[var]:
                live[var] = None
                if vals[var] is None:
                    return var
        for var in range(1, self.nvars + 1):
            if vals[var] is None:
                return var
        return None

    # ---------- conflict analysis ----------

    def _analyze(self, conflict: _Clause):
        """1UIP learning on explicit literal sets.

        Returns (learned_lits ordered by decreasing level, backjump_level,
        chain) where chain mirrors the performed resolutions.  At level 0
        the walk resolves every literal away: the learned clause is empty
        and chain derives it from a conflict clause false at the root.
        """
        trail, level, reason = self.trail, self.level, self.reason
        cur_level = len(self.trail_lim)
        lits = set(conflict.lits)
        n_cur = sum(1 for l in lits if level[abs(l)] == cur_level)
        chain = [] if self.log_proof else None
        bumped = []  # resolved variables, then the learned clause's
        idx = len(trail) - 1
        stop = 1 if cur_level else 0  # level 0 has no decision
        while n_cur > stop:
            # A level starts with its one literal without a reason, a
            # decision or an assumption; every later literal has one.  Of
            # two or more current-level literals in lits, the latest on
            # the trail is therefore implied, so the loop ends with
            # exactly one, the first UIP.
            while -trail[idx] not in lits:
                idx -= 1
            t = trail[idx]
            idx -= 1
            var = abs(t)
            r = reason[var]
            rest = [x for x in r.lits if x != t]
            for x in rest:
                if x not in lits and level[abs(x)] == cur_level:
                    n_cur += 1
            n_cur -= 1
            # the set's iteration order orders ties in the learned clause,
            # and so its watches: keep exactly these set operations
            lits.discard(-t)
            lits |= set(rest)
            bumped.append(var)
            if chain is not None:
                chain.append((r, var))
        learned = sorted(lits, key=lambda l: -level[abs(l)])
        bumped += map(abs, learned)
        self._bump(bumped)
        bj = level[abs(learned[1])] if len(learned) > 1 else 0
        return (learned, bj,
                (conflict, chain) if chain is not None else None)

    def _refute(self, cl: _Clause):
        """cl is empty or false at level 0: the formula is unsatisfiable.
        In proof mode, _analyze derives the empty clause from cl."""
        self.unsat = True
        if self.log_proof:
            self.empty_chain = self._analyze(cl)[2]

    def _backjump(self, lvl: int):
        trail_lim = self.trail_lim
        if len(trail_lim) > lvl:
            trail, vals = self.trail, self.vals
            saved, activity, heap = self.saved, self.activity, self.heap
            live = self.live
            lim = trail_lim[lvl]
            for lit in trail[lim:]:
                var = abs(lit)
                saved[var] = lit > 0
                vals[lit] = vals[-lit] = None
                if live[var] != activity[var]:
                    heappush(heap, (-activity[var], var))
                    live[var] = activity[var]
            del trail[lim:]
            del trail_lim[lvl:]
        self.qhead = min(self.qhead, len(self.trail))

    # ---------- main ----------

    def solve(self, assumptions=(), max_conflicts=None) -> bool:
        """Decide satisfiability under ``assumptions``.

        On True, ``model()`` returns a satisfying total assignment.  On
        False without assumptions the formula is unsatisfiable (with a
        loggable refutation in proof mode); with assumptions, it is
        unsatisfiable under them.  Assumptions may name variables that no
        clause mentions yet.
        """
        self.ensure_vars(max(map(abs, assumptions), default=0))
        if self.unsat:
            return False
        assumptions = tuple(assumptions)
        if self.log_proof or assumptions != self.resume:
            self._backjump(0)
        self.resume = None
        vals = self.vals
        for lit, cl in self.pending_units:
            val = vals[lit]
            if val is False:
                self._refute(cl)
                return False
            if val is None:
                self._enqueue(lit, cl)
        self.pending_units = []
        conflict_budget = 0
        restarts = 0
        local_conflicts = 0
        trail, trail_lim, saved = self.trail, self.trail_lim, self.saved
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
                if len(trail_lim) == 0:
                    self._refute(conflict)
                    return False
                learned, bj, chain = self._analyze(conflict)
                self._decay()
                # learned[0] is the one current-level literal (asserting),
                # learned[1] a backjump-level literal
                self._backjump(bj)
                self._enqueue(learned[0], self._learn(learned, chain))
                if conflict_budget >= 100 * luby(restarts):
                    restarts += 1
                    conflict_budget = 0
                    self._backjump(0)
                continue
            next_assump = None
            for a in assumptions:
                val = vals[a]
                if val is False:
                    self._backjump(0)
                    return False
                if val is None:
                    next_assump = a
                    break
            if next_assump is not None:
                trail_lim.append(len(trail))
                self._enqueue(next_assump, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                self.resume = assumptions
                return True
            trail_lim.append(len(trail))
            self._enqueue(var if saved[var] else -var, None)

    def model(self) -> dict:
        """Total assignment (unassigned vars take their saved phase)."""
        vals, saved = self.vals, self.saved
        m = {}
        for v in range(1, self.nvars + 1):
            val = vals[v]
            m[v] = 1 if (saved[v] if val is None else val) else 0
        return m
