"""Machine-speed calibration for the benchmark's timings.

On the shared 2-vCPU virtual machine the benchmark was built on, CPU
speed shifts between states that last from a fraction of a second to
minutes: the same job, or a pure-Python loop, runs up to 1.7x slower in
one state than in another.  Totals over a run do not
average this out, because a whole run can sit in one state.  So each
timing is paired with a burst of fixed pure-Python work run just before
and just after it, and scaled to the time the burst would take at the
reference speed REF_S:

    normalized = measured * REF_S / mean(burst before, burst after)

The burst is unit propagation over a fixed random 3-CNF in plain Python,
the same kind of work as skolemkit's solver, and imports nothing from
skolemkit, so no change to the program can change it.
"""

from __future__ import annotations

import random
import time

REF_S = 0.02            # burst seconds at the reference speed
_NVARS = 60
_REPS = 90
_gen = random.Random("bench/calibrate")
_CLAUSES = [[_gen.choice((1, -1)) * _gen.randrange(1, _NVARS + 1)
             for _ in range(3)] for _ in range(250)]


def burst() -> float:
    """Seconds the fixed burst takes now."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    for _ in range(_REPS):
        assign = {v: rng.getrandbits(1) == 1 for v in range(1, _NVARS + 1, 3)}
        changed = True
        while changed:
            changed = False
            for clause in _CLAUSES:
                unit, free, sat = None, 0, False
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        unit, free = lit, free + 1
                    elif val == (lit > 0):
                        sat = True
                        break
                if not sat and free == 1:
                    assign[abs(unit)] = unit > 0
                    changed = True
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two bursts into
    reference seconds."""
    return 2 * REF_S / (before + after)
