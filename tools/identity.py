"""Identity record of the benchmark's workloads for one source tree.

Usage: python3 tools/identity.py SRC_ROOT

SRC_ROOT is the root of a checkout (it holds src/ and bench/).  The
script imports skolemkit from SRC_ROOT/src and the workloads from
SRC_ROOT/bench, runs rounds 0-1 of seeds 1-3 of every workload in this
process, and prints one JSON object: job label -> [sha1 of the job's
outputs, Solver.solve calls].  Reports are hashed without ``timing`` and
``outputFile``, which vary from run to run.  Run it on two trees, for
example a ``git archive`` of the parent commit and the working tree, and
diff the outputs: a change that keeps the program's behaviour prints the
same object on both.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

SEEDS = (1, 2, 3)
ROUNDS = 2
VOLATILE = ("timing", "outputFile")


def canonical(out):
    """A JSON-ready form of a job's output."""
    if isinstance(out, dict):
        return {k: canonical(v) for k, v in sorted(out.items())
                if k not in VOLATILE}
    if isinstance(out, (list, tuple)):
        return [canonical(v) for v in out]
    if hasattr(out, "steps"):                   # ResolutionProof
        return canonical(out.steps)
    if hasattr(out, "gates"):                   # Circuit
        return canonical([out.gates, out.outputs])
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/identity.py SRC_ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import tracing
    import workloads

    solves = Counter()
    undo = tracing.count_solves(solves)
    record = {}
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for name, cls in workloads.WORKLOADS.items():
                for seed in SEEDS:
                    workload, seen = cls(), set()
                    for rnd in range(ROUNDS):
                        for job in workload.make_round(seed, rnd, workdir,
                                                       seen):
                            s0 = solves["solves"]
                            try:
                                text = json.dumps(canonical(job.run()),
                                                  sort_keys=True)
                                digest = hashlib.sha1(
                                    text.encode()).hexdigest()
                            except workloads.JobFailed as e:
                                digest = f"failed: {e}"
                            record[f"{name}/{seed}/{job.label}"] = [
                                digest, solves["solves"] - s0]
    finally:
        undo()
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
