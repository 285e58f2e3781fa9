"""Identity and acceptance-criteria record of the working tree against a
parent revision.

Usage: python3 tools/ab.py PARENT_REV

Extracts ``git archive PARENT_REV`` into a temporary directory, then:

1. runs this checkout's ``tools/identity.py`` on the parent tree and on
   the working tree, each in a fresh process, and prints
   ``identity.py --compare`` of the two records;
2. runs ``tests/test_acceptance.py -s`` on both trees, each with its own
   ``src`` first on ``PYTHONPATH``, and prints the criterion lines side
   by side, with ``*`` marking a criterion whose line differs.

Exits 1 if a function differs (see identity.py), if a criterion line on
either tree is missing or not PASS, or if pytest fails on either tree,
and 0 otherwise.  Benchmark pairs are out of scope: run ``bench/run.py``
on both trees for those.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
CRITERION = re.compile(r"criterion (\d+): (.*)")


def identity(tree: Path, out: Path):
    with out.open("w") as f:
        subprocess.run([sys.executable, str(TOOLS / "identity.py"),
                        str(tree)], stdout=f, check=True)


def criteria(tree: Path):
    """Criterion number -> the text after "criterion N: ", and pytest's
    exit status."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p",
         "no:cacheprovider", "tests/test_acceptance.py"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = {int(m[1]): m[2] for m in map(CRITERION.search,
                                          run.stdout.splitlines()) if m}
    return lines, run.returncode


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/ab.py PARENT_REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        subprocess.run(["git", "-C", str(ROOT), "archive", "-o",
                        str(tmp / "parent.tar"), argv[0]], check=True)
        with tarfile.open(tmp / "parent.tar") as tar:
            tar.extractall(parent, filter="data")

        records = [tmp / "parent.json", tmp / "change.json"]
        for tree, out in zip((parent, ROOT), records):
            identity(tree, out)
        print(f"== identity: {argv[0]} -> working tree", flush=True)
        differs = subprocess.run(
            [sys.executable, str(TOOLS / "identity.py"), "--compare",
             *map(str, records)]).returncode

        (lines_a, status_a), (lines_b, status_b) = map(criteria,
                                                       (parent, ROOT))
        print(f"== criteria: {argv[0]} | working tree")
        failing = bool(status_a or status_b)
        for num in sorted(set(lines_a) | set(lines_b)):
            a, b = (lines.get(num, "missing") for lines in (lines_a, lines_b))
            failing |= not (a.startswith("PASS") and b.startswith("PASS"))
            if a == b:
                print(f"  criterion {num}: {a}")
            else:
                print(f"* criterion {num}: {a} | {b}")
        if status_a or status_b:
            print(f"pytest exit status: {status_a} | {status_b}")
    return 1 if differs or failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
