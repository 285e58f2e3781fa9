"""Stub external SAT solvers for the exec: backend tests.

Each fixture writes an executable script that reads DIMACS on standard
input and answers in SAT-competition output.
"""

import stat
import sys

import pytest

MINI_SOLVER = """#!%(python)s
import itertools, sys
lines = sys.stdin.read().splitlines()
nv = 0
clauses = []
for line in lines:
    t = line.split()
    if not t or t[0] in ("c",):
        continue
    if t[0] == "p":
        nv = int(t[2]); continue
    clauses.append([int(x) for x in t[:-1]])
for bits in itertools.product((0, 1), repeat=nv):
    m = dict(zip(range(1, nv + 1), bits))
    if all(any(m[abs(l)] == (l > 0) for l in c) for c in clauses):
        print("s SATISFIABLE")
        print("v " + " ".join(str(v if m[v] else -v)
                              for v in range(1, nv + 1)) + " 0")
        sys.exit(10)
print("s UNSATISFIABLE")
sys.exit(20)
"""

ALWAYS_UNSAT = """#!%(python)s
import sys
sys.stdin.read()
print("s UNSATISFIABLE")
sys.exit(20)
"""

SLEEPER = """#!%(python)s
import sys, time
sys.stdin.read()
time.sleep(60)
"""


def _script(path, text):
    path.write_text(text % {"python": sys.executable})
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


@pytest.fixture
def mini_solver(tmp_path):
    """A brute-force solver: correct on the few-variable queries of tests."""
    return _script(tmp_path / "mini.py", MINI_SOLVER)


@pytest.fixture
def unsat_solver(tmp_path):
    """A solver that answers UNSATISFIABLE to every query."""
    return _script(tmp_path / "unsat.py", ALWAYS_UNSAT)


@pytest.fixture
def sleepy_solver(tmp_path):
    """A solver that never answers within a test's timeout."""
    return _script(tmp_path / "sleepy.py", SLEEPER)
