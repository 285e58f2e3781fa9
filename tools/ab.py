"""Identity, acceptance-criteria and benchmark record of the working tree
against a parent revision.

Usage: python3 tools/ab.py PARENT_REV [--json PATH]

Extracts ``git archive PARENT_REV`` into a temporary directory, then:

1. runs this checkout's ``tools/identity.py`` on the parent tree and on
   the working tree, each in a fresh process, and prints
   ``identity.py --compare`` of the two records;
2. runs ``tests/test_acceptance.py -s`` on both trees, each with its own
   ``src`` first on ``PYTHONPATH``, and prints the criterion lines side
   by side, with ``*`` marking a criterion whose line differs.

With ``--json PATH`` it then copies the working tree's files (tracked
and untracked, without the ignored ones) next to the parent tree and,
for every workload of ``BENCHMARK.json``, runs 10 pairs of untraced
``bench/run.py`` runs on seeds 1..10, each side from its own copy, the
side that runs first alternating with the pair, then one ``--trace 1``
run per side on seed 11.  Ten pairs is the fewest a claimed gain can
rest on (the change must win nine of them).  It prints, per end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the pairs the
change wins and the metric's bound, and writes the record to PATH in
the schema of ``BENCH_21.json``, with the traced runs under ``traced``
and ``claim`` left null.  The record also carries the run's verdict:
``identity_compare_exit``, the exit status of ``identity.py
--compare``; ``criteria``, each tree's criterion lines by number, and
``pytest_exit``, each tree's pytest exit status, under ``parent`` and
``change``; and ``exit``, the status this tool exits with.

Exits 1 if a function differs (see identity.py), if a criterion line on
either tree is missing or not PASS, if pytest fails on either tree, or
if a bench run exits nonzero, has a failed job or reports
``correct: false``; and 0 otherwise.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
CRITERION = re.compile(r"criterion (\d+): (.*)")
SIDES = ("parent", "change")
PAIRS = 10  # bench/run.py pairs per workload


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


def copy_working_tree(dest: Path):
    """The working tree's tracked and untracked files, without ignored
    ones, as they are on disk."""
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, names.decode().split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def bench_run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py process from the root of ``tree``."""
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    rec = {"workload": workload, "seed": seed, "trace": trace,
           "exit": run.returncode,
           "wall_s": round(time.perf_counter() - t0, 1)}
    try:
        rec.update(json.loads(run.stdout.splitlines()[-1]))
    except (IndexError, ValueError):
        rec.update(correct=False, attempted=0, failed=0, metrics={})
    if run.returncode:
        sys.stderr.write(run.stderr[-2000:])
    return rec


def quartiles(values) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs, n: int, metrics) -> dict:
    """BENCH_21.json's per-workload block for one workload's pairs."""
    by = {side: sorted((r for r in runs if r["side"] == side),
                       key=lambda r: r["seed"]) for side in SIDES}
    out = {"pairs": n, "seeds": f"1-{n}"}
    for key in ("attempted", "failed"):
        out[key] = {side: sum(r[key] for r in by[side]) for side in SIDES}
    out["correct"] = {side: all(r["correct"] for r in by[side])
                      for side in SIDES}
    out["exit_codes"] = {side: sorted({r["exit"] for r in by[side]})
                         for side in SIDES}
    out["metrics"] = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["metrics"].get(name, {}).get("value")
                       for r in by[side]] for side in SIDES}
        if None in vals["parent"] + vals["change"]:
            continue
        stat = {side: quartiles(vals[side]) for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        p_med = stat["parent"]["median"]
        stat.update(
            change_wins=f"{wins}/{n}",
            median_change_pct=round(
                100 * (stat["change"]["median"] - p_med) / p_med, 2)
            if p_med else None,
            bound_pct=round(100 * m["bound"], 2),
            parent_iqr=round(stat["parent"]["q3"] - stat["parent"]["q1"], 4))
        out["metrics"][name] = stat
    return out


def bench_pairs(trees: dict, parent_rev: str):
    """Run and print the pairs and traced runs; the record, and True if
    every run is clean."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    runs, traced, workloads, n = [], [], {}, PAIRS
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(1, n + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for first, side in zip((True, False), order):
                rec = bench_run(trees[side], workload, seed, 0)
                runs.append(dict(rec, side=side, first_in_pair=first))
        for side in SIDES:
            rec = bench_run(trees[side], workload, n + 1, 1)
            traced.append(dict(rec, side=side))
        workloads[workload] = summarize(
            [r for r in runs if r["workload"] == workload], n, metrics)
        print(f"== bench {workload}: {n} pairs, {parent_rev} | working tree")
        block = workloads[workload]
        for key in ("attempted", "failed", "correct", "exit_codes"):
            print(f"  {key}: {block[key]['parent']} | "
                  f"{block[key]['change']}")
        for name, stat in block["metrics"].items():
            p, c = stat["parent"], stat["change"]
            print(f"  {name}: {p['median']} [{p['q1']}, {p['q3']}] | "
                  f"{c['median']} [{c['q1']}, {c['q3']}]  change wins "
                  f"{stat['change_wins']}, {stat['median_change_pct']}% "
                  f"(bound {stat['bound_pct']}%)", flush=True)
        for rec in traced[-2:]:
            print(f"  traced {rec['side']}: exit {rec['exit']}, "
                  f"{rec['attempted']} jobs, {rec['failed']} failed")
    parent_commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", parent_rev],
        capture_output=True, text=True, check=True).stdout.strip()
    record = {
        "what": f"bench/run.py end-to-end metrics for the parent commit "
                f"and the working tree: {n} alternating untraced pairs "
                f"per workload (seeds 1-{n}), then one --trace 1 run "
                f"of every workload on each side (seed {n + 1})",
        "command": "python3 bench/run.py --workload W --seed N --trace "
                   "0 (BENCHMARK.json run_seconds), each side from its "
                   "own copy of its tree, the side that runs first "
                   "alternating with the pair",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') "
                     "over the runs of one side",
        "python": platform.python_version(),
        "machine": f"{os.cpu_count()}-CPU {platform.machine()} "
                   f"{platform.system()}; timings in calibrated "
                   f"reference seconds (bench/calibrate.py)",
        "date": datetime.date.today().isoformat(),
        "parent_commit": parent_commit,
        "claim": None,
        "workloads": workloads,
        "runs": runs,
        "traced": traced,
    }
    return record, not any(r["exit"] or r["failed"] or not r["correct"]
                           for r in runs + traced)


def main(argv) -> int:
    p = argparse.ArgumentParser(
        usage="python3 tools/ab.py PARENT_REV [--json PATH]")
    p.add_argument("parent_rev")
    p.add_argument("--json", default=None, metavar="PATH",
                   help=f"run {PAIRS} bench/run.py pairs per workload and "
                        f"write their record here (default: no bench runs)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        subprocess.run(["git", "-C", str(ROOT), "archive", "-o",
                        str(tmp / "parent.tar"), args.parent_rev], check=True)
        with tarfile.open(tmp / "parent.tar") as tar:
            tar.extractall(parent, filter="data")

        records = [tmp / "parent.json", tmp / "change.json"]
        for tree, out in zip((parent, ROOT), records):
            identity(tree, out)
        print(f"== identity: {args.parent_rev} -> working tree", flush=True)
        differs = subprocess.run(
            [sys.executable, str(TOOLS / "identity.py"), "--compare",
             *map(str, records)]).returncode

        (lines_a, status_a), (lines_b, status_b) = map(criteria,
                                                       (parent, ROOT))
        print(f"== criteria: {args.parent_rev} | working tree")
        failing = bool(status_a or status_b)
        for num in sorted(set(lines_a) | set(lines_b)):
            a, b = (lines.get(num, "missing") for lines in (lines_a, lines_b))
            failing |= not (a.startswith("PASS") and b.startswith("PASS"))
            if a == b:
                print(f"  criterion {num}: {a}")
            else:
                print(f"* criterion {num}: {a} | {b}")
        if status_a or status_b:
            print(f"pytest exit status: {status_a} | {status_b}", flush=True)

        if args.json:
            change = tmp / "change"
            change.mkdir()
            copy_working_tree(change)
            record, clean = bench_pairs({"parent": parent, "change": change},
                                        args.parent_rev)
            failing |= not clean
            record.update(
                identity_compare_exit=differs,
                criteria=dict(zip(SIDES, (lines_a, lines_b))),
                pytest_exit=dict(zip(SIDES, (status_a, status_b))),
                exit=1 if differs or failing else 0)
            with open(args.json, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    return 1 if differs or failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
