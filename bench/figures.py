"""Run the benchmark over several seeds and print its reference figures.

    python3 bench/figures.py [--workloads a,b] [--seeds 1-10] [--traced]

For each workload and end-to-end metric: the median, the quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the
median, over one run per seed.  Each run lasts run.py's default, the
run_seconds of BENCHMARK.json.  With --traced, one traced run per seed
follows each untraced run, and the tracing overhead is the traced
jobs_per_s against the untraced one (both from bench/out/result-*.json).
Runs one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("cover-planted", "lex-factor", "learn-unique", "interp-bphp")


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                       text=True, check=True)
    res = json.loads(p.stdout.splitlines()[-1])
    if not res["correct"] or res["failed"]:
        print(f"{workload} seed {seed}: {res['failed']} of "
              f"{res['attempted']} jobs failed", file=sys.stderr)
    detail = HERE / "out" / f"result-{workload}-s{seed}-t{trace}.json"
    res["jobs_per_s"] = json.loads(detail.read_text())["jobs_per_s"]
    return res


def row(name, values) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
            f"{(q3 - q1) / med:.3f} |")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(NAMES))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()
    for w in args.workloads.split(","):
        plain, traced = [], []
        for seed in seeds_of(args.seeds):
            plain.append(run(w, seed, 0))
            if args.traced:
                traced.append(run(w, seed, 1))
        print(f"\n{w}: {len(plain)} runs, jobs attempted per run "
              f"{min(r['attempted'] for r in plain)}-"
              f"{max(r['attempted'] for r in plain)}, failed "
              f"{sum(r['failed'] for r in plain)}\n")
        print("| metric | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|")
        for name, m in plain[0]["metrics"].items():
            print(row(f"{name} ({m['unit']})",
                      [r["metrics"][name]["value"] for r in plain]))
        if traced:
            print("\n| per-layer metric (traced) | median |\n|---|---|")
            for name, m in traced[0]["metrics"].items():
                med = statistics.median(r["metrics"][name]["value"]
                                        for r in traced)
                if med:
                    print(f"| {name} ({m['unit']}) | {med:.4g} |")
            a = statistics.median(r["jobs_per_s"] for r in plain)
            b = statistics.median(r["jobs_per_s"] for r in traced)
            print(f"\ntracing overhead: jobs_per_s {a:.4g} untraced, "
                  f"{b:.4g} traced, {a / b - 1:+.1%} time per job")
    return 0


if __name__ == "__main__":
    sys.exit(main())
