"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

Run from the root of a checkout; skolemkit is imported from ./src.  One
process runs one job at a time (a closed loop with one caller).  Jobs
come in rounds that hold the same kinds of job; rounds run until the
jobs have been timed for ``--seconds`` (by default BENCHMARK.json's
run_seconds) and at least MIN_ROUNDS rounds are done.  Each output is checked after its job, outside the timing.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of tracing.PER_LAYER.
bench/out/ receives a fuller result file per run, and the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
# sat_solves and circuit_gates average the jobs of the first MIN_ROUNDS
# rounds, and peak_rss_mb is the peak at their end, so they rest on the
# same jobs for a seed however long the run is.
MIN_ROUNDS = 2


def run_seconds() -> float:
    """The length of a run, defined once in BENCHMARK.json."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   help="timed seconds per run (default: run_seconds of "
                   "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import skolemkit, build round 0's inputs, exit")
    return p.parse_args(argv)


def setup_probe(args) -> int:
    """The set-up a fresh process does before its first job, between two
    calibration bursts whose times go to standard output."""
    import calibrate
    before = calibrate.burst()
    import workloads
    work = OUT / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workloads.WORKLOADS[args.workload]().make_round(args.seed, 0,
                                                        str(work), set())
    finally:
        shutil.rmtree(work)
    print(json.dumps([before, calibrate.burst()]))
    return 0


def measure_setup(args) -> list:
    """(wall seconds, reference seconds) of SETUP_PROBES fresh processes
    doing the set-up, burst time left out."""
    import calibrate
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: Popen.wait with one polls in steps up to 50 ms
        p = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                           text=True)
        wall = time.perf_counter() - t0
        before, after = json.loads(p.stdout.splitlines()[-1])
        wall -= before + after
        times.append((wall, wall * calibrate.scale(before, after)))
    return times


def run_jobs(args, workload, workdir, tracer, solves):
    """Run whole rounds; returns the per-run record."""
    import calibrate
    import checks
    rec = {"attempted": 0, "failed": 0, "correct": True, "job_s": [],
           "passed": 0, "count_solves": [], "count_gates": [], "rounds": 0,
           "check_s": 0.0, "job_ref_s": [], "rate_jobs": 0, "rate_s": 0.0,
           "check_rss_rise_mb": 0.0}
    # jobs_per_s rests on every round, or on the first MIN_ROUNDS only
    # where later rounds differ in kind (see workloads.LexFactor)
    rate_rounds = (MIN_ROUNDS if getattr(workload, "rate_on_first_rounds",
                                         False) else None)
    seen = set()
    timed = 0.0
    while rec["rounds"] < MIN_ROUNDS or timed < args.seconds:
        rnd = rec["rounds"]
        for job in workload.make_round(args.seed, rnd, str(workdir), seen):
            rec["attempted"] += 1
            s0 = solves["solves"]
            before = calibrate.burst()
            if tracer:
                tracer.job, tracer.enabled = rec["attempted"] - 1, True
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception:           # the program failed; keep going
                out = None
                traceback.print_exc()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            scale = calibrate.scale(before, calibrate.burst())
            if tracer:
                tracer.end_job(scale)
            rec["job_ref_s"].append(dt * scale)
            in_rate = rate_rounds is None or rnd < rate_rounds
            if in_rate:
                rec["rate_s"] += dt * scale
            timed += dt
            rec["job_s"].append(dt)
            if out is None:
                rec["failed"] += 1
                print(f"job {job.label}: failed", file=sys.stderr)
                continue
            t0 = time.perf_counter()
            rss0 = max_rss_mb()
            try:
                gates = job.check(out)
            except checks.CheckError as e:
                rec["failed"] += 1
                rec["correct"] = False
                print(f"job {job.label}: wrong output: {e}", file=sys.stderr)
                continue
            finally:
                rec["check_s"] += time.perf_counter() - t0
                if rnd < MIN_ROUNDS:
                    # a rise here would mean the check, not the program,
                    # set peak_rss_mb
                    rec["check_rss_rise_mb"] += max_rss_mb() - rss0
            rec["passed"] += 1
            if in_rate:
                rec["rate_jobs"] += 1
            if rnd < MIN_ROUNDS:
                rec["count_solves"].append(solves["solves"] - s0)
                rec["count_gates"].append(gates)
        rec["rounds"] += 1
        if rec["rounds"] == MIN_ROUNDS:
            rec["peak_rss_mb"] = max_rss_mb()
    rec["timed_s"] = timed
    rec["ref_s"] = sum(rec["job_ref_s"])
    return rec


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skolemkit" / "__init__.py").is_file():
        print(f"bench: no skolemkit sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds()
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        return setup_probe(args)
    import workloads
    import tracing
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup_times = [] if args.trace else measure_setup(args)
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    solves = Counter()
    undo = (tracing.install(tracer) if tracer
            else tracing.count_solves(solves))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rec = run_jobs(args, workload, workdir, tracer, solves)
    finally:
        undo()
        shutil.rmtree(workdir)

    jobs_per_s = rec["rate_jobs"] / rec["rate_s"]
    if tracer:
        metrics = tracing.layer_metrics(tracer, rec["attempted"])
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "jobs_per_s": jobs_per_s,
            "sat_solves": statistics.fmean(rec["count_solves"] or [0]),
            "circuit_gates": statistics.fmean(rec["count_gates"] or [0]),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        units = {"setup_s": "s", "jobs_per_s": "1/s",
                 "sat_solves": "count/job", "circuit_gates": "count/job",
                 "peak_rss_mb": "MB"}
    result = {"correct": rec["correct"], "attempted": rec["attempted"],
              "failed": rec["failed"],
              "metrics": {name: {"value": v, "unit": units[name]}
                          for name, v in metrics.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, rounds=rec["rounds"],
                  timed_s=rec["timed_s"], check_s=rec["check_s"],
                  ref_s=rec["ref_s"], jobs_per_s=jobs_per_s,
                  rate_jobs=rec["rate_jobs"], rate_ref_s=rec["rate_s"],
                  check_rss_rise_mb=rec["check_rss_rise_mb"],
                  wall_jobs_per_s=rec["passed"] / rec["timed_s"],
                  setup_probes_wall_ref_s=setup_times, job_s=rec["job_s"],
                  job_ref_s=rec["job_ref_s"])
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}"
              ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"bench: {args.workload} seed {args.seed}: {rec['passed']} jobs "
          f"in {rec['rounds']} rounds, {rec['timed_s']:.2f} s timed "
          f"({rec['ref_s']:.2f} reference s), {jobs_per_s:.4f} jobs/s "
          f"over {rec['rate_jobs']} jobs",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
