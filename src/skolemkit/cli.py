"""Command-line entry point.

Subcommands: synth, verify, check-unique, gen, count, interp-exp.
Exit codes: 0 success, 10 counterexample / invalid / not unique,
20 resource limit exceeded, 64 usage, input or output error.  A JSON run
report is produced on exits 0 and 10 ("--json PATH", "-" for standard
output).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import benchgen, synth
from .circuits import vector_from_circuits
from .formula import (parse_aiger, parse_spec, parse_skolem, emit_skolem,
                      write_qdimacs)
from .oracle import Oracle, ExternalSolverError, approx_count_projected
from .solver import ResourceLimitError
from .verify import verify_skolem, check_unique

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 10
EXIT_RESOURCE = 20
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    pass


def at_least(k: int):
    """An argparse type: an integer no smaller than k."""
    def integer(text: str) -> int:
        if int(text) < k:
            raise argparse.ArgumentTypeError(
                f"must be at least {k}, not {text}")
        return int(text)
    return integer


def positive(text: str) -> float:
    """An argparse type: a finite number above 0."""
    if 0 < float(text) < float("inf"):
        return float(text)
    raise argparse.ArgumentTypeError(f"must be finite and above 0: {text}")


def _make_oracle(args) -> Oracle:
    """The run's oracle; without --solver, a set SKOLEMKIT_SOLVER means
    exec:$SKOLEMKIT_SOLVER.  Oracle rejects an unknown backend."""
    backend = args.solver
    if backend is None:
        env = os.environ.get("SKOLEMKIT_SOLVER")
        backend = f"exec:{env}" if env else "internal"
    return Oracle(backend, timeout=args.timeout)


def _load_spec(path: str):
    with open(path) as fh:
        return parse_spec(fh.read())


def _write_report(report: dict, dest: str):
    if dest is None:
        return
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)


def _base_report(args, oracle: Oracle) -> dict:
    return {"command": args.command, "seed": getattr(args, "seed", None),
            "oracle": {"calls": oracle.calls,
                       "maxQueryVars": oracle.max_query_vars,
                       "maxQueryClauses": oracle.max_query_clauses},
            "timing": {"wallTime": oracle.wall_time}}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    spec = _load_spec(args.spec)
    oracle = _make_oracle(args)
    report = {"strategy": args.strategy}
    cover = None
    if args.strategy == "lex":
        try:
            vec = synth.synth_lex(spec, m_limit=args.lex_limit)
        except ValueError as e:
            raise UsageError(str(e))
    elif args.strategy == "cover":
        vec, cover = synth.synth_cover(spec, oracle, seed=args.seed)
    elif args.strategy == "unique":
        learned = []
        for i, circuit in synth.unique_bits(spec, oracle, args.d, args.seed):
            if circuit is None:
                _write_report({**_base_report(args, oracle), **report,
                               "failedBit": i, "verdict": "not-unique"},
                              args.json)
                print(f"Y_{i} is not uniquely defined; "
                      f"unique strategy inapplicable", file=sys.stderr)
                return EXIT_COUNTEREXAMPLE
            learned.append(circuit)
        vec = vector_from_circuits(spec.n, learned)
    else:  # auto
        vec = synth.synth_auto(spec, oracle, seed=args.seed, d=args.d,
                               lex_limit=args.lex_limit)
    verdict = verify_skolem(spec, vec, oracle)
    report["circuitSize"] = vec.size
    if cover is not None:
        report["coverSize"] = len(cover)
        report["iterations"] = cover.iterations
        report["uncoveredEstimates"] = cover.uncovered_estimates
    report["verdict"] = verdict.status
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(emit_skolem(vec, args.format))
        report["outputFile"] = args.output
    _write_report({**_base_report(args, oracle), **report}, args.json)
    if not verdict.is_valid:
        print("synthesized vector failed verification", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    with open(args.skolem) as fh:
        text = fh.read()
    first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    vec = (parse_aiger if first.startswith("aag") else parse_skolem)(text)
    if vec.m != spec.m or vec.n != spec.n:
        raise UsageError(
            f"skolem vector shape ({vec.n} in / {vec.m} out) does not "
            f"match spec ({spec.n} in / {spec.m} out)")
    oracle = _make_oracle(args)
    verdict = verify_skolem(spec, vec, oracle)
    rep = _base_report(args, oracle)
    rep["verdict"] = verdict.status
    if verdict.witness:
        rep["witness"] = {str(v): b for v, b in
                          sorted(verdict.witness.items())}
        for v, b in sorted(verdict.witness.items()):
            print(f"v{v} = {b}", file=sys.stderr)
    _write_report(rep, args.json)
    return EXIT_OK if verdict.is_valid else EXIT_COUNTEREXAMPLE


def _cmd_check_unique(args) -> int:
    spec = _load_spec(args.spec)
    if not (1 <= args.bit <= spec.m):
        raise UsageError(f"--bit must be in 1..{spec.m}")
    oracle = _make_oracle(args)
    z = spec.x_vars + spec.y_vars[:args.bit - 1]
    unique = check_unique(spec, args.bit, z, oracle)
    rep = _base_report(args, oracle)
    rep["bit"] = args.bit
    rep["unique"] = unique
    _write_report(rep, args.json)
    return EXIT_OK if unique else EXIT_COUNTEREXAMPLE


def _cmd_gen(args) -> int:
    truth = None
    if args.family == "bphp":
        params = benchgen.BphpParams(args.k, args.m, args.regime)
        spec = benchgen.gen_bphp(params)
        truth = {"family": "bphp", "k": args.k, "m": args.m,
                 "skolem": emit_skolem(benchgen.bphp_lexfirst_skolem(params))}
    elif args.family == "trap":
        params = benchgen.TrapParams(args.n, args.m, args.window_bits,
                                     args.seed)
        spec, vec, info = benchgen.gen_trap(params)
        truth = {"family": "trap", "s": list(info["s"]), "h": info["h"],
                 "skolem": emit_skolem(vec)}
    elif args.family == "factor":
        spec = benchgen.gen_factor(args.bits)
        truth = {"family": "factor", "bits": args.bits, "skolem": None}
    else:  # planted
        spec, targets = benchgen.gen_planted_cover(args.n, args.m, args.k,
                                                   args.seed)
        truth = {"family": "planted", "k": args.k,
                 "targets": [list(t) for t in targets]}
    with open(args.output, "w") as fh:
        fh.write(write_qdimacs(spec))
    if args.ground_truth:
        with open(args.ground_truth, "w") as fh:
            json.dump(truth, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_count(args) -> int:
    spec = _load_spec(args.spec)
    proj = {"x": spec.x_vars, "y": spec.y_vars,
            "xy": spec.x_vars + spec.y_vars}[args.project]
    oracle = _make_oracle(args)
    est = approx_count_projected(spec.cnf, proj, args.trials, args.seed,
                                 oracle)
    rep = _base_report(args, oracle)
    rep.update({"projection": args.project, "estimate": est.estimate,
                "hashBits": est.hash_bits, "trials": est.trials})
    _write_report(rep, args.json)
    return EXIT_OK


def _parse_mrange(text: str):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            vals = list(range(int(lo), int(hi) + 1))
        else:
            vals = [int(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"bad m range {text!r} (use e.g. 1..3 or 1,2,3)")
    if not vals or any(v < 1 for v in vals):
        raise UsageError(f"bad m range {text!r}")
    return vals


def _cmd_interp_exp(args) -> int:
    rows = benchgen.interp_size_experiment(
        m_range=_parse_mrange(args.m),
        max_conflicts=args.max_conflicts)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[
        "m", "k", "proofLength", "interpolantSize", "lexFirstSize"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if args.output == "-":
        sys.stdout.write(buf.getvalue())
    else:
        with open(args.output, "w") as fh:
            fh.write(buf.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="skolemkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", default=None, metavar="PATH",
                        help="write the JSON run report ('-' for stdout)")
        sp.add_argument("--solver", default=None,
                        help="internal or exec:COMMAND (default: exec:"
                             "$SKOLEMKIT_SOLVER if set, else internal)")
        sp.add_argument("--timeout", type=positive, default=None,
                        help="per-query timeout for external solvers")

    sp = sub.add_parser("synth", help="synthesize a Skolem vector")
    sp.add_argument("spec")
    sp.add_argument("-o", "--output", default=None,
                    help="gate-list output path")
    sp.add_argument("--format", choices=["gatelist", "aiger-ascii"],
                    default="gatelist")
    sp.add_argument("--strategy", choices=["lex", "cover", "unique", "auto"],
                    default="auto")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--d", type=at_least(1), default=4,
                    help="candidate-pool multiplicity for the learner")
    sp.add_argument("--lex-limit", type=int, default=synth.LEX_LIMIT)
    common(sp)
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("verify", help="check a Skolem vector")
    sp.add_argument("spec")
    sp.add_argument("skolem")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("check-unique",
                        help="is Y_i unique given X and earlier bits?")
    sp.add_argument("spec")
    sp.add_argument("--bit", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_check_unique)

    sp = sub.add_parser("gen", help="generate a benchmark instance")
    fam = sp.add_subparsers(dest="family", required=True)
    fp = fam.add_parser("bphp")
    fp.add_argument("--k", type=int, required=True)
    fp.add_argument("--m", type=int, required=True)
    fp.add_argument("--regime", choices=["paper", "interpolation"],
                    default="interpolation")
    fp = fam.add_parser("trap")
    fp.add_argument("--n", type=int, required=True)
    fp.add_argument("--m", type=int, required=True)
    fp.add_argument("--window-bits", type=int, default=4)
    fp.add_argument("--seed", type=int, default=0)
    fp = fam.add_parser("factor")
    fp.add_argument("--bits", type=int, required=True)
    fp = fam.add_parser("planted")
    fp.add_argument("--n", type=int, required=True)
    fp.add_argument("--m", type=int, required=True)
    fp.add_argument("--k", type=int, required=True)
    fp.add_argument("--seed", type=int, default=0)
    for fname, fsub in fam.choices.items():
        fsub.add_argument("-o", "--output", required=True)
        fsub.add_argument("--ground-truth", default=None, metavar="PATH")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("count", help="approximate projected model count")
    sp.add_argument("spec")
    sp.add_argument("--project", choices=["x", "y", "xy"], default="x")
    sp.add_argument("--trials", type=int, default=9)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("interp-exp",
                        help="interpolant-size experiment over bPHP")
    sp.add_argument("--m", default="1..3", help="range, e.g. 1..3")
    sp.add_argument("-o", "--output", default="-", help="CSV path")
    sp.add_argument("--max-conflicts", type=at_least(0), default=None)
    sp.set_defaults(func=_cmd_interp_exp)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as e:
        # ValueError covers ParseError; OSError an unreadable input or
        # unwritable output path
        print(f"skolemkit: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as e:
        print(f"skolemkit: resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except ExternalSolverError as e:
        print(f"skolemkit: external solver: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
