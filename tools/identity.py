"""Identity record of the benchmark's workloads for one source tree.

Usage: python3 tools/identity.py SRC_ROOT
       python3 tools/identity.py --compare A.json B.json

SRC_ROOT is the root of a checkout (it holds src/ and bench/).  The
script imports skolemkit from SRC_ROOT/src and the workloads from
SRC_ROOT/bench, runs rounds 0-1 of seeds 1-3 of every workload in this
process, and prints one JSON object: job label -> [sha1 of the job's
outputs, Solver.solve calls], followed by the sha1 of the output truth
tables when the job's output holds Skolem vectors or circuits (see
``functions``).  Reports are hashed without ``timing`` and
``outputFile``, which vary from run to run, and without the oracle's
``calls``, which the solve count already holds.  Run it on two trees, for
example a ``git archive`` of the parent commit and the working tree, and
diff the outputs: a change that keeps the program's behaviour prints the
same object on both, and a change that rewrites circuits but keeps what
they compute prints the same solve counts and truth-table digests.

``--compare A.json B.json`` reads two saved records and sorts each label
into one of four classes: identical, solves differ (same output),
output differs with the same truth-table digest, or function differs (a
different truth-table digest, an output difference without one, or a
label on one side only).  It prints the labels of each class and the
solve totals per workload, and exits 1 if any function differs.

The record also covers code that the workloads do not reach, under the
label prefix ``extra/``:

* ``skolemkit count`` reports on planted and factor specs written by
  ``skolemkit gen``;
* the learner's XOR tier (``VECTOR_LIMIT`` set to 0): candidate pools
  and ``synth_unique_bit`` at fixed sizes;
* ``slivovsky_synth`` on small specs whose every output bit is unique;
* ``synth_cover`` then ``verify_skolem`` on specs with more than one y
  per x (factor, trap) and on planted(16, 10, 4) seed 1, whose counting
  trials end in empty cells;
* the emitted ``bphp_lexfirst_skolem`` vectors of bPHP (3,1), (4,1),
  (3,2), (5,2) and (9,3), the lexFirstSize denominators of acceptance
  criterion 10;
* the emitted ``synth_lex`` vector of factor(7), a selector over 2^14
  output tuples, more than any workload's;
* the answer and ``Solver.conflicts`` of the refutation of the error
  formula of the lex vectors of factor(5), factor(6) and trap(10, 8, 4)
  seed 1: ``lex-factor``'s outputs do not depend on the search;
* the answer, ``Solver.conflicts`` and the steps of
  ``expand_chains(empty_chain)`` of proof-logging refutations of the
  bPHP(5,2) interpolation pair and the factor(4) lex error formula, each
  rewritten with repeated literals, added tautologies and a declared
  ``nvars`` below its largest variable, so that the two trees'
  normalization of the clauses a solver loads is compared;
* the CSV of ``skolemkit interp-exp --m 1..2``;
* acceptance criterion 8's ``bounded_width_refute`` on the bPHP
  interpolation pairs (5,2) at w = 2..5 and (3,1) at w = 0 and 2: the
  verdict and the steps of the width proof;
* the internal solver's four refutation sites in proof mode: an empty
  clause, a falsified pending unit, a clause false at the root (added
  after a SAT answer) and a conflict at level 0, each recorded as the
  steps of ``expand_chains(empty_chain)``;
* ``write_qdimacs`` of one spec per generator family;
* ``skolemkit synth --strategy cover``, ``verify`` (of that synthesized
  vector), ``check-unique --bit 1`` and ``count --project x`` on the
  "exec:" backend, whose solver is the brute-force ``MINI_SOLVER`` script
  of ``tests/conftest.py``, on a 2-input AND spec and on ``gen planted
  --n 3 --m 2 --k 2``; each record keeps the report's oracle calls,
  which no Solver.solve run counts on that backend.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
SEEDS = (1, 2, 3)
ROUNDS = 2
VOLATILE = ("timing", "outputFile")
TABLE_INPUTS = 16       # wider circuits (interpolants) are not tabulated


def canonical(out, key=None):
    """A JSON-ready form of a job's output.  A report's oracle calls are
    left out: they are the job's solves, the record's second field."""
    if isinstance(out, dict):
        return {k: canonical(v, k) for k, v in sorted(out.items())
                if k not in VOLATILE
                and not (key == "oracle" and k == "calls")}
    if isinstance(out, (list, tuple)):
        return [canonical(v) for v in out]
    if hasattr(out, "steps"):                   # ResolutionProof
        return canonical(out.steps)
    if hasattr(out, "gates"):                   # Circuit
        return canonical([out.gates, out.outputs])
    return out


def circuit_tables(c):
    """(essential inputs, output truth tables over them) of a circuit.

    Inputs that no output depends on are left out, so a circuit and a
    rewrite of it that drops such an input get the same tables."""
    from skolemkit.circuits import input_masks
    names = c.input_names()
    masks = input_masks(names)
    tables = c.eval_masks(masks, 1 << len(names))
    support = []
    for pos, name in enumerate(names):
        block = 1 << (len(names) - 1 - pos)
        ones = masks[name]
        if any((t & ones) >> block != t & (ones >> block) for t in tables):
            support.append(name)
    support.sort()
    assign = {**dict.fromkeys(names, 0), **input_masks(support)}
    return [support, list(c.eval_masks(assign, 1 << len(support)))]


def functions(out) -> list:
    """Truth tables of the Skolem vectors (as emitted text) and circuits
    in a job's output, in order; vectors and circuits over more than
    TABLE_INPUTS inputs are skipped."""
    from skolemkit.formula import parse_aiger, parse_skolem
    if isinstance(out, (list, tuple)):
        return [t for v in out for t in functions(v)]
    if isinstance(out, str) and out.startswith(("skolem ", "aag ")):
        vec = (parse_aiger if out.startswith("aag ") else parse_skolem)(out)
        return [vec.eval_masks()] if vec.n <= TABLE_INPUTS else []
    if hasattr(out, "gates") and len(out.input_names()) <= TABLE_INPUTS:
        return [circuit_tables(out)]
    return []


def extra_jobs(workdir):
    """(label, run) for the code that the workloads do not reach."""
    from skolemkit import benchgen, cli, interplab, synth, verify
    from skolemkit.circuits import Builder
    from skolemkit.cnf import Cnf
    from skolemkit.formula import Specification, emit_skolem, write_qdimacs
    from skolemkit.oracle import Oracle
    from skolemkit.solver import Solver

    # the 16 count reports: planted(12, 10, 4) with seeds 1-2 on x, y and
    # xy, factor(5) on x and y, count seeds 0 and 7
    specs = [(f"planted-{seed}", ["planted", "--n", "12", "--m", "10",
                                  "--k", "4", "--seed", str(seed)],
              ("x", "y", "xy")) for seed in (1, 2)]
    specs.append(("factor-5", ["factor", "--bits", "5"], ("x", "y")))
    for name, gen, projections in specs:
        path = os.path.join(workdir, f"{name}.qdimacs")
        if cli.main(["gen", *gen, "-o", path]) != 0:
            raise RuntimeError(f"gen {name} failed")
        for proj in projections:
            for cseed in (0, 7):
                def run(path=path, proj=proj, cseed=cseed):
                    rep = os.path.join(workdir, "count.json")
                    rc = cli.main(["count", path, "--project", proj,
                                   "--seed", str(cseed), "--json", rep])
                    if rc != 0:
                        return [rc]
                    with open(rep) as fh:
                        return [rc, json.load(fh)]
                yield f"count/{name}/{proj}/seed{cseed}", run

    # the XOR tier: the jobs run while this generator waits at their
    # yield, so inside the try they see VECTOR_LIMIT = 0
    limit = synth.VECTOR_LIMIT
    synth.VECTOR_LIMIT = 0
    try:
        for n, i, s, cases in [
                (2, 1, 1, [((1, 1), (1,))]),
                (2, 1, 2, [((0, 1), (0,)), ((1, 1), (1,))]),
                (3, 1, 1, [((1, 0, 1), (1,)), ((0, 0, 1), (0,))]),
                (1, 2, 2, [((1,), (0, 1)), ((0,), (1, 0))])]:
            def run(n=n, i=i, s=s, cases=cases):
                enc = synth.encode_bounded_circuits(n, i, s, cases)
                return synth.sample_candidate_pool(enc, 4, Oracle(), seed=5)
            yield f"xor/pool/n{n}i{i}s{s}", run
        for op in ("and_", "xor_"):
            for s in (1, 2):
                def run(op=op, s=s):
                    b = Builder()
                    spec = Specification([1, 2], [3], b.extract([b.xnor_(
                        b.inp(3), getattr(b, op)(b.inp(1), b.inp(2)))]))
                    return synth.synth_unique_bit(spec, 1, Oracle(), s0=s,
                                                  max_s=s)
                yield f"xor/unique/{op}/s{s}", run
    finally:
        synth.VECTOR_LIMIT = limit

    # slivovsky_synth on the unique specs of tests/test_interplab.py
    def xnor():
        b = Builder()
        return Specification([1], [2],
                             b.extract([b.xnor_(b.inp(1), b.inp(2))]))

    def two_outputs():
        b = Builder()
        x1, x2, y1, y2 = (b.inp(v) for v in (1, 2, 3, 4))
        return Specification([1, 2], [3, 4], b.extract([b.and_(
            b.xnor_(y1, b.and_(x1, x2)), b.xnor_(y2, b.xor_(x1, y1)))]))
    for name, make in [
            ("xnor", xnor), ("two-outputs", two_outputs),
            ("bphp-3-1", lambda: benchgen.gen_bphp(
                benchgen.BphpParams(3, 1, "paper")))]:
        def run(make=make):
            vec, sizes = interplab.slivovsky_synth(make())
            return [emit_skolem(vec), sizes]
        yield f"slivovsky/{name}", run

    # synth_cover then verify_skolem: the verdict, |S'| and the vector
    for name, make in [
            ("factor-4", lambda: benchgen.gen_factor(4)),
            ("trap-10-8-3", lambda: benchgen.gen_trap(
                benchgen.TrapParams(10, 8, 3, seed=1))[0]),
            ("planted-16", lambda: benchgen.gen_planted_cover(
                16, 10, 4, seed=1)[0])]:
        for cseed in (1, 2):
            def run(make=make, cseed=cseed):
                spec, oracle = make(), Oracle()
                vec, cover = synth.synth_cover(spec, oracle, seed=cseed)
                verdict = verify.verify_skolem(spec, vec, oracle).status
                return [verdict, len(cover), emit_skolem(vec)]
            yield f"cover/{name}/seed{cseed}", run

    # the bPHP ground truth (criterion 10's lexFirstSize) and the
    # interpolation size experiment's CSV
    for k, m, regime in [(3, 1, "interpolation"), (4, 1, "paper"),
                         (3, 2, "paper"), (5, 2, "interpolation"),
                         (9, 3, "interpolation")]:
        def run(k=k, m=m, regime=regime):
            return emit_skolem(benchgen.bphp_lexfirst_skolem(
                benchgen.BphpParams(k, m, regime)))
        yield f"bphp-truth/{k}-{m}", run

    yield "lex/factor7", lambda: emit_skolem(
        synth.synth_lex(benchgen.gen_factor(7)))

    for name, make in [
            ("factor-5", lambda: benchgen.gen_factor(5)),
            ("factor-6", lambda: benchgen.gen_factor(6)),
            ("trap-10-8-4", lambda: benchgen.gen_trap(
                benchgen.TrapParams(10, 8, 4, seed=1))[0])]:
        def run(make=make):
            spec = make()
            s = Solver(verify.build_error_formula(spec, synth.synth_lex(spec)))
            return [s.solve(), s.conflicts]
        yield f"search/{name}", run

    def messy(cnf, seed):
        """cnf with literals repeated, tautologies added and half its
        nvars declared: the same formula to a solver."""
        rng = random.Random(seed)
        clauses = []
        for c in cnf.clauses:
            c = list(c)
            if c and rng.random() < 0.3:
                c.insert(rng.randrange(len(c) + 1), rng.choice(c))
            clauses.append(c)
            if rng.random() < 0.1:
                v = rng.randint(1, cnf.nvars)
                clauses.append([v, *c, -v])
        return Cnf(cnf.nvars // 2, clauses)
    for name, make in [
            ("bphp-5-2", lambda: benchgen.bphp_interpolation_pair(
                benchgen.BphpParams(5, 2)).combined()),
            ("factor-4", lambda: verify.build_error_formula(
                benchgen.gen_factor(4),
                synth.synth_lex(benchgen.gen_factor(4))))]:
        def run(make=make):
            s = Solver(messy(make(), 1), log_proof=True)
            return [s.solve(), s.conflicts,
                    interplab.expand_chains(s.empty_chain)]
        yield f"load/{name}", run

    def run():
        path = os.path.join(workdir, "interp.csv")
        rc = cli.main(["interp-exp", "--m", "1..2", "-o", path])
        return [rc, Path(path).read_text()]
    yield "interp-exp", run

    # criterion 8: width-bounded saturation, saturated or refuted
    for k, m, widths in [(5, 2, (2, 3, 4, 5)), (3, 1, (0, 2))]:
        for w in widths:
            def run(k=k, m=m, w=w):
                pair = benchgen.bphp_interpolation_pair(
                    benchgen.BphpParams(k, m))
                return interplab.bounded_width_refute(pair.combined(), w)
            yield f"width/{k}-{m}/w{w}", run

    # the solver's refutation sites; root-false adds its clause after SAT
    for name, clauses, later in [
            ("empty", [[1, 2], []], None), ("pending", [[1], [-1]], None),
            ("root-false", [[1], [1, 2]], [-1]),
            ("level0", [[1], [-1, 2], [-1, -2]], None)]:
        def run(clauses=clauses, later=later):
            cnf = Cnf(2)
            for c in clauses:
                cnf.add(c)
            s = Solver(cnf, log_proof=True)
            if later is not None:
                s.solve()
                s.add_clause(later)
            s.solve()
            return interplab.expand_chains(s.empty_chain)
        yield f"refute/{name}", run

    # write_qdimacs of one spec per generator family
    for name, make in [
            ("bphp", lambda: benchgen.gen_bphp(benchgen.BphpParams(3, 1))),
            ("trap", lambda: benchgen.gen_trap(
                benchgen.TrapParams(10, 8, 3, seed=1))[0]),
            ("factor", lambda: benchgen.gen_factor(4)),
            ("planted", lambda: benchgen.gen_planted_cover(
                12, 10, 4, seed=1)[0])]:
        yield f"qdimacs/{name}", lambda make=make: write_qdimacs(make())

    # the exec: backend through the CLI, on a brute-force stub solver
    stub_spec = importlib.util.spec_from_file_location(
        "stub_solvers", TESTS / "conftest.py")
    stubs = importlib.util.module_from_spec(stub_spec)
    stub_spec.loader.exec_module(stubs)
    solver = "exec:" + stubs._script(Path(workdir) / "mini.py",
                                     stubs.MINI_SOLVER)
    b = Builder()
    and_spec = Specification([1, 2], [3], b.extract([b.xnor_(
        b.inp(3), b.and_(b.inp(1), b.inp(2)))]))
    and_path = os.path.join(workdir, "and.qdimacs")
    Path(and_path).write_text(write_qdimacs(and_spec))
    planted_path = os.path.join(workdir, "planted-3.qdimacs")
    if cli.main(["gen", "planted", "--n", "3", "--m", "2", "--k", "2",
                 "-o", planted_path]) != 0:
        raise RuntimeError("gen planted-3 failed")
    for name, path in [("and", and_path), ("planted-3", planted_path)]:
        vec = os.path.join(workdir, f"{name}.skolem")
        for command, args in [
                ("synth", ["--strategy", "cover", "-o", vec]),
                ("verify", [vec]), ("check-unique", ["--bit", "1"]),
                ("count", ["--project", "x"])]:
            def run(name=name, command=command, path=path, args=args,
                    vec=vec):
                rep = os.path.join(workdir, f"{name}-{command}.json")
                rc = cli.main([command, path, *args, "--solver", solver,
                               "--json", rep])
                report = json.loads(Path(rep).read_text())
                out = [rc, report, report["oracle"]["calls"]]
                if command == "synth":
                    out.append(Path(vec).read_text())
                return out
            yield f"exec/{name}/{command}", run


CLASSES = ("identical", "solves differ", "output differs, same function",
           "function differs")


def classify(a, b) -> str:
    """The class of one label's records [digest, solves, tables digest?]
    on two trees; None stands for a label missing on that side."""
    if a == b:
        return CLASSES[0]
    if a is None or b is None or a[2:] != b[2:]:
        return CLASSES[3]
    if a[0] == b[0]:
        return CLASSES[1]
    return CLASSES[2] if a[2:] else CLASSES[3]


def compare(path_a, path_b) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    classes = {c: [] for c in CLASSES}
    totals = {}
    for label in sorted(set(a) | set(b)):
        classes[classify(a.get(label), b.get(label))].append(label)
        tot = totals.setdefault(label.split("/")[0], [0, 0])
        for side, rec in enumerate((a.get(label), b.get(label))):
            tot[side] += rec[1] if rec else 0
    for c, labels in classes.items():
        print(f"{c}: {len(labels)}")
        if c != CLASSES[0]:
            for label in labels:
                print(f"  {label}: {a.get(label)} -> {b.get(label)}")
    for workload, (sa, sb) in totals.items():
        print(f"solves {workload}: {sa} -> {sb}")
    return 1 if classes[CLASSES[3]] else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        print("usage: python3 tools/identity.py SRC_ROOT\n"
              "       python3 tools/identity.py --compare A.json B.json",
              file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    # truth tables over 14 or more inputs print with more than 4300 digits
    sys.set_int_max_str_digits(0)
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import tracing
    import workloads

    solves = Counter()
    undo = tracing.count_solves(solves)
    record = {}

    def run_job(label, run):
        s0 = solves["solves"]
        tables = []
        try:
            out = run()
            text = json.dumps(canonical(out), sort_keys=True)
            digest = hashlib.sha1(text.encode()).hexdigest()
            tables = functions(out)
        except workloads.JobFailed as e:
            digest = f"failed: {e}"
        except Exception as e:    # a broken tree still gets a full record
            digest = f"raised: {type(e).__name__}: {e}"
        record[label] = [digest, solves["solves"] - s0]
        if tables:
            text = json.dumps(canonical(tables), sort_keys=True)
            record[label].append(hashlib.sha1(text.encode()).hexdigest())

    try:
        with tempfile.TemporaryDirectory() as workdir:
            for name, cls in workloads.WORKLOADS.items():
                for seed in SEEDS:
                    workload, seen = cls(), set()
                    for rnd in range(ROUNDS):
                        for job in workload.make_round(seed, rnd, workdir,
                                                       seen):
                            run_job(f"{name}/{seed}/{job.label}", job.run)
            for label, run in extra_jobs(workdir):
                run_job(f"extra/{label}", run)
    finally:
        undo()
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
