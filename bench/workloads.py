"""The benchmark's four workloads: seeded inputs, the job, its check.

A workload builds its inputs one round at a time.  Every round holds the
same kinds of job in the same order, and no two jobs of a run share an
input, so a cache keyed on the input cannot pass for faster synthesis.
Jobs call skolemkit through module attributes (``cli.main``,
``synth.synth_unique_bit``, ...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random

from skolemkit import (benchgen, circuits, cli, cnf, formula, interplab,
                       oracle, synth, verify)

import checks


class JobFailed(Exception):
    """The program exited with an error or gave no usable output."""


class Job:
    """``run()`` is the timed part; ``check(output)`` returns the gate
    count of the produced circuit or raises checks.CheckError."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _rng(*parts) -> random.Random:
    return random.Random("bench/" + "/".join(map(str, parts)))


def _fresh(seen: set, draw, key):
    """Draw until key(value) is new to the run (a redraw changes the label)."""
    for attempt in range(1000):
        value = draw(attempt)
        k = key(value)
        if k not in seen:
            seen.add(k)
            return value
    raise RuntimeError("could not draw an input distinct from the run's "
                       "earlier ones")


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _cli(*argv):
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise JobFailed(f"skolemkit {argv[0]} exited with {rc}")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------

class CoverPlanted:
    """``skolemkit synth SPEC --strategy cover`` on planted-cover specs."""

    name = "cover-planted"
    N, M, K = 12, 10, 4
    JOBS = 4

    def make_round(self, seed, rnd, workdir, seen):
        jobs = []
        for slot in range(self.JOBS):
            def draw(attempt, slot=slot):
                spec_seed = _rng(self.name, seed, rnd, slot,
                                 attempt).getrandbits(32)
                spec, targets = benchgen.gen_planted_cover(
                    self.N, self.M, self.K, seed=spec_seed)
                return spec_seed, formula.write_qdimacs(spec), targets
            spec_seed, text, targets = _fresh(seen, draw,
                                              lambda v: _digest(v[1]))
            base = os.path.join(workdir, f"cover-r{rnd}-{slot}")
            _write(base + ".qdimacs", text)
            jobs.append(self._job(base, text, targets, spec_seed))
        return jobs

    @staticmethod
    def _job(base, text, targets, spec_seed):
        def run():
            _cli("synth", base + ".qdimacs", "--strategy", "cover",
                 "--seed", spec_seed, "-o", base + ".vec",
                 "--json", base + ".json")
            return _read(base + ".vec"), json.loads(_read(base + ".json"))

        def check(out):
            vec_text, report = out
            return checks.check_cover(text, vec_text, targets,
                                      report["coverSize"])
        return Job(os.path.basename(base), run, check)


def shuffle_xy_ids(text: str, rng) -> str:
    """The same QDIMACS spec with its X and Y ids shuffled among
    themselves.  Auxiliary ids keep their order, which the reader relies
    on to rebuild gates, and the X and Y blocks keep their role order."""
    qd = checks.Qdimacs(text)
    ids = qd.xs + qd.ys
    new = dict(zip(ids, rng.sample(ids, len(ids))))

    def lits(toks):
        return " ".join(str(new.get(abs(int(t)), abs(int(t)))
                            * (1 if int(t) >= 0 else -1)) for t in toks)

    out = []
    for line in text.splitlines():
        toks = line.split()
        if toks[0] == "p" or (toks[0] == "c" and toks[1:2] != ["outputs"]):
            out.append(line)
        elif toks[0] == "c":
            out.append("c outputs " + lits(toks[2:]))
        elif toks[0] in ("a", "e"):
            out.append(toks[0] + " " + lits(toks[1:]))
        else:
            out.append(lits(toks))
    return "\n".join(out) + "\n"


class LexFactor:
    """``skolemkit synth SPEC -o VEC`` (lex) then ``skolemkit verify``.

    gen_factor takes no seed, so each round shuffles the X and Y ids of
    the factor specs to get new inputs.  The solver's effort on the
    error formula depends on the variable numbering (factor(6) copies
    take 470 to 1,010 conflicts), so the shuffles depend on the round
    only: the seed picks the trap spec and adds no factor-job variance.
    Since round r always gets the same copies, a run that finishes more
    rounds would time copies of other difficulty; jobs_per_s therefore
    rests on the first rounds only, the MIN_ROUNDS that every run does.
    """

    name = "lex-factor"
    rate_on_first_rounds = True
    FACTOR_BITS = (5, 6)
    TRAP = (10, 8, 4)        # n, m, window bits

    def make_round(self, seed, rnd, workdir, seen):
        jobs = []
        for bits in self.FACTOR_BITS:
            base_text = formula.write_qdimacs(benchgen.gen_factor(bits))
            text = _fresh(seen, lambda attempt: shuffle_xy_ids(
                base_text, _rng(self.name, rnd, bits, attempt)), _digest)
            jobs.append(self._job(workdir, f"factor{bits}-r{rnd}", text,
                                  lambda vec, bits=bits:
                                  checks.check_factor(vec, bits)))

        def draw_trap(attempt):
            n, m, w = self.TRAP
            trap_seed = _rng(self.name, seed, rnd, "trap",
                             attempt).getrandbits(32)
            spec, _, _ = benchgen.gen_trap(benchgen.TrapParams(n, m, w,
                                                               trap_seed))
            return formula.write_qdimacs(spec)
        text = _fresh(seen, draw_trap, _digest)
        jobs.append(self._job(workdir, f"trap-r{rnd}", text,
                              lambda vec, text=text:
                              checks.check_lex(text, vec)))
        return jobs

    @staticmethod
    def _job(workdir, label, text, check_vec):
        spec = os.path.join(workdir, label + ".qdimacs")
        vec = os.path.join(workdir, label + ".vec")
        _write(spec, text)

        def run():
            _cli("synth", spec, "-o", vec)
            _cli("verify", spec, vec)
            return _read(vec)
        return Job(label, run, check_vec)


class LearnUnique:
    """check_unique, synth_unique_bit(d=4, s0=3, max_s=3), verify_skolem on
    F(x, y1) = (y1 <-> T(x)), T a 3-gate circuit over 4 inputs.

    Every round learns the same catalog of targets, each under a seeded
    renaming and negation of its inputs and output: learner time varies
    far more between targets than between renamings of one target, so a
    fixed catalog keeps the job mix of a run alike across seeds.  Catalog
    targets have disjoint classes of at least MIN_ORBIT renamings, so
    that every round can draw inputs new to the run.
    """

    name = "learn-unique"
    MIN_ORBIT = 64
    # (op, left slot, right slot, negate) steps over slots x1..x4; drawn
    # from random.Random("bench/learn-unique/catalog") as 3 steps of
    # (choice of op, randrange(width), randrange(width), getrandbits(1))
    # for widths 4, 5, 6, keeping the first 8 that pass the rule above
    CATALOG = (
        (("xor", 0, 1, 1), ("or", 3, 0, 0), ("and", 2, 4, 0)),
        (("and", 0, 2, 0), ("and", 4, 1, 0), ("xor", 2, 5, 1)),
        (("or", 1, 2, 0), ("and", 3, 4, 1), ("xor", 5, 3, 0)),
        (("or", 2, 3, 1), ("xor", 1, 2, 0), ("or", 4, 5, 0)),
        (("and", 1, 2, 0), ("or", 0, 3, 1), ("xor", 1, 5, 1)),
        (("and", 0, 3, 1), ("xor", 1, 4, 1), ("or", 5, 2, 1)),
        (("or", 2, 3, 1), ("and", 2, 1, 0), ("xor", 5, 4, 0)),
        (("xor", 1, 0, 0), ("and", 3, 4, 1), ("and", 5, 2, 1)),
    )

    @staticmethod
    def orbit(steps) -> set:
        """Truth tables of every renaming and negation of a target."""
        return {checks.truth_table((perm, flips, negate, steps))
                for perm in itertools.permutations(range(4))
                for flips in itertools.product((0, 1), repeat=4)
                for negate in (0, 1)}

    def make_round(self, seed, rnd, workdir, seen):
        jobs = []
        for slot, steps in enumerate(self.CATALOG):
            def draw(attempt, steps=steps, slot=slot):
                r = _rng(self.name, seed, rnd, slot, attempt)
                perm = tuple(r.sample(range(4), 4))
                flips = tuple(r.getrandbits(1) for _ in range(4))
                negate = r.getrandbits(1)
                return (perm, flips, negate, steps), r.getrandbits(32)
            target, learn_seed = _fresh(
                seen, draw, lambda v: checks.truth_table(v[0]))
            jobs.append(self._job(f"T{slot}-r{rnd}", target, learn_seed))
        return jobs

    @staticmethod
    def spec_of(target) -> formula.Specification:
        perm, flips, negate, steps = target
        b = circuits.Builder()
        xs = [b.inp(v) for v in (1, 2, 3, 4)]
        slots = [b.not_(xs[p]) if f else xs[p] for p, f in zip(perm, flips)]
        for op, l, r, neg in steps:
            g = getattr(b, op + "_")(slots[l], slots[r])
            slots.append(b.not_(g) if neg else g)
        t = b.not_(slots[-1]) if negate else slots[-1]
        return formula.Specification(
            [1, 2, 3, 4], [5], b.extract([b.xnor_(b.inp(5), t)]))

    def _job(self, label, target, learn_seed):
        spec = self.spec_of(target)

        def run():
            orc = oracle.Oracle()
            if not verify.check_unique(spec, 1, spec.x_vars, orc):
                raise JobFailed("Y1 reported not unique")
            h = synth.synth_unique_bit(spec, 1, orc, d=4, seed=learn_seed,
                                       s0=3, max_s=3)
            vec = circuits.vector_from_circuits(spec.n, [h])
            if not verify.verify_skolem(spec, vec, orc).is_valid:
                raise JobFailed("learned bit failed verification")
            return h

        def check(h):
            return checks.check_learned(h.gates, h.outputs, target)
        return Job(label, run, check)


class InterpBphp:
    """solve_with_proof, relabel_axioms, extract_interpolant on the
    bPHP(9,3) interpolation pair with seeded pigeon permutations."""

    name = "interp-bphp"
    K, M = 9, 3
    JOBS = 4

    def make_round(self, seed, rnd, workdir, seen):
        pair = benchgen.bphp_interpolation_pair(
            benchgen.BphpParams(self.K, self.M))
        jobs = []
        for slot in range(self.JOBS):
            perm = _fresh(seen, lambda attempt, slot=slot: tuple(
                _rng(self.name, seed, rnd, slot, attempt).sample(
                    range(self.K), self.K)), lambda p: p)
            jobs.append(self._job(f"perm-r{rnd}-{slot}", pair, perm))
        return jobs

    def _job(self, label, pair, perm):
        m = self.M

        def move(lit):
            v = abs(lit) - 1
            moved = perm[v // m] * m + v % m + 1
            return moved if lit > 0 else -moved

        phi0 = [[move(l) for l in c] for c in pair.phi0.clauses]
        phi1 = [[move(l) for l in c] for c in pair.phi1.clauses]
        nv = self.K * m
        inst = interplab.InterpolationInstance(
            cnf.Cnf(nv, phi0), cnf.Cnf(nv, phi1), (), (), range(1, nv + 1))

        def run():
            status, proof = interplab.solve_with_proof(inst.combined())
            if status != "unsat":
                raise JobFailed("bPHP pair reported satisfiable")
            proof = interplab.relabel_axioms(proof, inst)
            return proof, interplab.extract_interpolant(inst, proof)

        def check(out):
            proof, interp = out
            checks.check_refutation(proof.steps, phi0, phi1)
            return checks.check_interpolant(
                interp.gates, interp.outputs, phi0, phi1, self.K, m,
                len(proof), seed=perm)
        return Job(label, run, check)


WORKLOADS = {w.name: w for w in (CoverPlanted, LexFactor, LearnUnique,
                                 InterpBphp)}
