"""Span tracing of skolemkit's layers, installed from the benchmark's side.

``install`` replaces the public functions of each layer module, and the
public methods listed in METHODS, with wrappers that record a span (job,
name, start, end, parent) while ``Tracer.enabled`` is set.  A function
that another skolemkit module imported by name is replaced there too;
otherwise calls through that name would go uncounted.  A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("solver", "oracle", "cnf", "circuits", "formula", "synth",
          "verify", "interplab", "cli")
METHODS = {("solver", "Solver"): ("__init__", "solve"),
           ("oracle", "Oracle"): ("solve", "enumerate"),
           ("cnf", "Cnf"): ("copy",),
           ("circuits", "Builder"): ("import_circuit", "extract")}
# Called once per conflict or per resolution step: a span each would cost
# more than the work inside, so their time stays in the caller's self time.
INLINE = {"solver.luby", "oracle.labeled_rng", "interplab.resolve_clauses"}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = -1
        self.spans = []          # (job, name, start, end, parent index)
        self.self_s = Counter()  # reference seconds, see end_job
        self._job_self = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []         # [span index, name, start, child seconds]
        self._active = Counter()
        self._t0 = time.perf_counter()

    def open(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, parent,
                            time.perf_counter(), 0.0])
        self._active[name] += 1

    def close(self):
        idx, name, parent, start, child = self._stack.pop()
        end = time.perf_counter()
        self.spans[idx] = (self.job, name, start - self._t0,
                           end - self._t0, parent)
        self._job_self[name] += end - start - child
        self.calls[name] += 1
        self._active[name] -= 1
        if self._stack:
            self._stack[-1][4] += end - start

    def end_job(self, scale: float):
        """Add the finished job's self times, scaled to reference seconds
        by the job's calibration factor (see calibrate.py)."""
        for name, secs in self._job_self.items():
            self.self_s[name] += secs * scale
        self._job_self.clear()

    def inside(self, name: str) -> bool:
        return self._active[name] > 0

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _hooks(tr: Tracer) -> dict:
    """Per span name: (before(args, kwargs) -> state,
    after(state, args, kwargs, result)) recording the layer counts."""
    k = tr.counts

    def clauses_added(pos, name, key):
        def before(args, kwargs):
            cnf = _arg(args, kwargs, pos, name)
            return len(cnf.clauses) if cnf is not None else 0

        def after(n0, args, kwargs, res):
            cnf = _arg(args, kwargs, pos, name)
            k[key] += len((cnf if cnf is not None else res.cnf).clauses) - n0
        return before, after

    def on_solve_before(args, kwargs):
        if tr.inside("oracle.approx_count_projected"):
            k["oracle.count_solves"] += 1
        return args[0].conflicts

    def on_solve_after(c0, args, kwargs, res):
        k["solver.conflicts"] += args[0].conflicts - c0

    def count(key, measure):
        def after(_, args, kwargs, res):
            k[key] += measure(args, kwargs, res)
        return None, after

    return {
        "solver.Solver.__init__": count(
            "solver.init_clauses",
            lambda a, kw, r: len(getattr(_arg(a, kw, 1, "cnf"), "clauses",
                                         ()))),
        "solver.Solver.solve": (on_solve_before, on_solve_after),
        "oracle.sample_projected": count(
            "oracle.sample_hits", lambda a, kw, r: int(r.is_sat)),
        "cnf.tseitin": clauses_added(2, "cnf", "cnf.tseitin_clauses"),
        "cnf.add_xor_constraint": clauses_added(0, "cnf", "cnf.xor_clauses"),
        "cnf.Cnf.copy": count("cnf.copy_clauses",
                              lambda a, kw, r: len(a[0].clauses)),
        "circuits.Builder.import_circuit": count(
            "circuits.import_gates", lambda a, kw, r: len(a[1].gates)),
        "synth.synth_cover": count("synth.cover_iterations",
                                   lambda a, kw, r: r[1].iterations),
        "verify.build_error_formula": count(
            "verify.error_clauses", lambda a, kw, r: len(r.clauses)),
        "interplab.expand_chains": count("interplab.proof_steps",
                                         lambda a, kw, r: len(r)),
    }


def _wrap(tr: Tracer, name: str, fn, hook):
    before, after = hook or (None, None)

    if inspect.isgeneratorfunction(fn):
        # one span per resumption; items counted under "<name> items"
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    if tr.enabled:
                        tr.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        if tr.enabled:
                            tr.close()
                    tr.counts[name + " items"] += tr.enabled
                    yield item
            finally:
                gen.close()
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before else None
        tr.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tr.close()
        if after:
            after(state, args, kwargs, res)
        return res
    return wrapper


def count_solves(counter: Counter):
    """Count ``Solver.solve`` calls in counter["solves"] with no other
    tracing, for the untraced run; returns the undo function."""
    cls = sys.modules["skolemkit.solver"].Solver
    orig = cls.solve

    @functools.wraps(orig)
    def solve(self, *args, **kwargs):
        counter["solves"] += 1
        return orig(self, *args, **kwargs)
    cls.solve = solve
    return lambda: setattr(cls, "solve", orig)


def install(tr: Tracer):
    """Wrap every layer's public functions and METHODS; returns a function
    that puts the originals back."""
    hooks = _hooks(tr)
    undo = []
    wrapped = {}         # original function -> wrapper
    for layer in LAYERS:
        mod = sys.modules[f"skolemkit.{layer}"]
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in INLINE):
                wrapped[obj] = _wrap(tr, name, obj, hooks.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("skolemkit.") and mod is not None:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(sys.modules[f"skolemkit.{layer}"], cls_name)
        for meth in methods:
            name = f"{layer}.{cls_name}.{meth}"
            orig = vars(cls)[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _wrap(tr, name, orig, hooks.get(name)))

    def restore():
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)
    return restore


# (name, unit, better); values are per job unless the unit says otherwise
PER_LAYER = [
    ("solver.solves", "count/job", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.conflicts", "count/job", "lower"),
    ("solver.conflicts_per_s", "1/s", "higher"),
    ("solver.init_s", "s", "lower"),
    ("solver.init_clauses", "count/job", "lower"),
    ("oracle.count_calls", "count/job", "lower"),
    ("oracle.solves_per_count", "count/call", "lower"),
    ("oracle.count_s", "s", "lower"),
    ("oracle.sample_calls", "count/job", "lower"),
    ("oracle.sample_hit_ratio", "ratio", "higher"),
    ("oracle.enum_models", "count/job", "lower"),
    ("cnf.tseitin_s", "s", "lower"),
    ("cnf.tseitin_clauses", "count/job", "lower"),
    ("cnf.xor_clauses", "count/job", "lower"),
    ("cnf.copy_clauses", "count/job", "lower"),
    ("cnf.copy_s", "s", "lower"),
    ("circuits.import_gates", "count/job", "lower"),
    ("circuits.import_s", "s", "lower"),
    ("circuits.extract_s", "s", "lower"),
    ("formula.parse_s", "s", "lower"),
    ("formula.emit_s", "s", "lower"),
    ("synth.lex_s", "s", "lower"),
    ("synth.cover_iterations", "count/job", "lower"),
    ("synth.learner_rounds", "count/job", "lower"),
    ("synth.pool_s", "s", "lower"),
    ("synth.majority_s", "s", "lower"),
    ("verify.calls", "count/job", "lower"),
    ("verify.skolem_s", "s", "lower"),
    ("verify.error_clauses", "count/job", "lower"),
    ("verify.unique_s", "s", "lower"),
    ("interplab.proof_steps", "count/job", "lower"),
    ("interplab.expand_s", "s", "lower"),
    ("interplab.relabel_s", "s", "lower"),
    ("interplab.interpolant_s", "s", "lower"),
]


def layer_metrics(tr: Tracer, jobs: int) -> dict:
    """PER_LAYER values from a traced run of ``jobs`` jobs.  Times are
    self times in reference seconds; a ratio whose base is 0 reads 0."""
    s, c, k = tr.self_s, tr.calls, tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    vals = {
        "solver.solves": c["solver.Solver.solve"],
        "solver.solve_s": s["solver.Solver.solve"],
        "solver.conflicts": k["solver.conflicts"],
        "solver.init_s": s["solver.Solver.__init__"],
        "solver.init_clauses": k["solver.init_clauses"],
        "oracle.count_calls": c["oracle.approx_count_projected"],
        "oracle.count_s": s["oracle.approx_count_projected"],
        "oracle.sample_calls": c["oracle.sample_projected"],
        "oracle.enum_models": k["oracle.Oracle.enumerate items"],
        "cnf.tseitin_s": s["cnf.tseitin"],
        "cnf.tseitin_clauses": k["cnf.tseitin_clauses"],
        "cnf.xor_clauses": k["cnf.xor_clauses"],
        "cnf.copy_clauses": k["cnf.copy_clauses"],
        "cnf.copy_s": s["cnf.Cnf.copy"],
        "circuits.import_gates": k["circuits.import_gates"],
        "circuits.import_s": s["circuits.Builder.import_circuit"],
        "circuits.extract_s": s["circuits.Builder.extract"],
        "formula.parse_s": s["formula.parse_spec"]
        + s["formula.parse_skolem"] + s["formula.parse_aiger"],
        "formula.emit_s": s["formula.emit_skolem"] + s["formula.emit_aiger"]
        + s["formula.write_qdimacs"],
        "synth.lex_s": s["synth.synth_lex"],
        "synth.cover_iterations": k["synth.cover_iterations"],
        "synth.learner_rounds": c["synth.encode_bounded_circuits"],
        "synth.pool_s": s["synth.sample_candidate_pool"],
        "synth.majority_s": s["synth.majority_hypothesis"],
        "verify.calls": c["verify.verify_skolem"],
        "verify.skolem_s": s["verify.verify_skolem"]
        + s["verify.build_error_formula"],
        "verify.error_clauses": k["verify.error_clauses"],
        "verify.unique_s": s["verify.check_unique"],
        "interplab.proof_steps": k["interplab.proof_steps"],
        "interplab.expand_s": s["interplab.expand_chains"],
        "interplab.relabel_s": s["interplab.relabel_axioms"],
        "interplab.interpolant_s": s["interplab.extract_interpolant"],
    }
    out = {name: v / jobs for name, v in vals.items()}
    out["solver.conflicts_per_s"] = ratio(k["solver.conflicts"],
                                          s["solver.Solver.solve"])
    out["oracle.solves_per_count"] = ratio(k["oracle.count_solves"],
                                           c["oracle.approx_count_projected"])
    out["oracle.sample_hit_ratio"] = ratio(k["oracle.sample_hits"],
                                           c["oracle.sample_projected"])
    return {name: out[name] for name, _, _ in PER_LAYER}
