import itertools
import random

import pytest

from skolemkit.benchgen import BphpParams, gen_bphp, gen_factor
from skolemkit.circuits import Builder, SkolemVector, constant_vector
from skolemkit.formula import Specification
from skolemkit.oracle import Oracle
from skolemkit.verify import (build_error_formula, check_unique,
                              verify_skolem)


def random_spec(rng, n, m):
    b = Builder()
    pool = [b.inp(i) for i in range(1, n + m + 1)]
    for _ in range(rng.randint(2, 12)):
        op = rng.choice(["and_", "or_", "xor_", "not_"])
        if op == "not_":
            pool.append(b.not_(rng.choice(pool)))
        else:
            pool.append(getattr(b, op)(rng.choice(pool), rng.choice(pool)))
    return Specification(list(range(1, n + 1)),
                         list(range(n + 1, n + m + 1)),
                         b.extract([pool[-1]]))


def random_vector(rng, n, m):
    b = Builder()
    outs = []
    for i in range(1, m + 1):
        pool = [b.inp(("x", j)) for j in range(1, n + 1)]
        pool += [b.inp(("y", j)) for j in range(1, i)]
        pool.append(b.const(rng.getrandbits(1)))
        for _ in range(rng.randint(0, 6)):
            op = rng.choice(["and_", "or_", "not_"])
            if op == "not_":
                pool.append(b.not_(rng.choice(pool)))
            else:
                pool.append(getattr(b, op)(rng.choice(pool),
                                           rng.choice(pool)))
        outs.append(pool[-1])
    return SkolemVector(n, b.extract(outs))


def is_skolem(spec, vec):
    for v in range(1 << spec.n):
        x = [(v >> (spec.n - 1 - i)) & 1 for i in range(spec.n)]
        a = {i + 1: x[i] for i in range(spec.n)}
        has_witness = False
        for y in itertools.product((0, 1), repeat=spec.m):
            for j, yv in enumerate(spec.y_vars):
                a[yv] = y[j]
            if spec.eval(a):
                has_witness = True
                break
        yb = vec.eval(x)
        for j, yv in enumerate(spec.y_vars):
            a[yv] = yb[j]
        if has_witness and not spec.eval(a):
            return False
    return True


def xy_identity_spec():
    b = Builder()
    return Specification([1], [2],
                         b.extract([b.xnor_(b.inp(1), b.inp(2))]))


def make_vec(fn):
    b = Builder()
    return SkolemVector(1, b.extract([fn(b)]))


def test_error_formula_correct_candidate_unsat():
    spec = xy_identity_spec()
    vec = make_vec(lambda b: b.inp(("x", 1)))
    assert not Oracle().solve(build_error_formula(spec, vec)).is_sat


def test_error_formula_wrong_candidate_sat():
    spec = xy_identity_spec()
    vec = make_vec(lambda b: b.not_(b.inp(("x", 1))))
    res = Oracle().solve(build_error_formula(spec, vec))
    assert res.is_sat
    # witness has y1 = x1 (a good y) while the candidate outputs ~x1
    assert res.model[2] == res.model[1]


def test_factor_constant_candidate_counterexample():
    spec = gen_factor(4)
    vec = constant_vector(4, [0, 0, 1, 0, 0, 0, 1, 0])  # always (2, 2)
    verdict = verify_skolem(spec, vec)
    assert verdict.status == "counterexample"
    w = verdict.witness
    x = sum(w[v] << (3 - i) for i, v in enumerate(spec.x_vars))
    # the witness x is composite but not 4 = 2*2
    assert x != 4
    a = sum(w[v] << (3 - i) for i, v in enumerate(spec.y_vars[:4]))
    bf = sum(w[v] << (3 - i) for i, v in enumerate(spec.y_vars[4:]))
    assert a * bf == x and a != 1 and bf != 1


def test_verify_agrees_with_exhaustive():
    rng = random.Random(31)
    checked_valid = checked_ce = 0
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        spec = random_spec(rng, n, m)
        vec = random_vector(rng, n, m)
        verdict = verify_skolem(spec, vec)
        want = is_skolem(spec, vec)
        assert verdict.is_valid == want
        if verdict.is_valid:
            checked_valid += 1
        else:
            checked_ce += 1
            w = verdict.witness
            assert set(w) == set(spec.x_vars + spec.y_vars)
            # witness satisfies F while the candidate's output does not
            assert spec.eval(w) == 1
            x = [w[v] for v in spec.x_vars]
            a = {v: w[v] for v in spec.x_vars}
            for j, yv in enumerate(spec.y_vars):
                a[yv] = vec.eval(x)[j]
            assert spec.eval(a) == 0
    assert checked_valid > 5 and checked_ce > 5


def test_shape_mismatch_rejected():
    spec = xy_identity_spec()
    with pytest.raises(ValueError):
        build_error_formula(spec, constant_vector(2, [0]))


# ---------------------------------------------------------------------------
# check_unique

def test_check_unique_functional_spec():
    assert check_unique(xy_identity_spec(), 1, [1])


def test_check_unique_bphp41_false():
    spec = gen_bphp(BphpParams(4, 1, regime="paper"))
    assert not check_unique(spec, 1, spec.x_vars)


def test_check_unique_or_spec_false():
    b = Builder()
    spec = Specification([1], [2, 3],
                         b.extract([b.or_(b.inp(2), b.inp(3))]))
    assert not check_unique(spec, 1, [1, 3])


def test_check_unique_rejects_bad_z():
    spec = xy_identity_spec()
    with pytest.raises(ValueError):
        check_unique(spec, 1, [2])  # Z may not contain Y_1 itself


def brute_unique(spec, i, z):
    yi = spec.y_vars[i - 1]
    models = []
    names = spec.x_vars + spec.y_vars
    for bits in itertools.product((0, 1), repeat=len(names)):
        a = dict(zip(names, bits))
        if spec.eval(a):
            models.append(a)
    for a in models:
        for c in models:
            if all(a[v] == c[v] for v in z) and a[yi] != c[yi]:
                return False
    return True


def test_check_unique_agrees_with_brute_force_and_monotone():
    rng = random.Random(77)
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        spec = random_spec(rng, n, m)
        i = rng.randint(1, m)
        allowed = spec.x_vars + [v for j, v in enumerate(spec.y_vars)
                                 if j != i - 1]
        z = [v for v in allowed if rng.getrandbits(1)]
        got = check_unique(spec, i, z)
        assert got == brute_unique(spec, i, z)
        if got:  # enlarging Z never flips true -> false
            assert check_unique(spec, i, allowed)
