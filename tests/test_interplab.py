import itertools
import random

import pytest

from skolemkit.benchgen import (BphpParams, bphp_interpolation_pair, gen_bphp)
from skolemkit.circuits import Builder
from skolemkit.cnf import Cnf
from skolemkit.formula import Specification
from skolemkit.interplab import (InterpolationInapplicableError,
                                 InterpolationInstance, ResolutionProof,
                                 WidthBudgetError, bounded_width_refute,
                                 check_proof, expand_chains,
                                 extract_interpolant, interp_size_experiment,
                                 relabel_axioms, resolve_clauses,
                                 slivovsky_synth, solve_with_proof)
from skolemkit.oracle import Oracle


def brute_sat(cnf, fixed=None):
    free = [v for v in range(1, cnf.nvars + 1)
            if not fixed or v not in fixed]
    for bits in itertools.product((0, 1), repeat=len(free)):
        m = dict(fixed or {})
        m.update(zip(free, bits))
        if all(any(m[abs(l)] == (l > 0) for l in c) for c in cnf.clauses):
            return m
    return None


def random_cnf(rng, nv, factor=4.0):
    cnf = Cnf(nv)
    for _ in range(rng.randint(1, int(factor * nv))):
        cnf.add([rng.choice([1, -1]) * rng.randint(1, nv)
                 for _ in range(rng.randint(1, 3))])
    return cnf


# ---------------------------------------------------------------------------
# proofs

def test_resolve_clauses():
    assert resolve_clauses((1, 2), (-1, 3), 1) == (2, 3)
    assert resolve_clauses((1, 2), (1, 3), 1) is None


def test_trivial_refutation_checks():
    cnf = Cnf(1)
    cnf.add([1])
    cnf.add([-1])
    status, proof = solve_with_proof(cnf)
    assert status == "unsat"
    assert check_proof(cnf, proof)
    assert proof.is_refutation()


def test_proof_text_round_trip():
    cnf = Cnf(2)
    cnf.add([1, 2])
    cnf.add([-1, 2])
    cnf.add([-2])
    _, proof = solve_with_proof(cnf)
    back = ResolutionProof.from_text(proof.to_text())
    assert check_proof(cnf, back)
    assert back.steps == proof.steps


def test_invalid_proofs_rejected_with_index():
    cnf = Cnf(1)
    cnf.add([1])
    cnf.add([-1])
    _, proof = solve_with_proof(cnf)
    # tamper: claim an axiom that is not in the formula
    bad = ResolutionProof.from_text(proof.to_text())
    bad.steps[0] = ("axiom", (-1, 1), "input")
    ok, idx = check_proof(cnf, bad, return_index=True)
    assert not ok and idx == 0


def test_solve_with_proof_random_agreement():
    rng = random.Random(23)
    unsat_seen = 0
    for _ in range(80):
        cnf = random_cnf(rng, rng.randint(2, 7))
        status, payload = solve_with_proof(cnf)
        assert (status == "sat") == (brute_sat(cnf) is not None)
        if status == "unsat":
            unsat_seen += 1
            assert check_proof(cnf, payload)
            assert payload.is_refutation()
        else:
            for cl in cnf.clauses:
                assert any(payload[abs(l)] == (l > 0) for l in cl)
    assert unsat_seen > 10


def test_expand_chains_from_solver():
    from skolemkit.solver import Solver
    cnf = Cnf(3)
    cnf.add([1, 2])
    cnf.add([-1, 3])
    cnf.add([-2, 3])
    cnf.add([-3])
    s = Solver(cnf, log_proof=True)
    assert not s.solve()
    flat = expand_chains(s)
    assert check_proof(cnf, flat)
    assert flat.is_refutation()


# ---------------------------------------------------------------------------
# interpolation

def eval_circuit(circuit, assign):
    return circuit.eval(dict(assign))[0]


def interpolant_contract_ok(inst, circuit):
    c_vars = list(inst.c_vars)
    phi0, phi1 = inst.phi0, inst.phi1
    for bits in itertools.product((0, 1), repeat=len(c_vars)):
        fixed = dict(zip(c_vars, bits))
        i_val = eval_circuit(circuit, fixed)
        if i_val == 0:
            # phi0 restricted to this C-assignment must be unsat
            if brute_sat(phi0, fixed) is not None:
                return False
        else:
            if brute_sat(phi1, fixed) is not None:
                return False
    return True


def test_hand_interpolant():
    # phi0 = (c), phi1 = (~c): the interpolant must be exactly c under
    # the convention I(C)=0 kills phi0 and I(C)=1 kills phi1.
    phi0 = Cnf(1)
    phi0.add([1])
    phi1 = Cnf(1)
    phi1.add([-1])
    inst = InterpolationInstance(phi0, phi1, (), (), (1,))
    status, proof = solve_with_proof(inst.combined())
    assert status == "unsat"
    circ = extract_interpolant(inst, relabel_axioms(proof, inst))
    assert eval_circuit(circ, {1: 1}) == 1
    assert eval_circuit(circ, {1: 0}) == 0


def random_instance(rng):
    nv = rng.randint(2, 5)
    roles = {v: rng.choice("abc") for v in range(1, nv + 1)}
    a = [v for v in roles if roles[v] == "a"]
    b = [v for v in roles if roles[v] == "b"]
    c = [v for v in roles if roles[v] == "c"]
    phi0 = Cnf(nv)
    phi1 = Cnf(nv)
    for _ in range(rng.randint(2, 4 * nv)):
        side = rng.getrandbits(1)
        allowed = (a if side == 0 else b) + c
        if not allowed:
            continue
        w = rng.randint(1, 3)
        cl = [rng.choice([1, -1]) * rng.choice(allowed) for _ in range(w)]
        (phi0 if side == 0 else phi1).add(cl)
    return InterpolationInstance(phi0, phi1, a, b, c)


def test_interpolant_contract_random():
    rng = random.Random(71)
    done = 0
    while done < 60:
        inst = random_instance(rng)
        status, payload = solve_with_proof(inst.combined())
        if status != "unsat":
            continue
        done += 1
        circ = extract_interpolant(inst, relabel_axioms(payload, inst))
        assert interpolant_contract_ok(inst, circ)
        assert circ.size <= 4 * len(payload)
        extra = set(circ.input_names()) - set(inst.c_vars)
        assert not extra


def test_bphp_pair_unsat_iff_overloaded():
    inst = bphp_interpolation_pair(BphpParams(3, 1))  # 3 pigeons, 2 holes
    assert Oracle().solve(inst.combined()).status == "unsat"
    # paper regime (3, 3): 3 pigeons into 8 holes, no forced collision
    ok = bphp_interpolation_pair(BphpParams(3, 3, regime="paper"))
    assert Oracle().solve(ok.combined()).status == "sat"


def test_bphp_interpolant_contract():
    inst = bphp_interpolation_pair(BphpParams(3, 1))
    status, proof = solve_with_proof(inst.combined())
    assert status == "unsat"
    circ = extract_interpolant(inst, relabel_axioms(proof, inst))
    assert interpolant_contract_ok(inst, circ)


# ---------------------------------------------------------------------------
# synthesis via interpolation

def test_slivovsky_functional_spec():
    b = Builder()
    spec = Specification([1], [2],
                         b.extract([b.xnor_(b.inp(1), b.inp(2))]))
    vec, sizes = slivovsky_synth(spec)
    assert vec.eval([0]) == [0] and vec.eval([1]) == [1]
    assert set(sizes) == {1} and sizes[1] >= 0


def test_slivovsky_bphp31():
    spec = gen_bphp(BphpParams(3, 1, regime="paper"))
    vec, sizes = slivovsky_synth(spec)
    # check the result against the defining relation wherever X is
    # satisfiable
    for bits in itertools.product((0, 1), repeat=3):
        a = dict(zip(range(1, 4), bits))
        y = vec.eval(list(bits))
        a[4] = y[0]
        if any(spec.eval({**dict(zip(range(1, 4), bits)), 4: v})
               for v in (0, 1)):
            assert spec.eval(a) == 1
    assert sizes[1] > 0


def test_slivovsky_inapplicable_reports_witness():
    b = Builder()
    # y is unconstrained: both values work, uniqueness fails at bit 1
    spec = Specification([1], [2], b.extract([b.const(1)]))
    with pytest.raises(InterpolationInapplicableError) as e:
        slivovsky_synth(spec)
    assert e.value.bit == 1
    assert e.value.witness


# ---------------------------------------------------------------------------
# bounded-width saturation

def php_cnf(pigeons, holes):
    cnf = Cnf(0)
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[(p, h)] = cnf.fresh()
    for p in range(pigeons):
        cnf.add([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add([-var[(p1, h)], -var[(p2, h)]])
    return cnf


def test_bounded_width_saturates_then_refutes():
    cnf = php_cnf(3, 2)
    status, proof = bounded_width_refute(cnf, 1)
    assert status == "saturated" and proof is None
    status, proof = bounded_width_refute(cnf, 3)
    assert status == "refuted"
    assert check_proof(cnf, proof)
    assert proof.width <= max(3, cnf.width)


def test_bounded_width_sat_formula():
    cnf = Cnf(2)
    cnf.add([1, 2])
    status, _ = bounded_width_refute(cnf, 4)
    assert status == "saturated"


def test_width_budget_error():
    cnf = php_cnf(7, 6)
    with pytest.raises(WidthBudgetError):
        bounded_width_refute(cnf, 12, max_clauses=500)


# ---------------------------------------------------------------------------
# experiment driver

def test_interp_size_experiment_rows():
    rows = interp_size_experiment(m_range=(1, 2))
    assert [r["m"] for r in rows] == [1, 2]
    assert [r["k"] for r in rows] == [3, 5]
    for r in rows:
        assert r["interpolantSize"] >= 0
        assert r["proofLength"] > 0
        assert r["lexFirstSize"] > 0
