"""Metamorphic relations of `verify`: a problem and its certificate written in
other terms get the same verdict.

Certificates are built once, on the demo problem and on problems from
`generators`, for the nominal data route (the least level) and the robust
data route. Each comes honest, and with its combiner G and gain K scaled by
1.5, which `verify` rejects. Each relation rewrites a problem and its
certificate as the same closed loop in other terms:

- a permutation Σ of the rows of S, with P ↦ Σ P Σᵀ;
- a permutation of the samples: the data columns and the rows of G;
- a signed permutation Π of the state coordinates: S ↦ S Πᵀ, X ↦ Π X,
  G ↦ G Πᵀ, K ↦ K Πᵀ and the disturbance vertices D ↦ D Πᵀ;
- a redundant row 0.5 S_i appended to S, with a row 0.5 P_i and a zero
  column appended to P;
- a repeated sample: one data column appended again, with a zero row
  appended to G. This holds on the nominal route only: the robust
  conditions subtract T times the disturbance per sample, so one more
  sample moves the worst gauge;
- a change of units by 2^k, uniform or one power of two per coordinate:
  with Δ = diag(2^k), S ↦ S Δ, X ↦ Δ⁻¹ X, G ↦ G Δ, K ↦ K Δ and D ↦ D Δ⁻¹.

The rewritten certificate must get the original's verdict, check by check.
Its worst vertex gauge and its worst input gauge (the worst violation plus
one) must agree within 1e-12 of the larger of the gauge and one, the set's
boundary.
"""

from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

import numpy as np
import pytest

from ddinv import demo, synthesis, verification
from ddinv.experiment import (ExperimentData, build_data_matrices, random_input_sequence,
                              simulate)
from ddinv.polytopes import DisturbanceSet, InputPolytope, PolytopeError, validate_cset
from generators import box_input_rows, random_controllable_plant, random_cset_rows


@dataclass
class Case:
    rows: np.ndarray
    input_set: InputPolytope
    data: ExperimentData
    disturbance: Optional[np.ndarray]
    cert: synthesis.Certificate


def _box_corners(n, radius):
    """The corners of a box whose half-widths halve from one coordinate to
    the next, so that no coordinate permutation maps the box to itself."""
    return radius * np.array(list(product((1.0, -1.0), repeat=n))) * 0.5 ** np.arange(n)


def _problems():
    """(S, input set, data, disturbance vertices or None): the demo problem
    and six generated ones for the nominal route, then the demo plant with
    a disturbed experiment and eight generated plants for the robust one."""
    problems = [(demo.STATE_ROWS, demo.demo_input_set(), demo.demo_experiment(), None)]
    rng = np.random.default_rng(24)
    while len(problems) < 7:
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        plant = random_controllable_plant(rng, n, m, spectral_radius=rng.uniform(0.3, 1.3))
        rows = random_cset_rows(rng, n)
        inputs = random_input_sequence(rng, 20, m)
        data = build_data_matrices(inputs, simulate(plant, rng.uniform(-0.3, 0.3, n), inputs))
        problems.append((rows, InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0))), data,
                         None))
    inputs = random_input_sequence(rng, 20, 1)
    states = simulate(demo.demo_plant(), demo.DEFAULT_X0, inputs,
                      rng.uniform(-0.005, 0.005, (20, 2)))
    problems.append((demo.STATE_ROWS, demo.demo_input_set(),
                     build_data_matrices(inputs, states), _box_corners(2, 0.005)))
    for _ in range(8):
        n = int(rng.integers(2, 4))
        plant = random_controllable_plant(rng, n, 1, spectral_radius=0.3)
        inputs = random_input_sequence(rng, 3 * (n + 1), 1)
        states = simulate(plant, rng.uniform(-0.3, 0.3, n), inputs,
                          rng.uniform(-0.005, 0.005, (inputs.shape[0], n)))
        problems.append((random_cset_rows(rng, n), InputPolytope(box_input_rows(1, 5.0)),
                         build_data_matrices(inputs, states), _box_corners(n, 0.005)))
    return problems


def _report(case):
    disturbance = None if case.disturbance is None else DisturbanceSet(case.disturbance)
    return verification.verify_certificate(validate_cset(case.rows), case.input_set,
                                           case.cert, data=case.data, disturbance=disturbance)


@pytest.fixture(scope="module")
def cases():
    """Honest and scaled certificates of every problem the builder solves."""
    nominal, robust = [], []
    for rows, input_set, data, disturbance in _problems():
        problem = synthesis.SynthesisProblem(
            validate_cset(rows), input_set, 0.0 if disturbance is not None else "minimize",
            data, None if disturbance is None else DisturbanceSet(disturbance))
        try:
            cert = synthesis.synthesize(problem)
        except synthesis.InfeasibleProblem:
            continue
        scaled = replace(cert, gain=1.5 * cert.gain, g_matrix=1.5 * cert.g_matrix)
        honest, rejected = (Case(rows, input_set, data, disturbance, c) for c in (cert, scaled))
        assert _report(honest).all_ok() and not _report(rejected).all_ok()
        (nominal if disturbance is None else robust).extend([honest, rejected])
    assert len(nominal) >= 10 and len(robust) >= 10
    return nominal + robust


def _permuted(rng, count):
    """A permutation of range(count) that moves something."""
    while True:
        order = rng.permutation(count)
        if (order != np.arange(count)).any():
            return order


def _rows(case, rng):
    order = _permuted(rng, case.rows.shape[0])
    p_matrix = case.cert.p_matrix
    return replace(case, rows=case.rows[order], cert=replace(
        case.cert, p_matrix=None if p_matrix is None else p_matrix[order][:, order]))


def _samples(case, rng):
    order = _permuted(rng, case.data.samples)
    data = case.data
    return replace(case, data=ExperimentData(data.u0t[:, order], data.x0t[:, order],
                                             data.x1t[:, order]),
                   cert=replace(case.cert, g_matrix=case.cert.g_matrix[order]))


def _coordinates(case, rng):
    n = case.rows.shape[1]
    signed = np.eye(n)[_permuted(rng, n)] * rng.choice([-1.0, 1.0], size=(n, 1))
    data, cert = case.data, case.cert
    return replace(
        case, rows=case.rows @ signed.T,
        data=ExperimentData(data.u0t, signed @ data.x0t, signed @ data.x1t),
        disturbance=None if case.disturbance is None else case.disturbance @ signed.T,
        cert=replace(cert, gain=cert.gain @ signed.T, g_matrix=cert.g_matrix @ signed.T))


def _redundant_row(case, rng):
    i = int(rng.integers(case.rows.shape[0]))
    p_matrix = case.cert.p_matrix
    if p_matrix is not None:
        p_matrix = np.pad(np.vstack([p_matrix, 0.5 * p_matrix[i]]), ((0, 0), (0, 1)))
    return replace(case, rows=np.vstack([case.rows, 0.5 * case.rows[i]]),
                   cert=replace(case.cert, p_matrix=p_matrix))


def _repeated_sample(case, rng):
    j = int(rng.integers(case.data.samples))
    data, g_matrix = case.data, case.cert.g_matrix
    return replace(case, data=ExperimentData(*(np.column_stack([mat, mat[:, j]])
                                               for mat in (data.u0t, data.x0t, data.x1t))),
                   cert=replace(case.cert, g_matrix=np.pad(g_matrix, ((0, 1), (0, 0)))))


def _units(k):
    """The states in units of 2^k: k one exponent for every coordinate, or
    one per coordinate."""
    def rewrite(case, rng):
        scale, data, cert = 2.0 ** np.asarray(k, dtype=float), case.data, case.cert
        column = np.reshape(scale, (-1, 1))
        return replace(
            case, rows=case.rows * scale,
            data=ExperimentData(data.u0t, data.x0t / column, data.x1t / column),
            disturbance=None if case.disturbance is None else case.disturbance / scale,
            cert=replace(cert, gain=cert.gain * scale, g_matrix=cert.g_matrix * scale))
    return rewrite


def _verdict(report):
    return (report.contractivity_ok, report.certificate_ok, report.admissibility_ok,
            report.robust_ok)


def _agree(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _assert_same_verdicts(cases, relation):
    rng = np.random.default_rng(8)
    for case in cases:
        before, after = _report(case), _report(relation(case, rng))
        assert _verdict(after) == _verdict(before)
        assert _agree(after.worst_vertex_gauge, before.worst_vertex_gauge)
        assert _agree(after.worst_input_violation + 1.0, before.worst_input_violation + 1.0)


@pytest.mark.parametrize("relation", [_rows, _samples, _coordinates, _redundant_row],
                         ids=["set_rows", "samples", "signed_coordinates", "redundant_row"])
def test_a_rewritten_certificate_gets_the_same_verdict(cases, relation):
    _assert_same_verdicts(cases, relation)


def test_a_repeated_sample_gets_the_same_nominal_verdict(cases):
    _assert_same_verdicts([case for case in cases if case.disturbance is None],
                          _repeated_sample)


def test_a_certificate_in_other_units_gets_the_same_verdict(cases):
    _assert_same_verdicts(cases, _units(34))


def test_the_demo_certificates_get_the_same_verdict_in_any_power_of_two_units(cases):
    # verify judged P S - S F and U0 G - K in the state's units, so these
    # verdicts moved at every uniform k from 30 to 40 and on 38 of the
    # per-coordinate pairs below
    demo_cases = [case for case in cases
                  if case.rows is demo.STATE_ROWS and case.disturbance is None]
    assert len(demo_cases) == 2
    for k in range(-40, 41):
        _assert_same_verdicts(demo_cases, _units(k))
    accepted = 0
    for pair in product(range(-40, 41, 4), repeat=2):
        try:
            validate_cset(demo.STATE_ROWS * 2.0 ** np.array(pair, dtype=float))
        except PolytopeError:
            continue  # validate_cset still judges in the state's units
        accepted += 1
        _assert_same_verdicts(demo_cases, _units(pair))
    assert accepted >= 259
