import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddinv import synthesis, verification
from ddinv.polytopes import DisturbanceSet, InputPolytope, validate_cset
from ddinv.experiment import build_data_matrices
from generators import random_cset_rows
from oracles import robust_data_worst_loop


def _unit_box(n=2):
    return validate_cset(np.vstack([np.eye(n), -np.eye(n)]))


def test_certificate_check_on_contraction():
    box = _unit_box()
    f = 0.5 * np.eye(2)
    p = 0.5 * np.eye(4)
    assert verification.check_invariance_certificate(f, box, p, 0.5)
    assert not verification.check_invariance_certificate(f, box, p, 0.4)
    assert not verification.check_invariance_certificate(2 * f, box, p, 0.5)


def test_certificate_search_positive_and_negative():
    box = _unit_box()
    p = verification.find_certificate_matrix(0.5 * np.eye(2), box, 0.5)
    assert p is not None
    assert verification.check_invariance_certificate(0.5 * np.eye(2), box, p, 0.5)
    assert verification.find_certificate_matrix(2.0 * np.eye(2), box, 0.99) is None
    ok, worst = verification.check_vertex_contractivity(2.0 * np.eye(2), box, 0.99)
    assert not ok and worst == pytest.approx(2.0)


def test_rounded_gain_sits_just_outside_tight_level(demo_plant, demo_state_set):
    # three-decimal rounding of the tight design overshoots the level by 2e-4,
    # so the outcome flips with the tolerance used
    gain = np.array([[0.313, -0.671]])
    f = demo_plant.a_matrix + demo_plant.b_matrix @ gain
    ok_loose, worst = verification.check_vertex_contractivity(
        f, demo_state_set, 0.84, tol=1e-3)
    assert ok_loose
    assert worst == pytest.approx(0.8402, abs=1e-12)
    ok_tight, _ = verification.check_vertex_contractivity(
        f, demo_state_set, 0.84, tol=1e-6)
    assert not ok_tight


def test_optimal_gain_is_tight(demo_plant, demo_state_set, demo_input_set):
    cert = synthesis.minimize_lambda(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set,
                                   "minimize", demo_plant))
    f = demo_plant.a_matrix + demo_plant.b_matrix @ cert.gain
    ok, worst = verification.check_vertex_contractivity(f, demo_state_set, cert.lam)
    assert ok
    assert worst <= cert.lam + 1e-9


def test_admissibility_values(demo_state_set, demo_input_set):
    ok, worst = verification.check_admissibility(
        np.array([[0.420, -0.610]]), demo_state_set, demo_input_set)
    assert ok
    assert worst == pytest.approx(-0.575, abs=1e-12)
    ok, worst = verification.check_admissibility(
        np.array([[10.0, 0.0]]), demo_state_set, demo_input_set)
    assert not ok
    assert worst == pytest.approx(60.0 / 7.0 - 1.0, abs=1e-12)


def test_robust_invariance_margin():
    box = _unit_box()
    diamond = np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]])
    ok, worst = verification.check_robust_invariance(
        0.5 * np.eye(2), box, DisturbanceSet(0.1 * diamond))
    assert ok and worst == pytest.approx(0.6)
    ok, worst = verification.check_robust_invariance(
        0.5 * np.eye(2), box, DisturbanceSet(0.6 * diamond))
    assert not ok and worst == pytest.approx(1.1)


def test_lyapunov_values(demo_state_set):
    assert verification.lyapunov_value(demo_state_set, [0.0, 0.0]) == 0.0
    assert verification.lyapunov_value(demo_state_set, [6.0, -0.5]) == pytest.approx(1.0)
    assert verification.lyapunov_value(demo_state_set, [12.0, -1.0]) == pytest.approx(2.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2))
def test_lyapunov_symmetry(point):
    cset = validate_cset(np.array([[0.2, 0.4], [-0.2, -0.4],
                                   [-0.15, 0.2], [0.15, -0.2]]))
    x = np.asarray(point)
    assert verification.lyapunov_value(cset, -x) == pytest.approx(
        verification.lyapunov_value(cset, x))


def test_decay_check_on_geometric_sequence():
    box = _unit_box()
    states = np.array([[0.8 ** t, 0.0] for t in range(20)])
    ok, margin = verification.check_decay_along_trajectory(box, states, 0.8)
    assert ok and margin <= 1e-12
    ok, margin = verification.check_decay_along_trajectory(box, states, 0.7)
    assert not ok and margin > 0


def test_certificate_existence_matches_vertex_test():
    # the witness-matrix route and the vertex route must agree on every
    # instance away from the exact boundary
    rng = np.random.default_rng(99)
    seen = {True: 0, False: 0}
    for trial in range(20):
        n = int(rng.integers(2, 4))
        cset = validate_cset(random_cset_rows(rng, n))
        f = rng.uniform(-1, 1, (n, n))
        lam = float(rng.uniform(0.3, 0.95))
        # rescale so the instance lands clearly on one side of the level
        _, worst = verification.check_vertex_contractivity(f, cset, lam, tol=0.0)
        f *= lam * (0.8 if trial % 2 == 0 else 1.25) / worst
        ok, worst = verification.check_vertex_contractivity(f, cset, lam, tol=0.0)
        assert abs(worst - lam) > 1e-6
        p = verification.find_certificate_matrix(f, cset, lam)
        assert (p is not None) == ok
        if p is not None:
            assert verification.check_invariance_certificate(f, cset, p, lam,
                                                             tol=1e-7)
        seen[ok] += 1
    assert seen[True] >= 3 and seen[False] >= 3


def test_trajectories_stay_inside_scaled_sets(demo_plant, demo_state_set,
                                              demo_input_set, demo_vertices):
    cert = synthesis.minimize_lambda(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set,
                                   "minimize", demo_plant))
    f = demo_plant.a_matrix + demo_plant.b_matrix @ cert.gain
    for vertex in demo_vertices:
        x = np.asarray(vertex, dtype=float)
        for t in range(50):
            assert verification.lyapunov_value(demo_state_set, x) <= cert.lam ** t + 1e-6
            x = f @ x


def test_full_report_on_demo(demo_state_set, demo_input_set, demo_data):
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))
    report = verification.verify_certificate(demo_state_set, demo_input_set,
                                             cert, data=demo_data)
    assert report.all_ok()
    assert report.contractivity_ok == (report.worst_vertex_gauge
                                       <= 0.84 + verification.DEFAULT_TOL)
    assert report.worst_input_violation <= verification.DEFAULT_TOL
    assert report.lyapunov_decay_margin is not None
    assert report.lyapunov_decay_margin <= verification.DEFAULT_TOL
    assert report.robust_ok is None


def test_report_flags_bad_gain(demo_plant, demo_state_set, demo_input_set):
    cert = synthesis.Certificate(gain=np.array([[5.0, 5.0]]), lam=0.84,
                                 p_matrix=np.eye(4))
    report = verification.verify_certificate(demo_state_set, demo_input_set,
                                             cert, plant=demo_plant)
    assert not report.all_ok()
    assert not report.contractivity_ok
    assert not report.admissibility_ok


def _robust_data_case(seed, samples=7):
    rng = np.random.default_rng(seed)
    box = _unit_box()
    data = build_data_matrices(rng.normal(size=(samples, 1)), rng.normal(size=(samples + 1, 2)))
    corners = 0.05 * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return rng, box, data, DisturbanceSet(corners)


def test_robust_data_conditions_match_loop_oracle():
    for seed in range(12):
        rng, box, data, dset = _robust_data_case(seed, samples=1 + seed)
        g = rng.normal(scale=0.3, size=(data.samples, 2))
        ok, worst = verification.check_robust_data_conditions(data, g, box, dset)
        expected = robust_data_worst_loop(data, g, box, dset)
        assert worst == expected
        assert ok == (expected <= 1.0 + verification.DEFAULT_TOL)


def test_robust_data_conditions_reject_nan_combiner():
    rng, box, data, dset = _robust_data_case(4)
    g = np.zeros((data.samples, 2))
    assert verification.check_robust_data_conditions(data, g, box, dset)[0]
    g[2, 1] = np.nan
    ok, worst = verification.check_robust_data_conditions(data, g, box, dset)
    assert not ok
    assert np.isnan(worst)


def test_admissibility_rejects_nan_gain():
    box = _unit_box()
    uset = InputPolytope([[1.0], [-1.0]])
    assert verification.check_admissibility([[0.1, 0.2]], box, uset)[0]
    ok, worst = verification.check_admissibility([[np.nan, 0.2]], box, uset)
    assert not ok
    assert np.isnan(worst)
