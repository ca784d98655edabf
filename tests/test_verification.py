import dataclasses
import warnings
from itertools import product

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ddinv import demo, lp, synthesis, verification
from ddinv.polytopes import DisturbanceSet, InputPolytope, gauge, validate_cset
from ddinv.experiment import (ExperimentData, PlantModel, build_data_matrices,
                              random_input_sequence, simulate)
from generators import box_input_rows, random_cset_rows
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
    p = synthesis.find_certificate_matrix(0.5 * np.eye(2), box, 0.5)
    assert p is not None
    assert verification.check_invariance_certificate(0.5 * np.eye(2), box, p, 0.5)
    assert synthesis.find_certificate_matrix(2.0 * np.eye(2), box, 0.99) is None
    ok, worst = verification.check_vertex_contractivity(2.0 * np.eye(2), box, 0.99)
    assert not ok and worst == pytest.approx(2.0)


FAILED_SEARCH_MESSAGES = {
    lp.LpStatus.UNBOUNDED: "solver returned unbounded",
    lp.LpStatus.ITERATION_LIMIT: "solver returned iteration_limit",
    lp.LpStatus.PHASE_ONE_BREAKDOWN: "phase one broke down",
    lp.LpStatus.BAD_POINT: "solver point breaks the program by 0.001",
}


@pytest.mark.parametrize("status", list(FAILED_SEARCH_MESSAGES))
def test_failed_certificate_search_is_not_read_as_no_certificate(monkeypatch, status):
    # only INFEASIBLE means that no P exists; a solve that ends otherwise
    # is a solver failure, named as synthesize names it
    box = _unit_box()
    monkeypatch.setattr(lp, "solve", lambda prob: lp.LpSolution(status, residual=1e-3))
    with pytest.raises(synthesis.SolverFailure,
                       match=f"^certificate search: {FAILED_SEARCH_MESSAGES[status]}$"):
        synthesis.find_certificate_matrix(0.5 * np.eye(2), box, 0.5)


def test_certificate_search_that_overflows_is_a_solver_failure():
    # S F overflows: built as synthesize builds its programs, that is a
    # solver failure, with no numpy warning first
    box = validate_cset(1e10 * np.vstack([np.eye(2), -np.eye(2)]))
    with pytest.raises(synthesis.SolverFailure,
                       match="^certificate search: the program overflows while being built"):
        synthesis.find_certificate_matrix(1e300 * np.ones((2, 2)), box, 0.5)


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
        p = synthesis.find_certificate_matrix(f, cset, lam)
        assert (p is not None) == ok
        if p is not None:
            assert verification.check_invariance_certificate(f, cset, p, lam)
            assert np.max(np.abs(p @ cset.h_matrix - cset.h_matrix @ f)) <= 1e-7
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


def _disturbance_around_origin(rng, count):
    """count points at evenly spread angles with random radii, so their hull
    holds the origin; the origin alone for count 1."""
    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(count) / count
    radii = 0.05 * rng.uniform(0.5, 1.0, size=count) * (count > 1)
    return DisturbanceSet(radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8])
def test_robust_data_conditions_match_loop_oracle(count):
    # the check sees only each set row's largest and smallest disturbance
    # projection; the loop sweeps every disturbance vertex
    for seed in range(12):
        rng, box, data, dset = _robust_data_case(seed, samples=1 + seed)
        if count != 4:
            dset = _disturbance_around_origin(rng, count)
        assert dset.vertices.shape[0] == count
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


def test_robust_certificate_on_the_plant_route_checks_the_plant_loop():
    # acceptance criterion 5's designs: given the plant, verify judges a
    # robust certificate by the robust condition on A + B K, so a gain
    # scaled away from the one G realizes is judged by its own loop
    rng = np.random.default_rng(55)
    box = _unit_box()
    uset = InputPolytope(box_input_rows(1, 5.0))
    dset = DisturbanceSet(0.05 * np.array(list(product((1.0, -1.0), repeat=2))))
    made = rejected = 0
    for _ in range(20):
        plant = PlantModel(rng.uniform(-0.45, 0.45, (2, 2)), rng.uniform(-1.0, 1.0, (2, 1)))
        inputs = random_input_sequence(rng, 8, 1, 3.0)
        data = build_data_matrices(inputs, simulate(plant, [0.0, 0.0], inputs,
                                                    rng.uniform(-0.05, 0.05, (8, 2))))
        try:
            cert = synthesis.synthesize(synthesis.SynthesisProblem(
                box, uset, 0.0, data, disturbance=dset))
        except synthesis.InfeasibleProblem:
            continue
        made += 1
        for scale in (1.0, 3.0):
            scaled = dataclasses.replace(cert, gain=scale * cert.gain)
            report = verification.verify_certificate(box, uset, scaled, data=data,
                                                     plant=plant, disturbance=dset)
            holds, _ = verification.check_robust_invariance(
                plant.a_matrix + plant.b_matrix @ scaled.gain, box, dset)
            assert report.robust_ok == holds
            if scale == 1.0:
                assert report.all_ok()
            else:
                rejected += not report.all_ok()
    assert made >= 10 and rejected >= 1


def test_admissibility_rejects_nan_gain():
    box = _unit_box()
    uset = InputPolytope([[1.0], [-1.0]])
    assert verification.check_admissibility([[0.1, 0.2]], box, uset)[0]
    ok, worst = verification.check_admissibility([[np.nan, 0.2]], box, uset)
    assert not ok
    assert np.isnan(worst)


def test_gauge_checks_reject_nan_closed_loop():
    box = _unit_box()
    f = np.array([[np.nan, 0.0], [0.0, 0.1]])
    assert np.isnan(gauge(box, f @ np.array([1.0, 1.0])))
    ok, worst = verification.check_vertex_contractivity(f, box, 0.5)
    assert not ok
    assert np.isnan(worst)
    diamond = 0.1 * np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]])
    ok, worst = verification.check_robust_invariance(f, box, DisturbanceSet(diamond))
    assert not ok
    assert np.isnan(worst)


def test_overflowing_rollout_reports_infinite_margin():
    # spectral radius 2e6: a rollout would pass 1.8e308 within 50 steps, and
    # the certificate and vertex checks refuse the closed loop from one step
    box = _unit_box()
    plant = PlantModel([[1e6, 1e6], [1e6, 1e6]], [[0.0], [1.0]])
    cert = synthesis.Certificate(gain=[[0.0, 0.0]], lam=0.9, p_matrix=np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verification.verify_certificate(box, InputPolytope([[1.0], [-1.0]]),
                                                 cert, plant=plant)
    assert not report.certificate_ok
    assert not report.contractivity_ok
    assert report.worst_vertex_gauge == 2e6
    assert report.admissibility_ok
    assert not report.all_ok()


def test_closed_loop_follows_the_route(demo_plant, demo_data, demo_state_set, demo_input_set):
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))
    sets = (demo_state_set, demo_input_set)
    assert np.array_equal(verification.closed_loop(cert, *sets, data=demo_data),
                          demo_data.x1t @ cert.g_matrix)
    assert np.array_equal(verification.closed_loop(cert, *sets, data=demo_data, plant=demo_plant),
                          demo_plant.a_matrix + demo_plant.b_matrix @ cert.gain)
    model_cert = synthesis.Certificate(gain=cert.gain, lam=0.84)
    with pytest.raises(ValueError, match="plant or data"):
        verification.closed_loop(model_cert, *sets, data=demo_data)


@pytest.mark.parametrize("case, match", [
    ("gain (1, 3)", "gain shape"),
    ("P (1, n_s)", "p_matrix shape"),
    ("G a row short", "g_matrix shape"),
    ("G on a model", "data combiner"),
    ("model certificate on data", "plant or data"),
])
def test_certificate_that_does_not_fit_the_problem_is_refused(
        demo_plant, demo_data, demo_state_set, demo_input_set, case, match):
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))
    source = {"data": demo_data}
    if case == "gain (1, 3)":
        cert.gain = np.zeros((1, 3))
    elif case == "P (1, n_s)":
        cert.p_matrix = cert.p_matrix[:1]
    elif case == "G a row short":
        cert.g_matrix = cert.g_matrix[1:]
    elif case == "G on a model":
        source = {"plant": demo_plant}
    else:
        cert.g_matrix = None
    with pytest.raises(ValueError, match=match):
        verification.closed_loop(cert, demo_state_set, demo_input_set, **source)
    with pytest.raises(ValueError, match=match):
        verification.verify_certificate(demo_state_set, demo_input_set, cert, **source)


def test_rollout_matches_the_step_loop():
    rng = np.random.default_rng(17)
    f = rng.normal(scale=0.6, size=(3, 3))
    starts = rng.normal(size=(5, 3))
    states = verification.rollout(f, starts, 20)
    assert states.shape == (21, 5, 3)
    for k, x in enumerate(starts):
        for t in range(21):
            assert states[t, k].tobytes() == x.tobytes()
            x = f @ x
    assert verification.rollout(f, starts[2], 20).tobytes() == states[:, 2].tobytes()


def _halved(cert):
    return synthesis.Certificate(gain=cert.gain / 2, lam=cert.lam,
                                 g_matrix=cert.g_matrix / 2, p_matrix=cert.p_matrix / 2)


def test_data_consistency_rejects_forged_combiners(demo_state_set, demo_input_set, demo_data):
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))

    def check(g_matrix, gain):
        return verification.check_data_consistency(demo_data, g_matrix, gain,
                                                   demo_state_set, demo_input_set)

    assert check(cert.g_matrix, cert.gain)
    # G / 2 keeps P / 2 a valid certificate of X1 G / 2, but X0 G / 2 = I / 2
    forged = _halved(cert)
    assert not check(forged.g_matrix, forged.gain)
    report = verification.verify_certificate(demo_state_set, demo_input_set, forged,
                                             data=demo_data)
    assert report.contractivity_ok and report.admissibility_ok
    assert not report.certificate_ok and not report.all_ok()
    assert not check(cert.g_matrix, cert.gain + 1e-3)
    g = cert.g_matrix.copy()
    g[0, 0] = np.nan
    assert not check(g, cert.gain)


def test_an_unevenly_excited_experiment_does_not_widen_the_data_consistency(
        demo_state_set, demo_input_set):
    # inputs on [-1e-4, 1e-4] keep x2 near 1e-4 while x1 starts at 1; the
    # demo set is left as it is. X0 G - I = 1e-3 in its corner: judged in
    # the data's own row frame that is 2^-14 smaller, inside 1e-6, and the
    # certificate passed; in the set's frame it is 1e-3 and fails
    plant = PlantModel(np.array([[0.5, 0.2], [0.0, 0.5]]), np.array([[0.0], [1.0]]))
    inputs = random_input_sequence(np.random.default_rng(7), 20, 1, amplitude=1e-4)
    data = build_data_matrices(inputs, simulate(plant, [1.0, 0.0], inputs))
    assert np.abs(data.x0t).max(axis=1)[1] < 2.0 ** -13
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, "minimize", data))
    g = cert.g_matrix + np.linalg.pinv(data.x0t) @ np.array([[0.0, 1e-3], [0.0, 0.0]])
    lam = cert.lam + 0.02
    forged = synthesis.Certificate(
        gain=data.u0t @ g, lam=lam, g_matrix=g,
        p_matrix=synthesis.find_certificate_matrix(data.x1t @ g, demo_state_set, lam))
    assert np.max(np.abs(data.x0t @ g - np.eye(2) - [[0.0, 1e-3], [0.0, 0.0]])) < 1e-12
    report = verification.verify_certificate(demo_state_set, demo_input_set, forged, data=data)
    assert report.contractivity_ok and report.admissibility_ok
    assert not report.certificate_ok and not report.all_ok()
    assert "X0 G = I" in verification.loop_refusal(demo_state_set, demo_input_set, forged,
                                                   data=data)


@pytest.mark.parametrize("level", [1.5, 1e308, -0.5, np.nan])
def test_certificate_level_outside_zero_one_is_rejected(demo_state_set, demo_input_set,
                                                        demo_data, level):
    # G moved along the null space of X0 keeps X0 G = I and U0 G = K; at
    # level 1.5 its closed loop has a certificate P and passes every vertex
    # check, yet it maps a vertex out of the set
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))
    null = scipy.linalg.null_space(demo_data.x0t)
    g = cert.g_matrix + 0.5 * null[:, :1] @ np.array([[1.0, 0.0]])
    f_matrix = demo_data.x1t @ g
    forged = synthesis.Certificate(
        gain=demo_data.u0t @ g, lam=level, g_matrix=g,
        p_matrix=synthesis.find_certificate_matrix(f_matrix, demo_state_set, 1.5))
    assert forged.p_matrix is not None
    _, worst = verification.check_vertex_contractivity(f_matrix, demo_state_set, 1.0)
    assert worst > 1.0
    with pytest.raises(ValueError, match=r"level must lie in \[0, 1\]"):
        verification.verify_certificate(demo_state_set, demo_input_set, forged, data=demo_data)
    assert verification.verify_certificate(demo_state_set, demo_input_set,
                                           synthesis.Certificate(cert.gain, 1.0, cert.g_matrix,
                                                                 cert.p_matrix),
                                           data=demo_data).all_ok()


def _disturbed_demo_data(seed, radius, samples=20):
    """An open-loop run of the demo plant from the demo start, the input on
    [-1, 1] and a disturbance uniform on the box of the radius, drawn in
    the order `generate` draws them."""
    plant = demo.demo_plant()
    rng = np.random.default_rng(seed)
    inputs = random_input_sequence(rng, samples, plant.m)
    noise = rng.uniform(-radius, radius, size=(samples, plant.n))
    return build_data_matrices(inputs, simulate(plant, demo.DEFAULT_X0, inputs, noise))


@pytest.mark.parametrize("radius", [0.0, 1e-6, 1e-3, 0.05])
def test_verify_accepts_no_nominal_certificate_that_the_true_loop_breaks(
        monkeypatch, demo_plant, demo_state_set, demo_input_set, radius):
    # disturbed data break X1 = A X0 + B U0, and a nominal design builds its
    # loop X1 G partly out of the noise; without a disturbance set, verify
    # accepts a certificate only on data that a noise-free plant explains
    made = accepted = 0
    for seed in range(40):
        data = _disturbed_demo_data(seed, radius)
        try:
            cert = synthesis.synthesize(synthesis.SynthesisProblem(
                demo_state_set, demo_input_set, synthesis.MINIMIZE, data))
        except (synthesis.InfeasibleProblem, synthesis.SolverFailure):
            continue
        made += 1
        report = verification.verify_certificate(demo_state_set, demo_input_set, cert,
                                                 data=data)
        _, true_level = verification.check_vertex_contractivity(
            demo_plant.a_matrix + demo_plant.b_matrix @ cert.gain, demo_state_set, cert.lam)
        if report.all_ok():
            accepted += 1
            assert true_level <= cert.lam + verification.DEFAULT_TOL
        with monkeypatch.context() as patch:
            patch.setattr(verification, "data_explained", lambda data: True)
            without_rank_test = verification.verify_certificate(
                demo_state_set, demo_input_set, cert, data=data)
        if radius == 0.0:
            # noise-free data pass the rank test: the report is the one without it
            assert report == without_rank_test
        else:
            # X0 G = I, U0 G = K and P S = S X1 G all hold; the rank test alone fails
            assert without_rank_test.all_ok() and not report.certificate_ok
    assert made >= 36
    assert accepted == (made if radius == 0.0 else 0)


def test_the_rank_test_does_not_depend_on_the_state_units(demo_input_set):
    # with the states written in units of 2^k, the rank test once called
    # disturbed data explained at every k >= 26, where six of the
    # certificates built on them passed verify, and refused noise-free data
    # at every k <= -30; the scaled sets and data make the same problems
    made = 0
    for seed, k in product((7, 8, 9), range(-40, 41, 2)):
        scale = 2.0 ** k
        noisy, clean = (_disturbed_demo_data(seed, radius) for radius in (0.05, 0.0))
        noisy, clean = (ExperimentData(data.u0t, data.x0t / scale, data.x1t / scale)
                        for data in (noisy, clean))
        assert verification.data_explained(clean), (seed, k)
        assert not verification.data_explained(noisy), (seed, k)
        state_set = validate_cset(demo.STATE_ROWS * scale)
        try:
            cert = synthesis.synthesize(synthesis.SynthesisProblem(
                state_set, demo_input_set, synthesis.MINIMIZE, noisy))
        except (synthesis.InfeasibleProblem, synthesis.SolverFailure):
            continue
        made += 1
        assert not verification.verify_certificate(state_set, demo_input_set, cert,
                                                   data=noisy).all_ok(), (seed, k)
    assert made >= 60


def test_a_certificate_without_p_needs_a_disturbance_set(demo_state_set, demo_input_set,
                                                          demo_data):
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))
    robust_shaped = dataclasses.replace(cert, p_matrix=None)
    with pytest.raises(ValueError, match="the problem has no disturbance set"):
        verification.verify_certificate(demo_state_set, demo_input_set, robust_shaped,
                                        data=demo_data)


def test_a_disturbance_set_gets_the_robust_checks_at_the_certificate_level(
        demo_state_set, demo_input_set, demo_data, demo_plant):
    # the problem picks the checks: with a disturbance set, a nominal
    # certificate is judged by its worst robust gauge against its own level
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, synthesis.MINIMIZE,
                                   demo_data))
    for radius in (0.0, 1e-3):
        dset = DisturbanceSet(radius * np.array(list(product((1.0, -1.0), repeat=2))))
        report = verification.verify_certificate(demo_state_set, demo_input_set, cert,
                                                 data=demo_data, disturbance=dset)
        _, worst = verification.check_robust_data_conditions(
            demo_data, cert.g_matrix, demo_state_set, dset)
        assert report.worst_vertex_gauge == worst
        assert report.robust_ok == (worst <= cert.lam + verification.DEFAULT_TOL)
        assert report.robust_ok == (radius == 0.0)
        # the report's verdict is the check's own, taken at the certificate's level
        assert report.robust_ok == verification.check_robust_data_conditions(
            demo_data, cert.g_matrix, demo_state_set, dset, cert.lam)[0]
        # the plant route judges A + B K by the robust vertex test at that level
        on_plant = verification.verify_certificate(demo_state_set, demo_input_set, cert,
                                                   data=demo_data, plant=demo_plant,
                                                   disturbance=dset)
        holds, worst = verification.check_robust_invariance(
            demo_plant.a_matrix + demo_plant.b_matrix @ cert.gain, demo_state_set, dset,
            cert.lam)
        assert on_plant.worst_vertex_gauge == worst
        assert on_plant.robust_ok == on_plant.contractivity_ok == holds
        assert on_plant.robust_ok == (radius == 0.0)
