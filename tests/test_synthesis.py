import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

from ddinv import lp, synthesis, verification
from ddinv.experiment import (PlantModel, build_data_matrices,
                              random_input_sequence, simulate,
                              stacked_data_matrix)
from ddinv.polytopes import DisturbanceSet, InputPolytope, validate_cset
from generators import box_input_rows, random_controllable_plant, random_cset_rows
from oracles import nominal_lp_loop, polygon_rows_from_vertices, robust_rows_loop


def _interval_set():
    return validate_cset(np.array([[1.0], [-1.0]]))


def test_scalar_model_problem():
    cset = _interval_set()
    uset = InputPolytope([[1.0], [-1.0]])
    plant = PlantModel([[0.5]], [[0.0]])
    cert = synthesis.synthesize(synthesis.SynthesisProblem(cset, uset, 0.5, plant))
    assert cert.p_matrix is not None and cert.g_matrix is None
    assert np.max(cert.p_matrix.sum(axis=1)) <= 0.5 + 1e-9
    assert abs(cert.gain[0, 0]) <= 1.0 + 1e-9
    report = verification.verify_certificate(cset, uset, cert, plant=plant)
    assert report.all_ok()


def test_demo_data_feasible_at_published_level(demo_state_set, demo_input_set, demo_data):
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))
    assert cert.lam == 0.84
    assert cert.g_matrix is not None and cert.p_matrix is not None
    # consistency condition and nonnegativity of the witness
    assert np.allclose(demo_data.x0t @ cert.g_matrix, np.eye(2), atol=1e-8)
    assert np.min(cert.p_matrix) >= -1e-9
    report = verification.verify_certificate(demo_state_set, demo_input_set,
                                             cert, data=demo_data)
    assert report.all_ok()


def test_demo_data_infeasible_below_optimum(demo_state_set, demo_input_set, demo_data):
    with pytest.raises(synthesis.InfeasibleProblem):
        synthesis.synthesize(
            synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.2, demo_data))


def test_point_that_breaks_the_program_is_a_solver_failure(demo_state_set, demo_input_set,
                                                            demo_data, shift_solver_points):
    # a returned point is checked against the program before any gain is
    # extracted from it; the failure names how far off the point is
    shift_solver_points(1e-3)
    with pytest.raises(synthesis.SolverFailure,
                       match=r"data-based design at level 0.84: solver point breaks "
                             r"the program by \d"):
        synthesis.synthesize(
            synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))


def test_zero_input_data_infeasible(demo_state_set, demo_input_set, demo_plant):
    inputs = np.zeros((10, 1))
    states = simulate(demo_plant, [1.0, 0.0], inputs)
    data = build_data_matrices(inputs, states)
    with pytest.raises(synthesis.InfeasibleProblem):
        synthesis.synthesize(
            synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, data))


def test_level_relaxation_stays_feasible(demo_state_set, demo_input_set, demo_data):
    for lam in (0.84, 0.9, 0.95):
        cert = synthesis.synthesize(
            synthesis.SynthesisProblem(demo_state_set, demo_input_set, lam, demo_data))
        assert cert.lam == lam


def test_minimize_level_on_demo(demo_state_set, demo_input_set, demo_plant, demo_data):
    model_cert = synthesis.minimize_lambda(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, "minimize", demo_plant))
    data_cert = synthesis.minimize_lambda(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, "minimize", demo_data))
    assert model_cert.lam == pytest.approx(data_cert.lam, abs=1e-9)
    assert model_cert.lam < 0.84
    report = verification.verify_certificate(demo_state_set, demo_input_set,
                                             model_cert, plant=demo_plant)
    assert report.all_ok()


def test_closed_loop_identity(demo_plant, demo_data, demo_state_set, demo_input_set):
    # with exact data any consistent combiner realizes A + B K exactly
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_data))
    from_data = demo_data.x1t @ cert.g_matrix
    from_model = demo_plant.a_matrix + demo_plant.b_matrix @ cert.gain
    assert np.allclose(from_data, from_model, atol=1e-9)


def test_model_gain_embeds_into_data_program(demo_plant, demo_data,
                                             demo_state_set, demo_input_set):
    # any model-based solution can be rewritten through the data matrices
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.84, demo_plant))
    theta = stacked_data_matrix(demo_data)
    target = np.vstack([cert.gain, np.eye(2)])
    g = np.linalg.pinv(theta) @ target
    program = synthesis.build_databased_lp(demo_data, demo_state_set,
                                           demo_input_set, 0.84)
    z = np.concatenate([g.T.ravel(), cert.p_matrix.ravel()])
    assert lp.check_feasible(program, z, tol=1e-7)


def test_gain_extraction_matches_definition(demo_data):
    g = np.ones((demo_data.samples, demo_data.n))
    assert np.allclose(synthesis.extract_gain(demo_data, g),
                       demo_data.u0t @ g)


def test_robust_with_zero_disturbance_reduces_to_invariance(
        demo_state_set, demo_input_set, demo_data, demo_plant):
    dset = DisturbanceSet(np.zeros((1, 2)))
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.0,
                                   demo_data, disturbance=dset))
    assert cert.lam == 1.0
    assert cert.p_matrix is None and cert.g_matrix is not None
    f_matrix = demo_plant.a_matrix + demo_plant.b_matrix @ cert.gain
    ok, worst = verification.check_robust_invariance(f_matrix, demo_state_set, dset)
    assert ok and worst <= 1.0 + 1e-9


def test_robust_box_problem_sound():
    rng = np.random.default_rng(8)
    box = validate_cset(np.vstack([np.eye(2), -np.eye(2)]))
    uset = InputPolytope(box_input_rows(1, 5.0))
    dset = DisturbanceSet(0.05 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]))
    plant = PlantModel(rng.uniform(-0.4, 0.4, (2, 2)), rng.uniform(-1, 1, (2, 1)))
    inputs = random_input_sequence(rng, 8, 1, 3.0)
    noise = rng.uniform(-0.05, 0.05, (8, 2))
    states = simulate(plant, [0.2, -0.1], inputs, noise)
    data = build_data_matrices(inputs, states)
    cert = synthesis.synthesize(
        synthesis.SynthesisProblem(box, uset, 0.0, data, disturbance=dset))
    f_matrix = plant.a_matrix + plant.b_matrix @ cert.gain
    ok, _ = verification.check_robust_invariance(f_matrix, box, dset)
    assert ok
    report = verification.verify_certificate(box, uset, cert, data=data,
                                             disturbance=dset)
    assert report.all_ok()


def test_robust_row_budget_warning(demo_state_set, demo_input_set, demo_data):
    dset = DisturbanceSet(0.01 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]))
    with pytest.warns(UserWarning):
        synthesis.build_robust_lp(demo_data, demo_state_set, demo_input_set,
                                  dset, row_cap=100)


def test_problem_validation():
    cset = _interval_set()
    uset = InputPolytope([[1.0], [-1.0]])
    plant = PlantModel([[0.5]], [[1.0]])
    with pytest.raises(ValueError):
        synthesis.SynthesisProblem(cset, uset, 1.0, plant)
    with pytest.raises(ValueError):
        synthesis.SynthesisProblem(cset, uset, -0.1, plant)
    with pytest.raises(ValueError):
        synthesis.SynthesisProblem(cset, uset, "smallest", plant)
    with pytest.raises(ValueError):
        synthesis.SynthesisProblem(cset, uset, 0.5, plant,
                                   disturbance=DisturbanceSet(np.zeros((1, 1))))
    wide = PlantModel([[0.5, 0.0], [0.0, 0.5]], [[1.0], [0.0]])
    with pytest.raises(ValueError):
        synthesis.SynthesisProblem(cset, uset, 0.5, wide)


def test_level_minimization_rejects_robust_mode(demo_state_set, demo_input_set, demo_data):
    dset = DisturbanceSet(np.zeros((1, 2)))
    problem = synthesis.SynthesisProblem(demo_state_set, demo_input_set, 0.0,
                                         demo_data, disturbance=dset)
    with pytest.raises(ValueError):
        synthesis.minimize_lambda(problem)


def test_nominal_agreement_on_random_plants():
    # data and model programs must agree on feasibility once the data rank
    # condition holds; checked here on a small seeded batch
    rng = np.random.default_rng(333)
    done = 0
    while done < 10:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        plant = random_controllable_plant(rng, n, m,
                                          spectral_radius=rng.uniform(0.3, 1.3))
        cset = validate_cset(random_cset_rows(rng, n))
        uset = InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0)))
        inputs = random_input_sequence(rng, 20, m)
        states = simulate(plant, rng.uniform(-0.3, 0.3, n), inputs)
        data = build_data_matrices(inputs, states)
        try:
            reference = synthesis.minimize_lambda(
                synthesis.SynthesisProblem(cset, uset, "minimize", plant))
            if abs(reference.lam - 0.9) < 1e-3:
                continue  # numerically undecidable at the probe level
        except synthesis.InfeasibleProblem:
            pass
        outcomes = []
        for source in (plant, data):
            try:
                synthesis.synthesize(synthesis.SynthesisProblem(cset, uset, 0.9, source))
                outcomes.append(True)
            except synthesis.InfeasibleProblem:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1]
        done += 1


def _highs(program):
    return linprog(program.objective, A_ub=program.ineq_lhs, b_ub=program.ineq_rhs,
                   A_eq=program.eq_lhs, b_eq=program.eq_rhs,
                   bounds=list(zip(program.lower_bounds, program.upper_bounds)),
                   method="highs")


def test_simplex_verdicts_agree_with_highs_on_data_programs():
    # seeded data-route programs: each level minimization, then fixed levels
    # 0.02 below and above the HiGHS optimum. Every verdict the simplex
    # gives must be right; giving none (an iteration limit, or a point the
    # guard withholds) is allowed and counted
    rng = np.random.default_rng(11)
    outcomes = Counter()
    programs = 0
    while programs < 200:
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        plant = random_controllable_plant(rng, n, m, spectral_radius=rng.uniform(0.3, 1.3))
        cset = validate_cset(random_cset_rows(rng, n))
        uset = InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0)))
        inputs = random_input_sequence(rng, 20, m)
        data = build_data_matrices(inputs, simulate(plant, rng.uniform(-0.3, 0.3, n), inputs))
        minimization = synthesis.build_databased_lp(data, cset, uset)
        reference = _highs(minimization)
        cases = [(minimization, reference)]
        if reference.status == 0:
            cases += [(program, _highs(program)) for program in
                      (synthesis.build_databased_lp(data, cset, uset, reference.fun + shift)
                       for shift in (-0.02, 0.02))]
        for program, reference in cases:
            programs += 1
            assert reference.status in (0, 2)
            sol = lp.solve(program)
            outcomes[sol.status] += 1
            if sol.status in (lp.LpStatus.OPTIMAL, lp.LpStatus.FEASIBLE):
                assert reference.status == 0
                assert lp.check_feasible(program, sol.primal, 1e-6)
                if sol.status == lp.LpStatus.OPTIMAL:
                    assert sol.objective_value == pytest.approx(reference.fun, abs=1e-6)
            elif sol.status == lp.LpStatus.INFEASIBLE:
                assert reference.status == 2
            else:
                assert sol.status in (lp.LpStatus.ITERATION_LIMIT, lp.LpStatus.BAD_POINT)
    # the sweep reaches every verdict
    assert min(outcomes[status] for status in (lp.LpStatus.OPTIMAL, lp.LpStatus.FEASIBLE,
                                               lp.LpStatus.INFEASIBLE)) >= 40


def _program_arrays(program):
    return [np.asarray(program.num_vars), program.objective, program.eq_lhs, program.eq_rhs,
            program.ineq_lhs, program.ineq_rhs, program.lower_bounds, program.upper_bounds]


def test_nominal_builders_match_loop_oracle():
    # one broadcast builder serves both routes; each program must carry the
    # bytes of the block-by-block form, zero signs included
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        plant = PlantModel(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
        cset = validate_cset(random_cset_rows(rng, n))
        uset = InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0)))
        inputs = random_input_sequence(rng, int(rng.integers(n + m, 3 * (n + m))), m)
        data = build_data_matrices(inputs, simulate(plant, rng.normal(size=n), inputs))
        for build, source in ((synthesis.build_modelbased_lp, plant),
                              (synthesis.build_databased_lp, data)):
            for lam in (float(rng.uniform(0.3, 0.99)), None):
                built = _program_arrays(build(source, cset, uset, lam))
                expected = _program_arrays(nominal_lp_loop(source, cset, uset, lam))
                for got, want in zip(built, expected):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


def _regular_polygon(k, radius=1.0):
    angles = 2.0 * np.pi * np.arange(k) / k
    return polygon_rows_from_vertices(radius * np.column_stack([np.cos(angles), np.sin(angles)]))


BOX = np.vstack([np.eye(2), -np.eye(2)])
BOX_CORNERS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
PENTAGON = np.column_stack([np.cos(2 * np.pi * np.arange(5) / 5),
                            np.sin(2 * np.pi * np.arange(5) / 5)])
CUBE = np.vstack([np.eye(3), -np.eye(3)])
ROBUST_CASES = [
    (BOX, 0.02 * BOX_CORNERS, 9),
    (BOX, 0.02 * BOX_CORNERS, 1),
    (_regular_polygon(7), 0.01 * np.array([[1, 1], [-1, -1]]), 12),
    (_regular_polygon(5), 0.03 * PENTAGON, 6),
    (CUBE, 0.01 * CUBE, 5),
]


@pytest.mark.parametrize("rows, disturbance, samples", ROBUST_CASES)
def test_robust_builder_matches_loop_oracle(rows, disturbance, samples):
    rng = np.random.default_rng(samples)
    n = rows.shape[1]
    cset = validate_cset(rows)
    uset = InputPolytope(box_input_rows(2, 3.0))
    data = build_data_matrices(rng.normal(size=(samples, 2)), rng.normal(size=(samples + 1, n)))
    dset = DisturbanceSet(disturbance)
    program = synthesis.build_robust_lp(data, cset, uset, dset)
    lhs, rhs = robust_rows_loop(data, cset, uset, dset)
    # with more than two disturbance vertices the builder keeps, per (vertex,
    # sample, set row), the loop's rows for the largest and the smallest shift
    shift = rows @ dset.vertices.T
    n_v, n_s, n_d = cset.vertices.shape[0], rows.shape[0], shift.shape[1]
    pick = (np.stack([shift.argmax(axis=1), shift.argmin(axis=1)]) if n_d > 2
            else np.arange(n_d)[:, None])
    n_rob = n_v * samples * n_d * n_s
    blocks = lhs[:n_rob].reshape(n_v, samples, n_d, n_s, -1)[:, :, pick, np.arange(n_s)]
    rhs_blocks = rhs[:n_rob].reshape(n_v, samples, n_d, n_s)[:, :, pick, np.arange(n_s)]
    lhs = np.vstack([blocks.reshape(-1, lhs.shape[1]), lhs[n_rob:]])
    rhs = np.concatenate([rhs_blocks.ravel(), rhs[n_rob:]])
    assert program.ineq_lhs.shape == lhs.shape
    assert program.ineq_lhs.tobytes() == lhs.tobytes()
    assert program.ineq_rhs.tobytes() == rhs.tobytes()
    assert program.eq_lhs.tobytes() == np.kron(np.eye(n), data.x0t).tobytes()


@pytest.mark.parametrize("rows, disturbance, samples", ROBUST_CASES)
def test_pruned_robust_program_has_the_loop_worst_violation(rows, disturbance, samples):
    # the rows left out are convex combinations of the extreme ones, so no
    # G violates them by more than it violates the rows kept
    rng = np.random.default_rng(100 + samples)
    n = rows.shape[1]
    cset = validate_cset(rows)
    uset = InputPolytope(box_input_rows(2, 3.0))
    data = build_data_matrices(rng.normal(size=(samples, 2)), rng.normal(size=(samples + 1, n)))
    dset = DisturbanceSet(disturbance)
    program = synthesis.build_robust_lp(data, cset, uset, dset)
    lhs, rhs = robust_rows_loop(data, cset, uset, dset)
    for _ in range(20):
        g = rng.normal(scale=rng.uniform(0.1, 10.0), size=samples * n)
        pruned = np.max(program.ineq_lhs @ g - program.ineq_rhs)
        full = np.max(lhs @ g - rhs)
        assert abs(pruned - full) <= 1e-12 * max(1.0, abs(full))


def _disturbed_experiment(rng, n, samples, radius):
    a = rng.normal(size=(n, n))
    a *= 0.3 / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.normal(size=(n, 1))
    inputs = rng.uniform(-1.0, 1.0, size=(samples, 1))
    states = simulate(PlantModel(a, b), rng.uniform(-0.5, 0.5, size=n), inputs,
                      rng.uniform(-radius, radius, size=(samples, n)))
    return build_data_matrices(inputs, states)


def test_pruned_robust_program_has_the_highs_verdict_of_the_full_one():
    rng = np.random.default_rng(23)
    verdicts = []
    for trial in range(18):
        rows, vertices = [(BOX, BOX_CORNERS), (BOX, PENTAGON), (CUBE, CUBE)][trial % 3]
        radius = (0.002, 0.02, 0.1)[trial // 3 % 3]
        n = rows.shape[1]
        data = _disturbed_experiment(rng, n, int(rng.integers(3, 9)), radius)
        cset = validate_cset(rows)
        uset = InputPolytope(np.array([[0.2], [-0.2]]))
        dset = DisturbanceSet(radius * vertices)
        program = synthesis.build_robust_lp(data, cset, uset, dset)
        outcomes = [
            linprog(np.zeros(program.num_vars), A_ub=lhs, b_ub=rhs, A_eq=program.eq_lhs,
                    b_eq=program.eq_rhs, bounds=(None, None), method="highs").status
            for lhs, rhs in [(program.ineq_lhs, program.ineq_rhs),
                             robust_rows_loop(data, cset, uset, dset)]]
        assert outcomes[0] == outcomes[1] and outcomes[0] in (0, 2)
        verdicts.append(outcomes[0])
    assert verdicts.count(0) >= 4 and verdicts.count(2) >= 4


def test_row_cap_counts_the_rows_built():
    # box state set and box disturbance: 32 T + 8 rows once pruned, 64 T + 8
    # before, so a cap of 296 at T = 9 separates the two counts
    rng = np.random.default_rng(4)
    data = build_data_matrices(rng.normal(size=(9, 1)), rng.normal(size=(10, 2)))
    args = (data, validate_cset(BOX), InputPolytope([[0.2], [-0.2]]),
            DisturbanceSet(0.02 * BOX_CORNERS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        program = synthesis.build_robust_lp(*args, row_cap=296)
    assert program.ineq_lhs.shape[0] == 296
    with pytest.warns(UserWarning, match="has 296 inequality rows"):
        synthesis.build_robust_lp(*args, row_cap=295)
