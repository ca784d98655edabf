import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

from ddinv import demo, lp, synthesis, verification
from ddinv.experiment import (ExperimentData, PlantModel, build_data_matrices,
                              data_has_full_row_rank, random_input_sequence, simulate,
                              stacked_data_matrix)
from ddinv.polytopes import DisturbanceSet, InputPolytope, validate_cset
from generators import box_input_rows, random_controllable_plant, random_cset_rows
from oracles import (nominal_lp_loop, opposite_pairs, polygon_rows_from_vertices,
                     robust_rows_loop)


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


def test_level_rules_turn_negative_zero_into_zero():
    # 0.0 <= -0.0 holds, so the range tests alone let -0.0 through
    for rule in (synthesis.contraction_level, verification.certified_level):
        assert math.copysign(1.0, rule(-0.0)) == 1.0
        assert math.copysign(1.0, rule(0.0)) == 1.0


@pytest.mark.xfail(strict=True, raises=synthesis.InfeasibleProblem,
                   reason="the nominal data program depends on the state's units")
def test_level_minimization_does_not_depend_on_the_state_units(demo_input_set, demo_data):
    # the demo problem with the state in units of 2^-33, exactly: S 2^33 and
    # X0, X1 / 2^33 describe the same loops, so the least level is the same
    # 0.758333, yet the data program calls it infeasible from 2^33 on
    def least_level(scale):
        data = ExperimentData(demo_data.u0t, demo_data.x0t / scale, demo_data.x1t / scale)
        return synthesis.synthesize(synthesis.SynthesisProblem(
            validate_cset(demo.STATE_ROWS * scale), demo_input_set, synthesis.MINIMIZE,
            data)).lam

    assert least_level(2.0 ** 33) == pytest.approx(least_level(1.0), abs=1e-6)


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


@pytest.mark.parametrize("route", ["model", "data", "robust"])
def test_program_that_overflows_while_built_is_a_solver_failure(demo_plant, demo_data, route):
    # set rows of 4 times a plant or data entry of 1e308 overflow in S A or
    # S X1; no numpy warning and no error from the program's own checks
    box = validate_cset(4.0 * np.vstack([np.eye(2), -np.eye(2)]))
    inputs = InputPolytope([[1.0], [-1.0]])
    x1t = demo_data.x1t.copy()
    x1t[0, 0] = 1e308
    source = (PlantModel([[1e308, 0.0], [0.0, 1.0]], demo_plant.b_matrix) if route == "model"
              else ExperimentData(demo_data.u0t, demo_data.x0t, x1t))
    disturbance = DisturbanceSet([[0.01, 0.01], [-0.01, -0.01]]) if route == "robust" else None
    with pytest.raises(synthesis.SolverFailure, match="overflows while being built"):
        synthesis.synthesize(synthesis.SynthesisProblem(box, inputs, 0.5, source, disturbance))


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


_HEXAGON_ANGLES = 2.0 * np.pi * np.arange(6) / 6


@pytest.mark.parametrize("rows", [np.vstack([np.eye(2), -np.eye(2)]),
                                  np.column_stack([np.cos(_HEXAGON_ANGLES),
                                                   np.sin(_HEXAGON_ANGLES)])],
                         ids=["box", "hexagon"])
def test_minimized_level_stops_at_its_cap(rows):
    # A = a I with B = 0 has least level a on any set. The program caps the
    # level at 1 - EPS_STRICT: a below the cap comes back, a at the cap
    # comes back as the cap, and a above it is infeasible
    cset = validate_cset(rows)
    uset = InputPolytope([[1.0], [-1.0]])

    def certificate(a):
        plant = PlantModel(a * np.eye(2), np.zeros((2, 1)))
        cert = synthesis.synthesize(synthesis.SynthesisProblem(cset, uset, "minimize", plant))
        assert verification.verify_certificate(cset, uset, cert, plant=plant).all_ok()
        return cert

    assert certificate(1.0 - 2e-6).lam == pytest.approx(1.0 - 2e-6, rel=1e-12)
    assert certificate(1.0 - 1e-6).lam == 1.0 - synthesis.EPS_STRICT
    with pytest.raises(synthesis.InfeasibleProblem):
        certificate(1.0 - 5e-7)


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
    # the demo set pairs its rows, so the program carries the rows of P at
    # the first row of each pair, with Lambda+ and Lambda- in S's column
    # order: fold P into them
    reps, partner = synthesis._row_pairs(demo_state_set.h_matrix)
    p = cert.p_matrix
    folded = (p[reps] + p[partner[reps]][:, partner]) / 2
    z = np.concatenate([g.T.ravel(), folded.ravel()])
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
                   bounds=[(0.0 if nonneg else None, None) for nonneg in program.nonneg],
                   method="highs")


def _design_problems(seed, count, full_rank):
    """count seeded (plant, data, state set, input set) problems: n from 2
    to 3, m from 1 to 2, input boxes from 2 to 8, and T from n + m + 2 to 29
    with [U0; X0] of full row rank, or T in [n, n + m), where it cannot be."""
    rng = np.random.default_rng(seed)
    problems = []
    while len(problems) < count:
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        plant = random_controllable_plant(rng, n, m, spectral_radius=rng.uniform(0.3, 1.3))
        cset = validate_cset(random_cset_rows(rng, n))
        uset = InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0)))
        samples = int(rng.integers(n + m + 2, 30) if full_rank else rng.integers(n, n + m))
        inputs = random_input_sequence(rng, samples, m)
        data = build_data_matrices(inputs, simulate(plant, rng.uniform(-0.3, 0.3, n), inputs))
        if data_has_full_row_rank(data) == full_rank:
            problems.append((plant, data, cset, uset))
    return problems


def _highs_level(program):
    """The least level HiGHS finds for a level-minimizing program, or None
    when the program is infeasible."""
    res = _highs(program)
    assert res.status in (0, 2), res.message
    return float(res.x[-1]) if res.status == 0 else None


def test_data_and_model_programs_have_one_least_level_under_the_rank_condition():
    # the paper's equivalence, judged on the two builders by HiGHS alone:
    # with [U0; X0] of full row rank the data program is feasible exactly
    # when the model program is, at the same least level
    levels = []
    for plant, data, cset, uset in _design_problems(2026, 200, full_rank=True):
        model = _highs_level(synthesis.build_modelbased_lp(plant, cset, uset))
        level = _highs_level(synthesis.build_databased_lp(data, cset, uset))
        assert (model is None) == (level is None), (model, level)
        if model is not None:
            assert level == pytest.approx(model, abs=1e-9)
        levels.append(model)
    assert 50 <= sum(level is None for level in levels) <= 150


def test_data_without_full_rank_are_never_less_conservative_than_the_model():
    # without the rank condition the data program only loses solutions: a
    # data-based certificate is a model-based one, so its level is never
    # below the model's least level
    outcomes = Counter()
    for plant, data, cset, uset in _design_problems(5, 100, full_rank=False):
        model = _highs_level(synthesis.build_modelbased_lp(plant, cset, uset))
        level = _highs_level(synthesis.build_databased_lp(data, cset, uset))
        if level is not None:
            assert model is not None and level >= model - 1e-9, (model, level)
        outcomes[model is None, level is None] += 1
    assert outcomes[False, True] >= 20, outcomes


@pytest.mark.xfail(strict=True, raises=synthesis.SolverFailure,
                   reason="the in-house simplex fails on some data programs that "
                          "HiGHS solves (ROADMAP item 1)")
def test_synthesize_gives_one_least_level_on_both_routes_under_the_rank_condition():
    # the same relations as the two tests above, through synthesize
    problems = _design_problems(2026, 200, full_rank=True) + _design_problems(5, 100, full_rank=False)
    for plant, data, cset, uset in problems:
        levels = []
        for source in (plant, data):
            try:
                levels.append(synthesis.synthesize(
                    synthesis.SynthesisProblem(cset, uset, "minimize", source)).lam)
            except synthesis.InfeasibleProblem:
                levels.append(None)
        model, level = levels
        if data_has_full_row_rank(data):
            assert (model is None) == (level is None), (model, level)
            if model is not None:
                assert level == pytest.approx(model, abs=1e-9)
        elif level is not None:
            assert model is not None and level >= model - 1e-9, (model, level)


def test_simplex_verdicts_agree_with_highs_on_data_programs():
    # seeded data-route programs: each level minimization, then fixed levels
    # 0.02 below and above the HiGHS optimum. Every verdict the simplex
    # gives must be right; giving none (an iteration limit, a phase-one
    # breakdown, or a point the guard withholds) is allowed and counted
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
                assert sol.status in (lp.LpStatus.ITERATION_LIMIT, lp.LpStatus.PHASE_ONE_BREAKDOWN,
                                      lp.LpStatus.BAD_POINT)
    # the sweep reaches every verdict
    assert min(outcomes[status] for status in (lp.LpStatus.OPTIMAL, lp.LpStatus.FEASIBLE,
                                               lp.LpStatus.INFEASIBLE)) >= 40


def _program_arrays(program):
    return [np.asarray(program.num_vars), program.objective, program.eq_lhs, program.eq_rhs,
            program.ineq_lhs, program.ineq_rhs, program.nonneg]


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


def test_paired_builder_matches_loop_oracle():
    # on a centrally symmetric set the builder keeps P's rows at the first
    # row of each opposite pair, as the block-by-block form does
    rng = np.random.default_rng(43)
    for _ in range(30):
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        plant = PlantModel(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
        cset = _symmetric_set(rng, n)
        uset = InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0)))
        inputs = random_input_sequence(rng, int(rng.integers(n + m, 3 * (n + m))), m)
        data = build_data_matrices(inputs, simulate(plant, rng.normal(size=n), inputs))
        for build, source in ((synthesis.build_modelbased_lp, plant),
                              (synthesis.build_databased_lp, data)):
            for lam in (float(rng.uniform(0.3, 0.99)), None):
                built = _program_arrays(build(source, cset, uset, lam))
                expected = _program_arrays(nominal_lp_loop(source, cset, uset, lam))
                assert built[0] == expected[0] < _program_arrays(
                    nominal_lp_loop(source, cset, uset, lam, pair_rows=False))[0]
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
    (BOX, np.zeros((1, 2)), 4),
]


def _extreme_loop_rows(data, cset, uset, dset, pair_rows):
    """The loop oracle's rows that the builder keeps: per (vertex, sample,
    set row carried) the rows for the largest and the smallest shift, in
    that order, whatever the number of disturbance vertices."""
    lhs, rhs = robust_rows_loop(data, cset, uset, dset, pair_rows=pair_rows)
    shift = cset.h_matrix @ dset.vertices.T
    carried = opposite_pairs(cset.h_matrix)[0] if pair_rows else list(range(cset.num_rows))
    n_v, n_r, n_d = cset.vertices.shape[0], len(carried), shift.shape[1]
    pick = np.stack([shift.argmax(axis=1), shift.argmin(axis=1)])[:, carried]
    n_rob = n_v * data.samples * n_d * n_r
    blocks = lhs[:n_rob].reshape(n_v, data.samples, n_d, n_r, -1)[:, :, pick, np.arange(n_r)]
    rhs_blocks = rhs[:n_rob].reshape(n_v, data.samples, n_d, n_r)[:, :, pick, np.arange(n_r)]
    return (np.vstack([blocks.reshape(-1, lhs.shape[1]), lhs[n_rob:]]),
            np.concatenate([rhs_blocks.ravel(), rhs[n_rob:]]))


@pytest.mark.parametrize("rows, disturbance, samples", ROBUST_CASES)
def test_robust_builder_matches_loop_oracle(rows, disturbance, samples):
    rng = np.random.default_rng(samples)
    n = rows.shape[1]
    cset = validate_cset(rows)
    uset = InputPolytope(box_input_rows(2, 3.0))
    data = build_data_matrices(rng.normal(size=(samples, 2)), rng.normal(size=(samples + 1, n)))
    dset = DisturbanceSet(disturbance)
    program = synthesis.build_robust_lp(data, cset, uset, dset)
    # on the box and the cube the set rows pair and the builder carries
    # half of them; the odd polygons carry all
    lhs, rhs = _extreme_loop_rows(data, cset, uset, dset, pair_rows=True)
    n_r = rows.shape[0] // 2 if rows.shape[0] % 2 == 0 else rows.shape[0]
    n_u = uset.h_matrix.shape[0]
    assert program.ineq_lhs.shape[0] == cset.vertices.shape[0] * (samples * 2 * n_r + n_u)
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


def _symmetric_set(rng, n):
    """A random centrally symmetric C-set: S = [H; -H] with its rows in a
    random order."""
    while True:
        h = rng.normal(size=(int(rng.integers(n, n + 3)), n))
        h /= np.linalg.norm(h, axis=1)[:, None] * rng.uniform(0.5, 2.0, size=(h.shape[0], 1))
        try:
            return validate_cset(rng.permutation(np.vstack([h, -h])))
        except ValueError:
            continue


def _verdict(status):
    return {lp.LpStatus.OPTIMAL: 0, lp.LpStatus.FEASIBLE: 0,
            lp.LpStatus.INFEASIBLE: 2}.get(status)


def test_symmetric_sets_halve_the_program_with_the_general_verdicts_and_levels():
    # the paired program carries half the rows of P; where the simplex
    # answers on it, HiGHS agrees, and its optimal level is the general
    # form's (oracles.nominal_lp_loop, the full layout) within 1e-9
    rng = np.random.default_rng(2024)
    answered, compared = Counter(), 0
    for _ in range(104):
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        cset = _symmetric_set(rng, n)
        n_s = cset.num_rows
        plant = random_controllable_plant(rng, n, m, spectral_radius=rng.uniform(0.3, 1.3))
        uset = InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0)))
        inputs = random_input_sequence(rng, 20, m)
        data = build_data_matrices(inputs, simulate(plant, rng.uniform(-0.3, 0.3, n), inputs))
        for build, source in ((synthesis.build_modelbased_lp, plant),
                              (synthesis.build_databased_lp, data)):
            general = nominal_lp_loop(source, cset, uset, None, pair_rows=False)
            paired = build(source, cset, uset, None)
            assert paired.num_vars == general.num_vars - n_s * n_s // 2
            assert paired.eq_lhs.shape[0] == general.eq_lhs.shape[0] - n_s * n // 2
            reference = _highs(general)
            assert reference.status in (0, 2)
            # the fixed levels straddle the general optimum, so its verdict
            # at each follows from that optimum
            levels = ([reference.fun - 0.02, reference.fun + 0.02]
                      if reference.status == 0 else [0.5])
            for lam in [None] + [lam for lam in levels if 0.0 <= lam < 1.0]:
                truth = 0 if reference.status == 0 and (lam is None or lam > reference.fun) else 2
                if lam is not None:
                    paired = build(source, cset, uset, lam)
                highs = _highs(paired)
                assert highs.status == truth
                if lam is None and truth == 0:
                    assert highs.fun == pytest.approx(reference.fun, abs=1e-7)
                sol = lp.solve(paired)
                verdict = _verdict(sol.status)
                answered[verdict is not None] += 1
                if verdict is None:
                    continue
                assert verdict == truth
                if lam is None and sol.status == lp.LpStatus.OPTIMAL:
                    full = lp.solve(general)
                    if full.status == lp.LpStatus.OPTIMAL:
                        assert abs(sol.objective_value - full.objective_value) <= 1e-9
                        compared += 1
    assert answered[True] >= 400 and compared >= 100


def test_a_set_one_row_off_symmetric_builds_the_general_program(demo_plant, demo_data,
                                                                 demo_input_set):
    # the 24-gon's opposite rows cancel only to within rounding, and pair;
    # moving one row by 1e-9 leaves that row without a partner, and the
    # program is the general one, byte for byte
    angles = 2.0 * np.pi * np.arange(24) / 24
    rows = polygon_rows_from_vertices(np.column_stack([np.cos(angles), np.sin(angles)]))
    reps, partner = synthesis._row_pairs(rows)
    assert reps.size == 12 and np.array_equal(partner[partner], np.arange(24))
    rows[5, 0] += 1e-9
    cset = validate_cset(rows)
    assert np.array_equal(synthesis._row_pairs(rows)[1], np.arange(24))
    for build, source in ((synthesis.build_modelbased_lp, demo_plant),
                          (synthesis.build_databased_lp, demo_data)):
        built = _program_arrays(build(source, cset, demo_input_set, None))
        expected = _program_arrays(nominal_lp_loop(source, cset, demo_input_set, None,
                                                   pair_rows=False))
        for got, want in zip(built, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_certificate_search_on_a_symmetric_set_returns_the_full_p():
    rng = np.random.default_rng(17)
    for _ in range(20):
        cset = _symmetric_set(rng, int(rng.integers(2, 4)))
        n, n_s = cset.dim, cset.num_rows
        # F maps every vertex to gauge 0.9, so a certificate exists at 0.95
        f_matrix = rng.normal(size=(n, n))
        f_matrix *= 0.9 / np.max(cset.h_matrix @ f_matrix @ cset.vertices.T)
        p = synthesis.find_certificate_matrix(f_matrix, cset, 0.95)
        assert p.shape == (n_s, n_s)
        assert verification.check_invariance_certificate(f_matrix, cset, p, 0.95)
        # and none at a level below the worst vertex gauge
        assert synthesis.find_certificate_matrix(f_matrix, cset, 0.85) is None


def _hull_around_origin(rng, n):
    """A random disturbance polytope with no symmetry whose hull holds the
    origin: random points less one of their convex combinations."""
    points = rng.normal(size=(int(rng.integers(2, 6)), n))
    return points - rng.dirichlet(np.ones(points.shape[0])) @ points


def test_paired_robust_program_has_the_full_verdict_and_worst_violation():
    # on a centrally symmetric set the robust program carries one row of
    # each opposite pair; HiGHS gives it the verdict of the full program
    # (the loop oracle's rows for every disturbance vertex and set row), and
    # no G violates the one by more or less than the other
    rng = np.random.default_rng(25)
    verdicts = Counter()
    for _ in range(150):
        n, samples = int(rng.integers(2, 4)), int(rng.integers(3, 11))
        cset = _symmetric_set(rng, n)
        radius = rng.choice([0.002, 0.01, 0.05])
        data = _disturbed_experiment(rng, n, samples, radius)
        uset = InputPolytope(np.array([[0.5], [-0.5]]))
        dset = DisturbanceSet(radius * _hull_around_origin(rng, n))
        program = synthesis.build_robust_lp(data, cset, uset, dset)
        assert program.ineq_lhs.shape[0] == cset.vertices.shape[0] * (samples * cset.num_rows + 2)
        lhs, rhs = robust_rows_loop(data, cset, uset, dset)
        outcomes = [
            linprog(np.zeros(program.num_vars), A_ub=a_ub, b_ub=b_ub, A_eq=program.eq_lhs,
                    b_eq=program.eq_rhs, bounds=(None, None), method="highs").status
            for a_ub, b_ub in [(program.ineq_lhs, program.ineq_rhs), (lhs, rhs)]]
        assert outcomes[0] == outcomes[1] and outcomes[0] in (0, 2)
        verdicts[outcomes[0]] += 1
        for _ in range(5):
            g = rng.normal(scale=rng.uniform(0.1, 10.0), size=samples * n)
            paired = np.max(program.ineq_lhs @ g - program.ineq_rhs)
            full = np.max(lhs @ g - rhs)
            assert abs(paired - full) <= 1e-12 * max(1.0, abs(full))
    assert verdicts[0] >= 40 and verdicts[2] >= 20


def test_a_set_one_row_off_symmetric_builds_the_full_robust_program():
    # the 8-gon pairs; moving one row by 1e-9 leaves that row without a
    # partner, and the robust program is the full one, byte for byte
    rng = np.random.default_rng(9)
    rows = _regular_polygon(8)
    assert synthesis._row_pairs(rows)[0].size == 4
    rows[3, 1] += 1e-9
    assert np.array_equal(synthesis._row_pairs(rows)[1], np.arange(8))
    cset = validate_cset(rows)
    uset = InputPolytope(box_input_rows(1, 3.0))
    data = _disturbed_experiment(rng, 2, 6, 0.01)
    dset = DisturbanceSet(0.01 * _hull_around_origin(rng, 2))
    program = synthesis.build_robust_lp(data, cset, uset, dset)
    lhs, rhs = _extreme_loop_rows(data, cset, uset, dset, pair_rows=False)
    assert program.ineq_lhs.shape == lhs.shape == (8 * (6 * 2 * 8 + 2), 12)
    assert program.ineq_lhs.tobytes() == lhs.tobytes()
    assert program.ineq_rhs.tobytes() == rhs.tobytes()


@pytest.mark.parametrize("rows", [BOX, CUBE, _regular_polygon(8)], ids=["box", "cube", "8-gon"])
def test_paired_robust_certificates_pass_the_full_check(rows):
    # verify evaluates every vertex, sample, extreme shift and set row, so
    # it checks the rows the paired program left out
    rng = np.random.default_rng(rows.shape[0])
    n, n_s = rows.shape[1], rows.shape[0]
    cset = validate_cset(rows)
    uset = InputPolytope(box_input_rows(1, 5.0))
    certified = 0
    for _ in range(10):
        samples = int(rng.integers(3, 11))
        radius = 0.05 / samples
        data = _disturbed_experiment(rng, n, samples, radius)
        dset = DisturbanceSet(radius * _hull_around_origin(rng, n))
        program = synthesis.build_robust_lp(data, cset, uset, dset)
        assert program.ineq_lhs.shape[0] == cset.vertices.shape[0] * (samples * n_s + 2)
        try:
            cert = synthesis.synthesize(
                synthesis.SynthesisProblem(cset, uset, 0.0, data, disturbance=dset))
        except synthesis.InfeasibleProblem:
            continue
        report = verification.verify_certificate(cset, uset, cert, data=data,
                                                 disturbance=dset)
        assert report.contractivity_ok and report.all_ok()
        certified += 1
    assert certified >= 5


@pytest.mark.parametrize("k, rows, cols", [(1, 1, 4), (2, 1, 4), (4, 1, 4), (2, 2, 7),
                                           (3, 3, 29), (2, 2, 0)])
def test_block_diagonal_rows_have_np_kron_bytes(k, rows, cols):
    # the builders' kron(I, M) blocks: the nominal row sums with M = 1^T,
    # and X0 G = I with M = X0 in the nominal data and robust programs. A
    # product of 0.0 and a negative entry is -0.0 in both, and so is 1.0
    # times -0.0
    rng = np.random.default_rng(10 * k + cols)
    for mat in (np.ones((rows, cols)), rng.normal(size=(rows, cols))):
        mat.flat[::3] = 0.0
        mat.flat[1::4] = -0.0
        mat.flat[2::5] = -np.abs(mat.flat[2::5]) - 1.0
        # a column slice of a wider block, as the builders pass
        out = np.full((k * rows, k * cols + 5), np.nan)
        synthesis._vertex_rows(np.eye(k), mat, out[:, 2:-3])
        assert out[:, 2:-3].tobytes() == np.kron(np.eye(k), mat).tobytes()
        assert np.isnan(out[:, :2]).all() and np.isnan(out[:, -3:]).all()
