"""End-to-end acceptance checks.

Each test prints one line, `[acceptance N] PASS ...` or `[acceptance N]
FAIL ...`, and carries a wall-clock budget. Run with `-s` to see the lines
as they appear.
"""

import time
from itertools import product

import numpy as np

from ddinv import lp, synthesis, verification
from ddinv.experiment import (PlantModel, build_data_matrices,
                              data_has_full_row_rank,
                              is_persistently_exciting, min_samples,
                              random_input_sequence, simulate,
                              simulate_closed_loop)
from ddinv.polytopes import (DisturbanceSet, InputPolytope, enumerate_vertices,
                             gauge, validate_cset)
from generators import (box_input_rows, random_box_lp, random_controllable_plant,
                        random_cset_rows, unbounded_lp)
from oracles import brute_force_lp, same_point_set, vertex_oracle_2d


def _finish(num: int, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {detail} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, (f"criterion {num} took {elapsed:.2f}s, "
                              f"budget {budget:.0f}s")


def test_criterion_1_minimal_level_from_data(demo_state_set, demo_input_set,
                                             demo_plant, demo_data):
    started = time.perf_counter()
    data_cert = synthesis.minimize_lambda(synthesis.SynthesisProblem(
        demo_state_set, demo_input_set, "minimize", demo_data))
    model_cert = synthesis.minimize_lambda(synthesis.SynthesisProblem(
        demo_state_set, demo_input_set, "minimize", demo_plant))
    gap = abs(data_cert.lam - model_cert.lam)
    ok = abs(data_cert.lam - 0.758) <= 1e-3 and gap <= 1e-6
    _finish(1, ok,
            f"min level from data {data_cert.lam:.6f}, model gap {gap:.2e}",
            started, 5.0)


def test_criterion_2_fixed_level_certificate(demo_state_set, demo_input_set,
                                             demo_plant, demo_data,
                                             demo_vertices):
    started = time.perf_counter()
    lam = 0.84
    cert = synthesis.synthesize(synthesis.SynthesisProblem(
        demo_state_set, demo_input_set, lam, demo_data))
    f_matrix = demo_plant.a_matrix + demo_plant.b_matrix @ cert.gain

    cert_ok = verification.check_invariance_certificate(
        f_matrix, demo_state_set, cert.p_matrix, lam)
    vert_ok, worst = verification.check_vertex_contractivity(
        f_matrix, demo_state_set, lam)
    adm_ok, _ = verification.check_admissibility(
        cert.gain, demo_state_set, demo_input_set)

    decay_ok = True
    input_ok = True
    for vertex in demo_vertices:
        states, inputs = simulate_closed_loop(demo_plant, cert.gain,
                                              vertex, 50)
        values = [verification.lyapunov_value(demo_state_set, x)
                  for x in states]
        for before, after in zip(values, values[1:]):
            decay_ok &= after <= lam * before + 1e-6
        input_ok &= bool(np.all(np.abs(inputs) <= 7.0 + 1e-6))

    ok = cert_ok and vert_ok and adm_ok and decay_ok and input_ok
    _finish(2, ok,
            f"certificate at level {lam} (worst vertex gauge {worst:.6f}, "
            f"decay and input bounds along 4 vertex rollouts)",
            started, 5.0)


def test_criterion_3_model_data_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(20260822)
    done = agree = feasible = 0
    while done < 50:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        plant = random_controllable_plant(
            rng, n, m, spectral_radius=rng.uniform(0.3, 1.3))
        cset = validate_cset(random_cset_rows(rng, n))
        uset = InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0)))
        inputs = random_input_sequence(rng, 20, m)
        states = simulate(plant, rng.uniform(-0.3, 0.3, n), inputs)
        data = build_data_matrices(inputs, states)
        if not (is_persistently_exciting(inputs, n + 1)
                and data_has_full_row_rank(data)):
            continue
        try:
            ref = synthesis.minimize_lambda(synthesis.SynthesisProblem(
                cset, uset, "minimize", plant))
            if abs(ref.lam - 0.9) < 1e-3:
                continue  # probe level sits on the feasibility boundary
        except synthesis.InfeasibleProblem:
            pass
        outcome = []
        certs = []
        for source in (plant, data):
            try:
                certs.append(synthesis.synthesize(synthesis.SynthesisProblem(
                    cset, uset, 0.9, source)))
                outcome.append(True)
            except synthesis.InfeasibleProblem:
                certs.append(None)
                outcome.append(False)
        if outcome[0] == outcome[1]:
            agree += 1
        if outcome[0] and outcome[1]:
            feasible += 1
            ok_m = verification.verify_certificate(
                cset, uset, certs[0], plant=plant).all_ok()
            ok_d = verification.verify_certificate(
                cset, uset, certs[1], data=data).all_ok()
            if not (ok_m and ok_d):
                agree = -1
                break
        done += 1
    ok = agree == 50
    _finish(3, ok,
            f"feasibility agreement {agree}/50 at level 0.9 "
            f"({feasible} feasible, all certificates verified)",
            started, 60.0)


def test_criterion_4_excitation_gives_rank():
    started = time.perf_counter()
    rng = np.random.default_rng(41)
    implication = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        plant = random_controllable_plant(rng, n, m)
        samples = min_samples(n, m) + int(rng.integers(0, 10))
        inputs = random_input_sequence(rng, samples, m)
        states = simulate(plant, rng.uniform(-0.5, 0.5, n), inputs)
        data = build_data_matrices(inputs, states)
        if is_persistently_exciting(inputs, n + 1):
            implication += data_has_full_row_rank(data)
        else:
            implication += 1  # vacuous, but should not happen here

    # degenerate experiments must be flagged on both ends
    plant = PlantModel([[0.8, 0.5], [-0.4, 1.2]], [[0.0], [1.0]])
    zero_inputs = np.zeros((20, 1))
    zero_states = simulate(plant, [0.0, 0.0], zero_inputs)
    zero_data = build_data_matrices(zero_inputs, zero_states)
    negatives_ok = (not is_persistently_exciting(zero_inputs, 3)
                    and not data_has_full_row_rank(zero_data)
                    and not is_persistently_exciting(np.ones((20, 1)), 3))

    ok = implication == 50 and negatives_ok
    _finish(4, ok,
            f"excitation implies full data rank in {implication}/50 trials, "
            f"degenerate experiments flagged",
            started, 10.0)


def test_criterion_5_robust_designs_hold_up():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    box = validate_cset(np.vstack([np.eye(2), -np.eye(2)]))
    uset = InputPolytope(box_input_rows(1, 5.0))
    d_vertices = 0.05 * np.array(list(product((1.0, -1.0), repeat=2)))
    dset = DisturbanceSet(d_vertices)

    feasible = sound = 0
    for _ in range(20):
        plant = PlantModel(rng.uniform(-0.45, 0.45, (2, 2)),
                           rng.uniform(-1.0, 1.0, (2, 1)))
        inputs = random_input_sequence(rng, 8, 1, 3.0)
        noise = rng.uniform(-0.05, 0.05, (8, 2))
        states = simulate(plant, [0.0, 0.0], inputs, noise)
        data = build_data_matrices(inputs, states)
        try:
            cert = synthesis.synthesize(synthesis.SynthesisProblem(
                box, uset, 0.0, data, disturbance=dset))
        except synthesis.InfeasibleProblem:
            continue
        feasible += 1
        f_matrix = plant.a_matrix + plant.b_matrix @ cert.gain
        holds, _ = verification.check_robust_invariance(f_matrix, box, dset)

        # adversarial rollout: worst disturbance vertex at every step
        confined = True
        for corner in product((1.0, -1.0), repeat=2):
            x = np.asarray(corner)
            for _ in range(100):
                nominal = f_matrix @ x
                gauges = [gauge(box, nominal + w) for w in d_vertices]
                x = nominal + d_vertices[int(np.argmax(gauges))]
                confined &= gauge(box, x) <= 1.0 + 1e-6
        sound += holds and confined

    ok = feasible >= 1 and sound == feasible
    _finish(5, ok,
            f"{feasible}/20 robust designs feasible, {sound} sound under "
            f"adversarial disturbances",
            started, 60.0)


def test_criterion_6_solver_against_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    matched = 0
    for _ in range(200):
        program = random_box_lp(rng)
        status, value, _ = brute_force_lp(program)
        sol = lp.solve(program)
        if status == "optimal":
            matched += (sol.status == lp.LpStatus.OPTIMAL
                        and abs(sol.objective_value - value) <= 1e-6)
        else:
            matched += sol.status == lp.LpStatus.INFEASIBLE
    unbounded = sum(
        lp.solve(unbounded_lp(rng)).status == lp.LpStatus.UNBOUNDED
        for _ in range(10))
    ok = matched == 200 and unbounded == 10
    _finish(6, ok,
            f"{matched}/200 solver results match enumeration, "
            f"{unbounded}/10 unbounded instances detected",
            started, 10.0)


def test_criterion_7_vertex_enumeration(demo_state_set, demo_vertices):
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    matched = 0
    for _ in range(100):
        rows = random_cset_rows(rng, 2)
        found = enumerate_vertices(rows)
        matched += same_point_set(found, vertex_oracle_2d(rows), tol=1e-6)
    demo_ok = same_point_set(demo_state_set.vertices, demo_vertices, tol=1e-9)
    ok = matched == 100 and demo_ok
    _finish(7, ok,
            f"{matched}/100 planar vertex sets match the pairwise oracle, "
            f"reference set exact",
            started, 5.0)


def test_criterion_8_certificate_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    agreed = contractive = 0
    for trial in range(100):
        n = int(rng.integers(2, 4))
        cset = validate_cset(random_cset_rows(rng, n))
        f_matrix = rng.uniform(-1.0, 1.0, (n, n))
        lam = float(rng.uniform(0.3, 0.95))
        _, worst = verification.check_vertex_contractivity(f_matrix, cset, lam)
        f_matrix *= lam * (0.8 if trial % 2 == 0 else 1.25) / worst
        _, worst = verification.check_vertex_contractivity(f_matrix, cset, lam)
        holds = worst <= lam
        if abs(worst - lam) <= 1e-6:
            continue  # undecidable at the working tolerance
        witness = synthesis.find_certificate_matrix(f_matrix, cset, lam)
        agreed += (witness is not None) == holds
        contractive += holds
    ok = agreed == 100 and 20 <= contractive <= 80
    _finish(8, ok,
            f"witness existence matched the vertex test in {agreed}/100 "
            f"instances ({contractive} contractive)",
            started, 30.0)
