import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgeqp3

from ddinv import experiment, numerics
from ddinv.numerics import numerical_rank
from generators import controllability_matrix, is_controllable, random_controllable_plant
from oracles import hankel_loop


def test_simulate_identity_plant_with_zero_input():
    plant = experiment.PlantModel(np.eye(2), np.eye(2))
    states = experiment.simulate(plant, [1.0, 1.0], np.zeros((5, 2)))
    assert states.shape == (6, 2)
    assert np.allclose(states, 1.0)


def test_simulate_demo_first_step(demo_plant):
    states = experiment.simulate(demo_plant, [1.0, 0.0], [[0.3]])
    assert np.allclose(states[1], [0.8, -0.1], atol=1e-12)


def test_simulate_with_disturbance():
    plant = experiment.PlantModel(np.zeros((2, 2)), np.zeros((2, 1)))
    states = experiment.simulate(plant, [0.0, 0.0], np.zeros((2, 1)),
                                 disturbances=[[0.5, -0.5], [0.25, 0.0]])
    assert np.allclose(states[1], [0.5, -0.5])
    assert np.allclose(states[2], [0.25, 0.0])


def test_data_matrices_are_shift_consistent(demo_plant):
    rng = np.random.default_rng(5)
    inputs = experiment.random_input_sequence(rng, 12, demo_plant.m)
    states = experiment.simulate(demo_plant, [1.0, 0.0], inputs)
    data = experiment.build_data_matrices(inputs, states)
    assert data.samples == 12
    assert np.array_equal(data.x0t[:, 1:], data.x1t[:, :-1])
    propagated = demo_plant.a_matrix @ data.x0t + demo_plant.b_matrix @ data.u0t
    assert np.allclose(propagated, data.x1t, atol=1e-12)


def test_data_matrices_shape_validation():
    with pytest.raises(ValueError):
        experiment.build_data_matrices(np.zeros((3, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        experiment.ExperimentData(np.zeros((1, 4)), np.zeros((2, 4)), np.zeros((2, 5)))


def test_hankel_scalar_window():
    out = experiment.hankel([1.0, 2.0, 3.0], 0, 2, 2)
    assert np.array_equal(out, [[1.0, 2.0], [2.0, 3.0]])


def test_hankel_vector_window():
    seq = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    out = experiment.hankel(seq, 1, 2, 1)
    assert np.array_equal(out, [[2.0], [20.0], [3.0], [30.0]])


def test_hankel_window_bounds():
    with pytest.raises(ValueError):
        experiment.hankel([1.0, 2.0, 3.0], 0, 2, 3)
    with pytest.raises(ValueError):
        experiment.hankel([1.0, 2.0], -1, 1, 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hankel_depth_nesting(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(6, 15))
    sigma = int(rng.integers(1, 3))
    seq = rng.normal(size=(T, sigma))
    depth = int(rng.integers(1, 3))
    width = T - depth
    deeper = experiment.hankel(seq, 0, depth + 1, width)
    shallow = experiment.hankel(seq, 0, depth, width)
    assert np.array_equal(deeper[: sigma * depth], shallow)


def test_hankel_matches_block_loop():
    # one slice per block row copies the same values as a block-by-block fill
    rng = np.random.default_rng(83)
    for _ in range(300):
        T, sigma = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        seq = rng.normal(size=(T, sigma)) if rng.random() < 0.7 else rng.normal(size=T)
        depth = int(rng.integers(1, T + 1))
        start = int(rng.integers(0, T - depth + 1))
        width = int(rng.integers(1, T - depth - start + 2))
        out = experiment.hankel(seq, start, depth, width)
        expected = hankel_loop(seq, start, depth, width)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


def test_constant_signal_not_exciting_at_depth_two():
    assert not experiment.is_persistently_exciting(np.full((10, 1), 0.7), 2)


def test_zero_signal_not_exciting():
    assert not experiment.is_persistently_exciting(np.zeros((10, 1)), 1)


def test_random_signal_excites(demo_data):
    inputs = demo_data.u0t.T
    assert experiment.is_persistently_exciting(inputs, 3)


def test_excitation_fails_when_window_missing():
    assert not experiment.is_persistently_exciting(np.ones((2, 1)), 5)


def test_demo_data_full_row_rank(demo_data):
    assert experiment.data_has_full_row_rank(demo_data)
    assert experiment.stacked_data_matrix(demo_data).shape == (3, 20)


def test_zero_experiment_is_rank_deficient(demo_plant):
    inputs = np.zeros((10, 1))
    states = experiment.simulate(demo_plant, [0.0, 0.0], inputs)
    data = experiment.build_data_matrices(inputs, states)
    assert not experiment.data_has_full_row_rank(data)


def test_min_samples_for_demo_dimensions():
    assert experiment.min_samples(2, 1) == 5
    assert experiment.min_samples(3, 2) == 11


def test_demo_plant_is_controllable(demo_plant):
    assert is_controllable(demo_plant)
    ctrb = controllability_matrix(demo_plant)
    assert ctrb.shape == (2, 2)
    assert np.allclose(ctrb[:, 1], [0.5, 1.2])


def test_uncontrollable_pair_detected():
    plant = experiment.PlantModel(np.eye(2), np.array([[1.0], [0.0]]))
    assert not is_controllable(plant)


def test_random_plant_generator_controllable():
    rng = np.random.default_rng(97)
    plant = random_controllable_plant(rng, 3, 2, spectral_radius=0.8)
    assert is_controllable(plant)
    assert np.max(np.abs(np.linalg.eigvals(plant.a_matrix))) == pytest.approx(0.8, abs=1e-9)


def test_excitation_implies_data_rank():
    # sufficient-condition route: controllable plant plus deep excitation
    rng = np.random.default_rng(210)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        plant = random_controllable_plant(rng, n, m)
        inputs = experiment.random_input_sequence(rng, 20, m)
        assert experiment.is_persistently_exciting(inputs, n + 1)
        states = experiment.simulate(plant, rng.normal(size=n), inputs)
        data = experiment.build_data_matrices(inputs, states)
        assert experiment.data_has_full_row_rank(data)


def test_closed_loop_simulation_matches_manual(demo_plant):
    gain = np.array([[0.3, -0.7]])
    states, inputs = experiment.simulate_closed_loop(demo_plant, gain, [1.0, 1.0], 3)
    assert states.shape == (4, 2)
    assert inputs.shape == (3, 1)
    x = np.array([1.0, 1.0])
    for t in range(3):
        u = gain @ x
        assert np.allclose(inputs[t], u)
        x = demo_plant.a_matrix @ x + demo_plant.b_matrix @ u
        assert np.allclose(states[t + 1], x)


def test_numerical_rank_edges():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.zeros((0, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    near = np.diag([1.0, 1e-12])
    assert numerical_rank(near) == 1


def _qr_rank(mat):
    """numerical_rank's rule on the R of scipy.linalg.qr(pivoting=True)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    diag = np.abs(np.diag(scipy.linalg.qr(mat, mode="r", pivoting=True)[0]))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.sum(diag > 1e-9 * diag[0]))


def test_numerical_rank_matches_the_scipy_qr_form():
    rng = np.random.default_rng(17)
    mats = [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((4, 2)), rng.normal(size=(200, 150))]
    for _ in range(200):
        rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        mat = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        # singular values straddling the rank threshold
        mat += rng.choice([0.0, 0.5e-9, 2e-9]) * rng.normal(size=(rows, cols))
        mats.append(mat)
    ranks = [numerical_rank(mat) for mat in mats]
    assert ranks == [_qr_rank(mat) for mat in mats]
    assert len(set(ranks)) >= 5
    with pytest.raises(ValueError):
        numerical_rank([[1.0, np.nan]])


def test_one_workspace_query_per_shape_gives_the_same_rank_and_r():
    # the workspace is queried once per shape; R, and so the rank, carry the
    # bits of a dgeqp3 call with the workspace queried for that very matrix
    rng = np.random.default_rng(29)
    mats = [rng.normal(size=shape) for shape in ((2, 2), (3, 2), (24, 2), (200, 150))]
    mats.append(rng.normal(size=(24, 3)) @ rng.normal(size=(3, 8)))
    for mat in mats:
        queried = int(dgeqp3(mat, lwork=-1)[3][0])
        assert numerics._qr_workspace(*mat.shape) == queried
        r_matrix = dgeqp3(mat, lwork=queried)[0]
        cached = dgeqp3(mat, lwork=numerics._qr_workspace(*mat.shape))[0]
        assert cached.tobytes() == r_matrix.tobytes()
        diag = np.abs(np.diag(r_matrix))
        assert numerical_rank(mat) == int(np.sum(diag > numerics.RANK_TOL_FACTOR * diag[0]))
    assert [numerical_rank(mat) for mat in mats] == [2, 2, 2, 150, 3]


def test_rank_calls_on_one_shape_query_the_workspace_once(monkeypatch):
    calls = []

    def counted(mat, lwork):
        calls.append(lwork)
        return dgeqp3(mat, lwork=lwork)

    monkeypatch.setattr(numerics, "dgeqp3", counted)
    numerics._qr_workspace.cache_clear()
    rng = np.random.default_rng(30)
    for _ in range(5):
        numerical_rank(rng.normal(size=(7, 3)))
    assert calls[0] == -1 and -1 not in calls[1:] and len(calls) == 6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_refused(bad):
    a = np.eye(2)
    a[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        experiment.PlantModel(a, [[0.0], [1.0]])
    with pytest.raises(ValueError, match="finite"):
        experiment.PlantModel(np.eye(2), [[0.0], [bad]])
    x1t = np.ones((2, 3))
    x1t[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        experiment.ExperimentData(u0t=np.ones((1, 3)), x0t=np.ones((2, 3)), x1t=x1t)
