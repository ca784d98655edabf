import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddinv import lp
from generators import lp_with_known_point, random_box_lp, unbounded_lp
from oracles import brute_force_lp, dense_pivot


def test_single_variable_lower_bound():
    prob = lp.LinearProgram(num_vars=1, objective=[1.0], lower_bounds=[1.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-9)


def test_single_variable_inequality_row():
    prob = lp.LinearProgram(num_vars=1, objective=[1.0],
                            ineq_lhs=[[-1.0]], ineq_rhs=[-1.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_two_variable_vertex_optimum():
    prob = lp.LinearProgram(num_vars=2, objective=[-1.0, -1.0],
                            ineq_lhs=[[1.0, 1.0]], ineq_rhs=[1.0],
                            lower_bounds=[0.0, 0.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert sol.primal.sum() == pytest.approx(1.0, abs=1e-9)


def test_contradictory_rows_infeasible():
    prob = lp.LinearProgram(num_vars=1, objective=[0.0],
                            ineq_lhs=[[1.0]], ineq_rhs=[-1.0],
                            lower_bounds=[0.0])
    assert lp.solve(prob).status == lp.LpStatus.INFEASIBLE


def test_unbounded_direction():
    prob = lp.LinearProgram(num_vars=1, objective=[-1.0], lower_bounds=[0.0])
    assert lp.solve(prob).status == lp.LpStatus.UNBOUNDED


def test_zero_objective_reports_feasible():
    prob = lp.LinearProgram(num_vars=2, objective=[0.0, 0.0],
                            ineq_lhs=[[1.0, 0.0]], ineq_rhs=[1.0],
                            eq_lhs=[[1.0, 1.0]], eq_rhs=[1.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.FEASIBLE
    assert sol.primal is not None
    assert lp.check_feasible(prob, sol.primal)
    assert sol.objective_value is None


def test_equality_system():
    prob = lp.LinearProgram(num_vars=2, objective=[1.0, 0.0],
                            eq_lhs=[[1.0, 1.0], [1.0, -1.0]], eq_rhs=[2.0, 0.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert np.allclose(sol.primal, [1.0, 1.0], atol=1e-9)


def test_double_bounds_both_sides():
    prob = lp.LinearProgram(num_vars=1, objective=[1.0],
                            lower_bounds=[2.0], upper_bounds=[3.0])
    assert lp.solve(prob).objective_value == pytest.approx(2.0, abs=1e-9)
    prob = lp.LinearProgram(num_vars=1, objective=[-1.0],
                            lower_bounds=[2.0], upper_bounds=[3.0])
    assert lp.solve(prob).objective_value == pytest.approx(-3.0, abs=1e-9)


def test_upper_bound_only_variable():
    prob = lp.LinearProgram(num_vars=1, objective=[-1.0], upper_bounds=[4.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(4.0, abs=1e-9)


def test_free_variable_with_equality():
    prob = lp.LinearProgram(num_vars=2, objective=[0.0, 1.0],
                            eq_lhs=[[1.0, 1.0]], eq_rhs=[0.0],
                            lower_bounds=[-np.inf, -5.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.primal[1] == pytest.approx(-5.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(5.0, abs=1e-9)


def test_degenerate_instance_terminates():
    # classic cycling-prone tableau; the anti-cycling fallback must cope
    prob = lp.LinearProgram(
        num_vars=4,
        objective=[-0.75, 150.0, -0.02, 6.0],
        ineq_lhs=[[0.25, -60.0, -1.0 / 25.0, 9.0],
                  [0.5, -90.0, -1.0 / 50.0, 3.0],
                  [0.0, 0.0, 1.0, 0.0]],
        ineq_rhs=[0.0, 0.0, 1.0],
        lower_bounds=np.zeros(4),
        upper_bounds=np.full(4, 1e3))
    sol = lp.solve(prob)
    status, value, _ = brute_force_lp(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert status == "optimal"
    assert sol.objective_value == pytest.approx(value, abs=1e-6)


def test_deterministic_resolve():
    rng = np.random.default_rng(123)
    prob = random_box_lp(rng)
    first = lp.solve(prob)
    second = lp.solve(prob)
    assert first.status == second.status
    assert np.array_equal(first.primal, second.primal)
    assert first.objective_value == second.objective_value


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_known_feasible_point_never_infeasible(seed):
    rng = np.random.default_rng(seed)
    prob, witness = lp_with_known_point(rng)
    assert lp.check_feasible(prob, witness, tol=1e-7)
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert lp.check_feasible(prob, sol.primal, tol=1e-7)
    assert sol.objective_value <= prob.objective @ witness + 1e-7


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        prob = random_box_lp(rng)
        sol = lp.solve(prob)
        status, value, _ = brute_force_lp(prob)
        if status == "infeasible":
            assert sol.status == lp.LpStatus.INFEASIBLE
        else:
            assert sol.status == lp.LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(value, abs=1e-6)
            assert lp.check_feasible(prob, sol.primal, tol=1e-7)


def test_constructed_unbounded_instances():
    rng = np.random.default_rng(77)
    for _ in range(10):
        assert lp.solve(unbounded_lp(rng)).status == lp.LpStatus.UNBOUNDED


def test_check_feasible_rejects_violation():
    prob = lp.LinearProgram(num_vars=2, objective=[0.0, 0.0],
                            ineq_lhs=[[1.0, 0.0]], ineq_rhs=[1.0])
    assert lp.check_feasible(prob, [0.5, 0.0])
    assert not lp.check_feasible(prob, [1.5, 0.0])
    with pytest.raises(ValueError):
        lp.check_feasible(prob, [0.0, 0.0, 0.0])


def test_construction_validation():
    with pytest.raises(ValueError):
        lp.LinearProgram(num_vars=2, objective=[1.0])
    with pytest.raises(ValueError):
        lp.LinearProgram(num_vars=1, objective=[1.0], ineq_lhs=[[1.0]], ineq_rhs=[1.0, 2.0])
    with pytest.raises(ValueError):
        lp.LinearProgram(num_vars=1, objective=[1.0],
                         lower_bounds=[1.0], upper_bounds=[0.0])


@pytest.mark.parametrize("share", [0.05, 1.0])
def test_pivot_matches_dense_reference(share):
    # share 0.05 takes the sparse-row update, 1.0 the dense one
    rng = np.random.default_rng(31)
    for _ in range(20):
        rows, cols = int(rng.integers(2, 60)), int(rng.integers(40, 120))
        tab = rng.normal(size=(rows, cols))
        tab[rng.random(size=tab.shape) < 0.3] = 0.0
        row, col = int(rng.integers(0, rows - 1)), int(rng.integers(0, cols - 1))
        keep = rng.random(cols) < share
        keep[col] = True
        tab[row, ~keep] = 0.0
        tab[row, col] = rng.uniform(0.5, 2.0)
        sparse_row = np.count_nonzero(tab[row]) <= lp.SPARSE_PIVOT_SHARE * cols
        assert sparse_row == (share < lp.SPARSE_PIVOT_SHARE)
        expected = tab.copy()
        dense_pivot(expected, row, col)
        lp._pivot(tab, row, col)
        assert np.array_equal(tab, expected)


def _count_pivots(monkeypatch):
    calls = []
    original = lp._pivot

    def counted(tab, row, col):
        calls.append((int(row), int(col)))
        return original(tab, row, col)

    monkeypatch.setattr(lp, "_pivot", counted)
    return calls


def test_every_phase_one_pivot_goes_through_the_seam(monkeypatch):
    # -z1 = 0 and z2 = 1 both start on artificials; phase one pivots z2 into
    # row 1, ends with the first artificial basic at zero, and the removal
    # pivots z1 into row 0: two pivots in all
    calls = _count_pivots(monkeypatch)
    prob = lp.LinearProgram(num_vars=2, objective=[0.0, 0.0],
                            eq_lhs=[[-1.0, 0.0], [0.0, 1.0]], eq_rhs=[0.0, 1.0],
                            lower_bounds=[0.0, 0.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.FEASIBLE
    assert np.array_equal(sol.primal, [0.0, 1.0])
    assert calls == [(1, 1), (0, 0)]


def test_every_phase_two_pivot_goes_through_the_seam(monkeypatch):
    # slacks start basic, so there is no phase one; Dantzig pricing brings
    # in z2 (cost -2) on row 1, then z1 on row 0: two pivots in all
    calls = _count_pivots(monkeypatch)
    prob = lp.LinearProgram(num_vars=2, objective=[-1.0, -2.0],
                            ineq_lhs=[[1.0, 0.0], [0.0, 1.0]], ineq_rhs=[1.0, 1.0],
                            lower_bounds=[0.0, 0.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.objective_value == -3.0
    assert calls == [(1, 1), (0, 0)]



def test_dense_pivot_on_narrowed_view_matches_reference():
    # after phase one the simplex pivots on a view that drops the artificial
    # columns, so its rows are not contiguous with each other
    rng = np.random.default_rng(47)
    for _ in range(20):
        rows, cols = int(rng.integers(2, 60)), int(rng.integers(40, 120))
        full = rng.normal(size=(rows, cols + 7))
        full[rng.random(size=full.shape) < 0.3] = 0.0
        tab = full[:, :cols]
        assert not tab.flags.c_contiguous
        row, col = int(rng.integers(0, rows - 1)), int(rng.integers(0, cols - 1))
        tab[row, col] = rng.uniform(0.5, 2.0)
        assert np.count_nonzero(tab[row]) > lp.SPARSE_PIVOT_SHARE * cols
        outside = full[:, cols:].copy()
        expected = tab.copy()
        dense_pivot(expected, row, col)
        lp._pivot(tab, row, col)
        assert np.array_equal(tab, expected)
        assert np.array_equal(full[:, cols:], outside)
