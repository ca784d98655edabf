import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddinv import lp
from generators import lp_with_known_point, random_box_lp, unbounded_lp
from oracles import brute_force_lp, dense_pivot, fused_pivot


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


def _dense_branch_rounding(cases):
    """Check the dense branch on (tab, row, col) cases and name its rounding:
    every entry rounded once (a fused multiply-add kernel) or every entry
    rounded twice, as numpy's outer product and subtraction give it."""
    fused, twice = [], []
    for tab, row, col in cases:
        once, both = tab.copy(), tab.copy()
        fused_pivot(once, row, col)
        dense_pivot(both, row, col)
        lp._pivot(tab, row, col)
        fused.append(np.array_equal(tab, once))
        twice.append(np.array_equal(tab, both))
    assert all(fused) or all(twice)
    return "once" if all(fused) else "twice"


def _pivot_cases(rng, share):
    cases = []
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
        cases.append((tab, row, col))
    return cases


@pytest.mark.parametrize("share", [0.05, 1.0])
def test_pivot_matches_dense_reference(share):
    # share 0.05 takes the sparse-row update, which rounds like the numpy
    # reference; 1.0 takes the dense dger update, which rounds each entry
    # once on a fused multiply-add kernel and twice on any other
    cases = _pivot_cases(np.random.default_rng(31), share)
    if share < lp.SPARSE_PIVOT_SHARE:
        for tab, row, col in cases:
            expected = tab.copy()
            dense_pivot(expected, row, col)
            lp._pivot(tab, row, col)
            assert np.array_equal(tab, expected)
    else:
        _dense_branch_rounding(cases)


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
    # a view whose rows are not contiguous with each other: dger works on
    # f2py's copy, which is written back, and the columns outside the view
    # stay as they were. The rounding is the one on a C-ordered tableau.
    rng = np.random.default_rng(47)
    cases, fulls = [], []
    for _ in range(20):
        rows, cols = int(rng.integers(2, 60)), int(rng.integers(40, 120))
        full = rng.normal(size=(rows, cols + 7))
        full[rng.random(size=full.shape) < 0.3] = 0.0
        tab = full[:, :cols]
        assert not tab.flags.c_contiguous
        row, col = int(rng.integers(0, rows - 1)), int(rng.integers(0, cols - 1))
        tab[row, col] = rng.uniform(0.5, 2.0)
        assert np.count_nonzero(tab[row]) > lp.SPARSE_PIVOT_SHARE * cols
        cases.append((tab, row, col))
        fulls.append((full, full[:, cols:].copy()))
    contiguous = [(tab.copy(), row, col) for tab, row, col in cases]
    assert _dense_branch_rounding(cases) == _dense_branch_rounding(contiguous)
    for (full, outside), (tab, _, _) in zip(fulls, cases):
        assert np.array_equal(full[:, tab.shape[1]:], outside)


@pytest.mark.parametrize("objective, status", [([1.0, 1.0], lp.LpStatus.OPTIMAL),
                                               ([0.0, 0.0], lp.LpStatus.FEASIBLE)])
def test_point_that_breaks_the_program_is_withheld(shift_solver_points, objective, status):
    # z1 + z2 >= 1 with z >= 0; moving the returned point by -1e-3 in z1
    # breaks either the row or the bound by 1e-3
    prob = lp.LinearProgram(num_vars=2, objective=objective,
                            ineq_lhs=[[-1.0, -1.0]], ineq_rhs=[-1.0],
                            lower_bounds=[0.0, 0.0])
    assert lp.solve(prob).status == status
    shift_solver_points(np.array([-1e-3, 0.0]))
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.BAD_POINT
    assert sol.primal is None and sol.objective_value is None
    assert sol.residual == pytest.approx(1e-3, rel=1e-9)


def test_point_within_the_guard_tolerance_is_returned(shift_solver_points):
    prob = lp.LinearProgram(num_vars=1, objective=[1.0], lower_bounds=[1.0])
    shift_solver_points(-0.5 * lp.GUARD_TOL)
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.residual is None


def test_max_violation_names_the_worst_constraint():
    prob = lp.LinearProgram(num_vars=2, objective=[0.0, 0.0],
                            eq_lhs=[[1.0, 1.0]], eq_rhs=[1.0],
                            ineq_lhs=[[1.0, 0.0]], ineq_rhs=[0.5],
                            lower_bounds=[0.0, -1.0], upper_bounds=[2.0, 1.0])
    assert lp.max_violation(prob, [0.5, 0.5]) == 0.0
    assert lp.max_violation(prob, [0.5, 0.75]) == 0.25     # equality
    assert lp.max_violation(prob, [0.875, 0.125]) == 0.375  # inequality row
    assert lp.max_violation(prob, [-0.5, 1.5]) == 0.5       # both bounds
    # a non-finite point is never feasible
    assert np.isnan(lp.max_violation(prob, [np.nan, 0.5]))
    assert not lp.check_feasible(prob, [np.nan, 0.5])
