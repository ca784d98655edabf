import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ddinv import lp, synthesis
from ddinv.experiment import (PlantModel, build_data_matrices, random_input_sequence,
                              simulate)
from ddinv.polytopes import DisturbanceSet, InputPolytope, validate_cset
from generators import (box_input_rows, lp_with_known_point, mixed_bounds_lp,
                        random_box_lp, random_controllable_plant, random_cset_rows,
                        unbounded_lp)
from oracles import brute_force_lp, dense_pivot, fused_pivot


def test_single_variable_lower_bound():
    # z >= 1 on a nonnegative z, written as the row -z <= -1
    prob = lp.LinearProgram(num_vars=1, objective=[1.0], ineq_lhs=[[-1.0]], ineq_rhs=[-1.0],
                            nonneg=[True])
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
                            ineq_lhs=[[1.0, 1.0]], ineq_rhs=[1.0], nonneg=[True, True])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert sol.primal.sum() == pytest.approx(1.0, abs=1e-9)


def test_contradictory_rows_infeasible():
    prob = lp.LinearProgram(num_vars=1, objective=[0.0],
                            ineq_lhs=[[1.0]], ineq_rhs=[-1.0], nonneg=[True])
    assert lp.solve(prob).status == lp.LpStatus.INFEASIBLE


def test_unbounded_direction():
    prob = lp.LinearProgram(num_vars=1, objective=[-1.0], nonneg=[True])
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
    # 2 <= z <= 3 on a free z, as the rows z <= 3 and -z <= -2
    for objective, value in (([1.0], 2.0), ([-1.0], -3.0)):
        prob = lp.LinearProgram(num_vars=1, objective=objective, ineq_lhs=[[1.0], [-1.0]],
                                ineq_rhs=[3.0, -2.0])
        assert lp.solve(prob).objective_value == pytest.approx(value, abs=1e-9)


def test_upper_bound_only_variable():
    # z <= 4 on a free z: the optimum lies on the row
    prob = lp.LinearProgram(num_vars=1, objective=[-1.0], ineq_lhs=[[1.0]], ineq_rhs=[4.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(4.0, abs=1e-9)


def test_free_variable_with_equality():
    prob = lp.LinearProgram(num_vars=2, objective=[0.0, 1.0],
                            eq_lhs=[[1.0, 1.0]], eq_rhs=[0.0],
                            ineq_lhs=[[0.0, -1.0]], ineq_rhs=[5.0])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.primal[1] == pytest.approx(-5.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(5.0, abs=1e-9)


def _degenerate_program():
    # classic cycling-prone tableau, with the rows z <= 1e3 last to bound it
    return lp.LinearProgram(
        num_vars=4,
        objective=[-0.75, 150.0, -0.02, 6.0],
        ineq_lhs=np.vstack([[[0.25, -60.0, -1.0 / 25.0, 9.0],
                             [0.5, -90.0, -1.0 / 50.0, 3.0],
                             [0.0, 0.0, 1.0, 0.0]], np.eye(4)]),
        ineq_rhs=[0.0, 0.0, 1.0] + [1e3] * 4,
        nonneg=np.ones(4, dtype=bool))


def test_degenerate_instance_terminates():
    # the anti-cycling fallback must cope
    prob = _degenerate_program()
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
    with pytest.raises(ValueError, match="nonneg"):
        lp.LinearProgram(num_vars=1, objective=[1.0], nonneg=[True, False])


@pytest.mark.parametrize("field, value", [
    ("ineq_lhs", [[np.nan]]), ("ineq_rhs", [np.nan]), ("ineq_lhs", [[np.inf]]),
    ("ineq_rhs", [-np.inf]), ("objective", [np.nan]), ("objective", [-np.inf]),
    ("eq_lhs", [[np.nan]]), ("eq_rhs", [np.inf])])
def test_non_finite_program_data_is_refused(field, value):
    # minimize -z over z >= 0, z <= 1, z = 0.5: a NaN coefficient in z <= 1
    # used to give UNBOUNDED, and a NaN right-hand side a ratio-test crash
    program = dict(num_vars=1, objective=[-1.0], eq_lhs=[[1.0]], eq_rhs=[0.5],
                   ineq_lhs=[[1.0]], ineq_rhs=[1.0], nonneg=[True])
    program[field] = value
    with pytest.raises(ValueError, match="NaN|finite"):
        lp.LinearProgram(**program)


@pytest.mark.parametrize("layout, name", [(np.asfortranarray, "Fortran-ordered"),
                                          (lambda tab: tab[:, ::2], "non-contiguous")])
def test_pivot_refuses_a_tableau_that_is_not_c_ordered(layout, name):
    # the dense update writes through the transpose, so on any layout but C
    # order it would pivot a copy and leave the tableau as it was
    tab = layout(np.random.default_rng(6).normal(size=(8, 13)))
    before = tab.copy()
    with pytest.raises(ValueError, match=f"C-ordered, got a {name} one"):
        lp._pivot(tab, 2, 3, tab.shape[1], True)
    assert np.array_equal(tab, before)


def _exchange_cases(rng, share, basic_share=0.2):
    """Full tableaux [columns | rhs] with the cost row last, a unit column for
    the basic variable of every other row (about basic_share of the
    columns), and a pivot (row, col) on a nonbasic column. The pivot row
    keeps about `share` of its entries nonzero. Returns (tab, row, col,
    basic, nonbasic) tuples."""
    cases = []
    for _ in range(20):
        cols = int(rng.integers(40, 120))
        rows = max(2, int(basic_share * cols))
        tab = rng.normal(size=(rows, cols))
        tab[rng.random(size=tab.shape) < 0.3] = 0.0
        basic = rng.permutation(cols - 1)[: rows - 1]
        tab[:, basic] = 0.0
        tab[np.arange(rows - 1), basic] = 1.0
        nonbasic = np.setdiff1d(np.arange(cols - 1), basic)
        row, col = int(rng.integers(0, rows - 1)), int(rng.choice(nonbasic))
        keep = rng.random(cols) < share
        keep[col] = keep[basic[row]] = True
        tab[row, ~keep] = 0.0
        tab[row, col] = rng.uniform(0.5, 2.0)
        cases.append((tab, row, col, basic, nonbasic))
    return cases


def _exchange(case, references, artificial=False):
    """Pivot the case's full tableau with each reference and its nonbasic
    columns with lp._pivot; for each reference, whether every column kept
    carries the bits of its variable's column in the full result. With
    `artificial`, the leaving variable has no column in either tableau and
    its slot must come back zeroed."""
    tab, row, col, basic, nonbasic = case
    names = np.arange(tab.shape[1])
    if artificial:
        tab, names = tab[:, names != basic[row]], names[names != basic[row]]
    slots = np.append(nonbasic, names[-1])
    condensed = np.ascontiguousarray(tab[:, np.searchsorted(names, slots)])
    slot = int(np.searchsorted(nonbasic, col))
    lp._pivot(condensed, row, slot, tab.shape[1], not artificial)
    slots[slot] = basic[row]
    agree = []
    for reference in references:
        expected = tab.copy()
        reference(expected, row, int(np.searchsorted(names, col)))
        agree.append(all(
            not condensed[:, k].any() if artificial and k == slot
            else np.array_equal(condensed[:, k], expected[:, np.searchsorted(names, var)])
            for k, var in enumerate(slots)))
    return agree


@pytest.mark.parametrize("share", [0.05, 1.0])
def test_pivot_matches_dense_reference(share):
    # share 0.05 takes the sparse-row update, which rounds like the numpy
    # reference; 1.0 takes the dense dger update, which rounds each entry
    # once on a fused multiply-add kernel and twice on any other. Either
    # way each kept column, the leaving variable's included, carries the
    # full tableau's bits
    cases = _exchange_cases(np.random.default_rng(31), share)
    for tab, row, *_ in cases:
        sparse_row = np.count_nonzero(tab[row]) <= lp.SPARSE_PIVOT_SHARE * tab.shape[1]
        assert sparse_row == (share < lp.SPARSE_PIVOT_SHARE)
    if share < lp.SPARSE_PIVOT_SHARE:
        for case in cases:
            assert _exchange(case, [dense_pivot]) == [True]
            assert _exchange(case, [dense_pivot], artificial=True) == [True]
    else:
        fused, twice = zip(*(_exchange(case, [fused_pivot, dense_pivot], artificial)
                             for case in cases for artificial in (False, True)))
        assert all(fused) or all(twice)


def test_pivot_on_mostly_basic_tableau_matches_dense_reference():
    # 85% of the columns are basic, as in the robust programs: the full
    # pivot row is sparse, so it rounds twice, but most of the columns kept
    # are nonzero, so the update runs over all of them
    for case in _exchange_cases(np.random.default_rng(32), 1.0, basic_share=0.85):
        tab, row, col, basic, nonbasic = case
        assert np.count_nonzero(tab[row]) <= lp.SPARSE_PIVOT_SHARE * tab.shape[1]
        kept = np.count_nonzero(tab[row, np.append(nonbasic, -1)])
        assert kept > lp.SPARSE_PIVOT_SHARE * (nonbasic.size + 1)
        assert _exchange(case, [dense_pivot]) == [True]
        assert _exchange(case, [dense_pivot], artificial=True) == [True]


def _sparse_row_case(rng, shape):
    """A tableau with zeros of both signs, a pivot (row, col) and a full
    tableau width that sends the pivot to the twice-rounded update."""
    tab = rng.normal(size=shape)
    tab[rng.random(size=shape) < 0.2] = 0.0
    tab[rng.random(size=shape) < 0.1] = -0.0
    row, col = int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1] - 1))
    tab[row, col] = rng.uniform(0.5, 2.0)
    return tab, row, col, 10 * shape[1]


def _twice_rounded_reference(tab, row, col, zero_product):
    """The pivot as numpy's outer product and subtraction give it, every
    column updated in one pass, then the leaving variable's column. The
    products pass through zero_product before they are subtracted."""
    expected = tab.copy()
    pivot = expected[row, col]
    expected[row] /= pivot
    other = expected[:, col].copy()
    other[row] = 0.0
    expected = expected - zero_product(np.outer(other, expected[row]))
    expected[:, col] = other * -(1.0 / pivot)
    expected[row, col] = 1.0 / pivot
    return expected


@pytest.mark.parametrize("shape", [(1293, 161), (392, 49), (126, 738), (5, 7), (1, 9)])
def test_sparse_row_update_rounds_as_the_numpy_outer_product(shape):
    # the update runs as one BLAS dgemm of inner dimension one, which on
    # this kernel forms each product before adding it: every entry carries
    # the bits of numpy's outer product and subtraction. A kernel that fused
    # the two would round once and move pivots of the robust programs. The
    # one exception is the sign of an exact zero: the kernel accumulates
    # the product onto +0.0, so a -0.0 product acts as +0.0 and a -0.0
    # entry it meets stays -0.0, where numpy gives -0.0 - -0.0 = +0.0. No
    # pivot decision reads the sign of a zero. The tableau passed in must
    # hold the result: the update writes into it, not into a copy
    tab, row, col, width = _sparse_row_case(np.random.default_rng(shape[0]), shape)
    numpy_bits = _twice_rounded_reference(tab, row, col, lambda product: product)
    accumulated = _twice_rounded_reference(tab, row, col, lambda product: product + 0.0)
    assert np.count_nonzero(tab[row]) + 1 <= lp.SPARSE_PIVOT_SHARE * width
    lp._pivot(tab, row, col, width, True)
    assert tab.tobytes() == accumulated.tobytes()
    assert np.array_equal(tab, numpy_bits)


def test_sparse_row_update_with_a_non_finite_column_skips_the_zero_products():
    # inf times a zero of the pivot row is NaN; those entries must keep
    # their values, as in a tableau that subtracts only the nonzero products
    tab, row, col, width = _sparse_row_case(np.random.default_rng(12), (40, 30))
    tab[(row + 1) % 40, col] = np.inf
    zero_cols = np.flatnonzero(tab[row] == 0.0)
    before = tab[:, zero_cols].copy()
    # the pivot column's own entry becomes inf - inf before the leaving
    # variable's column replaces it
    with np.errstate(invalid="ignore"):
        lp._pivot(tab, row, col, width, True)
    assert zero_cols.size and tab[:, zero_cols].tobytes() == before.tobytes()
    assert not np.isnan(tab).any()


def _count_pivots(monkeypatch):
    calls = []
    original = lp._pivot

    def counted(*args):
        calls.append((int(args[1]), int(args[2])))
        return original(*args)

    monkeypatch.setattr(lp, "_pivot", counted)
    return calls


def test_scipy_stays_off_the_import_and_pivot_paths():
    # importing scipy at the top of lp would load it with the package, and an
    # import statement in the pivot or the iteration would run on every pivot
    tree = ast.parse(Path(lp.__file__).read_text())
    modules = [alias.name if isinstance(node, ast.Import) else node.module or ""
               for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names]
    assert modules and not [name for name in modules if name.split(".")[0] == "scipy"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_pivot", "_run_simplex"):
        assert not [node for node in ast.walk(functions[name])
                    if isinstance(node, (ast.Import, ast.ImportFrom))], name


def test_every_phase_one_pivot_goes_through_the_seam(monkeypatch):
    # -z1 = 0 and z2 = 1 both start on artificials; phase one pivots z2 into
    # row 1, ends with the first artificial basic at zero, and the removal
    # pivots z1 into row 0: two pivots in all
    calls = _count_pivots(monkeypatch)
    prob = lp.LinearProgram(num_vars=2, objective=[0.0, 0.0],
                            eq_lhs=[[-1.0, 0.0], [0.0, 1.0]], eq_rhs=[0.0, 1.0],
                            nonneg=[True, True])
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
                            nonneg=[True, True])
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.objective_value == -3.0
    assert calls == [(1, 1), (0, 0)]


def test_tied_reduced_costs_enter_the_lowest_variable_index(monkeypatch):
    # min z1 - z2 - z3 with z1 - z2 <= 0, z1 + z2 + z3 = 1 and z >= 0. Phase
    # one pivots z1 into the inequality row, whose slack (variable 3) takes
    # over column 0, then z2 into the equality row. Phase two prices that
    # slack and z3 (variable 2, column 2) both at -1: z3 enters, as in the
    # full tableau, and the optimum is z3 = 1
    calls = _count_pivots(monkeypatch)
    prob = lp.LinearProgram(num_vars=3, objective=[1.0, -1.0, -1.0],
                            ineq_lhs=[[1.0, -1.0, 0.0]], ineq_rhs=[0.0],
                            eq_lhs=[[1.0, 1.0, 1.0]], eq_rhs=[1.0], nonneg=[True] * 3)
    sol = lp.solve(prob)
    assert calls == [(1, 0), (0, 1), (0, 2), (1, 0)]
    assert np.array_equal(sol.primal, [0.0, 0.0, 1.0])
    assert np.array_equal(sol.primal, oracles.full_tableau_solve(prob).primal)


def test_drive_out_enters_the_lowest_variable_index(monkeypatch):
    # phase one ends with the artificial of the first equality basic at
    # zero. By then the slack of the second inequality (variable 5) holds
    # column 0 and z3 (variable 2) column 2, and either could pivot the
    # artificial out: z3 enters, as in the full tableau, whose point has
    # other bits than the slack's would
    calls = _count_pivots(monkeypatch)
    prob = lp.LinearProgram(num_vars=4, objective=[0.0, 0.0, -1.0, 0.0],
                            ineq_lhs=[[-1.0, 0.0, -1.0, 1.0], [1.0, -1.0, 1.0, 1.0]],
                            ineq_rhs=[0.0, 0.0],
                            eq_lhs=[[-1.0, 0.0, 1.0, -1.0], [0.0, 1.0, 0.0, 1.0]],
                            eq_rhs=[-1.0, 1.0], nonneg=[True] * 4)
    sol = lp.solve(prob)
    assert calls[:5] == [(2, 3), (3, 0), (1, 1), (2, 3), (0, 2)]
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.primal.tobytes() == oracles.full_tableau_solve(prob).primal.tobytes()


@pytest.mark.parametrize("objective, status", [([1.0, 1.0], lp.LpStatus.OPTIMAL),
                                               ([0.0, 0.0], lp.LpStatus.FEASIBLE)])
def test_point_that_breaks_the_program_is_withheld(shift_solver_points, objective, status):
    # z1 + z2 >= 1 with z >= 0; moving the returned point by -1e-3 in z1
    # breaks either the row or the bound by 1e-3
    prob = lp.LinearProgram(num_vars=2, objective=objective,
                            ineq_lhs=[[-1.0, -1.0]], ineq_rhs=[-1.0], nonneg=[True, True])
    assert lp.solve(prob).status == status
    shift_solver_points(np.array([-1e-3, 0.0]))
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.BAD_POINT
    assert sol.primal is None and sol.objective_value is None
    assert sol.residual == pytest.approx(1e-3, rel=1e-9)


def test_point_within_the_guard_tolerance_is_returned(shift_solver_points):
    prob = lp.LinearProgram(num_vars=1, objective=[1.0], ineq_lhs=[[-1.0]], ineq_rhs=[-1.0])
    shift_solver_points(-0.5 * lp.GUARD_TOL)
    sol = lp.solve(prob)
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.residual is None


def test_max_violation_names_the_worst_constraint():
    # z1 >= 0, and the rows z1 <= 0.5, z1 <= 2 and |z2| <= 1
    prob = lp.LinearProgram(num_vars=2, objective=[0.0, 0.0],
                            eq_lhs=[[1.0, 1.0]], eq_rhs=[1.0],
                            ineq_lhs=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                            ineq_rhs=[0.5, 2.0, 1.0, 1.0], nonneg=[True, False])
    assert lp.max_violation(prob, [0.5, 0.5]) == 0.0
    assert lp.max_violation(prob, [0.5, 0.75]) == 0.25     # equality
    assert lp.max_violation(prob, [0.875, 0.125]) == 0.375  # inequality row
    assert lp.max_violation(prob, [-0.5, 1.5]) == 0.5       # nonnegativity and a row
    # a non-finite point is never feasible
    assert np.isnan(lp.max_violation(prob, [np.nan, 0.5]))
    assert not lp.check_feasible(prob, [np.nan, 0.5])


def _data_programs(rng, count):
    """Data-route level minimizations and fixed levels on seeded plants."""
    programs = []
    for _ in range(count):
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        plant = random_controllable_plant(rng, n, m, spectral_radius=rng.uniform(0.3, 1.3))
        cset = validate_cset(random_cset_rows(rng, n))
        uset = InputPolytope(box_input_rows(m, rng.uniform(2.0, 8.0)))
        inputs = random_input_sequence(rng, 20, m)
        data = build_data_matrices(inputs, simulate(plant, rng.uniform(-0.3, 0.3, n), inputs))
        programs += [synthesis.build_databased_lp(data, cset, uset, lam)
                     for lam in (None, 0.5, 0.9)]
        programs += [synthesis.build_modelbased_lp(plant, cset, uset, lam)
                     for lam in (None, 0.9)]
    return programs


def _robust_programs(rng):
    """Pruned robust programs on a box, with a box and a pentagon
    disturbance, and on a cube with a cube disturbance."""
    pentagon = np.column_stack([np.cos(2 * np.pi * np.arange(5) / 5),
                                np.sin(2 * np.pi * np.arange(5) / 5)])
    box = np.vstack([np.eye(2), -np.eye(2)])
    cube = np.vstack([np.eye(3), -np.eye(3)])
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    programs = []
    for rows, vertices in [(box, corners), (box, pentagon), (cube, cube)] * 3:
        n = rows.shape[1]
        a = rng.normal(size=(n, n))
        a *= 0.3 / np.max(np.abs(np.linalg.eigvals(a)))
        plant = PlantModel(a, rng.normal(size=(n, 1)))
        samples, radius = int(rng.integers(3, 12)), rng.choice([0.002, 0.02, 0.1])
        inputs = rng.uniform(-1.0, 1.0, size=(samples, 1))
        states = simulate(plant, rng.uniform(-0.5, 0.5, size=n), inputs,
                          rng.uniform(-radius, radius, size=(samples, n)))
        programs.append(synthesis.build_robust_lp(
            build_data_matrices(inputs, states), validate_cset(rows),
            InputPolytope([[0.2], [-0.2]]), DisturbanceSet(radius * vertices)))
    return programs


def _tall_robust_programs(rng, per_shape=2):
    """Robust programs shaped as the benchmark's tallest: a box set, a box
    disturbance of radius 0.05 / T, plants of spectral radius 0.3 and the
    input interval [-5, 5], for T = 24 and 40 (392 and 648 rows, the box's
    opposite rows paired). Their pivot rows are sparse on the full
    tableau's width and nearly full on the columns kept."""
    box = np.vstack([np.eye(2), -np.eye(2)])
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    programs = []
    for samples in (24, 40):
        radius = 0.05 / samples
        for _ in range(per_shape):
            plant = random_controllable_plant(rng, 2, 1, spectral_radius=0.3)
            inputs = random_input_sequence(rng, samples, 1)
            states = simulate(plant, rng.uniform(-0.5, 0.5, size=2), inputs,
                              rng.uniform(-radius, radius, size=(samples, 2)))
            programs.append(synthesis.build_robust_lp(
                build_data_matrices(inputs, states), validate_cset(box),
                InputPolytope([[0.2], [-0.2]]), DisturbanceSet(radius * corners)))
    return programs


def _kgon_programs(rng, per_shape=2):
    """Level minimizations shaped as the benchmark's: noise-free data from a
    plant of spectral radius 1, a regular k-gon and the input interval
    [-2, 2]. Each comes twice: as the builder makes it, with the rows of P
    that the k-gon's opposite pairs leave, and in the full layout of
    oracles.nominal_lp_loop. Most of their iterations run under Bland's
    rule, and some of the full ones spin until the iteration cap."""
    programs = []
    for k in (8, 16, 24):
        angles = 2.0 * np.pi * np.arange(k) / k
        cset = validate_cset(np.column_stack([np.cos(angles), np.sin(angles)]))
        for samples in (20, 40):
            for _ in range(per_shape):
                plant = random_controllable_plant(rng, 2, 1, spectral_radius=1.0)
                inputs = random_input_sequence(rng, samples, 1)
                data = build_data_matrices(
                    inputs, simulate(plant, rng.uniform(-0.5, 0.5, 2), inputs))
                uset = InputPolytope([[0.5], [-0.5]])
                programs += [synthesis.build_databased_lp(data, cset, uset, None),
                             oracles.nominal_lp_loop(data, cset, uset, None, pair_rows=False)]
    return programs


def test_nonbasic_tableau_gives_the_full_tableau_bits(monkeypatch):
    # the full [structural | slack | rhs] tableau in oracles makes the same
    # pivots and returns the same points, bit for bit; where its phase one
    # broke down it said ITERATION_LIMIT
    rng = np.random.default_rng(2025)
    programs = ([mixed_bounds_lp(rng) for _ in range(150)]
                + [random_box_lp(rng) for _ in range(30)]
                + [lp_with_known_point(rng)[0] for _ in range(30)]
                + [unbounded_lp(rng) for _ in range(10)]
                + _data_programs(rng, 12) + _robust_programs(rng) + [_degenerate_program()])
    kgon_programs = _kgon_programs(rng)
    tall_robust_programs = _tall_robust_programs(rng)
    pivots = {"condensed": 0, "full": 0}

    def counting(name, original):
        def counted(*args):
            pivots[name] += 1
            return original(*args)
        return counted

    monkeypatch.setattr(lp, "_pivot", counting("condensed", lp._pivot))
    monkeypatch.setattr(oracles, "full_tableau_pivot",
                        counting("full", oracles.full_tableau_pivot))
    renamed = {lp.LpStatus.PHASE_ONE_BREAKDOWN: lp.LpStatus.ITERATION_LIMIT}
    seen = set()

    def same_as_full_tableau(program):
        sol, ref = lp.solve(program), oracles.full_tableau_solve(program)
        seen.add(sol.status)
        assert renamed.get(sol.status, sol.status) == ref.status
        assert (sol.primal is None) == (ref.primal is None)
        assert sol.primal is None or np.array_equal(sol.primal, ref.primal)
        assert sol.objective_value == ref.objective_value
        assert sol.residual == ref.residual
        assert pivots["condensed"] == pivots["full"]

    for program in programs:
        same_as_full_tableau(program)
    assert {lp.LpStatus.OPTIMAL, lp.LpStatus.FEASIBLE, lp.LpStatus.INFEASIBLE,
            lp.LpStatus.UNBOUNDED} <= seen
    # the benchmark's tallest robust programs, whose pivots all take the
    # twice-rounded update over every column kept
    seen.clear()
    for program in tall_robust_programs:
        assert program.ineq_lhs.shape[0] in (16 * 24 + 8, 16 * 40 + 8)
        same_as_full_tableau(program)
    assert seen == {lp.LpStatus.FEASIBLE}
    # the benchmark-shaped minimizations, under a cap of twice the
    # tableau's rows and columns per phase, so that a spin stays short
    monkeypatch.setattr(lp, "ITER_FACTOR", 2)
    monkeypatch.setattr(oracles, "ITER_FACTOR", 2)
    seen.clear()
    for program in kgon_programs:
        same_as_full_tableau(program)
    assert {lp.LpStatus.OPTIMAL, lp.LpStatus.INFEASIBLE, lp.LpStatus.ITERATION_LIMIT} <= seen


def test_a_patched_pivot_sees_every_pivot_of_a_level_minimization(monkeypatch):
    # the benchmark's pivot budget and tracer wrap lp._pivot. This 24-gon
    # minimization on 40 samples runs most of its several hundred pivots
    # under Bland's rule: a wrapper sees as many as the full tableau makes,
    # and one that stops the solve at the last of them stops it there
    program = _kgon_programs(np.random.default_rng(5), per_shape=1)[-1]
    full = 0
    full_pivot, pivot = oracles.full_tableau_pivot, lp._pivot

    def counted(*args):
        nonlocal full
        full += 1
        return full_pivot(*args)

    monkeypatch.setattr(oracles, "full_tableau_pivot", counted)
    assert oracles.full_tableau_solve(program).status == lp.LpStatus.OPTIMAL
    calls = _count_pivots(monkeypatch)
    assert lp.solve(program).status == lp.LpStatus.OPTIMAL
    assert len(calls) == full > 100

    class Stop(BaseException):
        pass

    left = full

    def budget(*args):
        nonlocal left
        left -= 1
        if left == 0:
            raise Stop()
        return pivot(*args)

    monkeypatch.setattr(lp, "_pivot", budget)
    with pytest.raises(Stop):
        lp.solve(program)


def test_robust_tableau_keeps_no_slack_identity(monkeypatch):
    # the box program has 16 T + 8 inequality rows on 2 T n structural
    # columns, none of which starts flipped: each pivot sees those columns
    # and the right-hand side, and none of the slacks
    rng = np.random.default_rng(6)
    samples, n = 10, 2
    inputs = rng.uniform(-1.0, 1.0, size=(samples, 1))
    plant = PlantModel([[0.2, 0.1], [-0.1, 0.25]], [[0.0], [1.0]])
    states = simulate(plant, [0.1, -0.2], inputs, rng.uniform(-0.01, 0.01, size=(samples, n)))
    program = synthesis.build_robust_lp(
        build_data_matrices(inputs, states), validate_cset(np.vstack([np.eye(2), -np.eye(2)])),
        InputPolytope([[0.2], [-0.2]]),
        DisturbanceSet(0.01 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])))
    assert program.ineq_lhs.shape == (16 * samples + 8, samples * n)
    widths = []
    original = lp._pivot

    def recorded(*args):
        widths.append(args[0].shape[1])
        return original(*args)

    monkeypatch.setattr(lp, "_pivot", recorded)
    assert lp.solve(program).status == lp.LpStatus.FEASIBLE
    assert widths and set(widths) == {2 * samples * n + 1}


def test_phase_one_breakdown_has_its_own_status(monkeypatch):
    # phase one minimizes a sum of nonnegative artificials, so a ray there
    # is a breakdown, not an iteration limit; phase two's ray stays UNBOUNDED
    monkeypatch.setattr(lp, "_run_simplex", lambda *args: "unbounded")
    with_artificial = lp.LinearProgram(num_vars=1, objective=[1.0], eq_lhs=[[1.0]],
                                       eq_rhs=[1.0], nonneg=[True])
    assert lp.solve(with_artificial).status == lp.LpStatus.PHASE_ONE_BREAKDOWN
    slack_basis = lp.LinearProgram(num_vars=1, objective=[1.0], ineq_lhs=[[1.0]],
                                   ineq_rhs=[1.0], nonneg=[True])
    assert lp.solve(slack_basis).status == lp.LpStatus.UNBOUNDED
    with pytest.raises(synthesis.SolverFailure, match="test: phase one broke down"):
        synthesis._solve(lambda: with_artificial, "test")


def _klee_minty(n):
    """Klee and Minty's cube in n nonnegative variables: max sum 2^(n-j) z_j
    with 2 sum_{j<i} 2^(i-j) z_j + z_i <= 5^i. Its right-hand sides are
    positive, so every row starts on its slack, and Dantzig's rule visits
    all 2^n vertices on the way to the optimum z_n = 5^n."""
    lhs = np.eye(n)
    for i in range(n):
        lhs[i, :i] = 2.0 ** (i - np.arange(i) + 1)
    return lp.LinearProgram(num_vars=n, objective=-2.0 ** (n - 1 - np.arange(n)), ineq_lhs=lhs,
                            ineq_rhs=5.0 ** np.arange(1, n + 1), nonneg=[True] * n)


def test_phase_two_stops_at_the_iteration_cap(monkeypatch):
    # no phase one runs, so the 255 pivots are all phase two's; a cap of
    # ITER_FACTOR times the 8 rows and 16 columns stops them at 240
    calls = _count_pivots(monkeypatch)
    sol = lp.solve(_klee_minty(8))
    assert sol.status == lp.LpStatus.OPTIMAL
    assert sol.objective_value == -5.0 ** 8
    assert np.array_equal(sol.primal, [0.0] * 7 + [5.0 ** 8])
    assert len(calls) == 2 ** 8 - 1
    monkeypatch.setattr(lp, "ITER_FACTOR", 10)
    calls.clear()
    sol = lp.solve(_klee_minty(8))
    assert sol.status == lp.LpStatus.ITERATION_LIMIT and sol.primal is None
    assert len(calls) == 10 * (8 + 16)
