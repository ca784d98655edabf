"""Dense two-phase primal simplex for the small linear programs built here.

Standard form is reached by shifting variables with a finite bound, splitting
free variables into differences of nonnegative pairs, and adding slacks.
Pricing is deterministic: Dantzig's rule with lowest-index tie breaking,
falling back to Bland's rule after a run of degenerate pivots so cycling
cannot occur. Doubly bounded variables contribute an extra range row.

The tableau is assembled once into a single array: structural columns, slack
and artificial identities, right-hand side and cost row. After phase one the
artificial columns are dropped by moving the right-hand side next to the
last real column and narrowing the view. Only when phase two follows is
that view copied, once, into a C-ordered array for the dense pivot below.

A pivot subtracts other[i] * row[j] from every entry tab[i, j]. Where the
pivot row is zero that product is zero and the entry keeps its value, so a
pivot row with few nonzeros (the robust programs have 3-5%) updates only its
nonzero columns and leaves the rest alone: each of those entries becomes
tab[i, j] - round(other[i] * row[j]), rounded twice, as numpy's outer
product and subtraction give it.

A pivot row with more nonzeros (the nominal programs have 48-69%) goes
through BLAS dger, the rank-1 update A += alpha x y^T, with alpha = -1,
x = the pivot row and y = the pivot column, on the transpose of the tableau
itself. The transpose of a C-ordered tableau is Fortran-ordered, so dger
writes straight into it with no temporary. Where the kernel fuses the
multiply and the add (scipy's OpenBLAS 0.3.30 does on an x86 Xeon with
FMA), each changed entry is rounded once:
round(tab[i, j] - other[i] * row[j]). The two branches thus round
differently, and the branch a pivot takes decides its bits. A tableau that
is not C-ordered (only the tests pass one) is copied by f2py, and the
result is written back. Every pivot of solve is on a C-ordered tableau, so
pivot sequences repeat exactly on one machine and BLAS kernel; a kernel
without fused multiply-add rounds the dense branch twice and may take
other pivots.

Every OPTIMAL or FEASIBLE point is checked against the program passed in
before it is returned. A point that breaks a constraint by more than
GUARD_TOL comes back as BAD_POINT, with no primal and with its worst
residual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import dger

TOL_FEAS = 1e-8
# residual above which a returned point counts as breaking its program; the
# verifier's default tolerance, which 1e-8 would undercut on points that
# verify and HiGHS both accept
GUARD_TOL = 1e-6
TOL_PIVOT = 1e-10
BLAND_AFTER = 12
ITER_FACTOR = 50
# a pivot row with at most this share of nonzero columns updates only those;
# measured break-even against the dense update on tableaux of 120x200 to
# 2574x2734 lay between 0.11 and 0.23 of the columns
SPARSE_PIVOT_SHARE = 0.2


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    BAD_POINT = "bad_point"


def _as_matrix(value, rows, cols, name):
    if value is None:
        return np.zeros((0, cols))
    mat = np.asarray(value, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != cols:
        raise ValueError(f"{name} must be 2-d with {cols} columns, got shape {mat.shape}")
    return mat


@dataclass
class LinearProgram:
    """min objective @ z subject to eq_lhs z = eq_rhs, ineq_lhs z <= ineq_rhs,
    lower_bounds <= z <= upper_bounds (infinities allowed)."""

    num_vars: int
    objective: np.ndarray
    eq_lhs: Optional[np.ndarray] = None
    eq_rhs: Optional[np.ndarray] = None
    ineq_lhs: Optional[np.ndarray] = None
    ineq_rhs: Optional[np.ndarray] = None
    lower_bounds: Optional[np.ndarray] = None
    upper_bounds: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.num_vars
        if n <= 0:
            raise ValueError("num_vars must be positive")
        self.objective = np.asarray(self.objective, dtype=float).reshape(-1)
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match num_vars")
        self.eq_lhs = _as_matrix(self.eq_lhs, None, n, "eq_lhs")
        self.ineq_lhs = _as_matrix(self.ineq_lhs, None, n, "ineq_lhs")
        self.eq_rhs = np.zeros(0) if self.eq_rhs is None else np.asarray(self.eq_rhs, dtype=float).reshape(-1)
        self.ineq_rhs = np.zeros(0) if self.ineq_rhs is None else np.asarray(self.ineq_rhs, dtype=float).reshape(-1)
        if self.eq_lhs.shape[0] != self.eq_rhs.shape[0]:
            raise ValueError("eq_lhs and eq_rhs row counts differ")
        if self.ineq_lhs.shape[0] != self.ineq_rhs.shape[0]:
            raise ValueError("ineq_lhs and ineq_rhs row counts differ")
        self.lower_bounds = (np.full(n, -np.inf) if self.lower_bounds is None
                             else np.asarray(self.lower_bounds, dtype=float).reshape(-1))
        self.upper_bounds = (np.full(n, np.inf) if self.upper_bounds is None
                             else np.asarray(self.upper_bounds, dtype=float).reshape(-1))
        if self.lower_bounds.shape != (n,) or self.upper_bounds.shape != (n,):
            raise ValueError("bound vectors must have num_vars entries")
        if np.any(self.lower_bounds > self.upper_bounds):
            raise ValueError("lower bound exceeds upper bound")


@dataclass
class LpSolution:
    status: LpStatus
    primal: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    # worst constraint violation of the point a BAD_POINT verdict withheld
    residual: Optional[float] = None


def max_violation(lp: LinearProgram, point) -> float:
    """The most by which point breaks a constraint of lp: 0.0 when it breaks
    none, NaN when the point is not finite."""
    z = np.asarray(point, dtype=float).reshape(-1)
    if z.shape != (lp.num_vars,):
        raise ValueError("point length does not match num_vars")
    return float(np.max(np.concatenate([
        np.abs(lp.eq_lhs @ z - lp.eq_rhs), lp.ineq_lhs @ z - lp.ineq_rhs,
        lp.lower_bounds - z, z - lp.upper_bounds]), initial=0.0))


def check_feasible(lp: LinearProgram, point, tol: float = TOL_FEAS) -> bool:
    """True when point satisfies every constraint of lp within tol."""
    return max_violation(lp, point) <= tol


def _pivot(tab, row, col):
    """Make column col a unit column with its one on row `row`.

    Every entry that changes becomes tab[i, j] - other[i] * tab[row, j].
    When the pivot row has few nonzeros only those columns are touched;
    elsewhere the product is zero and the entry stays as it was."""
    tab[row] /= tab[row, col]
    other = tab[:, col].copy()
    other[row] = 0.0
    if np.count_nonzero(tab[row]) <= SPARSE_PIVOT_SHARE * tab.shape[1]:
        cols = np.flatnonzero(tab[row])
        tab[:, cols] -= np.outer(other, tab[row, cols])
    else:
        # tab.T of a C-ordered tableau is Fortran-ordered and dger updates it
        # in place; any other layout is copied by f2py and written back
        updated = dger(-1.0, tab[row].copy(), other, a=tab.T, overwrite_a=True)
        if not np.may_share_memory(updated, tab):
            tab[...] = updated.T
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _run_simplex(tab, basis, nrows, iter_cap):
    """Iterate on a tableau whose last row holds reduced costs and last column
    the right-hand side. Returns 'optimal', 'unbounded' or 'iteration_limit'."""
    degenerate_run = 0
    for _ in range(iter_cap):
        costs = tab[-1, :-1]
        bland = degenerate_run >= BLAND_AFTER
        if bland:
            below = np.where(costs < -TOL_PIVOT)[0]
            if below.size == 0:
                return "optimal"
            col = int(below[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -TOL_PIVOT:
                return "optimal"
        colvals = tab[:nrows, col]
        eligible = np.where(colvals > TOL_PIVOT)[0]
        if eligible.size == 0:
            return "unbounded"
        rhs = tab[eligible, -1]
        ratios = rhs / colvals[eligible]
        if bland:
            # exact minimum-ratio ties broken by lowest basis index; the
            # index rule is what makes the cycling guarantee hold
            ties = eligible[ratios <= ratios.min() + 1e-12]
            row = int(ties[np.argmin(basis[ties])])
        else:
            # two-pass ratio test: any row whose ratio keeps every basic
            # value above -TOL_FEAS may leave, and the largest pivot entry
            # in that window wins. Near-threshold pivots wreck the tableau
            # scale within a handful of iterations otherwise.
            limit = ((rhs + TOL_FEAS) / colvals[eligible]).min()
            window = eligible[ratios <= limit]
            row = int(window[np.argmax(colvals[window])])
        step = tab[row, -1] / tab[row, col]
        degenerate_run = degenerate_run + 1 if step < 1e-12 else 0
        _pivot(tab, row, col)
        basis[row] = col
        # the relaxed test can leave basic values a hair below zero
        np.maximum(tab[:nrows, -1], 0.0, out=tab[:nrows, -1])
    return "iteration_limit"


def _standard_columns(lp: LinearProgram):
    """Variable transform z[i] = offset[i] + sign * s for each structural
    column s, in variable order: a free variable becomes a +/- pair, a
    variable with one finite bound is shifted (and mirrored for an upper
    bound), and a doubly bounded one is shifted and gets a range row.
    Returns (offsets, column variable, column sign, range columns, widths)."""
    lo, hi = lp.lower_bounds, lp.upper_bounds
    lo_inf, hi_inf = np.isinf(lo), np.isinf(hi)
    free = lo_inf & hi_inf
    offsets = np.where(lo_inf, np.where(hi_inf, 0.0, hi), lo)
    counts = 1 + free
    col_var = np.repeat(np.arange(lp.num_vars), counts)
    first = np.cumsum(counts) - counts
    col_sign = np.ones(col_var.size)
    col_sign[first[free] + 1] = -1.0
    col_sign[first[lo_inf & ~hi_inf]] = -1.0
    ranged = ~lo_inf & ~hi_inf
    return offsets, col_var, col_sign, first[ranged], (hi - lo)[ranged]


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex. Pure feasibility problems (all-zero objective) stop
    after phase one and report FEASIBLE; anything else reports OPTIMAL,
    INFEASIBLE, UNBOUNDED or ITERATION_LIMIT. A FEASIBLE or OPTIMAL point
    that breaks lp by more than GUARD_TOL is withheld as BAD_POINT."""
    sol = _simplex(lp)
    if sol.primal is not None:
        residual = max_violation(lp, sol.primal)
        if not residual <= GUARD_TOL:
            return LpSolution(LpStatus.BAD_POINT, residual=residual)
    return sol


def _simplex(lp: LinearProgram) -> LpSolution:
    offsets, col_var, col_sign, range_cols, range_widths = _standard_columns(lp)
    n_eq = lp.eq_lhs.shape[0]
    n_in = lp.ineq_lhs.shape[0]
    n_rng = range_cols.size
    nrows = n_eq + n_in + n_rng
    nstruct = col_var.size
    n_slack = n_in + n_rng
    n_real = nstruct + n_slack

    # rows whose slack survives with +1 start with that slack basic; the
    # rest (equalities, inequalities flipped for a negative right-hand
    # side) get an artificial
    rhs = np.zeros(nrows)
    rhs[:n_eq] = lp.eq_rhs - lp.eq_lhs @ offsets
    rhs[n_eq : n_eq + n_in] = lp.ineq_rhs - lp.ineq_lhs @ offsets
    rhs[n_eq + n_in :] = range_widths
    flip = rhs < 0
    slack_basic = ~flip
    slack_basic[:n_eq] = False
    art_rows = np.flatnonzero(~slack_basic)
    n_art = art_rows.size
    ncols = n_real + n_art

    # one tableau: [structural | slack | artificial | rhs], cost row last
    tab = np.zeros((nrows + 1, ncols + 1))
    tab[:n_eq, :nstruct] = lp.eq_lhs[:, col_var] * col_sign
    tab[n_eq : n_eq + n_in, :nstruct] = lp.ineq_lhs[:, col_var] * col_sign
    tab[n_eq + n_in + np.arange(n_rng), range_cols] = 1.0
    slack_idx = np.arange(n_slack)
    tab[n_eq + slack_idx, nstruct + slack_idx] = 1.0
    tab[np.flatnonzero(flip), :n_real] *= -1.0
    tab[:nrows, -1] = np.where(flip, -rhs, rhs)
    basis = np.full(nrows, -1, dtype=int)
    slack_rows = np.flatnonzero(slack_basic)
    basis[slack_rows] = nstruct + slack_rows - n_eq
    art_cols = n_real + np.arange(n_art)
    tab[art_rows, art_cols] = 1.0
    basis[art_rows] = art_cols

    iter_cap = ITER_FACTOR * (nrows + ncols)

    # phase one: minimize the sum of artificials
    if n_art:
        tab[-1, n_real:ncols] = 1.0
        for r in art_rows:
            tab[-1] -= tab[r]
        outcome = _run_simplex(tab, basis, nrows, iter_cap)
        if outcome != "optimal":
            return LpSolution(LpStatus.ITERATION_LIMIT)
        if -tab[-1, -1] > TOL_FEAS:
            return LpSolution(LpStatus.INFEASIBLE)
        # remove artificials from the basis; rows that cannot pivot are redundant
        drop_rows = []
        for r in np.flatnonzero(basis >= n_real):
            candidates = np.where(np.abs(tab[r, :n_real]) > TOL_PIVOT)[0]
            if candidates.size:
                _pivot(tab, r, int(candidates[0]))
                basis[r] = int(candidates[0])
            else:
                drop_rows.append(r)
        # the right-hand side moves next to the last real column and the
        # artificial columns fall outside the view
        tab[:, n_real] = tab[:, -1]
        tab = tab[:, : n_real + 1]
        ncols = n_real
        if drop_rows:
            dropped = set(drop_rows)
            keep = [r for r in range(nrows) if r not in dropped]
            tab = tab[keep + [nrows]]
            basis = basis[keep]
            nrows = len(keep)

    def extract():
        values = np.zeros(ncols)
        values[basis[:nrows]] = np.maximum(tab[:nrows, -1], 0.0)
        z = offsets.copy()
        np.add.at(z, col_var, col_sign * values[:nstruct])
        return z

    if not np.any(lp.objective):
        return LpSolution(LpStatus.FEASIBLE, primal=extract())

    # phase two; a C-ordered tableau lets the dense pivot work in place
    tab = np.ascontiguousarray(tab)
    cost = np.zeros(ncols + 1)
    cost[:nstruct] = lp.objective[col_var] * col_sign
    for r in range(nrows):
        if cost[basis[r]] != 0.0:
            cost = cost - cost[basis[r]] * tab[r]
    tab[-1] = cost
    outcome = _run_simplex(tab, basis, nrows, iter_cap)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)
    if outcome == "iteration_limit":
        return LpSolution(LpStatus.ITERATION_LIMIT)
    z = extract()
    return LpSolution(LpStatus.OPTIMAL, primal=z, objective_value=float(lp.objective @ z))
