"""Dense two-phase primal simplex for the small linear programs built here.

A variable is either nonnegative or free; a finite bound of any other kind
is an inequality row of the program. Standard form is reached by splitting
free variables into differences of nonnegative pairs and adding slacks.
Pricing is deterministic: Dantzig's rule with lowest-index tie breaking,
falling back to Bland's rule after a run of degenerate pivots so cycling
cannot occur.

The tableau keeps only the nonbasic columns, dictionary style: one
C-ordered array [nonbasic columns | rhs] with the cost row last, where
slots[k] names the variable of column k. Variables are numbered as the
columns of the full tableau [structural | slack | rhs], with one artificial
per row that starts on one after them. The structural columns and the
slacks of rows flipped for a negative right-hand side start nonbasic; the
other slacks and the artificials start basic. A pivot exchanges two
variables: the leaving one takes over the entering one's slot with the
column the full tableau would give it, 1 / pivot on the pivot row and
-other * (1 / pivot) elsewhere. The robust programs on the benchmark's box
have 16·T + 8 inequality rows on 2·T·n structural columns, so the slack
identity this leaves out filled four fifths of the full tableau's width.

Artificials never have a column. The phase-one cost row is minus the sum
of the rows that start on one, and an artificial that leaves the basis
never returns: its slot is zeroed. This is exact: the restricted phase one
still contains every feasible point of the program, so in exact arithmetic
its INFEASIBLE verdict is unchanged. Phase one is bounded below by zero,
so a ray found there is a numerical breakdown, PHASE_ONE_BREAKDOWN.

Pricing, Bland's rule and the drive-out of artificials break ties by
variable index, an argmin of slots over the eligible columns, so they pick
the column the full tableau, whose columns stand in variable order, would
pick.

An iteration makes those decisions with few numpy calls and no 2-d fancy
indexing. The cost row and the rhs column are views taken once per run;
every pivot updates the tableau in place, so they stay current, and the
clip of basic values to zero writes through the rhs view. Dantzig ties
come from one nonzero over the cost row. The ratio test gathers the
eligible entries of the entering column and their right-hand sides once,
as 1-d arrays, and picks the leaving row's position among them; it reads
a minimum ratio at its argmin, which skips the Python-level wrapper of
numpy's min and compares alike (a NaN or a zero of either sign gives the
same comparisons). The degeneracy step is the ratio at that position: the same division of the
row's rhs by its pivot entry as reading both back from the tableau, so
the switch to Bland's rule comes at the same iteration. Every pivot is a
call of the module global _pivot, never of an alias bound earlier, so a
wrapper set on the module (a pivot budget, a tracer) sees each one.

A pivot subtracts other[i] * row[j] from every entry tab[i, j], in place,
with one BLAS call on the tableau's transpose, which is Fortran-ordered, so
the call writes straight into it. How it rounds is decided on the full
tableau: its width, and the pivot row's nonzero count there, the count here
plus the leaving variable's 1 / pivot. The kernels are scipy's, which the
cached _blas imports on the first pivot, not with this module: importing
ddinv loads numpy alone, a process that solves nothing never loads scipy,
and a later pivot reads the module from the cache, with no import statement.
- Few nonzeros (the robust programs have 3-5%): one dgemm with inner
  dimension one, C += alpha A B with alpha = -1, A = the pivot row and B =
  the pivot column. The kernel forms each product before adding it, so
  every entry becomes tab[i, j] - round(other[i] * row[j]), rounded twice,
  as numpy's outer product and subtraction give it. It sums the product
  onto +0.0 first, so a -0.0 product leaves a -0.0 entry as it was, where
  numpy would give +0.0; no pivot decision reads the sign of a zero. Where
  the row is zero the product is zero and the entry keeps its value; where
  `other` is not finite it would be NaN, so then only the nonzero columns
  are updated, by numpy.
- More nonzeros (the nominal programs have 48-69%): BLAS dger, the rank-1
  update A += alpha x y^T with the same alpha, x and y. Where the kernel
  fuses the multiply and the add (scipy's OpenBLAS 0.3.31 does on an x86
  Xeon with FMA), each changed entry is rounded once: round(tab[i, j] -
  other[i] * row[j]).
The branch a pivot takes thus decides its bits, and as with dger, the bits
of the dgemm branch are those of the BLAS kernel: one whose k = 1 dgemm
fuses would round that branch once (tests/test_lp.py checks the kernel).
The leaving column's entries, -round(other[i] * (1 / pivot)), are what
either branch gives the full tableau's zero entries, so pivot sequences and
points are the full tableau's bit for bit, up to the sign of an exact zero
(tests/oracles.py keeps that tableau as the reference). They repeat exactly
on one machine and BLAS kernel; a kernel without fused multiply-add rounds
the dense branch twice and may take other pivots.

Every OPTIMAL or FEASIBLE point is checked against the program passed in
before it is returned. A point that breaks a constraint by more than
GUARD_TOL comes back as BAD_POINT, with no primal and with its worst
residual.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

TOL_FEAS = 1e-8
# residual above which a returned point counts as breaking its program; the
# verifier's default tolerance, which 1e-8 would undercut on points that
# verify and HiGHS both accept
GUARD_TOL = 1e-6
TOL_PIVOT = 1e-10
BLAND_AFTER = 12
ITER_FACTOR = 50
# a pivot row with at most this share of nonzero columns on the full
# tableau's width takes the twice-rounded update. It fixes which pivots
# round once and which twice, so it decides pivots, not only speed
SPARSE_PIVOT_SHARE = 0.2


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    # phase one, whose objective is bounded below by zero, found a ray:
    # only numerical breakdown gives that
    PHASE_ONE_BREAKDOWN = "phase_one_breakdown"
    BAD_POINT = "bad_point"


def _as_matrix(value, cols, name):
    if value is None:
        return np.zeros((0, cols))
    mat = np.asarray(value, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != cols:
        raise ValueError(f"{name} must be 2-d with {cols} columns, got shape {mat.shape}")
    return mat


@dataclass
class LinearProgram:
    """min objective @ z subject to eq_lhs z = eq_rhs, ineq_lhs z <= ineq_rhs,
    and z >= 0 where the boolean mask nonneg is set; the other variables,
    every one by default, are free."""

    num_vars: int
    objective: np.ndarray
    eq_lhs: Optional[np.ndarray] = None
    eq_rhs: Optional[np.ndarray] = None
    ineq_lhs: Optional[np.ndarray] = None
    ineq_rhs: Optional[np.ndarray] = None
    nonneg: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.num_vars
        if n <= 0:
            raise ValueError("num_vars must be positive")
        self.objective = np.asarray(self.objective, dtype=float).reshape(-1)
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match num_vars")
        self.eq_lhs = _as_matrix(self.eq_lhs, n, "eq_lhs")
        self.ineq_lhs = _as_matrix(self.ineq_lhs, n, "ineq_lhs")
        self.eq_rhs = np.zeros(0) if self.eq_rhs is None else np.asarray(self.eq_rhs, dtype=float).reshape(-1)
        self.ineq_rhs = np.zeros(0) if self.ineq_rhs is None else np.asarray(self.ineq_rhs, dtype=float).reshape(-1)
        if self.eq_lhs.shape[0] != self.eq_rhs.shape[0]:
            raise ValueError("eq_lhs and eq_rhs row counts differ")
        if self.ineq_lhs.shape[0] != self.ineq_rhs.shape[0]:
            raise ValueError("ineq_lhs and ineq_rhs row counts differ")
        self.nonneg = (np.zeros(n, dtype=bool) if self.nonneg is None
                       else np.asarray(self.nonneg, dtype=bool).reshape(-1))
        if self.nonneg.shape != (n,):
            raise ValueError("nonneg must have num_vars entries")
        if not all(np.isfinite(part).all() for part in (self.objective, self.eq_lhs, self.eq_rhs,
                                                        self.ineq_lhs, self.ineq_rhs)):
            raise ValueError("objective, constraint rows and right-hand sides must be finite")


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
        -z[lp.nonneg]]), initial=0.0))


def check_feasible(lp: LinearProgram, point, tol: float = TOL_FEAS) -> bool:
    """True when point satisfies every constraint of lp within tol."""
    return max_violation(lp, point) <= tol


@functools.cache
def _blas():
    """scipy's BLAS module, imported on the first pivot, not with ddinv."""
    from scipy.linalg import blas
    return blas


def _pivot(tab, row, col, width, keep_leaving):
    """Exchange the variable of column col with the basic variable of row
    `row`. The leaving variable takes over column col, which is zeroed when
    it is an artificial (keep_leaving false). The rounding branch is chosen
    on the full tableau of `width` columns, as the module docstring says.
    tab must be C-ordered: the BLAS updates write through its
    Fortran-ordered transpose, and on any other layout they would update a
    copy, so another layout is a ValueError."""
    if not tab.flags.c_contiguous:
        layout = "Fortran-ordered" if tab.flags.f_contiguous else "non-contiguous"
        raise ValueError(f"the tableau must be C-ordered, got a {layout} one")
    prow = tab[row]
    pivot = prow[col]
    prow /= pivot
    other = tab[:, col].copy()
    other[row] = 0.0
    # the pivot row goes in as a copy: it is part of what the BLAS calls
    # overwrite
    if np.count_nonzero(prow) + keep_leaving > SPARSE_PIVOT_SHARE * width:
        _blas().dger(-1.0, prow.copy(), other, a=tab.T, overwrite_a=True)
    elif np.isfinite(other).all():
        _blas().dgemm(-1.0, prow.copy()[:, None], other[None, :], beta=1.0, c=tab.T,
                      overwrite_c=True)
    else:
        # a zero of the row times a non-finite entry of `other` is NaN, not
        # the zero product that leaves the entry as it was
        cols = np.flatnonzero(prow)
        tab[:, cols] -= np.outer(other, prow[cols])
    if keep_leaving:
        inverse = 1.0 / pivot
        np.multiply(other, -inverse, out=tab[:, col])
        prow[col] = inverse
    else:
        tab[:, col] = 0.0


def _run_simplex(tab, basis, slots, nrows, width, iter_cap):
    """Iterate on a tableau whose last row holds reduced costs and last column
    the right-hand side; slots names the variable of each other column, and
    width is the full tableau's column count. Returns 'optimal', 'unbounded'
    or 'iteration_limit'."""
    n_real = width - 1
    costs = tab[-1, :-1]
    rhs = tab[:nrows, -1]
    degenerate_run = 0
    for _ in range(iter_cap):
        bland = degenerate_run >= BLAND_AFTER
        # ties go to the lowest variable index, as in a tableau whose columns
        # stand in variable order
        if bland:
            below = (costs < -TOL_PIVOT).nonzero()[0]
            if not below.size:
                return "optimal"
            col = int(below[slots[below].argmin()])
        else:
            col = int(costs.argmin())
            if costs[col] >= -TOL_PIVOT:
                return "optimal"
            tied = (costs == costs[col]).nonzero()[0]
            if tied.size > 1:
                col = int(tied[slots[tied].argmin()])
        colvals = tab[:nrows, col]
        eligible = (colvals > TOL_PIVOT).nonzero()[0]
        if not eligible.size:
            return "unbounded"
        entries, values = colvals[eligible], rhs[eligible]
        ratios = values / entries
        if bland:
            # exact minimum-ratio ties broken by lowest basis index; the
            # index rule is what makes the cycling guarantee hold
            ties = (ratios <= ratios[ratios.argmin()] + 1e-12).nonzero()[0]
            pick = ties[basis[eligible[ties]].argmin()]
        else:
            # two-pass ratio test: any row whose ratio keeps every basic
            # value above -TOL_FEAS may leave, and the largest pivot entry
            # in that window wins. Near-threshold pivots wreck the tableau
            # scale within a handful of iterations otherwise.
            limits = (values + TOL_FEAS) / entries
            window = (ratios <= limits[limits.argmin()]).nonzero()[0]
            pick = window[entries[window].argmax()]
        row = int(eligible[pick])
        degenerate_run = degenerate_run + 1 if ratios[pick] < 1e-12 else 0
        _pivot(tab, row, col, width, basis[row] < n_real)
        basis[row], slots[col] = slots[col], basis[row]
        # the relaxed test can leave basic values a hair below zero
        np.maximum(rhs, 0.0, out=rhs)
    return "iteration_limit"


def _standard_columns(lp: LinearProgram):
    """Variable transform z[i] = sign * s for each structural column s, in
    variable order: a nonnegative variable is one column, a free one a +/-
    pair. Returns (column variable, column sign)."""
    counts = 2 - lp.nonneg
    col_var = np.repeat(np.arange(lp.num_vars), counts)
    col_sign = np.ones(col_var.size)
    col_sign[np.cumsum(counts)[~lp.nonneg] - 1] = -1.0
    return col_var, col_sign


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex. Pure feasibility problems (all-zero objective) stop
    after phase one and report FEASIBLE; anything else reports OPTIMAL,
    INFEASIBLE, UNBOUNDED, ITERATION_LIMIT or PHASE_ONE_BREAKDOWN. A
    FEASIBLE or OPTIMAL point that breaks lp by more than GUARD_TOL is
    withheld as BAD_POINT. A tableau that overflows the float range is left
    to the statuses and the guard to judge, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        sol = _simplex(lp)
        residual = None if sol.primal is None else max_violation(lp, sol.primal)
    if residual is not None and not residual <= GUARD_TOL:
        return LpSolution(LpStatus.BAD_POINT, residual=residual)
    return sol


def _simplex(lp: LinearProgram) -> LpSolution:
    col_var, col_sign = _standard_columns(lp)
    n_eq = lp.eq_lhs.shape[0]
    n_in = lp.ineq_lhs.shape[0]
    nrows = n_eq + n_in
    nstruct = col_var.size
    n_real = nstruct + n_in
    width = n_real + 1

    # rows whose slack survives with +1 start with that slack basic; the
    # rest (equalities, inequalities flipped for a negative right-hand
    # side) start on an artificial, which has a basis marker but no column
    rhs = np.concatenate([lp.eq_rhs, lp.ineq_rhs])
    flip = rhs < 0
    slack_basic = ~flip
    slack_basic[:n_eq] = False
    art_rows = np.flatnonzero(~slack_basic)
    n_art = art_rows.size
    basis = np.full(nrows, -1, dtype=np.intp)
    slack_rows = np.flatnonzero(slack_basic)
    basis[slack_rows] = nstruct + slack_rows - n_eq
    basis[art_rows] = n_real + np.arange(n_art)

    # the nonbasic columns: every structural one, then the slacks of the
    # flipped inequality rows; the rhs column and the cost row come last
    flip_rows = n_eq + np.flatnonzero(flip[n_eq:])
    slots = np.concatenate([np.arange(nstruct), nstruct + flip_rows - n_eq])
    tab = np.zeros((nrows + 1, slots.size + 1))
    np.multiply(lp.eq_lhs[:, col_var], col_sign, out=tab[:n_eq, :nstruct])
    np.multiply(lp.ineq_lhs[:, col_var], col_sign, out=tab[n_eq:nrows, :nstruct])
    tab[flip_rows, nstruct + np.arange(flip_rows.size)] = 1.0
    tab[np.flatnonzero(flip), :-1] *= -1.0
    tab[:nrows, -1] = np.where(flip, -rhs, rhs)

    iter_cap = ITER_FACTOR * (nrows + n_real + n_art)

    # phase one: minimize the sum of artificials, priced out of their rows
    if n_art:
        for r in art_rows:
            tab[-1] -= tab[r]
        outcome = _run_simplex(tab, basis, slots, nrows, width, iter_cap)
        # phase one is bounded below by zero: "unbounded" is a breakdown
        if outcome == "unbounded":
            return LpSolution(LpStatus.PHASE_ONE_BREAKDOWN)
        if outcome == "iteration_limit":
            return LpSolution(LpStatus.ITERATION_LIMIT)
        if -tab[-1, -1] > TOL_FEAS:
            return LpSolution(LpStatus.INFEASIBLE)
        # remove artificials from the basis, entering the lowest-index
        # variable that can pivot; rows where none can are redundant
        drop_rows = []
        for r in np.flatnonzero(basis >= n_real):
            candidates = (np.abs(tab[r, :-1]) > TOL_PIVOT).nonzero()[0]
            if candidates.size:
                col = int(candidates[slots[candidates].argmin()])
                _pivot(tab, r, col, width, False)
                basis[r], slots[col] = slots[col], basis[r]
            else:
                drop_rows.append(r)
        if drop_rows:
            dropped = set(drop_rows)
            keep = [r for r in range(nrows) if r not in dropped]
            tab = tab[keep + [nrows]]
            basis = basis[keep]
            nrows = len(keep)

    def extract():
        values = np.zeros(n_real)
        values[basis] = np.maximum(tab[:nrows, -1], 0.0)
        z = np.zeros(lp.num_vars)
        np.add.at(z, col_var, col_sign * values[:nstruct])
        return z

    if not np.any(lp.objective):
        return LpSolution(LpStatus.FEASIBLE, primal=extract())

    # phase two: price the basic variables out of the cost row
    var_cost = np.zeros(n_real + n_art)
    var_cost[:nstruct] = lp.objective[col_var] * col_sign
    cost = np.append(var_cost[slots], 0.0)
    for r, basic_cost in enumerate(var_cost[basis]):
        if basic_cost != 0.0:
            cost = cost - basic_cost * tab[r]
    tab[-1] = cost
    outcome = _run_simplex(tab, basis, slots, nrows, width, iter_cap)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)
    if outcome == "iteration_limit":
        return LpSolution(LpStatus.ITERATION_LIMIT)
    z = extract()
    return LpSolution(LpStatus.OPTIMAL, primal=z, objective_value=float(lp.objective @ z))
