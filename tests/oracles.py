"""Independent reference implementations the tests check the library against.

These deliberately do not call into the library solve paths: the LP oracle
enumerates candidate basic points directly, the vertex oracle intersects
row pairs, and the polygon rebuild works from cross products. The loop
references (`vertices_loop`, `dense_pivot`, the robust loops) are the one-at-a-time forms of vectorized library code, kept so the
tests can pin the vectorized forms to them. `fused_pivot` computes each
entry of a pivot exactly in rationals and rounds it once, as a fused
multiply-add does. `bounded_coordinate_lps` is the 2n-LP boundedness test
the library once ran; it calls `lp.solve`, as that test did.
`positively_spans_highs` and `hull_holds_origin_highs` decide boundedness
(Stiemke's form) and a disturbance hull's hold on the origin with HiGHS, as
feasibility LPs, for the LP-free set checks to be compared against.
`nominal_lp_loop` builds both nominal programs the way the two separate
builders did, a block per vertex and per set row, and finds a centrally
symmetric set's opposite rows with a loop of its own. `full_tableau_solve` is
the simplex as it was before the library kept only nonbasic columns: the
same pivots on a tableau that also stores every basic column, the slack
identity included, so the library's condensed exchange can be pinned to it
bit for bit. `simulate_rows_loop` and `frame_points` are the per-row CSV
loop and the per-point screen mapping the `simulate` command and its plots
once used, kept to pin the table and array forms that replaced them.
`hankel_loop` fills a block Hankel matrix one block at a time, as
`experiment.hankel` once did.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.linalg.blas import dger
from scipy.optimize import linprog

from ddinv import lp
from ddinv.lp import (BLAND_AFTER, GUARD_TOL, ITER_FACTOR, SPARSE_PIVOT_SHARE, TOL_FEAS,
                      TOL_PIVOT, LinearProgram, LpSolution, LpStatus, _standard_columns,
                      max_violation)


def brute_force_lp(prob, feas_tol=1e-9):
    """Classify a small LP with a bounded feasible region by enumerating all
    candidate basic points: solutions of num_vars active constraints drawn
    from the equalities (always active), inequality rows and finite bounds.

    Returns (status, value, point) with status 'optimal' or 'infeasible'.
    A bounded nonempty region always has a basic feasible point, so absence
    of one certifies infeasibility.
    """
    n = prob.num_vars
    mand = [(np.asarray(a, dtype=float), float(b))
            for a, b in zip(prob.eq_lhs, prob.eq_rhs)]
    cand = [(np.asarray(a, dtype=float), float(b))
            for a, b in zip(prob.ineq_lhs, prob.ineq_rhs)]
    for i in range(n):
        unit = np.zeros(n)
        unit[i] = 1.0
        if np.isfinite(prob.lower_bounds[i]):
            cand.append((-unit, -float(prob.lower_bounds[i])))
        if np.isfinite(prob.upper_bounds[i]):
            cand.append((unit, float(prob.upper_bounds[i])))

    def feasible(x):
        for a, b in mand:
            if abs(a @ x - b) > feas_tol:
                return False
        for a, b in cand:
            if a @ x - b > feas_tol:
                return False
        return True

    need = n - len(mand)
    best_val = None
    best_pt = None
    for combo in combinations(range(len(cand)), need):
        mat = np.array([a for a, _ in mand] + [cand[i][0] for i in combo])
        rhs = np.array([b for _, b in mand] + [cand[i][1] for i in combo])
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or not feasible(x):
            continue
        val = float(prob.objective @ x)
        if best_val is None or val < best_val:
            best_val = val
            best_pt = x
    if best_val is None:
        return "infeasible", None, None
    return "optimal", best_val, best_pt


def vertex_oracle_2d(h_matrix, feas_tol=1e-8, dedup_tol=1e-7):
    """Vertices of {x in R^2 : H x <= 1} by intersecting every row pair."""
    h_matrix = np.asarray(h_matrix, dtype=float)
    points = []
    for i, j in combinations(range(h_matrix.shape[0]), 2):
        pair = h_matrix[[i, j]]
        det = pair[0, 0] * pair[1, 1] - pair[0, 1] * pair[1, 0]
        if abs(det) < 1e-12:
            continue
        x = np.array([pair[1, 1] - pair[0, 1], pair[0, 0] - pair[1, 0]]) / det
        if np.max(h_matrix @ x) > 1.0 + feas_tol:
            continue
        if any(np.linalg.norm(x - p) <= dedup_tol for p in points):
            continue
        points.append(x)
    return np.array(points) if points else np.zeros((0, 2))


def same_point_set(set_a, set_b, tol=1e-6):
    """True when the two point collections match pairwise within tol."""
    set_a = np.atleast_2d(np.asarray(set_a, dtype=float))
    set_b = np.atleast_2d(np.asarray(set_b, dtype=float))
    if set_a.shape[0] != set_b.shape[0]:
        return False
    unused = list(range(set_b.shape[0]))
    for a in set_a:
        hit = None
        for idx in unused:
            if np.linalg.norm(a - set_b[idx]) <= tol:
                hit = idx
                break
        if hit is None:
            return False
        unused.remove(hit)
    return True


def polygon_rows_from_vertices(verts_ccw):
    """Halfspace rows of a convex polygon with the origin inside, given its
    vertices in counterclockwise order."""
    verts_ccw = np.asarray(verts_ccw, dtype=float)
    rows = []
    count = verts_ccw.shape[0]
    for k in range(count):
        v = verts_ccw[k]
        w = verts_ccw[(k + 1) % count]
        edge = w - v
        normal = np.array([edge[1], -edge[0]])  # outward for ccw order
        rows.append(normal / (normal @ v))
    return np.array(rows)


def dense_pivot(tab, row, col):
    """Pivot on (row, col) by one dense rank-1 update of the whole tableau."""
    tab[row] /= tab[row, col]
    other = tab[:, col].copy()
    other[row] = 0.0
    tab -= np.outer(other, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def fused_pivot(tab, row, col):
    """Pivot on (row, col) with each changed entry rounded once: the exact
    value of tab[i, j] - other[i] * row[j], rounded to the nearest double."""
    tab[row] /= tab[row, col]
    other = tab[:, col].copy()
    other[row] = 0.0
    pivot_row = [Fraction(v) for v in tab[row]]
    for i in np.flatnonzero(other):
        factor = Fraction(other[i])
        tab[i] = [float(Fraction(t) - factor * r) for t, r in zip(tab[i], pivot_row)]
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def vertices_loop(h_matrix, dedup_tol=1e-7, feas_tol=1e-8):
    """Vertices of {x : H x <= 1} one row subset at a time: solve H_J x = 1,
    skip a subset whose solve raises, keep finite, exact and feasible points,
    and drop a point within dedup_tol times the largest kept norm of one
    found earlier. Rank and boundedness are checked by the library
    function, not here."""
    h_matrix = np.atleast_2d(np.asarray(h_matrix, dtype=float))
    n_rows, n = h_matrix.shape
    ones = np.ones(n)
    cands = []
    for subset in combinations(range(n_rows), n):
        sub = h_matrix[list(subset)]
        try:
            cand = np.linalg.solve(sub, ones)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(cand)):
            continue
        if np.max(np.abs(sub @ cand - ones)) > 1e-7:
            continue
        if np.max(h_matrix @ cand) > 1.0 + feas_tol:
            continue
        cands.append(cand)
    if not cands:
        return np.zeros((0, n))
    tol = dedup_tol * np.linalg.norm(np.array(cands), axis=1).max()
    found = []
    for cand in cands:
        if not any(np.linalg.norm(cand - v) <= tol for v in found):
            found.append(cand)
    return np.array(found)


def opposite_pairs(s_h):
    """The first row of each opposite pair, and every row's partner, when
    every row of s_h has exactly one other row that is its negative within
    1e-12 of the largest magnitude; all rows and None otherwise."""
    n_s = s_h.shape[0]
    largest = max(abs(float(v)) for v in s_h.ravel())
    partners = [[j for j in range(n_s)
                 if max(abs(s_h[i] / largest + s_h[j] / largest)) <= 1e-12]
                for i in range(n_s)]
    if all(len(found) == 1 and found[0] != i for i, found in enumerate(partners)):
        return [i for i in range(n_s) if i < partners[i][0]], [found[0] for found in partners]
    return list(range(n_s)), None


def robust_rows_loop(data, state_set, input_set, disturbance, pair_rows=False):
    """Inequality rows of the robust program, one Kronecker block per
    (vertex, sample, disturbance vertex) and then one admissibility block
    per vertex. Returns (lhs, rhs). With pair_rows, on a set whose rows
    pair as in nominal_lp_loop, each block keeps only the first row of each
    pair, with the right-hand side 1 minus the larger of the two rows'
    largest shifts; without it, or on any other set, it keeps every row."""
    T = data.samples
    s_h = state_set.h_matrix
    base = s_h @ data.x1t
    shift_cols = s_h @ disturbance.vertices.T
    d_shift = shift_cols.max(axis=1)
    reps, partners = opposite_pairs(s_h) if pair_rows else (list(range(s_h.shape[0])), None)
    if partners is not None:
        d_shift = np.array([max(d_shift[r], d_shift[partners[r]]) for r in reps])
    lhs = []
    rhs = []
    for vert in state_set.vertices:
        for j in range(1, T + 1):
            for i in range(disturbance.vertices.shape[0]):
                prop = base.copy()
                prop[:, j - 1] -= T * shift_cols[:, i]
                lhs.append(np.kron(vert[None, :], prop[reps]))
                rhs.append(1.0 - d_shift)
    admiss = input_set.h_matrix @ data.u0t
    for vert in state_set.vertices:
        lhs.append(np.kron(vert[None, :], admiss))
        rhs.append(np.ones(admiss.shape[0]))
    return np.vstack(lhs), np.concatenate(rhs)


def robust_data_worst_loop(data, g_matrix, cset, disturbance):
    """Worst shifted propagation of the robust data conditions, one
    (vertex, disturbance vertex, sample) triple at a time."""
    s_h = cset.h_matrix
    T = data.samples
    shift = s_h @ disturbance.vertices.T
    d_worst = shift.max(axis=1)
    base = s_h @ data.x1t @ g_matrix
    worst = 0.0
    for vert in cset.vertices:
        nominal = base @ vert
        gs = g_matrix @ vert
        for i in range(disturbance.vertices.shape[0]):
            for j in range(T):
                rows = nominal - T * shift[:, i] * gs[j] + d_worst
                worst = max(worst, float(np.max(rows)))
    return worst


def bounded_coordinate_lps(h_matrix):
    """True when {x : H x <= 1} is bounded, by maximizing +-e_i over the set
    for each coordinate i: 2n LPs, unbounded as soon as one of them is."""
    n = h_matrix.shape[1]
    for i in range(n):
        for sign in (1.0, -1.0):
            cost = np.zeros(n)
            cost[i] = -sign
            prob = lp.LinearProgram(num_vars=n, objective=cost, ineq_lhs=h_matrix,
                                    ineq_rhs=np.ones(h_matrix.shape[0]))
            if lp.solve(prob).status == lp.LpStatus.UNBOUNDED:
                return False
    return True


def positively_spans_highs(h_matrix):
    """True when H^T y = 0 has a solution y >= 1, by HiGHS: for H of full
    column rank, exactly when {x : H x <= 1} is bounded (Stiemke)."""
    n_rows, n = h_matrix.shape
    result = linprog(np.zeros(n_rows), A_eq=h_matrix.T, b_eq=np.zeros(n),
                     bounds=[(1.0, None)] * n_rows, method="highs")
    assert result.status in (0, 2), result.message
    return result.status == 0


def hull_holds_origin_highs(verts):
    """True when weights w >= 0 with sum 1 put the origin at sum_i w_i d_i,
    by HiGHS."""
    nd, n = verts.shape
    result = linprog(np.zeros(nd), A_eq=np.vstack([verts.T, np.ones((1, nd))]),
                     b_eq=np.append(np.zeros(n), 1.0), bounds=[(0.0, None)] * nd,
                     method="highs")
    assert result.status in (0, 2), result.message
    return result.status == 0


def nominal_lp_loop(source, state_set, input_set, lam=None, pair_rows=True):
    """Nominal program built block by block, one vertex and one set row at a
    time: the model-based program when `source` has an A matrix, the
    data-based one otherwise. With pair_rows, on a set where every row has
    exactly one other row that is its negative within 1e-12 of the largest
    magnitude, P has rows only at the first row of each such pair; without
    it, or on any other set, P is the full n_s x n_s matrix."""
    model = hasattr(source, "a_matrix")
    s_h = state_set.h_matrix
    n_s, n = s_h.shape
    reps = opposite_pairs(s_h)[0] if pair_rows else list(range(n_s))
    n_r = len(reps)
    q = source.m if model else source.samples
    p_off = q * n
    nvars = p_off + n_r * n_s + (1 if lam is None else 0)
    admiss = input_set.h_matrix if model else input_set.h_matrix @ source.u0t
    prop = s_h @ (source.b_matrix if model else source.x1t)
    ineq, ineq_rhs, eq, eq_rhs = [], [], [], []
    for vert in state_set.vertices:
        block = np.zeros((admiss.shape[0], nvars))
        block[:, :p_off] = np.kron(vert[None, :], admiss)
        ineq.append(block)
        ineq_rhs.append(np.ones(admiss.shape[0]))
    for k, i in enumerate(reps):
        block = np.zeros((n, nvars))
        block[:, :p_off] = -np.kron(np.eye(n), prop[i : i + 1, :])
        block[:, p_off + k * n_s : p_off + (k + 1) * n_s] = s_h.T
        eq.append(block)
        eq_rhs.append((s_h @ source.a_matrix)[i] if model else np.zeros(n))
    if not model:
        block = np.zeros((n * n, nvars))
        block[:, :p_off] = np.kron(np.eye(n), source.x0t)
        eq.append(block)
        eq_rhs.append(np.eye(n).ravel())
    sums = np.zeros((n_r, nvars))
    for k in range(n_r):
        sums[k, p_off + k * n_s : p_off + (k + 1) * n_s] = 1.0
    lower = np.full(nvars, -np.inf)
    upper = np.full(nvars, np.inf)
    lower[p_off : p_off + n_r * n_s] = 0.0
    objective = np.zeros(nvars)
    if lam is None:
        sums[:, -1] = -1.0
        lower[-1], upper[-1], objective[-1] = 0.0, 1.0 - 1e-6, 1.0
    sum_rhs = np.zeros(n_r) if lam is None else np.full(n_r, float(lam))
    return lp.LinearProgram(
        num_vars=nvars, objective=objective,
        eq_lhs=np.vstack(eq), eq_rhs=np.concatenate(eq_rhs),
        ineq_lhs=np.vstack([sums] + ineq), ineq_rhs=np.concatenate([sum_rhs] + ineq_rhs),
        lower_bounds=lower, upper_bounds=upper)


def full_tableau_pivot(tab, row, col):
    """Make column col a unit column with its one on row `row`.

    Every entry that changes becomes tab[i, j] - other[i] * tab[row, j].
    When the pivot row has few nonzeros only those columns are touched;
    elsewhere the product is zero and the entry stays as it was. tab must be
    C-ordered: the dense update writes through its Fortran-ordered transpose,
    and on any other layout it would update a copy."""
    tab[row] /= tab[row, col]
    other = tab[:, col].copy()
    other[row] = 0.0
    if np.count_nonzero(tab[row]) <= SPARSE_PIVOT_SHARE * tab.shape[1]:
        cols = np.flatnonzero(tab[row])
        tab[:, cols] -= np.outer(other, tab[row, cols])
    else:
        dger(-1.0, tab[row].copy(), other, a=tab.T, overwrite_a=True)
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def full_tableau_run(tab, basis, nrows, iter_cap):
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
        full_tableau_pivot(tab, row, col)
        basis[row] = col
        # the relaxed test can leave basic values a hair below zero
        np.maximum(tab[:nrows, -1], 0.0, out=tab[:nrows, -1])
    return "iteration_limit"


def full_tableau_solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex. Pure feasibility problems (all-zero objective) stop
    after phase one and report FEASIBLE; anything else reports OPTIMAL,
    INFEASIBLE, UNBOUNDED or ITERATION_LIMIT. A FEASIBLE or OPTIMAL point
    that breaks lp by more than GUARD_TOL is withheld as BAD_POINT."""
    sol = full_tableau_simplex(lp)
    if sol.primal is not None:
        residual = max_violation(lp, sol.primal)
        if not residual <= GUARD_TOL:
            return LpSolution(LpStatus.BAD_POINT, residual=residual)
    return sol


def full_tableau_simplex(lp: LinearProgram) -> LpSolution:
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
    # side) start on an artificial, which has a basis marker but no column
    rhs = np.zeros(nrows)
    rhs[:n_eq] = lp.eq_rhs - lp.eq_lhs @ offsets
    rhs[n_eq : n_eq + n_in] = lp.ineq_rhs - lp.ineq_lhs @ offsets
    rhs[n_eq + n_in :] = range_widths
    flip = rhs < 0
    slack_basic = ~flip
    slack_basic[:n_eq] = False
    art_rows = np.flatnonzero(~slack_basic)
    n_art = art_rows.size

    # one tableau: [structural | slack | rhs], cost row last
    tab = np.zeros((nrows + 1, n_real + 1))
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
    basis[art_rows] = n_real + np.arange(n_art)

    iter_cap = ITER_FACTOR * (nrows + n_real + n_art)

    # phase one: minimize the sum of artificials, priced out of their rows
    if n_art:
        for r in art_rows:
            tab[-1] -= tab[r]
        outcome = full_tableau_run(tab, basis, nrows, iter_cap)
        if outcome != "optimal":
            return LpSolution(LpStatus.ITERATION_LIMIT)
        if -tab[-1, -1] > TOL_FEAS:
            return LpSolution(LpStatus.INFEASIBLE)
        # remove artificials from the basis; rows that cannot pivot are redundant
        drop_rows = []
        for r in np.flatnonzero(basis >= n_real):
            candidates = np.where(np.abs(tab[r, :n_real]) > TOL_PIVOT)[0]
            if candidates.size:
                full_tableau_pivot(tab, r, int(candidates[0]))
                basis[r] = int(candidates[0])
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
        z = offsets.copy()
        np.add.at(z, col_var, col_sign * values[:nstruct])
        return z

    if not np.any(lp.objective):
        return LpSolution(LpStatus.FEASIBLE, primal=extract())

    # phase two
    cost = np.zeros(n_real + 1)
    cost[:nstruct] = lp.objective[col_var] * col_sign
    for r in range(nrows):
        if cost[basis[r]] != 0.0:
            cost = cost - cost[basis[r]] * tab[r]
    tab[-1] = cost
    outcome = full_tableau_run(tab, basis, nrows, iter_cap)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)
    if outcome == "iteration_limit":
        return LpSolution(LpStatus.ITERATION_LIMIT)
    z = extract()
    return LpSolution(LpStatus.OPTIMAL, primal=z, objective_value=float(lp.objective @ z))


def simulate_rows_loop(f_matrix, gain, cset, x0, steps):
    """The CSV rows of `simulate` built one step at a time: t, then x(t),
    u = K x(t) and V(x(t)) = max_i |row_i(S) x(t)| as the repr of each
    number, with x(t+1) = F x(t)."""
    rows = []
    x = np.asarray(x0, dtype=float)
    for t in range(steps + 1):
        rows.append([str(t)] + [repr(float(v)) for v in x]
                    + [repr(float(v)) for v in gain @ x]
                    + [repr(float(np.max(np.abs(cset.h_matrix @ x))))])
        x = f_matrix @ x
    return rows


def hankel_loop(sequence, start, depth, width):
    """The block Hankel matrix with block (r, c) the sample at
    start + r + c, written block by block."""
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim == 1:
        seq = seq.reshape(-1, 1)
    sigma = seq.shape[1]
    out = np.zeros((sigma * depth, width))
    for r in range(depth):
        for c in range(width):
            out[r * sigma : (r + 1) * sigma, c] = seq[start + r + c]
    return out


def frame_points(points, xlim, ylim, width=640, height=480):
    """An SVG points list, each world point mapped to the screen on its own,
    x onto [0, width] and y flipped onto [height, 0], and formatted to two
    decimals."""
    (x0, x1), (y0, y1) = xlim, ylim

    def to_screen(pt):
        sx = (pt[0] - x0) / (x1 - x0) * width
        sy = (y1 - pt[1]) / (y1 - y0) * height
        return sx, sy

    return " ".join(f"{sx:.2f},{sy:.2f}" for sx, sy in map(to_screen, points))
