"""Independent reference implementations the tests check the library against.

These deliberately do not call into the library solve paths: the LP oracle
enumerates candidate basic points directly, the vertex oracle intersects
row pairs, and the polygon rebuild works from cross products. The loop
references (`vertices_loop`, `decay_margin_loop`, `dense_pivot`, the robust
loops) are the one-at-a-time forms of vectorized library code, kept so the
tests can pin the vectorized forms to them. `fused_pivot` computes each
entry of a pivot exactly in rationals and rounds it once, as a fused
multiply-add does. `bounded_coordinate_lps` is the 2n-LP boundedness test
the library's single LP replaced; it calls `lp.solve`, as that test did.
`nominal_lp_loop` builds both nominal programs the way the two separate
builders did, a block per vertex and per set row.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from ddinv import lp


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
    and drop a point within dedup_tol of one found earlier. Rank and
    boundedness are checked by the library function, not here."""
    h_matrix = np.atleast_2d(np.asarray(h_matrix, dtype=float))
    n_rows, n = h_matrix.shape
    ones = np.ones(n)
    found = []
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
        if any(np.linalg.norm(cand - v) <= dedup_tol for v in found):
            continue
        found.append(cand)
    return np.array(found) if found else np.zeros((0, n))


def decay_margin_loop(f_matrix, cset, lam, steps=50):
    """Worst one-step decay margin V(x+) - lam V(x), with V(x) =
    max_i |row_i(S) x|, over `steps` steps of x+ = F x from every vertex,
    one vertex and one step at a time."""
    s_h = cset.h_matrix
    worst = -np.inf
    for vert in cset.vertices:
        x = np.asarray(vert, dtype=float)
        for _ in range(steps):
            x_next = f_matrix @ x
            margin = (float(np.max(np.abs(s_h @ x_next)))
                      - lam * float(np.max(np.abs(s_h @ x))))
            worst = max(worst, margin)
            x = x_next
    return worst


def robust_rows_loop(data, state_set, input_set, disturbance):
    """Inequality rows of the robust program, one Kronecker block per
    (vertex, sample, disturbance vertex) and then one admissibility block
    per vertex. Returns (lhs, rhs)."""
    T = data.samples
    s_h = state_set.h_matrix
    base = s_h @ data.x1t
    shift_cols = s_h @ disturbance.vertices.T
    d_shift = shift_cols.max(axis=1)
    lhs = []
    rhs = []
    for vert in state_set.vertices:
        for j in range(1, T + 1):
            for i in range(disturbance.vertices.shape[0]):
                prop = base.copy()
                prop[:, j - 1] -= T * shift_cols[:, i]
                lhs.append(np.kron(vert[None, :], prop))
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


def nominal_lp_loop(source, state_set, input_set, lam=None):
    """Nominal program built block by block, one vertex and one set row at a
    time: the model-based program when `source` has an A matrix, the
    data-based one otherwise."""
    model = hasattr(source, "a_matrix")
    s_h = state_set.h_matrix
    n_s, n = s_h.shape
    q = source.m if model else source.samples
    p_off = q * n
    nvars = p_off + n_s * n_s + (1 if lam is None else 0)
    admiss = input_set.h_matrix if model else input_set.h_matrix @ source.u0t
    prop = s_h @ (source.b_matrix if model else source.x1t)
    ineq, ineq_rhs, eq, eq_rhs = [], [], [], []
    for vert in state_set.vertices:
        block = np.zeros((admiss.shape[0], nvars))
        block[:, :p_off] = np.kron(vert[None, :], admiss)
        ineq.append(block)
        ineq_rhs.append(np.ones(admiss.shape[0]))
    for i in range(n_s):
        block = np.zeros((n, nvars))
        block[:, :p_off] = -np.kron(np.eye(n), prop[i : i + 1, :])
        block[:, p_off + i * n_s : p_off + (i + 1) * n_s] = s_h.T
        eq.append(block)
        eq_rhs.append((s_h @ source.a_matrix)[i] if model else np.zeros(n))
    if not model:
        block = np.zeros((n * n, nvars))
        block[:, :p_off] = np.kron(np.eye(n), source.x0t)
        eq.append(block)
        eq_rhs.append(np.eye(n).ravel())
    sums = np.zeros((n_s, nvars))
    sums[:, p_off : p_off + n_s * n_s] = np.kron(np.eye(n_s), np.ones((1, n_s)))
    lower = np.full(nvars, -np.inf)
    upper = np.full(nvars, np.inf)
    lower[p_off : p_off + n_s * n_s] = 0.0
    objective = np.zeros(nvars)
    if lam is None:
        sums[:, -1] = -1.0
        lower[-1], upper[-1], objective[-1] = 0.0, 1.0 - 1e-6, 1.0
    sum_rhs = np.zeros(n_s) if lam is None else np.full(n_s, float(lam))
    return lp.LinearProgram(
        num_vars=nvars, objective=objective,
        eq_lhs=np.vstack(eq), eq_rhs=np.concatenate(eq_rhs),
        ineq_lhs=np.vstack([sums] + ineq), ineq_rhs=np.concatenate([sum_rhs] + ineq_rhs),
        lower_bounds=lower, upper_bounds=upper)
