"""Reference verdicts and certificate checks, independent of ddinv.

The reference programs are written here straight from the conditions of the
data-driven invariance LP, with their own variable layout, and solved with
HiGHS through `scipy.optimize.linprog`. Nothing in this module calls ddinv,
so a change to ddinv's builders, solver or verifier cannot move the
reference.

Nominal (data route), for the state set {x : S x <= 1}, the input set
{u : U u <= 1} and data X0, U0, X1 of length T: find G (T x n), P >= 0 and
Q >= 0 with

    X0 G = I,    P S = S X1 G,    P 1 <= lam 1,    Q S = U U0 G,    Q 1 <= 1.

The last two rows say, by LP duality, that U K x <= 1 on the whole set with
K = U0 G, which is the vertex admissibility condition without vertices.
Level minimization adds lam as a variable in [0, 1 - 1e-6] and minimizes it.

Robust, for a disturbance set with vertices d_i: find G with X0 G = I,
U U0 G v <= 1 at every vertex v, and for every vertex v, sample j and
disturbance vertex i

    S (X1 - T d_i e_j') G v <= 1 - max_i S d_i      (row by row).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

TOL = 1e-6
LAM_CAP = 1.0 - 1e-6
VERTEX_TOL = 1e-7


class ReferenceUnavailable(RuntimeError):
    """HiGHS returned neither an optimum nor a proof of infeasibility."""


def cset_vertices(h_matrix) -> np.ndarray:
    """Vertices of {x : H x <= 1} by Qhull, the origin being interior."""
    h_matrix = np.asarray(h_matrix, dtype=float)
    halfspaces = np.hstack([h_matrix, -np.ones((h_matrix.shape[0], 1))])
    points = HalfspaceIntersection(halfspaces, np.zeros(h_matrix.shape[1])).intersections
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q) > VERTEX_TOL for q in kept):
            kept.append(p)
    return np.array(kept)


def same_vertices(found, expected, tol=1e-6) -> bool:
    found = np.asarray(found, dtype=float)
    if found.shape != expected.shape:
        return False
    return all(np.min(np.linalg.norm(found - v, axis=1)) <= tol for v in expected)


def _solve(c, a_ub, b_ub, a_eq, b_eq, bounds):
    """The optimum, or None when infeasible. HiGHS' simplex leaves a few
    degenerate robust programs undecided; its interior-point method then
    decides them."""
    for method in ("highs", "highs-ipm"):
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method=method)
        if res.status == 0:
            return res
        if res.status == 2:
            return None
    raise ReferenceUnavailable(res.message)


def nominal_level(s_h, u_h, u0t, x0t, x1t, lam=None):
    """Reference for the nominal data-route program. With lam=None returns
    the smallest level (or None when no level below one works); with a
    fixed lam returns True/False for feasibility."""
    n, T = x0t.shape
    n_s, n_u = s_h.shape[0], u_h.shape[0]
    minimize = lam is None
    ng, npp, nq = T * n, n_s * n_s, n_u * n_s
    nvars = ng + npp + nq + (1 if minimize else 0)

    def block(g=None, p=None, q=None, rows=None):
        out = np.zeros((rows, nvars))
        if g is not None:
            out[:, :ng] = g
        if p is not None:
            out[:, ng:ng + npp] = p
        if q is not None:
            out[:, ng + npp:ng + npp + nq] = q
        return out

    eye_n = np.eye(n)
    a_eq = np.vstack([
        block(g=np.kron(x0t, eye_n), rows=n * n),
        block(g=-np.kron(s_h @ x1t, eye_n), p=np.kron(np.eye(n_s), s_h.T), rows=n_s * n),
        block(g=-np.kron(u_h @ u0t, eye_n), q=np.kron(np.eye(n_u), s_h.T), rows=n_u * n),
    ])
    b_eq = np.concatenate([eye_n.ravel(), np.zeros(n_s * n + n_u * n)])
    row_sums = block(p=np.kron(np.eye(n_s), np.ones((1, n_s))), rows=n_s)
    if minimize:
        row_sums[:, -1] = -1.0
    a_ub = np.vstack([row_sums, block(q=np.kron(np.eye(n_u), np.ones((1, n_s))), rows=n_u)])
    b_ub = np.concatenate([np.zeros(n_s) if minimize else np.full(n_s, float(lam)),
                           np.ones(n_u)])
    bounds = [(None, None)] * ng + [(0.0, None)] * (npp + nq)
    c = np.zeros(nvars)
    if minimize:
        bounds.append((0.0, LAM_CAP))
        c[-1] = 1.0
    res = _solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
    if not minimize:
        return res is not None
    return None if res is None else float(res.x[-1])


def _robust_rows(s_h, x1t, g_or_none, verts, dist_verts):
    """Left-hand coefficients (or values at G) of the robust vertex rows,
    and the right-hand side, in the order (vertex, sample, disturbance, row)."""
    n, T = x1t.shape
    shift = s_h @ dist_verts.T                      # (n_s, n_d)
    base = s_h @ x1t                                # (n_s, T)
    # coeff[j, i, r, t] = base[r, t] - T * shift[r, i] * (t == j)
    coeff = (base[None, None, :, :]
             - T * shift.T[None, :, :, None] * np.eye(T)[:, None, None, :])
    rhs = 1.0 - shift.max(axis=1)
    if g_or_none is not None:
        gv = g_or_none @ verts.T                    # (T, V)
        values = np.einsum("jirt,tv->vjir", coeff, gv)
        return values.reshape(-1), np.tile(rhs, values.size // rhs.size)
    lhs = coeff[None, :, :, :, :, None] * verts[:, None, None, None, None, :]
    n_rows = verts.shape[0] * T * dist_verts.shape[0] * s_h.shape[0]
    return lhs.reshape(n_rows, T * n), np.tile(rhs, n_rows // rhs.size)


def robust_feasible(s_h, u_h, u0t, x0t, x1t, dist_verts, verts) -> bool:
    n, T = x0t.shape
    a_rob, b_rob = _robust_rows(s_h, x1t, None, verts, dist_verts)
    admiss = u_h @ u0t                              # (n_u, T)
    a_adm = (admiss[None, :, :, None] * verts[:, None, None, :]).reshape(-1, T * n)
    a_ub = np.vstack([a_rob, a_adm])
    b_ub = np.concatenate([b_rob, np.ones(a_adm.shape[0])])
    res = _solve(np.zeros(T * n), a_ub, b_ub, np.kron(x0t, np.eye(n)),
                 np.eye(n).ravel(), [(None, None)] * (T * n))
    return res is not None


def _gauges(s_h, points):
    return np.max(points @ s_h.T, axis=1)


def check_nominal(cert_gain, cert_g, cert_p, cert_lam, s_h, u_h, u0t, x0t, x1t, verts):
    """Names of the nominal certificate conditions that fail (empty if none)."""
    n, T = x0t.shape
    n_s = s_h.shape[0]
    bad = []
    g = np.atleast_2d(np.asarray(cert_g, dtype=float)) if cert_g is not None else None
    p = np.atleast_2d(np.asarray(cert_p, dtype=float)) if cert_p is not None else None
    gain = np.atleast_2d(np.asarray(cert_gain, dtype=float))
    if g is None or g.shape != (T, n) or p is None or p.shape != (n_s, n_s):
        return ["shape"]
    if gain.shape != (u0t.shape[0], n):
        return ["shape"]
    if np.max(np.abs(x0t @ g - np.eye(n))) > TOL:
        bad.append("consistency X0 G = I")
    if np.max(np.abs(gain - u0t @ g)) > TOL:
        bad.append("gain K = U0 G")
    if np.min(p) < -TOL:
        bad.append("P >= 0")
    if np.max(p.sum(axis=1)) > cert_lam + TOL:
        bad.append("row sums of P <= lam")
    f = x1t @ g
    if np.max(np.abs(p @ s_h - s_h @ f)) > TOL:
        bad.append("P S = S X1 G")
    if np.max(_gauges(s_h, verts @ f.T)) > cert_lam + TOL:
        bad.append("vertex gauges <= lam")
    if np.max(verts @ gain.T @ u_h.T) > 1.0 + TOL:
        bad.append("admissibility")
    return bad


def check_robust(cert_gain, cert_g, cert_lam, s_h, u_h, u0t, x0t, x1t, dist_verts, verts):
    """Names of the robust certificate conditions that fail (empty if none)."""
    n, T = x0t.shape
    g = np.atleast_2d(np.asarray(cert_g, dtype=float)) if cert_g is not None else None
    gain = np.atleast_2d(np.asarray(cert_gain, dtype=float))
    if g is None or g.shape != (T, n) or gain.shape != (u0t.shape[0], n):
        return ["shape"]
    bad = []
    if cert_lam != 1.0:
        bad.append("robust level is one")
    if np.max(np.abs(x0t @ g - np.eye(n))) > TOL:
        bad.append("consistency X0 G = I")
    if np.max(np.abs(gain - u0t @ g)) > TOL:
        bad.append("gain K = U0 G")
    values, rhs = _robust_rows(s_h, x1t, g, verts, dist_verts)
    if np.max(values - rhs) > TOL:
        bad.append("robust vertex conditions")
    if np.max(verts @ gain.T @ u_h.T) > 1.0 + TOL:
        bad.append("admissibility")
    return bad
