"""Independent checks on synthesized gains and their certificates.

Everything here works from first principles on the closed-loop map F: the
certificate identity P S = S F with nonnegative P and row sums at most
lambda, the equivalent vertex test via the gauge, input admissibility at
the vertices, and trajectory-wise decay of the polyhedral Lyapunov
function V(x) = max_i |row_i(S) x|. Robust certificates are checked by
pushing every vertex through F and adding the worst disturbance vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import lp
from .polytopes import DisturbanceSet, InputPolytope, PolyhedralCSet, gauge

DEFAULT_TOL = 1e-6


def check_invariance_certificate(f_matrix, cset: PolyhedralCSet, p_matrix,
                                 lam: float, tol: float = DEFAULT_TOL) -> bool:
    """True when P is entrywise nonnegative, has row sums at most lam, and
    satisfies P S = S F within tol."""
    f_matrix = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    p_matrix = np.atleast_2d(np.asarray(p_matrix, dtype=float))
    s_h = cset.h_matrix
    if np.min(p_matrix) < -tol:
        return False
    if np.max(p_matrix.sum(axis=1)) > lam + tol:
        return False
    return float(np.max(np.abs(p_matrix @ s_h - s_h @ f_matrix))) <= tol


def find_certificate_matrix(f_matrix, cset: PolyhedralCSet, lam: float) -> Optional[np.ndarray]:
    """Search for a certificate matrix P by linear programming; None when no
    such P exists at the given level."""
    f_matrix = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    s_h = cset.h_matrix
    n_s, n = s_h.shape
    nvars = n_s * n_s
    # rows of P S = S F, P stacked row-major
    eq = np.zeros((n_s * n, nvars))
    target = s_h @ f_matrix
    for i in range(n_s):
        eq[i * n : (i + 1) * n, i * n_s : (i + 1) * n_s] = s_h.T
    ineq = np.kron(np.eye(n_s), np.ones((1, n_s)))
    prob = lp.LinearProgram(
        num_vars=nvars, objective=np.zeros(nvars),
        eq_lhs=eq, eq_rhs=target.reshape(-1),
        ineq_lhs=ineq, ineq_rhs=np.full(n_s, float(lam)),
        lower_bounds=np.zeros(nvars))
    sol = lp.solve(prob)
    if sol.status != lp.LpStatus.FEASIBLE:
        return None
    return sol.primal.reshape(n_s, n_s)


def check_vertex_contractivity(f_matrix, cset: PolyhedralCSet, lam: float,
                               tol: float = DEFAULT_TOL) -> Tuple[bool, float]:
    """Map every vertex through F and compare its gauge against lam.
    Returns (ok, worst observed gauge)."""
    f_matrix = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    worst = 0.0
    for vert in cset.vertices:
        worst = max(worst, gauge(cset, f_matrix @ vert))
    return worst <= lam + tol, worst


def check_admissibility(gain, cset: PolyhedralCSet, input_set: InputPolytope,
                        tol: float = DEFAULT_TOL) -> Tuple[bool, float]:
    """Feedback stays inside the input set on all of the state set, which
    for a linear gain reduces to the vertices. Returns (ok, worst violation),
    worst violation being max over vertices and input rows of U K s - 1."""
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    u_h = input_set.h_matrix
    # np.max keeps a NaN, so a NaN gain fails the check
    worst = float(np.max([np.max(u_h @ (gain @ vert)) - 1.0 for vert in cset.vertices]))
    return worst <= tol, worst


def check_robust_invariance(f_matrix, cset: PolyhedralCSet,
                            disturbance: DisturbanceSet,
                            tol: float = DEFAULT_TOL) -> Tuple[bool, float]:
    """Vertex test for robust invariance: F s + w stays in the set for every
    set vertex s and disturbance vertex w. Returns (ok, worst gauge)."""
    f_matrix = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    worst = 0.0
    for vert in cset.vertices:
        image = f_matrix @ vert
        for w in disturbance.vertices:
            worst = max(worst, gauge(cset, image + w))
    return worst <= 1.0 + tol, worst


def check_robust_data_conditions(data, g_matrix, cset: PolyhedralCSet,
                                 disturbance: DisturbanceSet,
                                 tol: float = DEFAULT_TOL) -> Tuple[bool, float]:
    """Re-evaluate the robust vertex conditions directly from the data when
    no model is available to form F. Returns (ok, worst gauge over all
    shifted propagations)."""
    g_matrix = np.atleast_2d(np.asarray(g_matrix, dtype=float))
    s_h = cset.h_matrix
    T = data.samples
    shift = s_h @ disturbance.vertices.T
    d_worst = shift.max(axis=1)
    base = s_h @ data.x1t @ g_matrix
    nominal = np.array([base @ vert for vert in cset.vertices])
    gs = np.array([g_matrix @ vert for vert in cset.vertices])
    # subtracting the column spike j changes row r by T * shift[r, i] * gs[j];
    # rows[v, i, j] over (vertex, disturbance vertex, sample)
    rows = (nominal[:, None, None, :]
            - (T * shift.T)[None, :, None, :] * gs[:, None, :, None]
            + d_worst)
    # np.maximum keeps a NaN, so a NaN anywhere fails the check
    worst = float(np.maximum(0.0, np.max(rows)))
    return worst <= 1.0 + tol, worst


def lyapunov_value(cset: PolyhedralCSet, x) -> float:
    """Polyhedral Lyapunov function induced by the set rows."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(np.max(np.abs(cset.h_matrix @ x)))


def check_decay_along_trajectory(cset: PolyhedralCSet, states, lam: float,
                                 tol: float = DEFAULT_TOL) -> Tuple[bool, float]:
    """One-step decay V(x+) <= lam V(x) along a recorded trajectory.
    Returns (ok, worst margin V(x+) - lam V(x))."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    worst = -np.inf
    for t in range(states.shape[0] - 1):
        v_now = lyapunov_value(cset, states[t])
        v_next = lyapunov_value(cset, states[t + 1])
        worst = max(worst, v_next - lam * v_now)
    return worst <= tol, worst


@dataclass
class VerificationReport:
    contractivity_ok: bool
    certificate_ok: bool
    admissibility_ok: bool
    worst_vertex_gauge: float
    worst_input_violation: float
    robust_ok: Optional[bool] = None
    lyapunov_decay_margin: Optional[float] = None

    def all_ok(self) -> bool:
        checks = [self.contractivity_ok, self.certificate_ok, self.admissibility_ok]
        if self.robust_ok is not None:
            checks.append(self.robust_ok)
        return all(checks)


def verify_certificate(cset: PolyhedralCSet, input_set: InputPolytope, certificate,
                       data=None, plant=None, disturbance: Optional[DisturbanceSet] = None,
                       tol: float = DEFAULT_TOL, decay_steps: int = 50) -> VerificationReport:
    """Full report on a certificate.

    The closed-loop map comes from the plant when one is given, otherwise
    from the data as X1 G. Robust certificates (no P) get the robust vertex
    test; when only data is available for them, the data-side conditions
    stand in for it.
    """
    gain = certificate.gain
    f_matrix = None
    if plant is not None:
        f_matrix = plant.a_matrix + plant.b_matrix @ gain
    elif data is not None and certificate.g_matrix is not None:
        f_matrix = data.x1t @ certificate.g_matrix

    admissible, worst_violation = check_admissibility(gain, cset, input_set, tol)

    if certificate.p_matrix is None:
        if disturbance is None:
            raise ValueError("certificate has no P; a disturbance set is required")
        if f_matrix is not None and plant is not None:
            robust, worst = check_robust_invariance(f_matrix, cset, disturbance, tol)
        else:
            if data is None or certificate.g_matrix is None:
                raise ValueError("robust verification needs a plant or data")
            robust, worst = check_robust_data_conditions(
                data, certificate.g_matrix, cset, disturbance, tol)
        return VerificationReport(
            contractivity_ok=robust, certificate_ok=True, admissibility_ok=admissible,
            worst_vertex_gauge=worst, worst_input_violation=worst_violation,
            robust_ok=robust)

    if f_matrix is None:
        raise ValueError("verification needs a plant or data to form the closed loop")
    cert_ok = check_invariance_certificate(f_matrix, cset, certificate.p_matrix,
                                           certificate.lam, tol)
    contract_ok, worst_gauge = check_vertex_contractivity(f_matrix, cset,
                                                          certificate.lam, tol)
    margin = -np.inf
    for vert in cset.vertices:
        states = [np.asarray(vert, dtype=float)]
        for _ in range(decay_steps):
            states.append(f_matrix @ states[-1])
        ok, m = check_decay_along_trajectory(cset, np.array(states), certificate.lam, tol)
        margin = max(margin, m)
    return VerificationReport(
        contractivity_ok=contract_ok, certificate_ok=cert_ok,
        admissibility_ok=admissible, worst_vertex_gauge=worst_gauge,
        worst_input_violation=worst_violation, lyapunov_decay_margin=margin)
