"""Independent checks on synthesized gains and their certificates.

Everything here works from first principles on the closed-loop map F: the
certificate identity P S = S F with nonnegative P and row sums at most
lambda, the equivalent vertex test via the gauge, and input admissibility at
the vertices. Robust certificates are checked by pushing every vertex through
F and adding the worst disturbance vertex, at the level the check is given.

One rule, `loop_refusal`, decides whether F is the loop the stored gain
drives: A + B K is, and X1 G is when X0 G = I, U0 G = K and, without a
disturbance set, a noise-free plant explains the data. `verify_certificate`
and the CLI's verify and simulate take the rule and its reasons from there.

The certificate alone proves that the polyhedral Lyapunov function
V(x) = max_i |row_i(S) x| decays along every trajectory, so no trajectory is
sampled: with E = P S - S F, |row_i(S) F x| <= lambda V(x) + |E_i|_1 |x|_inf.
`rollout` and `lyapunov_values` serve simulation.

`verify_certificate` judges with one tolerance, DEFAULT_TOL, the one
`synthesize` records in every certificate, and only residuals without units:
gauges, and P S - S F, X0 G - I and U0 G - K in the set's frame, where each
state is in the power of two that brings its column of S to unit size and
each input likewise by the input rows (`_column_exponents`). The frame is
the problem's, not the data's, so neither other units nor an experiment
that excites one state far less than another moves a verdict.

The checks work on all vertices at once. Each matrix-vector product in a
stack goes through the same BLAS call as the product on its own (see
`_images`), so the gauges and violations carry the same bits as a loop over
vertices. The maxima over vertices keep a NaN, so a NaN anywhere fails the
check.

The module is a leaf: it imports only numpy, the standard library and
`.polytopes`, nothing of the builder (`synthesis`) or the solver (`lp`), so a
builder bug that makes a bad certificate cannot also make it pass here. The
robust check computes its extreme disturbance projections itself for that.
What it still shares with the builder is the set's vertex list, which the
vertex, admissibility and robust checks use; the certificate identity and
the data consistency use no vertex (ROADMAP item 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .polytopes import DisturbanceSet, InputPolytope, PolyhedralCSet, numerical_rank

DEFAULT_TOL = 1e-6


def certified_level(lam) -> float:
    """The level rule for certificates: a number in [0, 1], where 1 is the
    robust certificates' level. Above 1 the vertex and certificate checks
    hold for closed loops that leave the set, so such a level certifies
    nothing."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("certificate level must lie in [0, 1]")
    return lam + 0.0  # -0.0 passes the range test, and + 0.0 makes it 0.0


def _images(matrix, points):
    """matrix @ p for every p along the last axis of points. numpy runs the
    stack as one matrix-vector product per point, the same BLAS call as
    matrix @ p on its own, so the results match that bit for bit."""
    return np.matmul(matrix, points[..., None])[..., 0]


def _column_exponents(mat) -> np.ndarray:
    """Per column, the exponent of the power of two that brings its largest
    magnitude into [0.5, 1): the set's unit-free frame for a state (columns
    of S) or an input (columns of the input rows), exact."""
    return np.frexp(np.abs(mat).max(axis=0))[1]


def check_invariance_certificate(f_matrix, cset: PolyhedralCSet, p_matrix, lam: float) -> bool:
    """True when P is entrywise nonnegative, has row sums at most lam, and
    satisfies P S = S F entrywise within DEFAULT_TOL in the set's frame:
    (P S - S F) C^-1, with C the `_column_exponents` of S, does not move
    with the state's units, and needs no vertex."""
    f_matrix = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    p_matrix = np.atleast_2d(np.asarray(p_matrix, dtype=float))
    s_h = cset.h_matrix
    if np.min(p_matrix) < -DEFAULT_TOL:
        return False
    if np.max(p_matrix.sum(axis=1)) > lam + DEFAULT_TOL:
        return False
    resid = np.ldexp(p_matrix @ s_h - s_h @ f_matrix, -_column_exponents(s_h))
    return float(np.max(np.abs(resid))) <= DEFAULT_TOL


def check_vertex_contractivity(f_matrix, cset: PolyhedralCSet, lam: float,
                               tol: float = DEFAULT_TOL) -> Tuple[bool, float]:
    """Map every vertex through F and compare its gauge against lam.
    Returns (ok, worst observed gauge)."""
    f_matrix = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    images = _images(f_matrix, cset.vertices)
    # np.maximum and np.max keep a NaN, so a NaN closed loop fails the check
    worst = float(np.maximum(0.0, np.max(_images(cset.h_matrix, images))))
    return worst <= lam + tol, worst


def check_admissibility(gain, cset: PolyhedralCSet,
                        input_set: InputPolytope) -> Tuple[bool, float]:
    """Feedback stays inside the input set on all of the state set, which
    for a linear gain reduces to the vertices. Returns (ok, worst violation),
    worst violation being max over vertices and input rows of U K s - 1."""
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    u_h = input_set.h_matrix
    # np.max keeps a NaN, so a NaN gain fails the check
    worst = float(np.max(_images(u_h, _images(gain, cset.vertices))) - 1.0)
    return worst <= DEFAULT_TOL, worst


def check_robust_invariance(f_matrix, cset: PolyhedralCSet, disturbance: DisturbanceSet,
                            lam: float = 1.0) -> Tuple[bool, float]:
    """Vertex test for robust contractivity at level lam: F s + w has gauge
    at most lam for every set vertex s and disturbance vertex w; lam = 1 is
    robust invariance. Returns (ok, worst gauge)."""
    f_matrix = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    # points[v, i] = F s_v + w_i
    points = _images(f_matrix, cset.vertices)[:, None, :] + disturbance.vertices
    worst = float(np.maximum(0.0, np.max(_images(cset.h_matrix, points))))
    return worst <= lam + DEFAULT_TOL, worst


def check_robust_data_conditions(data, g_matrix, cset: PolyhedralCSet,
                                 disturbance: DisturbanceSet,
                                 lam: float = 1.0) -> Tuple[bool, float]:
    """Re-evaluate the robust vertex conditions at level lam directly from
    the data when no model is available to form F. Returns (ok, worst gauge
    over all shifted propagations)."""
    g_matrix = np.atleast_2d(np.asarray(g_matrix, dtype=float))
    s_h = cset.h_matrix
    # [max, min] over the disturbance vertices d of S_r d, per set row r
    proj = s_h @ disturbance.vertices.T
    shift = np.column_stack([proj.max(axis=1), proj.min(axis=1)])
    base = s_h @ data.x1t @ g_matrix
    nominal = _images(base, cset.vertices)
    gs = _images(g_matrix, cset.vertices)
    # subtracting the column spike j changes row r by T * shift[r, i] * gs[j];
    # rows[v, i, j] over (vertex, extreme projection, sample). Each row is
    # monotone in S_r d, roundings included, so the largest and the smallest
    # projection give the worst value of all disturbance vertices bit for bit
    rows = (nominal[:, None, None, :]
            - (data.samples * shift.T)[None, :, None, :] * gs[:, None, :, None]
            + shift[:, 0])
    # np.maximum keeps a NaN, so a NaN anywhere fails the check
    worst = float(np.maximum(0.0, np.max(rows)))
    return worst <= lam + DEFAULT_TOL, worst


def lyapunov_values(cset: PolyhedralCSet, states) -> np.ndarray:
    """Polyhedral Lyapunov function V(x) = max_i |row_i(S) x| induced by the
    set rows, for every state along the last axis of states. A state too
    large for V to be finite gives inf or NaN, which is left to the caller
    to judge."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(_images(cset.h_matrix, np.asarray(states, dtype=float))), axis=-1)


def lyapunov_value(cset: PolyhedralCSet, x) -> float:
    """V(x) of one state."""
    return float(lyapunov_values(cset, np.asarray(x, dtype=float).reshape(-1)))


@dataclass
class VerificationReport:
    contractivity_ok: bool
    certificate_ok: bool
    admissibility_ok: bool
    worst_vertex_gauge: float
    worst_input_violation: float
    robust_ok: Optional[bool] = None

    def all_ok(self) -> bool:
        checks = [self.contractivity_ok, self.certificate_ok, self.admissibility_ok]
        if self.robust_ok is not None:
            checks.append(self.robust_ok)
        return all(checks)


def closed_loop(certificate, cset: PolyhedralCSet, input_set: InputPolytope,
                data=None, plant=None) -> np.ndarray:
    """The closed-loop map the certificate stands for: A + B K when the
    plant is given, otherwise X1 G from the data. A gain, P or G whose shape
    does not fit the problem, a G without data, or a problem that gives no
    way to form the loop is a ValueError. Entries too large may overflow to
    inf and NaN, which is left to the caller to judge."""
    n, m = cset.dim, input_set.dim
    if certificate.gain.shape != (m, n):
        raise ValueError(f"gain shape {certificate.gain.shape} does not match ({m}, {n})")
    if (certificate.p_matrix is not None
            and certificate.p_matrix.shape != (cset.num_rows,) * 2):
        raise ValueError("p_matrix shape does not match the state set")
    if certificate.g_matrix is not None:
        if data is None:
            raise ValueError("certificate carries a data combiner but the problem has no data")
        if certificate.g_matrix.shape != (data.samples, n):
            raise ValueError("g_matrix shape does not match the data")
    with np.errstate(over="ignore", invalid="ignore"):
        if plant is not None:
            return plant.a_matrix + plant.b_matrix @ certificate.gain
        if certificate.g_matrix is not None:
            return data.x1t @ certificate.g_matrix
    raise ValueError("no way to form the closed loop: it needs a plant or data with a combiner G")


def rollout(f_matrix, starts, steps: int) -> np.ndarray:
    """States x(t+1) = F x(t) from every start at once, time on the first
    axis: shape (steps + 1,) + starts.shape. An unstable F may overflow to
    inf and NaN, which is left to the caller to judge."""
    starts = np.asarray(starts, dtype=float)
    states = np.empty((steps + 1,) + starts.shape)
    states[0] = starts
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            states[t + 1] = _images(f_matrix, states[t])
    return states


def _unit_rows(mat) -> np.ndarray:
    """mat with each row brought to unit size by a power of two, 0 for a
    zero row: the data's unit-free frame for a rank, exact, as `polytopes`
    frames S's rows for the builder."""
    return np.ldexp(mat, -np.frexp(np.abs(mat).max(axis=1))[1][:, None])


def check_data_consistency(data, g_matrix, gain, cset: PolyhedralCSet,
                           input_set: InputPolytope) -> bool:
    """X0 G = I, which makes X1 G the closed loop A + B K of K = U0 G, and
    U0 G equal to the stored gain, both entrywise within DEFAULT_TOL in the
    set's frame: C (X0 G - I) C^-1 and D (U0 G - K) C^-1, with C and D the
    `_column_exponents` of S and of the input rows. The frame is the
    problem's, so no change of units and no uneven experiment widens it."""
    g_matrix = np.atleast_2d(np.asarray(g_matrix, dtype=float))
    c_exp = _column_exponents(cset.h_matrix)
    d_exp = _column_exponents(input_set.h_matrix)
    # a residual that overflows to inf fails, and a NaN one compares False
    with np.errstate(over="ignore", invalid="ignore"):
        x_resid = np.ldexp(data.x0t @ g_matrix - np.eye(data.n), c_exp[:, None] - c_exp)
        u_resid = np.ldexp(data.u0t @ g_matrix - gain, d_exp[:, None] - c_exp)
        return bool(np.max(np.abs(x_resid)) <= DEFAULT_TOL
                    and np.max(np.abs(u_resid)) <= DEFAULT_TOL)


def data_explained(data) -> bool:
    """rank [U0; X0; X1] = rank [U0; X0]: some linear plant maps every
    (x(t), u(t)) of the data to x(t+1) exactly, which noise-free data from a
    linear plant always satisfy. Disturbed data fail it unless T <= n + m and
    [U0; X0] has rank T, where any X1 is explained and noise cannot be
    seen. Each row is first brought to unit size (`_unit_rows`), so the
    verdict is the same in any units of the inputs and states."""
    rows = _unit_rows(np.vstack([data.u0t, data.x0t, data.x1t]))
    return numerical_rank(rows) == numerical_rank(rows[:data.m + data.n])


def loop_refusal(cset: PolyhedralCSet, input_set: InputPolytope, certificate,
                 data=None, plant=None, disturbance=None) -> Optional[str]:
    """The loop rule: a plant's A + B K is the stored gain's loop, and X1 G
    is only when `check_data_consistency` holds and, without a disturbance
    set, a noise-free plant explains the data (`data_explained`). Returns
    None then, otherwise the reason why not."""
    if plant is not None:
        return None
    if not check_data_consistency(data, certificate.g_matrix, certificate.gain, cset,
                                  input_set):
        return ("the certificate fails X0 G = I or U0 G = K, so its gain does not "
                "drive the closed loop it certifies")
    if disturbance is None and not data_explained(data):
        return ("no noise-free linear plant explains the data "
                "(rank [U0; X0; X1] > rank [U0; X0]), so X1 G is not the closed loop "
                "the gain drives")
    return None


def verify_certificate(cset: PolyhedralCSet, input_set: InputPolytope, certificate,
                       data=None, plant=None,
                       disturbance: Optional[DisturbanceSet] = None) -> VerificationReport:
    """Full report on a certificate.

    The closed-loop map comes from `closed_loop`, which refuses a certificate
    whose matrices do not fit the problem. The problem picks the checks,
    whatever the certificate carries. `certificate_ok` is the loop rule
    (`loop_refusal`) and, without a disturbance set, P at the level. With a
    disturbance set: the robust vertex test on A + B K, or the data-side
    conditions that stand in for it without a plant, at the certificate's
    level. A certificate without P on a problem without a disturbance set,
    and a level outside [0, 1] (`certified_level`), are a ValueError.
    """
    lam, gain = certified_level(certificate.lam), certificate.gain
    f_matrix = closed_loop(certificate, cset, input_set, data, plant)
    if certificate.p_matrix is None and disturbance is None:
        raise ValueError("certificate has no P, and the problem has no disturbance set "
                         "to check it robustly against")
    robust_ok = None
    # a certificate with huge entries may overflow to inf and NaN, which every check fails
    with np.errstate(over="ignore", invalid="ignore"):
        admissible, worst_violation = check_admissibility(gain, cset, input_set)
        cert_ok = loop_refusal(cset, input_set, certificate, data, plant,
                               disturbance) is None and (
            disturbance is not None
            or check_invariance_certificate(f_matrix, cset, certificate.p_matrix, lam))
        if disturbance is None:
            contract_ok, worst = check_vertex_contractivity(f_matrix, cset, lam)
        else:
            robust_ok, worst = (
                check_robust_invariance(f_matrix, cset, disturbance, lam) if plant is not None
                else check_robust_data_conditions(data, certificate.g_matrix, cset, disturbance,
                                                  lam))
            contract_ok = robust_ok
    return VerificationReport(
        contractivity_ok=contract_ok, certificate_ok=cert_ok,
        admissibility_ok=admissible, worst_vertex_gauge=worst,
        worst_input_violation=worst_violation, robust_ok=robust_ok)
