"""Feedback synthesis as linear programming.

All programs share one variable layout convention: the decision matrix (the
data combiner G, or the gain K in the model-based program) is stacked
column-major first, then the rows of the nonnegative certificate matrix P
that the program carries, row-major, then the contraction level when it is
being minimized. The decision matrix is free; P and the level are
nonnegative, and the level's cap below one is the last inequality row.
Feasibility programs carry a zero objective.

The model-based program asks for P >= 0 with row sums at most lambda and
P S = S (A + B K), plus input admissibility at every vertex of the state
set. The data-based program replaces A + B K by X1 G with the consistency
condition X0 G = I and admissibility through U0 G. One builder makes both
from the closed loop in the affine form S F0 + (S M) D: (S A, S B) with
D = K for the model, (0, S X1) with D = G for the data.

On a centrally symmetric set, S = [H; -H] up to row order, the program
carries only the rows of P at the first row of each opposite pair.
Swapping the rows of each pair and the columns of each pair maps a
certificate to another, so their average is a certificate whose row at the
second row of a pair is its row at the first with the columns of each pair
swapped. Conversely, rows that meet P S = S F and the row sums at the first
rows meet them at the second rows once so swapped, since those rows of S
are the negated first ones. So the halved program is feasible exactly when
the full one is, at the same levels (Blanchini and Miani, Set-Theoretic
Methods in Control, 2008), and `_unpack_p` rebuilds the full P in S's row
order. A set whose rows do not pair within SYMMETRY_TOL pairs each row
with itself, so the program carries every row of P: the full program.

The robust program drops P, fixes the level at one, and tightens every
vertex condition against the worst disturbance column the data could have
contained. Each of its rows is affine in the projection S_r d of a
disturbance vertex d onto one set row, so only the largest and the smallest
projection can bind: the program has rows for those two per set row,
whatever the number of disturbance vertices, and the feasible set of the
rows for every vertex. The verifier computes them itself.
On a paired set the robust program carries the rows of the first row r of
each pair only. The row it drops at vertex v, extreme i and the partner r'
has the left-hand side of the row it keeps at -v, the other extreme and r,
since S_r' = -S_r and the largest projection on r' is minus the smallest
on r; so the kept row takes the right-hand side 1 - max(hi_r, hi_r') and
the feasible set is the full program's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import lp
from .experiment import ExperimentData, PlantModel
from .polytopes import DisturbanceSet, InputPolytope, PolyhedralCSet

EPS_STRICT = 1e-6
SYMMETRY_TOL = 1e-12
MINIMIZE = "minimize"


class InfeasibleProblem(RuntimeError):
    """The synthesis program admits no solution at the requested level."""


class SolverFailure(RuntimeError):
    """The simplex gave up, usually on a degeneracy pathology, or returned a
    point that breaks its own program."""


def contraction_level(lam) -> Union[float, str]:
    """The level rule: a number in [0, 1), or MINIMIZE for the smallest
    achievable level."""
    if isinstance(lam, str):
        if lam != MINIMIZE:
            raise ValueError(f"level must be a number in [0, 1) or '{MINIMIZE}'")
        return lam
    lam = float(lam)
    if not 0.0 <= lam < 1.0:
        raise ValueError("level must lie in [0, 1)")
    return lam + 0.0  # -0.0 passes the range test, and + 0.0 makes it 0.0


@dataclass
class SynthesisProblem:
    state_set: PolyhedralCSet
    input_set: InputPolytope
    lam: Union[float, str]
    source: Union[PlantModel, ExperimentData]
    disturbance: Optional[DisturbanceSet] = None

    def __post_init__(self):
        self.lam = contraction_level(self.lam)
        n = self.state_set.dim
        if self.source.n != n:
            kind = "plant" if isinstance(self.source, PlantModel) else "data"
            raise ValueError(f"{kind} dimension does not match the state set")
        if self.input_set.dim != self.source.m:
            raise ValueError("input set dimension does not match the input count")
        if self.disturbance is not None:
            if not isinstance(self.source, ExperimentData):
                raise ValueError("robust synthesis works on experiment data")
            if self.disturbance.dim != n:
                raise ValueError("disturbance dimension does not match the state set")


@dataclass
class Certificate:
    """Synthesis output: the gain, the witnesses behind it, and the achieved
    contraction level. p_matrix is absent in robust mode, g_matrix is absent
    in model-based mode."""

    gain: np.ndarray
    lam: float
    g_matrix: Optional[np.ndarray] = None
    p_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        self.gain = np.atleast_2d(np.asarray(self.gain, dtype=float))
        if self.g_matrix is not None:
            self.g_matrix = np.atleast_2d(np.asarray(self.g_matrix, dtype=float))
        if self.p_matrix is not None:
            self.p_matrix = np.atleast_2d(np.asarray(self.p_matrix, dtype=float))
        self.lam = float(self.lam)


def _vertex_rows(verts, mat) -> np.ndarray:
    """kron(s, mat) for every vertex s, stacked; mat may have no columns."""
    (n_v, n), (rows, q) = verts.shape, mat.shape
    return (verts[:, None, :, None] * mat[None, :, None, :]).reshape(n_v * rows, n * q)


def _extreme_shifts(s_h, disturbance: DisturbanceSet) -> np.ndarray:
    """[max, min] over the disturbance vertices d of S_r d, per set row r."""
    shift = s_h @ disturbance.vertices.T
    return np.column_stack([shift.max(axis=1), shift.min(axis=1)])


def _row_pairs(s_h):
    """(reps, partner) for the rows of S. When every row has exactly one
    other row that is its negative within SYMMETRY_TOL of S's largest
    magnitude, partner[i] is that row and reps is the first row of each pair,
    in row order. Otherwise every row is its own partner and reps is every
    row."""
    n_s = s_h.shape[0]
    unit = s_h / np.abs(s_h).max()
    close = np.abs(unit[:, None, :] + unit[None, :, :]).max(axis=2) <= SYMMETRY_TOL
    partner = close.argmax(axis=1)
    rows = np.arange(n_s)
    # close is symmetric, so one close row each makes partner its own inverse
    if not (close.sum(axis=1) == 1).all() or (partner == rows).any():
        return rows, rows
    return np.flatnonzero(rows < partner), partner


def _nominal_lp(state_set: PolyhedralCSet, s_f0, s_m, admiss, lam,
                consistency=None) -> lp.LinearProgram:
    """Nominal program for the closed loop S F = s_f0 + s_m D in the decision
    matrix D (q x n, stacked column-major): P >= 0 with P S = S F, the rows
    P 1 <= lam 1, then admiss D s <= 1 at every vertex s. P has a row for
    each of S's representative rows (`_row_pairs`). When given, the rows
    consistency vec(D) = vec(I) close the equalities. D is free, P
    nonnegative. lam=None minimizes the level, the last variable, which is
    nonnegative, moves to the left of the row sums and is capped by the last
    row, lambda <= 1 - EPS_STRICT."""
    s_h = state_set.h_matrix
    n_s, n = s_h.shape
    reps = _row_pairs(s_h)[0]
    s_f0, s_m = s_f0[reps], s_m[reps]
    n_r = reps.size
    verts = state_set.vertices
    p_off = s_m.shape[1] * n
    p_end = p_off + n_r * n_s
    nvars = p_end + (1 if lam is None else 0)

    # P S = S F row by row: S^T p_i - kron(I, (s_m)_i) vec(D) = (s_f0)_i
    eq = np.zeros((n_r * n, nvars))
    eq[:, :p_off] = -(np.eye(n)[None, :, :, None] * s_m[:, None, None, :]).reshape(n_r * n, p_off)
    # S^T on the diagonal of an (n_r, n, n_r, n_s) view of the P columns
    diag = np.arange(n_r)
    eq[:, p_off:p_end].reshape(n_r, n, n_r, n_s)[diag, :, diag] = s_h.T
    eq_rhs = s_f0.ravel()
    if consistency is not None:
        rows = np.zeros((consistency.shape[0], nvars))
        rows[:, :p_off] = consistency
        eq = np.vstack([eq, rows])
        eq_rhs = np.concatenate([eq_rhs, np.eye(n).ravel()])

    sum_rows = np.zeros((n_r, nvars))
    sum_rows[:, p_off:p_end] = np.kron(np.eye(n_r), np.ones((1, n_s)))
    admiss_rows = np.zeros((verts.shape[0] * admiss.shape[0], nvars))
    admiss_rows[:, :p_off] = _vertex_rows(verts, admiss)
    objective = np.zeros(nvars)
    ineq = [sum_rows, admiss_rows]
    ineq_rhs = [np.full(n_r, 0.0 if lam is None else float(lam)), np.ones(admiss_rows.shape[0])]
    if lam is None:
        sum_rows[:, -1] = -1.0
        objective[-1] = 1.0
        ineq.append(np.eye(1, nvars, nvars - 1))
        ineq_rhs.append([1.0 - EPS_STRICT])
    return lp.LinearProgram(
        num_vars=nvars, objective=objective, eq_lhs=eq, eq_rhs=eq_rhs,
        ineq_lhs=np.vstack(ineq), ineq_rhs=np.concatenate(ineq_rhs),
        nonneg=np.arange(nvars) >= p_off)


def build_modelbased_lp(plant: PlantModel, state_set: PolyhedralCSet,
                        input_set: InputPolytope, lam=None) -> lp.LinearProgram:
    """Gain design with the plant known, D = K. lam=None minimizes the level."""
    s_h = state_set.h_matrix
    return _nominal_lp(state_set, s_h @ plant.a_matrix, s_h @ plant.b_matrix,
                       input_set.h_matrix, lam)


def build_databased_lp(data: ExperimentData, state_set: PolyhedralCSet,
                       input_set: InputPolytope, lam=None) -> lp.LinearProgram:
    """Gain design from data alone, D = G with X0 G = I. lam=None minimizes
    the level."""
    return _nominal_lp(state_set, np.zeros((state_set.num_rows, data.n)),
                       state_set.h_matrix @ data.x1t, input_set.h_matrix @ data.u0t,
                       lam, np.kron(np.eye(data.n), data.x0t))


def build_robust_lp(data: ExperimentData, state_set: PolyhedralCSet,
                    input_set: InputPolytope, disturbance: DisturbanceSet) -> lp.LinearProgram:
    """Robust invariance design from disturbed data. Only the combiner G is
    free; the level is pinned at one and no P is produced.

    For every state-set vertex the propagated point must stay inside the
    set even after shifting the data by any admissible single-column
    disturbance block, and with the worst additive disturbance folded into
    the right-hand side row by row. The rows are computed on the full S and
    then only the carried set rows are taken (`_row_pairs`), so a kept row
    has the bytes it has in the full program.
    """
    n, T = data.n, data.samples
    s_h = state_set.h_matrix
    verts = state_set.vertices

    base = s_h @ data.x1t
    shift = _extreme_shifts(s_h, disturbance)
    # prop[j, i] is base with column j shifted by T times shift[:, i]; row
    # blocks kron(vertex, prop[j, i]) go by vertex, then j, then i, then the
    # set rows carried (`_row_pairs`)
    prop = np.empty((T, 2, s_h.shape[0], T))
    prop[...] = base
    cols = np.arange(T)
    prop[cols, :, :, cols] = base.T[:, None, :] - (T * shift).T[None, :, :]
    reps, partner = _row_pairs(s_h)
    # the worst additive disturbance per set row comes off the right-hand
    # side; a carried row also stands for its partner's rows
    hi = np.maximum(shift[reps, 0], shift[partner[reps], 0])
    admiss = input_set.h_matrix @ data.u0t
    ineq_rhs = np.concatenate([np.tile(1.0 - hi, verts.shape[0] * T * 2),
                               np.ones(verts.shape[0] * admiss.shape[0])])
    return lp.LinearProgram(
        num_vars=T * n, objective=np.zeros(T * n),
        eq_lhs=np.kron(np.eye(n), data.x0t), eq_rhs=np.eye(n).ravel(),
        ineq_lhs=np.vstack([_vertex_rows(verts, prop[:, :, reps].reshape(-1, T)),
                            _vertex_rows(verts, admiss)]),
        ineq_rhs=ineq_rhs)


def extract_gain(data: ExperimentData, g_matrix) -> np.ndarray:
    """Gain realized by a data combiner: K = U0 G."""
    g_matrix = np.atleast_2d(np.asarray(g_matrix, dtype=float))
    return data.u0t @ g_matrix


def _unpack_d(primal, q: int, n: int) -> np.ndarray:
    """The (q, n) decision matrix, stacked column-major at the front."""
    return primal[: q * n].reshape(n, q).T.copy()


def _unpack_p(primal, offset: int, s_h) -> np.ndarray:
    """The full (n_s, n_s) certificate matrix P in S's row order, from the
    rows of P a nominal program on S carries from offset on. On a paired set
    the row at partner[r] is the row at r with the columns of each pair
    swapped."""
    n_s = s_h.shape[0]
    reps, partner = _row_pairs(s_h)
    rows = primal[offset : offset + reps.size * n_s].reshape(reps.size, n_s)
    p_matrix = np.empty((n_s, n_s))
    p_matrix[reps] = rows
    p_matrix[partner[reps]] = rows[:, partner]
    return p_matrix


def _solve(build, what: str, *args) -> np.ndarray:
    """The primal of the program build(*args) makes: the one place where a
    program is built and solved. A program that overflows while being built
    (finite data can still overflow in its products) or a solve that ends
    neither feasible nor infeasible is a SolverFailure, an infeasible one an
    InfeasibleProblem. Callers pass a builder read from the module globals
    at call time, so a wrapper set on the module sees each call."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            program = build(*args)
    except FloatingPointError as exc:
        raise SolverFailure(f"{what}: the program overflows while being built ({exc})") from exc
    sol = lp.solve(program)
    if sol.status == lp.LpStatus.INFEASIBLE:
        raise InfeasibleProblem(f"{what} is infeasible")
    if sol.status == lp.LpStatus.BAD_POINT:
        raise SolverFailure(f"{what}: solver point breaks the program by {sol.residual:.3g}")
    if sol.status == lp.LpStatus.PHASE_ONE_BREAKDOWN:
        raise SolverFailure(f"{what}: phase one broke down")
    if sol.status not in (lp.LpStatus.OPTIMAL, lp.LpStatus.FEASIBLE):
        raise SolverFailure(f"{what}: solver returned {sol.status.value}")
    return sol.primal


def synthesize(problem: SynthesisProblem) -> Certificate:
    """Dispatch on the problem: robust when a disturbance set is present,
    otherwise fixed-level design from the model or the data. A lam of
    'minimize' delegates to minimize_lambda."""
    if problem.disturbance is not None:
        data = problem.source
        primal = _solve(build_robust_lp, "robust design", data, problem.state_set,
                        problem.input_set, problem.disturbance)
        g = _unpack_d(primal, data.samples, data.n)
        return Certificate(gain=extract_gain(data, g), lam=1.0, g_matrix=g)
    if problem.lam == MINIMIZE:
        return minimize_lambda(problem)
    return _nominal_design(problem, float(problem.lam))


def minimize_lambda(problem: SynthesisProblem) -> Certificate:
    """Smallest achievable contraction level; still a single LP because the
    level enters the constraints linearly."""
    if problem.disturbance is not None:
        raise ValueError("level minimization is a nominal-design operation")
    return _nominal_design(problem, None)


def _nominal_design(problem: SynthesisProblem, lam: Optional[float]) -> Certificate:
    """Design from the model or the data at level lam, or at the smallest
    level when lam is None."""
    what = "level minimization" if lam is None else f"design at level {lam}"
    source = problem.source
    if isinstance(source, PlantModel):
        route, build, q = "model-based", build_modelbased_lp, source.m
    else:
        route, build, q = "data-based", build_databased_lp, source.samples
    primal = _solve(build, f"{route} {what}", source, problem.state_set,
                    problem.input_set, lam)
    d = _unpack_d(primal, q, source.n)
    g = None if isinstance(source, PlantModel) else d
    return Certificate(gain=d if g is None else extract_gain(source, g),
                       lam=float(primal[-1]) if lam is None else lam, g_matrix=g,
                       p_matrix=_unpack_p(primal, q * source.n, problem.state_set.h_matrix))


def find_certificate_matrix(f_matrix, cset: PolyhedralCSet, lam: float) -> Optional[np.ndarray]:
    """Search for a certificate matrix P by linear programming; None when no
    such P exists at the given level. The program is the nominal one with F
    fixed: no decision matrix and no admissibility rows, and half the rows
    of P on a centrally symmetric set. S F is formed inside the build, so its
    overflow is a SolverFailure, as in every `_solve`. The P returned is the
    full (n_s, n_s) one."""
    f_matrix = np.atleast_2d(np.asarray(f_matrix, dtype=float))
    try:
        primal = _solve(lambda: _nominal_lp(cset, cset.h_matrix @ f_matrix,
                                            np.zeros((cset.num_rows, 0)),
                                            np.zeros((0, 0)), float(lam)),
                        "certificate search")
    except InfeasibleProblem:
        return None
    return _unpack_p(primal, 0, cset.h_matrix)
