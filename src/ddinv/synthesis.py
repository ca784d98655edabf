"""Feedback synthesis as linear programming.

All programs share one variable layout convention: the decision matrix (the
data combiner G, or the gain K in the model-based program) is stacked
column-major first, then the nonnegative certificate matrix P row-major,
then the contraction level when it is being minimized. Feasibility programs
carry a zero objective.

The model-based program asks for P >= 0 with row sums at most lambda and
P S = S (A + B K), plus input admissibility at every vertex of the state
set. The data-based program replaces A + B K by X1 G with the consistency
condition X0 G = I and admissibility through U0 G. One builder makes both
from the closed loop in the affine form S F0 + (S M) D: (S A, S B) with
D = K for the model, (0, S X1) with D = G for the data.

The robust program drops P, fixes the level at one, and tightens every
vertex condition against the worst disturbance column the data could have
contained. Each of its rows is affine in the projection of a disturbance
vertex onto one set row, so only the largest and the smallest projection
can bind: the builder keeps those two of the disturbance vertices per set
row, which halves the robust rows for a box disturbance in the plane and
leaves the feasible set as it was.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import block_diag

from . import lp
from .experiment import ExperimentData, PlantModel
from .polytopes import DisturbanceSet, InputPolytope, PolyhedralCSet

EPS_STRICT = 1e-6
MINIMIZE = "minimize"
ROBUST_ROW_CAP = 20000


class InfeasibleProblem(RuntimeError):
    """The synthesis program admits no solution at the requested level."""


class SolverFailure(RuntimeError):
    """The simplex gave up, usually on a degeneracy pathology, or returned a
    point that breaks its own program."""


@dataclass
class SynthesisProblem:
    state_set: PolyhedralCSet
    input_set: InputPolytope
    lam: Union[float, str]
    source: Union[PlantModel, ExperimentData]
    disturbance: Optional[DisturbanceSet] = None

    def __post_init__(self):
        if isinstance(self.lam, str):
            if self.lam != MINIMIZE:
                raise ValueError(f"lam must be a number in [0, 1) or '{MINIMIZE}'")
        else:
            self.lam = float(self.lam)
            if not 0.0 <= self.lam < 1.0:
                raise ValueError("lam must lie in [0, 1)")
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


def _nominal_lp(state_set: PolyhedralCSet, s_f0, s_m, admiss, lam,
                consistency=None) -> lp.LinearProgram:
    """Nominal program for the closed loop S F = s_f0 + s_m D in the decision
    matrix D (q x n, stacked column-major): P >= 0 with P S = S F, the rows
    P 1 <= lam 1, then admiss D s <= 1 at every vertex s. When given, the
    rows consistency vec(D) = vec(I) close the equalities. lam=None
    minimizes the level, the last variable, which then moves to the left of
    the row sums."""
    s_h = state_set.h_matrix
    n_s, n = s_h.shape
    verts = state_set.vertices
    p_off = s_m.shape[1] * n
    nvars = p_off + n_s * n_s + (1 if lam is None else 0)

    # P S = S F row by row: S^T p_i - kron(I, (s_m)_i) vec(D) = (s_f0)_i
    eq = np.zeros((n_s * n, nvars))
    eq[:, :p_off] = -(np.eye(n)[None, :, :, None] * s_m[:, None, None, :]).reshape(n_s * n, p_off)
    eq[:, p_off : p_off + n_s * n_s] = block_diag(*[s_h.T] * n_s)
    eq_rhs = s_f0.ravel()
    if consistency is not None:
        rows = np.zeros((consistency.shape[0], nvars))
        rows[:, :p_off] = consistency
        eq = np.vstack([eq, rows])
        eq_rhs = np.concatenate([eq_rhs, np.eye(n).ravel()])

    sum_rows = np.zeros((n_s, nvars))
    sum_rows[:, p_off : p_off + n_s * n_s] = np.kron(np.eye(n_s), np.ones((1, n_s)))
    # one block kron(s, admiss) per vertex s
    admiss_rows = np.zeros((verts.shape[0] * admiss.shape[0], nvars))
    admiss_rows[:, :p_off] = (verts[:, None, :, None]
                              * admiss[None, :, None, :]).reshape(-1, p_off)
    lower = np.full(nvars, -np.inf)
    upper = np.full(nvars, np.inf)
    lower[p_off : p_off + n_s * n_s] = 0.0
    objective = np.zeros(nvars)
    if lam is None:
        sum_rows[:, -1] = -1.0
        lower[-1] = 0.0
        upper[-1] = 1.0 - EPS_STRICT
        objective[-1] = 1.0
    sum_rhs = np.zeros(n_s) if lam is None else np.full(n_s, float(lam))
    return lp.LinearProgram(
        num_vars=nvars, objective=objective, eq_lhs=eq, eq_rhs=eq_rhs,
        ineq_lhs=np.vstack([sum_rows, admiss_rows]),
        ineq_rhs=np.concatenate([sum_rhs, np.ones(admiss_rows.shape[0])]),
        lower_bounds=lower, upper_bounds=upper)


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
                    input_set: InputPolytope, disturbance: DisturbanceSet,
                    row_cap: int = ROBUST_ROW_CAP) -> lp.LinearProgram:
    """Robust invariance design from disturbed data. Only the combiner G is
    free; the level is pinned at one and no P is produced.

    For every state-set vertex the propagated point must stay inside the
    set even after shifting the data by any admissible single-column
    disturbance block, and with the worst additive disturbance folded into
    the right-hand side row by row.
    """
    n, T = data.n, data.samples
    s_h = state_set.h_matrix
    n_s = state_set.num_rows
    n_d = disturbance.vertices.shape[0]
    nvars = T * n

    base = s_h @ data.x1t
    shift_cols = s_h @ disturbance.vertices.T  # (n_s, n_d), column i is S d_i
    # worst additive disturbance per set row
    d_shift = shift_cols.max(axis=1)
    if n_d > 2:
        # each row is affine in shift_cols[r, i], so only the largest and
        # the smallest entry of a set row can bind: the feasible set stays
        shift_cols = np.column_stack([d_shift, shift_cols.min(axis=1)])
        n_d = 2

    n_rows = n_s * state_set.vertices.shape[0] * n_d * T
    n_rows += input_set.h_matrix.shape[0] * state_set.vertices.shape[0]
    if n_rows > row_cap:
        warnings.warn(f"robust program has {n_rows} inequality rows", stacklevel=2)

    # prop[j, i] is base with column j shifted by T times shift_cols[:, i];
    # a row block is kron(vertex, prop[j, i]), blocks ordered by vertex,
    # then j, then i
    prop = np.empty((T, n_d, n_s, T))
    prop[...] = base
    cols = np.arange(T)
    prop[cols, :, :, cols] = base.T[:, None, :] - (T * shift_cols).T[None, :, :]
    verts = state_set.vertices
    robust_rows = (verts[:, None, None, None, :, None]
                   * prop[None, :, :, :, None, :]).reshape(-1, nvars)
    admiss = input_set.h_matrix @ data.u0t
    admiss_rows = (verts[:, None, :, None] * admiss[None, :, None, :]).reshape(-1, nvars)
    ineq_rhs = np.concatenate([np.tile(1.0 - d_shift, verts.shape[0] * T * n_d),
                               np.ones(admiss_rows.shape[0])])

    consistency = np.kron(np.eye(n), data.x0t)
    return lp.LinearProgram(
        num_vars=nvars, objective=np.zeros(nvars),
        eq_lhs=consistency, eq_rhs=np.eye(n).ravel(),
        ineq_lhs=np.vstack([robust_rows, admiss_rows]), ineq_rhs=ineq_rhs)


def extract_gain(data: ExperimentData, g_matrix) -> np.ndarray:
    """Gain realized by a data combiner: K = U0 G."""
    g_matrix = np.atleast_2d(np.asarray(g_matrix, dtype=float))
    return data.u0t @ g_matrix


def _unpack_d(primal, q: int, n: int) -> np.ndarray:
    """The (q, n) decision matrix, stacked column-major at the front."""
    return primal[: q * n].reshape(n, q).T.copy()


def _unpack_p(primal, offset: int, n_s: int) -> np.ndarray:
    return primal[offset : offset + n_s * n_s].reshape(n_s, n_s).copy()


def _solve_or_raise(program: lp.LinearProgram, what: str) -> np.ndarray:
    sol = lp.solve(program)
    if sol.status == lp.LpStatus.INFEASIBLE:
        raise InfeasibleProblem(f"{what} is infeasible")
    if sol.status == lp.LpStatus.BAD_POINT:
        raise SolverFailure(f"{what}: solver point breaks the program by {sol.residual:.3g}")
    if sol.status not in (lp.LpStatus.OPTIMAL, lp.LpStatus.FEASIBLE):
        raise SolverFailure(f"{what}: solver returned {sol.status.value}")
    return sol.primal


def synthesize(problem: SynthesisProblem) -> Certificate:
    """Dispatch on the problem: robust when a disturbance set is present,
    otherwise fixed-level design from the model or the data. A lam of
    'minimize' delegates to minimize_lambda."""
    if problem.disturbance is not None:
        data = problem.source
        program = build_robust_lp(data, problem.state_set, problem.input_set,
                                  problem.disturbance)
        primal = _solve_or_raise(program, "robust design")
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
    program = build(source, problem.state_set, problem.input_set, lam)
    primal = _solve_or_raise(program, f"{route} {what}")
    d = _unpack_d(primal, q, source.n)
    g = None if isinstance(source, PlantModel) else d
    return Certificate(gain=d if g is None else extract_gain(source, g),
                       lam=float(primal[-1]) if lam is None else lam, g_matrix=g,
                       p_matrix=_unpack_p(primal, q * source.n, problem.state_set.num_rows))
