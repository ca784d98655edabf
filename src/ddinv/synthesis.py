"""Feedback synthesis as linear programming.

All programs share one variable layout convention: the decision matrix (the
data combiner G, or the gain K in the model-based program) is stacked
column-major first, then the nonnegative certificate matrix P row-major,
then the contraction level when it is being minimized. Feasibility programs
carry a zero objective.

The model-based program asks for P >= 0 with row sums at most lambda and
P S = S (A + B K), plus input admissibility at every vertex of the state
set. The data-based program replaces A + B K by X1 G with the consistency
condition X0 G = I and admissibility through U0 G. The robust program drops
P, fixes the level at one, and tightens every vertex condition against the
worst disturbance column the data could have contained.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import lp
from .experiment import ExperimentData, PlantModel
from .polytopes import DisturbanceSet, InputPolytope, PolyhedralCSet

EPS_STRICT = 1e-6
MINIMIZE = "minimize"
ROBUST_ROW_CAP = 20000


class InfeasibleProblem(RuntimeError):
    """The synthesis program admits no solution at the requested level."""


class SolverFailure(RuntimeError):
    """The simplex gave up; usually a degeneracy pathology."""


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
        if isinstance(self.source, PlantModel):
            if self.source.n != n:
                raise ValueError("plant dimension does not match the state set")
            m = self.source.m
        else:
            if self.source.n != n:
                raise ValueError("data dimension does not match the state set")
            m = self.source.m
        if self.input_set.dim != m:
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


def _row_sum_block(n_s: int, p_offset: int, nvars: int, lam, minimize: bool):
    """Rows encoding P 1 <= lam 1 (lam moves to the left when minimized)."""
    block = np.zeros((n_s, nvars))
    block[:, p_offset : p_offset + n_s * n_s] = np.kron(np.eye(n_s), np.ones((1, n_s)))
    if minimize:
        block[:, -1] = -1.0
        rhs = np.zeros(n_s)
    else:
        rhs = np.full(n_s, float(lam))
    return block, rhs


def build_modelbased_lp(plant: PlantModel, state_set: PolyhedralCSet,
                        input_set: InputPolytope, lam=None) -> lp.LinearProgram:
    """Gain design with the plant known. lam=None minimizes the level."""
    minimize = lam is None
    n, m = plant.n, plant.m
    s_h = state_set.h_matrix
    n_s = state_set.num_rows
    nvars = m * n + n_s * n_s + (1 if minimize else 0)
    p_off = m * n

    sum_block, sum_rhs = _row_sum_block(n_s, p_off, nvars, lam, minimize)
    ineq = [sum_block]
    ineq_rhs = [sum_rhs]
    u_h = input_set.h_matrix
    for vert in state_set.vertices:
        block = np.zeros((u_h.shape[0], nvars))
        block[:, : m * n] = np.kron(vert[None, :], u_h)
        ineq.append(block)
        ineq_rhs.append(np.ones(u_h.shape[0]))

    sa = s_h @ plant.a_matrix
    sb = s_h @ plant.b_matrix
    eq = []
    eq_rhs = []
    for i in range(n_s):
        block = np.zeros((n, nvars))
        block[:, : m * n] = -np.kron(np.eye(n), sb[i : i + 1, :])
        block[:, p_off + i * n_s : p_off + (i + 1) * n_s] = s_h.T
        eq.append(block)
        eq_rhs.append(sa[i])

    lower = np.full(nvars, -np.inf)
    upper = np.full(nvars, np.inf)
    lower[p_off : p_off + n_s * n_s] = 0.0
    objective = np.zeros(nvars)
    if minimize:
        lower[-1] = 0.0
        upper[-1] = 1.0 - EPS_STRICT
        objective[-1] = 1.0
    return lp.LinearProgram(
        num_vars=nvars, objective=objective,
        eq_lhs=np.vstack(eq), eq_rhs=np.concatenate(eq_rhs),
        ineq_lhs=np.vstack(ineq), ineq_rhs=np.concatenate(ineq_rhs),
        lower_bounds=lower, upper_bounds=upper)


def build_databased_lp(data: ExperimentData, state_set: PolyhedralCSet,
                       input_set: InputPolytope, lam=None) -> lp.LinearProgram:
    """Gain design from data alone. lam=None minimizes the level."""
    minimize = lam is None
    n, T = data.n, data.samples
    s_h = state_set.h_matrix
    n_s = state_set.num_rows
    nvars = T * n + n_s * n_s + (1 if minimize else 0)
    p_off = T * n

    sum_block, sum_rhs = _row_sum_block(n_s, p_off, nvars, lam, minimize)
    ineq = [sum_block]
    ineq_rhs = [sum_rhs]
    u_h = input_set.h_matrix
    admiss = u_h @ data.u0t
    for vert in state_set.vertices:
        block = np.zeros((admiss.shape[0], nvars))
        block[:, : T * n] = np.kron(vert[None, :], admiss)
        ineq.append(block)
        ineq_rhs.append(np.ones(admiss.shape[0]))

    prop = s_h @ data.x1t
    eq = []
    eq_rhs = []
    for i in range(n_s):
        block = np.zeros((n, nvars))
        block[:, : T * n] = -np.kron(np.eye(n), prop[i : i + 1, :])
        block[:, p_off + i * n_s : p_off + (i + 1) * n_s] = s_h.T
        eq.append(block)
        eq_rhs.append(np.zeros(n))
    consistency = np.zeros((n * n, nvars))
    consistency[:, : T * n] = np.kron(np.eye(n), data.x0t)
    eq.append(consistency)
    eq_rhs.append(np.eye(n).ravel())

    lower = np.full(nvars, -np.inf)
    upper = np.full(nvars, np.inf)
    lower[p_off : p_off + n_s * n_s] = 0.0
    objective = np.zeros(nvars)
    if minimize:
        lower[-1] = 0.0
        upper[-1] = 1.0 - EPS_STRICT
        objective[-1] = 1.0
    return lp.LinearProgram(
        num_vars=nvars, objective=objective,
        eq_lhs=np.vstack(eq), eq_rhs=np.concatenate(eq_rhs),
        ineq_lhs=np.vstack(ineq), ineq_rhs=np.concatenate(ineq_rhs),
        lower_bounds=lower, upper_bounds=upper)


def disturbance_spike(samples: int, index: int, vertex) -> np.ndarray:
    """Worst-case disturbance block: zero except column `index` (1-based)
    holding samples times the given disturbance vertex."""
    vertex = np.asarray(vertex, dtype=float).reshape(-1)
    if not 1 <= index <= samples:
        raise ValueError("index must lie in 1..samples")
    out = np.zeros((vertex.shape[0], samples))
    out[:, index - 1] = samples * vertex
    return out


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

    n_rows = n_s * state_set.vertices.shape[0] * n_d * T
    n_rows += input_set.h_matrix.shape[0] * state_set.vertices.shape[0]
    if n_rows > row_cap:
        warnings.warn(f"robust program has {n_rows} inequality rows", stacklevel=2)

    base = s_h @ data.x1t
    shift_cols = s_h @ disturbance.vertices.T  # (n_s, n_d), column i is S d_i
    # worst additive disturbance per set row
    d_shift = shift_cols.max(axis=1)
    # prop[j, i] is base with column j shifted by T S d_i; a row block is
    # kron(vertex, prop[j, i]), blocks ordered by vertex, then j, then i
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


def _unpack_g(primal, T: int, n: int) -> np.ndarray:
    return primal[: T * n].reshape(n, T).T.copy()


def _unpack_k(primal, m: int, n: int) -> np.ndarray:
    return primal[: m * n].reshape(n, m).T.copy()


def _unpack_p(primal, offset: int, n_s: int) -> np.ndarray:
    return primal[offset : offset + n_s * n_s].reshape(n_s, n_s).copy()


def _solve_or_raise(program: lp.LinearProgram, what: str) -> np.ndarray:
    sol = lp.solve(program)
    if sol.status == lp.LpStatus.INFEASIBLE:
        raise InfeasibleProblem(f"{what} is infeasible")
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
        g = _unpack_g(primal, data.samples, data.n)
        return Certificate(gain=extract_gain(data, g), lam=1.0, g_matrix=g)
    if problem.lam == MINIMIZE:
        return minimize_lambda(problem)
    lam = float(problem.lam)
    if isinstance(problem.source, PlantModel):
        plant = problem.source
        program = build_modelbased_lp(plant, problem.state_set, problem.input_set, lam)
        primal = _solve_or_raise(program, f"model-based design at level {lam}")
        k = _unpack_k(primal, plant.m, plant.n)
        p = _unpack_p(primal, plant.m * plant.n, problem.state_set.num_rows)
        return Certificate(gain=k, lam=lam, p_matrix=p)
    data = problem.source
    program = build_databased_lp(data, problem.state_set, problem.input_set, lam)
    primal = _solve_or_raise(program, f"data-based design at level {lam}")
    g = _unpack_g(primal, data.samples, data.n)
    p = _unpack_p(primal, data.samples * data.n, problem.state_set.num_rows)
    return Certificate(gain=extract_gain(data, g), lam=lam, g_matrix=g, p_matrix=p)


def minimize_lambda(problem: SynthesisProblem) -> Certificate:
    """Smallest achievable contraction level; still a single LP because the
    level enters the constraints linearly."""
    if problem.disturbance is not None:
        raise ValueError("level minimization is a nominal-design operation")
    if isinstance(problem.source, PlantModel):
        plant = problem.source
        program = build_modelbased_lp(plant, problem.state_set, problem.input_set, None)
        primal = _solve_or_raise(program, "model-based level minimization")
        k = _unpack_k(primal, plant.m, plant.n)
        p = _unpack_p(primal, plant.m * plant.n, problem.state_set.num_rows)
        return Certificate(gain=k, lam=float(primal[-1]), p_matrix=p)
    data = problem.source
    program = build_databased_lp(data, problem.state_set, problem.input_set, None)
    primal = _solve_or_raise(program, "data-based level minimization")
    g = _unpack_g(primal, data.samples, data.n)
    p = _unpack_p(primal, data.samples * data.n, problem.state_set.num_rows)
    return Certificate(gain=extract_gain(data, g), lam=float(primal[-1]),
                       g_matrix=g, p_matrix=p)
