"""Polyhedral sets in the normalized halfspace form {x : H x <= 1}.

A state constraint set must be a C-set: convex, compact, with the origin in
its interior. In the normalized form this reduces to H having full column
rank and the set being bounded, which validate_cset checks constructively.

No check here solves an LP. Vertices come from the n-row subsets of H in
batched linear algebra. Boundedness and a disturbance hull's hold on the
origin are each one nonnegative least-squares problem, whose residual is zero
exactly when the set passes, solved by Lawson and Hanson's active-set method.
Each is first tried at its obvious witness, a point of the least squares'
feasible set that a centrally symmetric set or disturbance makes exact; a
witness that passes gives the verdict of the least squares' optimum, and
otherwise the least squares runs.

No rule here depends on the units of the state. Set validation runs in
the set's column frame (`numerics.column_exponents`): H with each column
times the power of two that brings its largest entry into [0.5, 1), so each
coordinate is measured in a unit the set fixes. In that frame x becomes x
times those powers of two, coordinate by coordinate, exactly: LU with
partial pivoting picks the same pivots on column-scaled rows, so every
solve, product and norm there is the unscaled one with each coordinate
scaled by its power of two, the vertices come back column by column with
the bits they have in any other power-of-two units, and none overflows or
underflows for the units alone. The rank and boundedness checks read only
row directions, so they see each row of the frame at unit size by its own
power of two (`numerics.unit_rows`), and no rule depends on one row's size
next to another's either. The disturbance hull check brings each coordinate
of the vertices to unit size the same way. Vertices are told apart by the
rows active at them, and a row's activity |row . v - 1| has no unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .numerics import column_exponents, numerical_rank, unit_rows

VERTEX_FEAS_TOL = 1e-8
ACTIVE_TOL = 1e-7
NNLS_TOL = 1e-9
NNLS_ITER_FACTOR = 10


class PolytopeError(ValueError):
    pass


class RankDeficientError(PolytopeError):
    """Rows of H do not span the state space."""


class UnboundedSetError(PolytopeError):
    """{x : H x <= 1} admits a recession direction."""


@dataclass
class PolyhedralCSet:
    """Validated C-set with its vertex list cached."""

    h_matrix: np.ndarray
    vertices: np.ndarray

    @property
    def dim(self) -> int:
        return self.h_matrix.shape[1]

    @property
    def num_rows(self) -> int:
        return self.h_matrix.shape[0]


@dataclass
class InputPolytope:
    """Input constraint set {u : H u <= 1}. Not required to be bounded."""

    h_matrix: np.ndarray

    def __post_init__(self):
        self.h_matrix = np.atleast_2d(np.asarray(self.h_matrix, dtype=float))
        if self.h_matrix.ndim != 2 or self.h_matrix.shape[0] == 0:
            raise ValueError("input set needs at least one row")
        if not np.all(np.isfinite(self.h_matrix)):
            raise ValueError("input set rows must be finite")

    @property
    def dim(self) -> int:
        return self.h_matrix.shape[1]


@dataclass
class DisturbanceSet:
    """Disturbance set given by its vertices (convex hull), one per row."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if self.vertices.shape[0] < 1:
            raise ValueError("disturbance set needs at least one vertex")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("disturbance vertices must be finite")
        if not self._hull_contains_origin():
            raise ValueError("disturbance hull must contain the origin")

    def _hull_contains_origin(self) -> bool:
        """Whether weights w >= 0 with sum 1 put the origin at sum_i w_i d_i:
        the least-squares residual of [D^T; 1^T] w = (0, 1) over w >= 0, with
        each coordinate of D brought to unit size by its own power of two
        (`numerics.unit_rows` of D^T), is at most NNLS_TOL.

        Equal weights 1/n_d are tried first. They are a feasible point, so
        the least squares' optimum has a residual at most theirs, and when
        theirs is at most NNLS_TOL the verdict is True without the solve,
        which stops on its gradient tolerance and can stop a little above
        that optimum. A larger residual decides nothing, and the least
        squares runs."""
        scaled = unit_rows(self.vertices.T)
        n, nd = scaled.shape
        mat = np.vstack([scaled, np.ones(nd)])
        target = np.zeros(n + 1)
        target[-1] = 1.0
        if np.linalg.norm(mat @ np.full(nd, 1.0 / nd) - target) <= NNLS_TOL:
            return True
        _, resid = _nonneg_least_squares(mat, target, "disturbance hull check")
        return resid <= NNLS_TOL

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


def _nonneg_least_squares(mat: np.ndarray, rhs: np.ndarray, what: str):
    """w >= 0 minimizing |mat w - rhs|, and that residual norm, by Lawson and
    Hanson's active-set method (Solving Least Squares Problems, 1974, ch. 23).
    It frees the column whose gradient most lowers the residual, solves the
    least squares on the free columns, and steps back to the boundary while
    that solution has a nonpositive entry. scipy.optimize.nnls runs the same
    method, but importing scipy.optimize takes longer than all of ddinv's
    own import. The method ends in finitely many steps; past
    NNLS_ITER_FACTOR steps per column the check fails with a PolytopeError
    naming it."""
    cols = mat.shape[1]
    grad_tol = 10.0 * np.finfo(float).eps * np.abs(mat).sum(axis=0).max() * max(mat.shape)
    weights = np.zeros(cols)
    free = np.zeros(cols, dtype=bool)
    stuck = np.zeros(cols, dtype=bool)

    def solve_free():
        trial = np.zeros(cols)
        trial[free] = np.linalg.lstsq(mat[:, free], rhs, rcond=None)[0]
        return trial

    for _ in range(NNLS_ITER_FACTOR * cols):
        grad = np.where(free | stuck, -np.inf, mat.T @ (rhs - mat @ weights))
        col = grad.argmax()
        if grad[col] <= grad_tol:
            return weights, float(np.linalg.norm(mat @ weights - rhs))
        free[col] = True
        trial = solve_free()
        if trial[col] <= 0.0:
            # rounding cancelled the column's gradient: leave it out until
            # the weights move
            free[col], stuck[col] = False, True
            continue
        stuck[:] = False
        # each pass fixes at least one free column at zero
        while (trial[free] <= 0.0).any():
            blocked = np.flatnonzero(free & (trial <= 0.0))
            ratios = weights[blocked] / (weights[blocked] - trial[blocked])
            weights += ratios.min() * (trial - weights)
            weights[blocked[ratios.argmin()]] = 0.0
            free &= weights > 0.0
            weights[~free] = 0.0
            trial = solve_free()
        weights = trial
    raise PolytopeError(f"{what} failed: no answer after {NNLS_ITER_FACTOR * cols} steps")


def _check_bounded(h_matrix: np.ndarray):
    """Reject sets with a recession direction. For H of full column rank the
    set is bounded exactly when the rows positively span the space, that is
    when H^T y = 0 has a solution y > 0 (Stiemke's transposition theorem).
    With unit rows G and y = 1 + z, that is a zero residual of the least
    squares G^T z = -G^T 1 over z >= 0, up to NNLS_TOL times sum(y), the
    largest |G^T y| can be.

    y = 1, z = 0, is tried first. The least squares' optimum has a residual
    at most |G^T 1|, the residual at z = 0, and its tolerance NNLS_TOL (m + sum(z))
    is at least NNLS_TOL m for m rows. So |G^T 1| <= NNLS_TOL m is the
    verdict "bounded" of that optimum, and a larger one decides nothing:
    the least squares runs."""
    rows = unit_rows(h_matrix)
    norms = np.linalg.norm(rows, axis=1)
    rows /= np.where(norms > 0.0, norms, 1.0)[:, None]
    pull = rows.sum(axis=0)
    if np.linalg.norm(pull) <= NNLS_TOL * rows.shape[0]:
        return
    extra, resid = _nonneg_least_squares(rows.T, -pull, "boundedness check")
    if resid > NNLS_TOL * (rows.shape[0] + extra.sum()):
        raise UnboundedSetError("set is unbounded: its rows do not positively span the space")


def enumerate_vertices(h_matrix) -> np.ndarray:
    """All vertices of {x : H x <= 1} by enumerating row subsets of size n.

    Candidate points solve H_J x = 1 for an invertible row subset J and are
    kept when the rows of J are active at them and every row holds. Two
    candidates are the same vertex when the same rows are active at them,
    |H v - 1| <= ACTIVE_TOL, and the first one found stands for the vertex,
    which must have n independent active rows. The work runs in the column
    frame (`numerics.column_exponents`) and the vertices are scaled back
    column by column, so every bit is the same in any power-of-two units of
    the state.

    All subsets are solved in one batched call. A subset is skipped when its
    LU factorization meets an exactly zero pivot (slogdet sign 0), the same
    test on which a single solve raises; the rest go through the same LAPACK
    gesv one matrix at a time, so the candidates and their order match a
    subset-by-subset loop.
    """
    h_matrix = np.atleast_2d(np.asarray(h_matrix, dtype=float))
    n_rows, n = h_matrix.shape
    if n == 0:
        raise PolytopeError("H has no columns: a set needs at least one dimension")
    exp = column_exponents(h_matrix)
    h_matrix = np.ldexp(h_matrix, -exp)
    # a row that the frame makes subnormal has lost its precision, so its
    # vertices could not be told apart from rounding
    sizes = np.abs(h_matrix).max(axis=1)
    if ((sizes > 0.0) & (sizes < np.finfo(float).tiny)).any():
        raise PolytopeError("rows too different in size: scaled with the largest, a row "
                            "falls below the smallest normal float")
    rows = unit_rows(h_matrix)
    if numerical_rank(rows) < n:
        raise RankDeficientError("H must have full column rank")
    _check_bounded(h_matrix)
    ones = np.ones(n)
    subsets = np.fromiter(chain.from_iterable(combinations(range(n_rows), n)),
                          dtype=np.intp).reshape(-1, n)
    subs = h_matrix[subsets]
    subs = subs[np.linalg.slogdet(subs).sign != 0]
    cands = np.linalg.solve(subs, ones)
    resid = np.abs(np.matmul(subs, cands[:, :, None])[:, :, 0] - ones).max(axis=1)
    images = cands @ h_matrix.T
    # "not above" rather than "at most": a NaN passes these two tests, as it
    # does in the subset-by-subset form
    keep = (np.isfinite(cands).all(axis=1) & ~(resid > ACTIVE_TOL)
            & ~(images.max(axis=1) > 1.0 + VERTEX_FEAS_TOL))
    actives = np.abs(images[keep] - 1.0) <= ACTIVE_TOL
    first = {}
    for pos, active in enumerate(actives):
        first.setdefault(active.tobytes(), pos)
    picks = list(first.values())
    # zeroing a vertex's inactive rows keeps the singular values of its
    # active ones, so one stacked call ranks every vertex
    if (numerical_rank(np.where(actives[picks][:, :, None], rows, 0.0)) < n).any():
        raise PolytopeError("vertex lacks n independent active rows")
    # a vertex past the largest float comes back infinite, for validate_cset
    # to refuse
    with np.errstate(over="ignore"):
        return np.ldexp(cands[np.flatnonzero(keep)[picks]], -exp)


def validate_cset(h_matrix) -> PolyhedralCSet:
    """Check the C-set conditions and return the set with vertices attached."""
    h_matrix = np.atleast_2d(np.asarray(h_matrix, dtype=float))
    n_rows, n = h_matrix.shape
    if not np.all(np.isfinite(h_matrix)):
        raise PolytopeError("H entries must be finite")
    if n_rows < n + 1:
        raise PolytopeError(f"{n_rows} rows cannot bound a {n}-dimensional set")
    # H 0 = 0 < 1: the origin is interior by construction, so it needs no check
    verts = enumerate_vertices(h_matrix)
    if verts.shape[0] == 0:
        raise PolytopeError("no vertices found; representation is degenerate")
    if not np.isfinite(verts).all():
        raise PolytopeError("set too large: a vertex lies past the largest float")
    return PolyhedralCSet(h_matrix=h_matrix, vertices=verts)


def gauge(cset: PolyhedralCSet, x) -> float:
    """Minkowski gauge of x with respect to the set; 0 at the origin,
    1 on the boundary, scales linearly outward."""
    x = np.asarray(x, dtype=float).reshape(-1)
    # np.maximum keeps a NaN, where max(0.0, nan) would return 0
    return float(np.maximum(0.0, np.max(cset.h_matrix @ x)))


def ordered_vertices_2d(cset: PolyhedralCSet) -> np.ndarray:
    """Vertices sorted counterclockwise around the origin. 2-d only."""
    if cset.dim != 2:
        raise ValueError("ordering is only defined for planar sets")
    verts = cset.vertices
    angles = np.arctan2(verts[:, 1], verts[:, 0])
    return verts[np.argsort(angles)]
