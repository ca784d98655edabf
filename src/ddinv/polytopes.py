"""Polyhedral sets in the normalized halfspace form {x : H x <= 1}.

A state constraint set must be a C-set: convex, compact, with the origin in
its interior. In the normalized form this reduces to H having full column
rank and the set being bounded, which validate_cset checks constructively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Optional

import numpy as np

from . import lp
from .numerics import numerical_rank

DEDUP_TOL = 1e-7
VERTEX_FEAS_TOL = 1e-8
ACTIVE_TOL = 1e-7


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
        # weights alpha >= 0, sum alpha = 1, sum alpha_i d_i = 0
        nd, n = self.vertices.shape
        eq = np.vstack([self.vertices.T, np.ones((1, nd))])
        rhs = np.zeros(n + 1)
        rhs[-1] = 1.0
        prob = lp.LinearProgram(
            num_vars=nd,
            objective=np.zeros(nd),
            eq_lhs=eq,
            eq_rhs=rhs,
            lower_bounds=np.zeros(nd),
        )
        return lp.solve(prob).status == lp.LpStatus.FEASIBLE

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


def _check_bounded(h_matrix: np.ndarray):
    """Reject sets with a recession direction. For H of full column rank the
    set is bounded exactly when the rows positively span the space, that is
    when H^T y = 0 has a solution y >= 1 (Stiemke's transposition theorem):
    one feasibility LP."""
    n_rows, n = h_matrix.shape
    prob = lp.LinearProgram(num_vars=n_rows, objective=np.zeros(n_rows),
                            eq_lhs=h_matrix.T, eq_rhs=np.zeros(n),
                            lower_bounds=np.ones(n_rows))
    if lp.solve(prob).status != lp.LpStatus.FEASIBLE:
        raise UnboundedSetError("set is unbounded: its rows do not positively span the space")


def enumerate_vertices(h_matrix, dedup_tol: float = DEDUP_TOL) -> np.ndarray:
    """All vertices of {x : H x <= 1} by enumerating row subsets of size n.

    Candidate points solve H_J x = 1 for an invertible row subset J and are
    kept when feasible for every row. Duplicates within dedup_tol (Euclidean)
    collapse to the first representative found.

    All subsets are solved in one batched call. A subset is skipped when its
    LU factorization meets an exactly zero pivot (slogdet sign 0), the same
    test on which a single solve raises; the rest go through the same LAPACK
    gesv one matrix at a time, so the candidates and their order match a
    subset-by-subset loop.
    """
    h_matrix = np.atleast_2d(np.asarray(h_matrix, dtype=float))
    n_rows, n = h_matrix.shape
    if numerical_rank(h_matrix) < n:
        raise RankDeficientError("H must have full column rank")
    _check_bounded(h_matrix)
    ones = np.ones(n)
    subsets = np.fromiter(chain.from_iterable(combinations(range(n_rows), n)),
                          dtype=np.intp).reshape(-1, n)
    subs = h_matrix[subsets]
    subs = subs[np.linalg.slogdet(subs).sign != 0]
    cands = np.linalg.solve(subs, ones)
    resid = np.abs(np.matmul(subs, cands[:, :, None])[:, :, 0] - ones).max(axis=1)
    # "not above" rather than "at most": a NaN passes these two tests, as it
    # does in the subset-by-subset form
    keep = (np.isfinite(cands).all(axis=1) & ~(resid > 1e-7)
            & ~((cands @ h_matrix.T).max(axis=1) > 1.0 + VERTEX_FEAS_TOL))
    found = []
    for cand in cands[keep]:
        if any(np.linalg.norm(cand - v) <= dedup_tol for v in found):
            continue
        found.append(cand)
    return np.array(found) if found else np.zeros((0, n))


def validate_cset(h_matrix) -> PolyhedralCSet:
    """Check the C-set conditions and return the set with vertices attached."""
    h_matrix = np.atleast_2d(np.asarray(h_matrix, dtype=float))
    n_rows, n = h_matrix.shape
    if not np.all(np.isfinite(h_matrix)):
        raise PolytopeError("H entries must be finite")
    if n_rows < n + 1:
        raise PolytopeError(f"{n_rows} rows cannot bound a {n}-dimensional set")
    # origin is interior by construction of the normalized form
    assert np.all(h_matrix @ np.zeros(n) < 1.0)
    verts = enumerate_vertices(h_matrix)
    if verts.shape[0] == 0:
        raise PolytopeError("no vertices found; representation is degenerate")
    for v in verts:
        resid = h_matrix @ v
        if np.max(resid) > 1.0 + VERTEX_FEAS_TOL:
            raise PolytopeError("vertex fails feasibility")
        active = np.abs(resid - 1.0) <= ACTIVE_TOL
        if numerical_rank(h_matrix[active]) < n:
            raise PolytopeError("vertex lacks n independent active rows")
    return PolyhedralCSet(h_matrix=h_matrix, vertices=verts)


def gauge(cset: PolyhedralCSet, x) -> float:
    """Minkowski gauge of x with respect to the set; 0 at the origin,
    1 on the boundary, scales linearly outward."""
    x = np.asarray(x, dtype=float).reshape(-1)
    # np.maximum keeps a NaN, where max(0.0, nan) would return 0
    return float(np.maximum(0.0, np.max(cset.h_matrix @ x)))


def contains(cset: PolyhedralCSet, x, scale: float = 1.0, tol: float = 1e-9) -> bool:
    """True when x lies in scale * set, within tol on each row."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return bool(np.all(cset.h_matrix @ x <= scale + tol))


def ordered_vertices_2d(cset: PolyhedralCSet) -> np.ndarray:
    """Vertices sorted counterclockwise around the origin. 2-d only."""
    if cset.dim != 2:
        raise ValueError("ordering is only defined for planar sets")
    verts = cset.vertices
    angles = np.arctan2(verts[:, 1], verts[:, 0])
    return verts[np.argsort(angles)]
