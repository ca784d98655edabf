"""Shared numerical helpers."""

import functools

import numpy as np
from scipy.linalg.lapack import dgeqp3

RANK_TOL_FACTOR = 1e-9


@functools.lru_cache(maxsize=128)
def _qr_workspace(rows: int, cols: int) -> int:
    """The workspace dgeqp3 asks for on a rows x cols matrix. LAPACK sizes
    it from the shape alone, so one query serves every matrix of a shape."""
    return int(dgeqp3(np.zeros((rows, cols)), lwork=-1)[3][0])


def numerical_rank(mat) -> int:
    """Rank of a dense matrix via column-pivoted QR.

    Counts diagonal entries of R above RANK_TOL_FACTOR times the largest
    diagonal magnitude. Empty and zero matrices have rank 0, and a
    non-finite entry is a ValueError.

    Calls LAPACK dgeqp3 directly, the routine scipy.linalg.qr(pivoting=True)
    runs, with the workspace size it asks for, as qr does: R carries the
    same bits at a third of qr's cost. The workspace query runs once per
    shape (_qr_workspace).
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    if not np.isfinite(mat).all():
        raise ValueError("array must not contain infs or NaNs")
    return _rank(mat)


def _rank(mat: np.ndarray) -> int:
    """numerical_rank's rule on a non-empty, finite 2-d float array, for
    callers that have checked their matrix already."""
    diag = np.abs(dgeqp3(mat, lwork=_qr_workspace(*mat.shape))[0].diagonal())
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.count_nonzero(diag > RANK_TOL_FACTOR * diag[0]))
