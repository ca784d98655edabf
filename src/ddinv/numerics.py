"""Shared numerical rules, on numpy alone: the one rank rule behind every
rank decision, the power-of-two frames that take the units out of a
matrix's columns or rows, and the stacked matrix-vector product."""

import numpy as np

RANK_TOL_FACTOR = 1e-9


def numerical_rank(mat):
    """Rank of a dense matrix, or of each matrix in a stack, via its singular
    values.

    Counts the singular values above RANK_TOL_FACTOR times the largest. A
    2-d matrix gives an int; a stack along the leading axes gives an integer
    array with one rank per matrix. Empty and zero matrices have rank 0, and
    a non-finite entry is a ValueError.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.isfinite(mat).all():
        raise ValueError("array must not contain infs or NaNs")
    # an empty matrix has no singular values, so its count is 0
    svals = np.linalg.svd(mat, compute_uv=False)
    ranks = (svals > RANK_TOL_FACTOR * svals[..., :1]).sum(axis=-1)
    return int(ranks) if mat.ndim == 2 else ranks


def column_exponents(mat) -> np.ndarray:
    """Per column, the exponent of the power of two that brings its largest
    magnitude into [0.5, 1), 0 for a zero or empty column:
    np.ldexp(mat, -column_exponents(mat)) is mat in a unit each column
    fixes, exactly."""
    return np.frexp(np.abs(mat).max(axis=0, initial=0.0))[1]


def unit_rows(mat) -> np.ndarray:
    """mat with each row times the power of two that brings its largest
    magnitude into [0.5, 1), exactly; a zero row stays zero."""
    return np.ldexp(mat, -np.frexp(np.abs(mat).max(axis=1))[1][:, None])


def images(matrix, points) -> np.ndarray:
    """matrix @ p for every p along the last axis of points. numpy runs the
    stack as one matrix-vector product per point, the same BLAS call as
    matrix @ p on its own, so the results match that bit for bit."""
    return np.matmul(matrix, points[..., None])[..., 0]
