"""Shared numerical helpers: the one rank rule behind every rank decision,
on numpy alone."""

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
