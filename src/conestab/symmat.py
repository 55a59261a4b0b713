"""Vectorization of symmetric matrices.

Symmetric blocks are stored as vectors with off-diagonal entries scaled by
sqrt(2), so that the coordinate dot product of two encoded matrices equals
the trace inner product of the matrices themselves.
"""

from functools import lru_cache
import math

import numpy as np

SQRT2 = np.sqrt(2.0)


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def order_of(m: int) -> int:
    """Matrix order n with n(n+1)/2 == m."""
    n = (math.isqrt(8 * m + 1) - 1) // 2
    if svec_dim(n) != m:
        raise ValueError(f"length {m} is not a triangular number")
    return n


@lru_cache(maxsize=64)
def _triangle(n: int):
    """Index plan of the upper triangle of an n x n matrix, row-major.

    Returns (iu, ju, scale, upper, lower): the row and column indices,
    the svec scale of each entry (1 on the diagonal, sqrt(2) off it), and
    the flat positions of (iu, ju) and (ju, iu).  The arrays are shared by
    every caller, so they are read-only.
    """
    iu, ju = np.triu_indices(n)
    scale = np.where(iu != ju, SQRT2, 1.0)
    plan = (iu, ju, scale, iu * n + ju, ju * n + iu)
    for a in plan:
        a.flags.writeable = False
    return plan


def svec(A: np.ndarray) -> np.ndarray:
    """Encode a symmetric matrix as a vector (upper triangle, row-major)."""
    A = np.asarray(A, dtype=float)
    iu, ju, scale, _, _ = _triangle(A.shape[0])
    # multiplying the diagonal by 1.0 is exact, so this equals scaling
    # only the off-diagonal entries
    return A[iu, ju] * scale


def smat(v: np.ndarray) -> np.ndarray:
    """Decode a vector produced by svec back into a symmetric matrix."""
    v = np.asarray(v, dtype=float)
    n = order_of(v.size)
    _, _, scale, upper, lower = _triangle(n)
    w = v / scale
    # the two triangles together cover every entry
    A = np.empty(n * n)
    A[upper] = w
    A[lower] = w
    return A.reshape(n, n)
