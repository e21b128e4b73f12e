"""Deterministic banded Cholesky solves for the TV oracle.

The TV oracle's reduced Newton steps and its duality certificate solve
symmetric positive definite systems by LAPACK's banded Cholesky
(dpbtrf/dpbtrs): the interior dofs are numbered node-major, row by row, so
these matrices have a bandwidth of about 2n + 1 in their natural order and
need no reordering. Every solve is checked against its residual bound.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded


class NotPositiveDefiniteError(ValueError):
    pass


def solve_spd(matrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a symmetric positive definite sparse (CSR) matrix A.

    Deterministic banded Cholesky in the given order, from the lower
    triangle of A (duplicate entries are summed); its band is as wide as
    the farthest nonzero from the diagonal, 2n + 1 for the node-major
    numbering of the interior dofs. Fails on a nonpositive leading minor,
    and the residual must satisfy ||A x - b||_inf <= 1e-10 (1 + ||b||_inf).
    """
    b = np.asarray(b, dtype=float)
    size = matrix.shape[0]
    if size == 0:
        return np.zeros_like(b)
    coo = matrix.tocoo()
    lower = coo.row >= coo.col
    cols = coo.col[lower].astype(np.intp)
    offsets = coo.row[lower] - cols
    width = int(offsets.max(initial=0))
    # LAPACK lower band storage band[i - j, j] = A[i, j], laid out column-major
    # so that the factorization overwrites it in place
    band = np.bincount(
        cols * (width + 1) + offsets, weights=coo.data[lower], minlength=size * (width + 1)
    ).reshape(size, width + 1).T
    try:
        factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # nonpositive leading minor
        raise NotPositiveDefiniteError(str(exc)) from exc
    x = cho_solve_banded((factor, True), b, check_finite=False)
    residual = np.abs(matrix @ x - b).max(initial=0.0)
    bound = 1e-10 * (1.0 + np.abs(b).max(initial=0.0))
    if not residual <= bound:
        raise NotPositiveDefiniteError(
            f"solve residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return x
