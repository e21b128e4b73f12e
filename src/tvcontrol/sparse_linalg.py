"""Deterministic sparse linear algebra for the solvers.

Direct factorizations only. The TV oracle's reduced Newton steps and its
duality certificate solve symmetric positive definite systems by LAPACK's
banded Cholesky (dpbtrf/dpbtrs): the interior dofs are numbered node-major,
row by row, so these matrices have a bandwidth of about 2n + 1 in their
natural order and need no reordering. The master problem's bordered KKT
systems reuse one SuperLU factorization of their symmetric indefinite base
[[-M, K], [K, B/alpha]], factored once per run. Every solve is checked
against its residual bound.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded


class NotPositiveDefiniteError(ValueError):
    pass


class SingularBorderError(ValueError):
    """Schur complement of the border is singular (e.g. duplicated cutting planes)."""


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


def solve_bordered(base, factor, border, border_block, rhs, ids):
    """Solve [[base, border], [border^T, border_block]] [x; mu] = rhs.

    ``factor`` is a SuperLU factorization of the sparse symmetric invertible
    ``base``; ``border`` holds one dense column per active constraint
    multiplier, ``border_block`` the dense coupling between multipliers, and
    ``ids`` labels the columns. Block elimination with a dense Schur
    complement; rhs stacks the base right-hand side and one entry per border
    column. Returns (primal, multipliers); raises SingularBorderError, naming
    the ids, when the Schur complement is singular, which signals degenerate
    or duplicated borders.
    """
    n, m = base.shape[0], border.shape[1]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n + m,):
        raise ValueError(f"rhs must have length {n + m}, got {rhs.shape}")
    b, g = rhs[:n], rhs[n:]

    x0 = factor.solve(b)
    if m == 0:
        return x0, np.zeros(0)

    xc = factor.solve(border)
    schur = border_block - border.T @ xc
    try:
        mu = np.linalg.solve(schur, g - border.T @ x0)
    except np.linalg.LinAlgError as exc:
        raise SingularBorderError(f"border columns {list(ids)}") from exc
    x = x0 - xc @ mu

    res_base = np.abs(base @ x + border @ mu - b).max(initial=0.0)
    res_border = np.abs(border.T @ x + border_block @ mu - g).max(initial=0.0)
    scale = 1.0 + np.abs(rhs).max(initial=0.0)
    if not max(res_base, res_border) <= 1e-9 * scale:
        raise SingularBorderError(
            f"bordered solve residual {max(res_base, res_border):.3e} "
            f"exceeds 1e-9 relative bound; border columns {list(ids)}"
        )
    return x, mu
