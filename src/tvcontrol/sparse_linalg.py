"""Deterministic sparse linear algebra for the solvers.

Direct factorizations only: SuperLU in symmetric mode doubles as a Cholesky
equivalent for positive definite systems (static diagonal pivoting exposes
pivot signs) and serves the TV oracle's reduced Newton steps and its
duality certificate. The master problem's bordered KKT systems reuse one
pivoted LU of their symmetric indefinite base [[-M, K], [K, B/alpha]],
factored once per run. Every solve is checked against its residual bound.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla


class NotPositiveDefiniteError(ValueError):
    pass


class SingularBorderError(ValueError):
    """Schur complement of the border is singular (e.g. duplicated cutting planes)."""


def solve_spd(matrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a symmetric positive definite sparse (CSR) matrix A.

    Deterministic direct factorization with a fixed fill-reducing ordering;
    fails on any nonpositive pivot, and the residual must satisfy
    ||A x - b||_inf <= 1e-10 (1 + ||b||_inf).
    """
    b = np.asarray(b, dtype=float)
    if matrix.shape[0] == 0:
        return np.zeros_like(b)
    try:
        factor = spla.splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # singular factor
        raise NotPositiveDefiniteError(str(exc)) from exc
    if np.any(factor.U.diagonal() <= 0.0):
        raise NotPositiveDefiniteError("nonpositive pivot encountered")
    x = factor.solve(b)
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
