"""Deterministic sparse symmetric linear algebra for the solvers.

Direct factorizations only: SuperLU in symmetric mode doubles as a Cholesky
equivalent for positive definite systems (static diagonal pivoting exposes
pivot signs), and serves the state solves, the TV oracle's reduced Newton
steps and its duality certificate. A pivoted LU serves only the symmetric
indefinite base [[-M, K], [K, B/alpha]] of the master problem's bordered
KKT systems. Every solve is checked against its residual bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NotSymmetricError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


class SingularBorderError(ValueError):
    """Schur complement of the border is singular (e.g. duplicated cutting planes)."""


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR storage with cached factorizations."""

    def __init__(self, matrix, check: bool = True):
        m = sp.csr_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise NotSymmetricError(f"matrix is not square: {m.shape}")
        if check and m.nnz:
            gap = abs(m - m.T)
            if gap.nnz and gap.max() > 1e-12:
                raise NotSymmetricError(f"matrix asymmetric by {gap.max():.3e}")
        self.matrix = m
        self._spd_factor = None
        self._lu_factor = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def spd_factor(self):
        """Cholesky-equivalent factorization; fails on any nonpositive pivot."""
        if self._spd_factor is None:
            try:
                lu = spla.splu(
                    self.matrix.tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:  # singular factor
                raise NotPositiveDefiniteError(str(exc)) from exc
            if np.any(lu.U.diagonal() <= 0.0):
                raise NotPositiveDefiniteError("nonpositive pivot encountered")
            self._spd_factor = lu
        return self._spd_factor

    def lu_factor(self):
        """Pivoted LU for symmetric indefinite systems."""
        if self._lu_factor is None:
            self._lu_factor = spla.splu(self.matrix.tocsc())
        return self._lu_factor


def _as_sym(a) -> SparseSymMatrix:
    return a if isinstance(a, SparseSymMatrix) else SparseSymMatrix(a)


def solve_spd(a, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Deterministic direct factorization with a fixed fill-reducing ordering;
    the residual must satisfy ||A x - b||_inf <= 1e-10 (1 + ||b||_inf).
    """
    a = _as_sym(a)
    b = np.asarray(b, dtype=float)
    if a.dimension == 0:
        return np.zeros_like(b)
    x = a.spd_factor().solve(b)
    residual = np.abs(a.matrix @ x - b).max(initial=0.0)
    bound = 1e-10 * (1.0 + np.abs(b).max(initial=0.0))
    if not residual <= bound:
        raise NotPositiveDefiniteError(
            f"solve residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return x


@dataclass
class BorderedSystem:
    """Symmetric system [[base, border], [border^T, border_block]].

    ``base`` is sparse symmetric invertible, ``border`` holds one dense
    column per active constraint multiplier, ``border_block`` the dense
    (possibly zero) coupling between multipliers.
    """

    base: SparseSymMatrix
    border: np.ndarray
    border_block: np.ndarray | None = None
    ids: np.ndarray | None = None  # labels reported on singular borders

    def __post_init__(self):
        self.base = _as_sym(self.base)
        self.border = np.asarray(self.border, dtype=float).reshape(self.base.dimension, -1)
        m = self.border.shape[1]
        if self.border_block is None:
            self.border_block = np.zeros((m, m))
        self.border_block = np.asarray(self.border_block, dtype=float).reshape(m, m)

    @property
    def n_border(self) -> int:
        return self.border.shape[1]


def solve_bordered(system: BorderedSystem, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a bordered system by block elimination with a dense Schur complement.

    rhs stacks the base right-hand side and one entry per border column.
    Returns (primal, multipliers); raises SingularBorderError when the Schur
    complement is singular, which signals degenerate or duplicated borders.
    """
    n, m = system.base.dimension, system.n_border
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n + m,):
        raise ValueError(f"rhs must have length {n + m}, got {rhs.shape}")
    b, g = rhs[:n], rhs[n:]

    factor = system.base.lu_factor()
    x0 = factor.solve(b)
    if m == 0:
        return x0, np.zeros(0)

    xc = factor.solve(system.border)
    schur = system.border_block - system.border.T @ xc
    try:
        mu = np.linalg.solve(schur, g - system.border.T @ x0)
    except np.linalg.LinAlgError as exc:
        raise SingularBorderError(_border_message(system)) from exc
    x = x0 - xc @ mu

    res_base = np.abs(system.base.matrix @ x + system.border @ mu - b).max(initial=0.0)
    res_border = np.abs(
        system.border.T @ x + system.border_block @ mu - g
    ).max(initial=0.0)
    scale = 1.0 + np.abs(rhs).max(initial=0.0)
    if not max(res_base, res_border) <= 1e-9 * scale:
        raise SingularBorderError(
            f"bordered solve residual {max(res_base, res_border):.3e} "
            f"exceeds 1e-9 relative bound; {_border_message(system)}"
        )
    return x, mu


def _border_message(system: BorderedSystem) -> str:
    if system.ids is not None:
        return f"border columns {list(np.asarray(system.ids))}"
    return f"{system.n_border} border columns"

