"""Deterministic banded SPD solves for the TV oracle and the master.

The TV oracle's reduced Newton steps solve symmetric positive definite
systems by LAPACK's banded Cholesky (dpbtrf/dpbtrs): the interior dofs are
numbered node-major, row by row, so these matrices have a bandwidth of
about 2n + 1 in their natural order and need no reordering.
:class:`NodeBlocks` holds the lower 2×2 node blocks of the elasticity,
which ``build_forms`` builds from the mesh's constant stencil, and fills the
band of each system straight from them; ``scipy.sparse`` is not used.
:func:`factor_spd` factors a band once for many solves, as the master does
with the Laplacian's, written from its stencil; :func:`solve_spd` factors for
one, and the Newton step checks its residual against ``RESIDUAL_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

#: a solve of A x = b is accepted only if ||A x - b||_inf <= RESIDUAL_TOL (1 + ||b||_inf)
RESIDUAL_TOL = 1e-10


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class NodeBlocks:
    """The lower 2×2 node blocks of a symmetric matrix A on node-major dofs.

    Dofs 2q and 2q + 1 belong to node q. Block k holds the entries in rows
    of node ``rows[k]`` and columns of node ``cols[k] <= rows[k]``; entries
    A does not store are 0.0. Entry (p, q) of block k is
    ``values[p, q, k]``, so each entry of all blocks is one contiguous
    array. The first blocks are the diagonal ones, block q for node q, and
    each holds both of its off-diagonal entries.
    """

    rows: np.ndarray    # (blocks,) int32
    cols: np.ndarray    # (blocks,) int32
    values: np.ndarray  # (2, 2, blocks)

    def reduced_band(self, scale, diagonal, frame, kept) -> np.ndarray:
        """Lower band of Z^T (scale * A + D) Z.

        D adds ``diagonal[q]`` to both dofs of node q. Z rotates the dofs of
        node q into its (radial, tangent) frame, with (cos, sin) =
        ``frame[:, q]`` giving the radial direction, and keeps the rotated
        dofs ``kept[q]``; its columns follow the kept dofs in order. Every
        block is rotated by the frames of its row and its column node; an
        identity frame leaves a block's nonzero entries bitwise unchanged,
        since 1·a + 0·b = a. The entries of a dropped dof get the index -1,
        which ``lower_band`` skips.
        """
        size = diagonal.size
        h = scale * self.values
        # blocks 0 .. size - 1 are the diagonal ones
        h[0, 0, :size] += diagonal
        h[1, 1, :size] += diagonal

        cos, sin = frame
        # each node's rotation: columns (radial, tangent)
        basis = np.array([[cos, -sin], [sin, cos]])
        z = np.take(basis, self.rows, axis=2)
        t = np.stack([z[0, 0] * h[0] + z[1, 0] * h[1], z[0, 1] * h[0] + z[1, 1] * h[1]])
        z = np.take(basis, self.cols, axis=2)
        h = np.stack(
            [z[0, 0] * t[:, 0] + z[1, 0] * t[:, 1], z[0, 1] * t[:, 0] + z[1, 1] * t[:, 1]],
            axis=1,
        )

        # each dof's column of Z, or -1 for a dropped dof
        column = np.where(kept, np.cumsum(kept).reshape(size, 2) - 1, -1).T
        rows = np.take(column, self.rows, axis=1)[:, None]
        cols = np.take(column, self.cols, axis=1)
        return lower_band(rows, cols, h, np.count_nonzero(kept))


def lower_band(rows, cols, values, size: int) -> np.ndarray:
    """LAPACK lower band storage of the entries (rows, cols, values), broadcast together.

    Only entries with 0 <= col <= row and a nonzero value count, so a
    negative index marks an entry to skip: ``band[i - j, j]`` sums the
    values at (i, j), and the band is as wide as the farthest of them from
    the diagonal. It is laid out column-major so that the factorization
    overwrites it in place.
    """
    rows, cols, values = np.broadcast_arrays(rows, cols, values)
    offsets = rows - cols
    entries = np.flatnonzero((cols >= 0) & (offsets >= 0) & (values != 0.0))
    offsets = offsets.ravel()[entries]
    width = int(offsets.max(initial=0))
    flat = cols.ravel()[entries].astype(np.intp, copy=False) * (width + 1) + offsets
    return np.bincount(
        flat, weights=values.ravel()[entries], minlength=size * (width + 1)
    ).reshape(size, width + 1).T


def factor_spd(band: np.ndarray):
    """The solve b -> A^{-1} b of an SPD matrix A, factored once from its lower band.

    Deterministic banded Cholesky in the given order; fails on a nonpositive
    leading minor. Overwrites ``band``.
    """
    try:
        factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # nonpositive leading minor
        raise NotPositiveDefiniteError(str(exc)) from exc
    return lambda b: cho_solve_banded((factor, True), b, check_finite=False)


def solve_spd(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by :func:`factor_spd`; the caller checks it against ``RESIDUAL_TOL``."""
    b = np.asarray(b, dtype=float)
    if b.size == 0:
        return np.zeros_like(b)
    return factor_spd(band)(b)
