"""Deterministic banded SPD solves for the TV oracle and the master.

The TV oracle's reduced Newton steps solve symmetric positive definite
systems by LAPACK's banded Cholesky (dpbtrf/dpbtrs): the interior dofs are
numbered node-major, row by row, so these matrices have a bandwidth of
about 2n + 1 in their natural order and need no reordering. ``mesh_fem``
writes every band from its stencil, the Newton steps' from the elasticity's
2×2 node blocks and the master's from the 5-point Laplacian, and
:func:`lower_band` lays the entries out; ``scipy.sparse`` is not used.
:func:`factor_spd` factors a band once for many solves, as the master does
with the Laplacian's; :func:`solve_spd` factors for one, and the Newton step
checks its residual against ``RESIDUAL_TOL``.

Both call SciPy's f2py wrappers of dpbtrf and dpbtrs, the functions that
``scipy.linalg.cholesky_banded`` and ``cho_solve_banded`` call, so factors
and solves are bitwise theirs. Their extension module ``_flapack`` is
loaded from its file in SciPy's ``linalg`` directory without running that
package's ``__init__``, which imports modules a run never uses (334 of
them and about 24 MiB of RSS with SciPy 1.17); a ``scipy.linalg._flapack``
already imported is reused. The checks those two functions made, on
LAPACK's ``info`` and on the right-hand side's length, are made here.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

#: a solve of A x = b is accepted only if ||A x - b||_inf <= RESIDUAL_TOL (1 + ||b||_inf)
RESIDUAL_TOL = 1e-10


class NotPositiveDefiniteError(ValueError):
    pass


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, without importing the ``scipy.linalg`` package."""
    loaded = sys.modules.get("scipy.linalg._flapack")
    if loaded is not None:
        return loaded
    linalg = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = PathFinder.find_spec("_flapack", [linalg])
    if spec is None:
        raise ImportError(f"no LAPACK extension module _flapack in {linalg}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
#: LAPACK's banded Cholesky factorization and its triangular solves, double precision
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs


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

    Deterministic banded Cholesky in the given order; raises
    NotPositiveDefiniteError on a nonpositive leading minor and ValueError
    on a band LAPACK rejects. Overwrites ``band``. The solve raises
    ValueError unless b's first axis has one entry per column of the band.
    As in SciPy, an empty band or b never reaches LAPACK, which may reject
    a zero leading dimension.
    """
    size = band.shape[1]
    if band.size:
        band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise NotPositiveDefiniteError(f"{info}-th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")

    def solve(b):
        if np.shape(b)[:1] != (size,):
            raise ValueError(f"right-hand side of shape {np.shape(b)} for {size} unknowns")
        if np.size(b) == 0:
            return np.zeros_like(b, dtype=float)
        x, info = dpbtrs(band, b, lower=1)
        if info != 0:
            raise ValueError(f"dpbtrs failed with info {info}")
        return x

    return solve


def solve_spd(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by :func:`factor_spd`; the caller checks it against ``RESIDUAL_TOL``."""
    return factor_spd(band)(np.asarray(b, dtype=float))
