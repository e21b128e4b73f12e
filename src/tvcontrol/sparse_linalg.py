"""Deterministic banded SPD solves for the TV oracle and the master.

The TV oracle's reduced Newton steps solve symmetric positive definite
systems by LAPACK's banded Cholesky (dpbtrf/dpbtrs): the interior dofs are
numbered node-major, row by row, so these matrices have a bandwidth of
about 2n + 1 in their natural order and need no reordering. ``Mesh`` writes
every band from a stencil: ``elasticity_band`` the Newton steps' from the
elasticity's 2×2 node blocks, ``stiffness_band`` the master's from the
5-point Laplacian. :func:`lower_band` lays the entries out; no ``scipy.sparse``.
:func:`factor_spd` factors a band once for many solves, as the master does
with the Laplacian's; :func:`solve_spd` factors for one, and the Newton step
checks its residual against ``RESIDUAL_TOL``. Both inner solvers fail by
raising an ``InnerSolverError``: ``NotPositiveDefiniteError`` here, the
master's ``SingularBorderError``, or the oracle's at its Newton cap.

Both call LAPACK's dpbtrf and dpbtrs through ``ctypes`` in the OpenBLAS
that SciPy's wheel ships (``scipy.libs/libscipy_openblas*.so``), the
library whose routines ``scipy.linalg.cholesky_banded`` and
``cho_solve_banded`` call, so factors and solves are bitwise theirs. The
library is found without importing ``scipy``: a run imports no SciPy
module, neither the ``scipy`` package nor its f2py LAPACK extension, and
holds about 2 MiB less RSS than with them. ``dlopen`` hands a process that has imported
``scipy.linalg`` the library it already loaded. The checks SciPy's
wrappers made, on LAPACK's ``info`` and on the right-hand side's length,
are made here.
"""

from __future__ import annotations

import ctypes
import glob
import os
from importlib.util import find_spec

import numpy as np

#: a solve of A x = b is accepted only if ||A x - b||_inf <= RESIDUAL_TOL (1 + ||b||_inf)
RESIDUAL_TOL = 1e-10


class InnerSolverError(ValueError):
    """An inner solver, the TV oracle or the master, failed; the driver ends the run on it."""


class NotPositiveDefiniteError(InnerSolverError):
    pass


def _openblas() -> ctypes.CDLL:
    """The OpenBLAS that SciPy's wheel ships, found without importing ``scipy``."""
    spec = find_spec("scipy")
    if spec is None:
        raise ImportError("no scipy package, whose OpenBLAS library supplies LAPACK")
    pattern = os.path.join(spec.submodule_search_locations[0] + ".libs", "libscipy_openblas*.so")
    found = sorted(glob.glob(pattern))
    if not found:
        raise ImportError(f"no OpenBLAS library {pattern}")
    return ctypes.CDLL(found[0])


def _routine(library: ctypes.CDLL, name: str, arguments: int):
    """LAPACK routine ``name`` with ``uplo`` first and ``arguments`` pointers after it.

    An LP64 Fortran subroutine: every argument by reference, integers of
    32 bits, and ``uplo``'s hidden length as a trailing ``size_t``.
    """
    symbol = f"scipy_{name}_"
    try:
        routine = getattr(library, symbol)
    except AttributeError:
        raise ImportError(f"no LAPACK routine {symbol} in {library._name}") from None
    routine.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * arguments + [ctypes.c_size_t]
    routine.restype = None
    return routine


_lapack = _openblas()
_dpbtrf = _routine(_lapack, "dpbtrf", 5)  # n, kd, ab, ldab, info
_dpbtrs = _routine(_lapack, "dpbtrs", 8)  # n, kd, nrhs, ab, ldab, b, ldb, info


def _int(value: int):
    """A pointer to a new C int holding ``value``."""
    return ctypes.byref(ctypes.c_int(value))


def dpbtrf(band):
    """LAPACK's dpbtrf on a lower band: (factor, info).

    The factor overwrites ``band`` if it is a writable, Fortran-ordered
    float64 array, and a copy otherwise.
    """
    factor = np.require(band, np.float64, "FAW")
    rows, size = factor.shape
    info = ctypes.c_int()
    _dpbtrf(b"L", _int(size), _int(rows - 1), factor.ctypes.data, _int(rows),
            ctypes.byref(info), 1)
    return factor, info.value


def dpbtrs(factor, b):
    """LAPACK's dpbtrs with dpbtrf's lower ``factor``: (x, info), x a new array.

    Each column of b along its first axis is a right-hand side.
    """
    factor = np.require(factor, np.float64, "FA")
    x = np.array(b, dtype=np.float64, order="F")
    rows, size = factor.shape
    ldb = x.shape[0]
    info = ctypes.c_int()
    _dpbtrs(b"L", _int(size), _int(rows - 1), _int(x.size // ldb),
            factor.ctypes.data, _int(rows), x.ctypes.data, _int(ldb), ctypes.byref(info), 1)
    return x, info.value


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
        band, info = dpbtrf(band)
        if info > 0:
            raise NotPositiveDefiniteError(f"{info}-th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")

    def solve(b):
        if np.shape(b)[:1] != (size,):
            raise ValueError(f"right-hand side of shape {np.shape(b)} for {size} unknowns")
        if np.size(b) == 0:
            return np.zeros_like(b, dtype=float)
        x, info = dpbtrs(band, b)
        if info != 0:
            raise ValueError(f"dpbtrs failed with info {info}")
        return x

    return solve


def solve_spd(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by :func:`factor_spd`; the caller checks it against ``RESIDUAL_TOL``."""
    return factor_spd(band)(np.asarray(b, dtype=float))
