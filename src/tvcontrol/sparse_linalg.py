"""Deterministic banded SPD solves for the TV oracle's Newton steps.

The TV oracle's reduced Newton steps solve symmetric positive definite
systems by LAPACK's banded Cholesky (dpbtrf/dpbtrs): the interior dofs are
numbered node-major, row by row, so these matrices have a bandwidth of
about 2n + 1 in their natural order and need no reordering.
``Mesh.elasticity_band`` writes each band from the elasticity's 2×2 node
blocks straight into LAPACK band storage; no ``scipy.sparse``. One call of
:func:`solve_spd` factors it in place and solves, and the Newton step checks
the residual; the master's Poisson solves factor nothing. Both inner solvers
fail by raising an ``InnerSolverError``:
``NotPositiveDefiniteError`` here, the master's ``SingularBorderError``, or
the oracle's at its Newton cap.

The wrappers :func:`dpbtrf` and :func:`dpbtrs`, kept apart so that a
profile reads the factorizations' time and count off them, and
:func:`dgesv`, which solves the master's k x k active-set systems without
``np.linalg.solve`` and the 316 KiB its first call maps, call LAPACK
through ``ctypes`` in the OpenBLAS that SciPy's wheel ships
(``scipy.libs/libscipy_openblas*.so``), the library whose routines
``scipy.linalg.cholesky_banded`` and ``cho_solve_banded`` call, so factors
and solves are bitwise theirs. The library is found without importing
``scipy``: a run imports no SciPy module, neither the ``scipy`` package nor
its f2py LAPACK extension, and holds about 2 MiB less RSS than with them.
``dlopen`` hands a process that has imported ``scipy.linalg`` the library
it already loaded. The checks SciPy's wrappers made, on LAPACK's ``info``
and on the right-hand side's length, are made here.
"""

from __future__ import annotations

import ctypes
import glob
import os
from importlib.util import find_spec

import numpy as np

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


def _routine(library: ctypes.CDLL, name: str, arguments: int, uplo: bool = True):
    """LAPACK routine ``name`` with ``arguments`` pointers, after ``uplo`` if ``uplo``.

    An LP64 Fortran subroutine: every argument by reference, integers of
    32 bits, and ``uplo``'s hidden length, if any, as a trailing ``size_t``.
    """
    symbol = f"scipy_{name}_"
    try:
        routine = getattr(library, symbol)
    except AttributeError:
        raise ImportError(f"no LAPACK routine {symbol} in {library._name}") from None
    char = [ctypes.c_char_p] if uplo else []
    routine.argtypes = char + [ctypes.c_void_p] * arguments + [ctypes.c_size_t] * len(char)
    routine.restype = None
    return routine


_lapack = _openblas()
_dpbtrf = _routine(_lapack, "dpbtrf", 5)  # n, kd, ab, ldab, info
_dpbtrs = _routine(_lapack, "dpbtrs", 8)  # n, kd, nrhs, ab, ldab, b, ldb, info
_dgesv = _routine(_lapack, "dgesv", 8, uplo=False)  # n, nrhs, a, lda, ipiv, b, ldb, info


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


def dgesv(a, b):
    """LAPACK's dgesv, LU with partial pivoting: (x, info), x a new array with a x = b.

    Each column of b along its first axis is a right-hand side, and a is
    left as it is. Raises ValueError unless a is square with one column per
    entry of that axis. An empty system never reaches LAPACK.
    """
    lu = np.array(a, dtype=np.float64, order="F")
    x = np.array(b, dtype=np.float64, order="F")
    size = len(x)
    if lu.shape != (size, size):
        raise ValueError(f"matrix of shape {lu.shape} with right-hand side of shape {x.shape}")
    if size == 0:
        return x, 0
    pivots, info = np.empty(size, np.int32), ctypes.c_int()
    _dgesv(_int(size), _int(x.size // size), lu.ctypes.data, _int(size), pivots.ctypes.data,
           x.ctypes.data, _int(size), ctypes.byref(info))
    return x, info.value


def solve_spd(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b, A SPD by its lower ``band``, which the factor overwrites; x is new.

    Deterministic banded Cholesky in the given order; the caller checks the
    residual. Raises ValueError unless b's first axis has one entry per
    column of the band, NotPositiveDefiniteError on a nonpositive leading
    minor, and ValueError on an argument LAPACK rejects. As in SciPy, an
    empty b never reaches LAPACK, which may reject a zero leading dimension.
    """
    b = np.asarray(b, dtype=float)
    size = band.shape[1]
    if b.shape[:1] != (size,):
        raise ValueError(f"right-hand side of shape {b.shape} for {size} unknowns")
    if b.size == 0:
        return np.zeros_like(b)
    factor, info = dpbtrf(band)
    if info > 0:
        raise NotPositiveDefiniteError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    x, info = dpbtrs(factor, b)
    if info != 0:
        raise ValueError(f"dpbtrs failed with info {info}")
    return x
