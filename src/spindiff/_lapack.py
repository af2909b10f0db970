"""The solver's radial eigensolver, and one BLAS thread for the process.

The solver needs one LAPACK routine that numpy does not wrap: the
divide-and-conquer tridiagonal eigensolver ``stevd`` (Gu & Eisenstat,
SIAM J. Matrix Anal. Appl. 16, 1995) for the radial modes. numpy >= 2
wheels vendor an OpenBLAS (``numpy.libs/libscipy_openblas64_*``) that
exports it, so this module binds that library with ``ctypes`` and
imports no scipy: ``import scipy.linalg`` takes about 0.26 s, several
times the whole of a ``fit-d`` request. The library is opened with
``RTLD_NOLOAD``, which binds the copy numpy already loaded and never
loads a second one. ``stevd`` calls ``LAPACKE_dstevd``, bitwise the
eigenpairs of scipy's ``dstevd`` wrapper.

When this module loads, it pins that OpenBLAS to one thread for the
whole process (``openblas_set_num_threads(1)``), then retires its idle
worker pool (``blas_thread_shutdown_``). The order matters: a set made
after the shutdown starts the pool again, and its worker spins on. The
solver's products are thin, threads do not pay off on them, stall
whenever another process holds a core, and a woken worker spins for
about 40 ms after the call that woke it, through the single-threaded
work after it. With the pin, every ``np.matmul``, ``np.linalg.solve``
and ``stevd`` of the process, the solver's or not, runs on the calling
thread, whatever its size.

Where numpy vendors no such library (numpy 1.x wheels, conda or distro
builds), ``stevd`` comes from scipy (``_scipy_stevd``), and nothing is
pinned. ``LIBRARY`` is the path of the bound library, or None on that
route.
"""
from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

from .errors import NumericalBlowup

_P, _I64 = ctypes.c_void_p, ctypes.c_int64
_COL_MAJOR = 102  # LAPACKE's matrix layout for Fortran order


def _openblas():
    """(path, library) of numpy's vendored OpenBLAS, bound without
    loading it again, when it exports every routine used here; else
    None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs,
                                              "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            for name in ("scipy_LAPACKE_dstevd64_",
                         "scipy_openblas_set_num_threads64_",
                         "blas_thread_shutdown_"):
                getattr(lib, name)
        except (OSError, AttributeError):
            continue
        return path, lib
    return None


def stevd(d: np.ndarray, e: np.ndarray):
    """(w, z): all eigenpairs of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``, by LAPACK's divide-and-conquer
    driver ``dstevd``; w ascending, z orthogonal and Fortran-ordered.
    Raises ``NumericalBlowup`` when LAPACK reports a failure."""
    n = len(d)
    w = np.array(d, dtype=np.float64).reshape(n)  # dstevd overwrites d, e
    e = np.array(e, dtype=np.float64).reshape(n - 1)
    z = np.empty((n, n), order="F")
    info = _dstevd(_COL_MAJOR, b"V", n, w.ctypes.data, e.ctypes.data,
                   z.ctypes.data, n)
    if info:
        raise NumericalBlowup(f"dstevd: info = {info}")
    return w, z


def _scipy_stevd(d: np.ndarray, e: np.ndarray):
    """``stevd`` on scipy's ``dstevd`` wrapper, for a numpy that vendors
    no OpenBLAS to bind."""
    from scipy.linalg.lapack import dstevd

    w, z, info = dstevd(d, e)
    if info:
        raise NumericalBlowup(f"dstevd: info = {info}")
    return w, z


_found = _openblas()
LIBRARY = _found[0] if _found else None
if _found:
    _lib = _found[1]
    _dstevd = _lib.scipy_LAPACKE_dstevd64_
    _dstevd.restype = _I64
    _dstevd.argtypes = [ctypes.c_int, ctypes.c_char, _I64, _P, _P, _P, _I64]
    _lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    _lib.scipy_openblas_set_num_threads64_.restype = None
    _lib.blas_thread_shutdown_.argtypes = []
    _lib.blas_thread_shutdown_.restype = ctypes.c_int
    # one thread from here on, then retire the idle pool: in this order,
    # so that no worker is started again (see the module docstring)
    _lib.scipy_openblas_set_num_threads64_(1)
    _lib.blas_thread_shutdown_()
else:
    stevd = _scipy_stevd
