"""The solver's two LAPACK routines, on the OpenBLAS that numpy loaded.

The solver needs only two: the MRRR tridiagonal eigensolver ``stemr``
(Dhillon & Parlett, Linear Algebra Appl. 387, 2004) for the radial
modes, and a dense complex LU solve for the pump's capacitance systems.
numpy >= 2 wheels vendor an OpenBLAS (``numpy.libs/libscipy_openblas64_*``)
that exports both, so this module binds that library with ``ctypes``
and imports no scipy: ``import scipy.linalg`` takes about 0.26 s, several
times the whole of a ``fit-d`` request. The library is opened with
``RTLD_NOLOAD``, which binds the copy numpy already loaded and never
loads a second one.

  * ``stemr`` calls ``LAPACKE_dstemr``, bitwise the eigenpairs of scipy's
    ``eigh_tridiagonal(..., lapack_driver="stemr")``.
  * ``lu_solve`` factors with the unblocked ``zgetf2`` and solves with
    ``zgetrs``. The library's ``zgesv`` and ``zgetrf`` go multi-threaded
    from 100 unknowns (n^2 >= 10000) and wake a worker, which then spins
    on through the single-threaded work after them; ``zgetf2`` never
    does, and ``zgetrs`` with one right-hand side stays on one thread.
    Below 100 unknowns, where ``zgetrf`` stays on one thread, it is
    hardly faster on the pump's systems (36 against 37 us at the 40
    unknowns of the fit-d grid).

Both run on the calling thread. When this module loads, it retires
numpy's idle OpenBLAS worker pool (``blas_thread_shutdown_``): a worker
spins for about 40 ms after the library starts it, and with no slow
import to hide it, that spin would fall into the first request. OpenBLAS
starts the pool again on the next threaded call, and no solver product
makes one (``solver._ONE_THREAD_MADDS``). The one caveat: import
spindiff before other threads of the process run threaded BLAS, since
the pool is shut down under them.

Where numpy vendors no such library (numpy 1.x wheels, conda or distro
builds), both routines come from scipy (``_scipy_routines``), and the
pool is left alone. ``LIBRARY`` is the path of the bound library, or
None on that route.
"""
from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

from .errors import NumericalBlowup

_P, _I64 = ctypes.c_void_p, ctypes.c_int64
_COL_MAJOR = 102  # LAPACKE's matrix layout for Fortran order
_TRANSPOSE = ctypes.c_char_p(b"T")


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
            for name in ("scipy_LAPACKE_dstemr64_", "scipy_zgetf2_64_",
                         "scipy_zgetrs_64_", "blas_thread_shutdown_"):
                getattr(lib, name)
        except (OSError, AttributeError):
            continue
        return path, lib
    return None


def stemr(d: np.ndarray, e: np.ndarray):
    """(w, z): all eigenpairs of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``, by LAPACK's MRRR driver
    ``dstemr``; w ascending, z orthogonal and Fortran-ordered. Raises
    ``NumericalBlowup`` when LAPACK reports a failure or fewer than
    len(d) eigenpairs."""
    n = len(d)
    d = np.array(d, dtype=np.float64).reshape(n)  # dstemr overwrites d, e
    e_full = np.zeros(n)  # dstemr takes n entries, the last as workspace
    e_full[:-1] = np.asarray(e, dtype=np.float64).reshape(n - 1)
    w, z = np.empty(n), np.empty((n, n), order="F")
    m, tryrac = _I64(0), _I64(1)
    isuppz = np.empty(2 * n, dtype=np.int64)
    info = _dstemr(_COL_MAJOR, b"V", b"A", n, d.ctypes.data,
                   e_full.ctypes.data, 0.0, 0.0, 0, 0, ctypes.byref(m),
                   w.ctypes.data, z.ctypes.data, n, n, isuppz.ctypes.data,
                   ctypes.byref(tryrac))
    if info or m.value != n:
        raise NumericalBlowup(f"dstemr: info = {info}, {m.value} of {n} "
                              f"eigenpairs")
    return w, z


def lu_solve(a: np.ndarray, b: np.ndarray):
    """(x, info): the solution of a x = b, a square and b a vector, by
    LU with partial pivoting (``zgetf2``, ``zgetrs``), as scipy's
    ``zgesv`` returns it. info > 0 is a zero pivot (a singular a), and x
    is then not a solution. Both are overwritten when they are
    C-contiguous complex128 arrays, as the solver passes them.

    The C-ordered a is its transpose in Fortran order, so that is what
    LAPACK factors, and ``zgetrs`` solves with the transpose of the
    factors. The integer arguments, the pivots and ``info`` share one
    buffer, and every array goes in as a raw pointer: with numpy's
    ``ndpointer`` argument types a 40-unknown solve took 137 us, not 48,
    which would add some 16 ms to the 180 solves of a ``fit-d``."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    n = b.size
    if a.shape != (n, n) or b.ndim != 1:
        raise ValueError(f"lu_solve needs an n x n matrix and an n-vector, "
                         f"got {a.shape} and {b.shape}")
    # n, nrhs = 1, info, then the n pivots
    ints = (_I64 * (n + 3))(n, 1)
    p = ctypes.addressof(ints)
    a_p = ctypes.addressof(ctypes.c_char.from_buffer(a))
    _zgetf2(p, p, a_p, p, p + 24, p + 16)
    if ints[2] == 0:
        _zgetrs(_TRANSPOSE, p, p + 8, a_p, p, p + 24,
                ctypes.addressof(ctypes.c_char.from_buffer(b)), p, p + 16, 1)
    return b, ints[2]


def _scipy_routines():
    """(stemr, lu_solve) on scipy.linalg, for a numpy that vendors no
    OpenBLAS to bind: ``eigh_tridiagonal`` with the ``stemr`` driver and
    ``zgesv``."""
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import zgesv

    def scipy_stemr(d, e):
        return eigh_tridiagonal(d, e, lapack_driver="stemr")

    def scipy_lu_solve(a, b):
        _, _, x, info = zgesv(a, b, overwrite_a=True, overwrite_b=True)
        return x, info

    return scipy_stemr, scipy_lu_solve


_found = _openblas()
LIBRARY = _found[0] if _found else None
if _found:
    _lib = _found[1]
    _dstemr = _lib.scipy_LAPACKE_dstemr64_
    _dstemr.restype = _I64
    _dstemr.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, _I64,
                        _P, _P, ctypes.c_double, ctypes.c_double, _I64,
                        _I64, _P, _P, _P, _I64, _I64, _P, _P]
    _zgetf2 = _lib.scipy_zgetf2_64_
    _zgetf2.restype, _zgetf2.argtypes = None, [_P] * 6
    _zgetrs = _lib.scipy_zgetrs_64_
    # the last argument is the hidden length of the Fortran character trans
    _zgetrs.restype, _zgetrs.argtypes = None, [_P] * 9 + [ctypes.c_size_t]
    # retire numpy's idle worker pool, once (see the module docstring)
    _lib.blas_thread_shutdown_.restype = ctypes.c_int
    _lib.blas_thread_shutdown_.argtypes = []
    _lib.blas_thread_shutdown_()
else:
    stemr, lu_solve = _scipy_routines()
