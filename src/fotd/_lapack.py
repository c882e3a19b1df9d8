"""LAPACK's ``dgbsv``, ``dpbtrf`` and ``dpotrf`` from the OpenBLAS NumPy loads.

NumPy's wheels ship an ILP64 OpenBLAS whose LAPACK symbols carry a
``scipy_`` prefix and a ``64_`` suffix, and ``import numpy`` loads it.  The
routines here call it through ``ctypes``, in the three forms that
:mod:`fotd.banded` uses and no others:

- ``dgbsv(k, ab, b) -> info`` factors the band ``ab`` (F-contiguous, with
  kl = ku = k and k rows of fill-in workspace on top) in place and solves
  the C-contiguous 1-D ``b`` in place;
- ``dpbtrf(ab) -> info`` factors the lower band ``ab`` by Cholesky in place;
- ``dpotrf(a) -> (factor, info)`` returns the lower Cholesky factor of a
  copy of ``a``, its other triangle kept as given.

Each raises :class:`LinearSolverError` when ``info`` < 0, i.e. LAPACK
rejected an argument as illegal.  An array that is not contiguous in the
form named, or is read-only, raises instead of being copied.  So solving
needs no ``scipy.linalg`` import, which about doubles the peak memory of
importing this package (30 against 57 MB with NumPy 2.4 and SciPy 1.17 on
x86-64 Linux).  Where the library or one of its symbols is missing,
``scipy.linalg.lapack``'s own routines are bound in the same forms, writing
their results back into the caller's arrays; :data:`LAPACK` names the
backend that loaded.

``ctypes`` releases the interpreter lock during each call, so threads may
run these routines at once: each call passes its integer arguments, and
gets ``info`` back, through a ``ctypes`` array of its own.  With
``workers`` above 1 the driver's helper thread runs a direction's calls
while the calling thread runs the Hessian test's ``dpbtrf``
(:mod:`fotd.driver`).
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

from .exceptions import LinearSolverError

# Each routine's arguments are addresses, one per Fortran argument, and a
# CHARACTER argument's hidden length after them.
_ARGTYPES = {
    "dgbsv": [ctypes.c_void_p] * 10,
    "dpbtrf": [ctypes.c_void_p] * 6 + [ctypes.c_size_t],
    "dpotrf": [ctypes.c_void_p] * 5 + [ctypes.c_size_t],
}


def _address(a: np.ndarray) -> int:
    """The address of a C-contiguous, writable array's first element."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _legal(routine: str, info: int) -> int:
    """``info``, unless it is -i for an illegal i-th argument of ``routine``."""
    if info < 0:
        raise LinearSolverError(f"LAPACK {routine} rejected its argument "
                                f"{-info} as illegal (info={info})")
    return info


def _wrap(gbsv, pbtrf, potrf):
    """The module's three forms, calling the ctypes routines."""

    def dgbsv(k, ab, b):
        n = ab.shape[1]
        # n, kl, ku, nrhs, ldab, ldb, info, then the n pivots
        ints = (ctypes.c_int64 * (7 + n))(n, k, k, 1, ab.shape[0], max(n, 1))
        p = ctypes.addressof(ints)
        gbsv(p, p + 8, p + 16, p + 24, _address(ab.T), p + 32, p + 56,
             _address(b), p + 40, p + 48)
        return _legal("dgbsv", ints[6])

    def dpbtrf(ab):
        ints = (ctypes.c_int64 * 4)(ab.shape[1], ab.shape[0] - 1, ab.shape[0])
        p = ctypes.addressof(ints)  # n, kd, ldab, info
        pbtrf(b"L", p, p + 8, _address(ab.T), p + 16, p + 24, 1)
        return _legal("dpbtrf", ints[3])

    def dpotrf(a):
        a = a.copy(order="F")
        ints = (ctypes.c_int64 * 3)(a.shape[0], max(a.shape[0], 1))
        p = ctypes.addressof(ints)  # n, lda, info
        potrf(b"L", p, _address(a.T), p + 8, p + 16, 1)
        return a, _legal("dpotrf", ints[2])

    return dgbsv, dpbtrf, dpotrf


def _scipy():
    """``scipy.linalg.lapack``'s routines in :func:`_wrap`'s forms."""
    from scipy.linalg import lapack

    def dgbsv(k, ab, b):
        ab[...], _, b[...], info = lapack.dgbsv(k, k, ab, b, overwrite_ab=1,
                                                overwrite_b=1)
        return _legal("dgbsv", info)

    def dpbtrf(ab):
        ab[...], info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        return _legal("dpbtrf", info)

    def dpotrf(a):
        factor, info = lapack.dpotrf(a, lower=1, clean=0)
        return factor, _legal("dpotrf", info)

    return dgbsv, dpbtrf, dpotrf


def _load():
    """``(backend, dgbsv, dpbtrf, dpotrf)``: NumPy's OpenBLAS, else scipy's.

    NumPy's library is found beside the loaded ``numpy`` package and opened
    only if ``numpy`` has loaded it already.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    try:
        if len(paths) != 1:
            raise OSError(f"{len(paths)} libscipy_openblas64_ in {libs}")
        lib = ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD)
        routines = [getattr(lib, f"scipy_{name}_64_") for name in _ARGTYPES]
    except (OSError, AttributeError) as err:
        return (f"scipy.linalg.lapack ({type(err).__name__}: {err})",
                *_scipy())
    for routine, argtypes in zip(routines, _ARGTYPES.values()):
        routine.argtypes, routine.restype = argtypes, None
    return (f"ctypes {paths[0]}", *_wrap(*routines))


LAPACK, dgbsv, dpbtrf, dpotrf = _load()
