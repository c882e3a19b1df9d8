"""LAPACK's ``dgbsv``, ``dpbtrf`` and ``dpotrf`` from the OpenBLAS NumPy loads.

NumPy's wheels ship an ILP64 OpenBLAS whose LAPACK symbols carry a
``scipy_`` prefix and a ``64_`` suffix, and ``import numpy`` loads it.  The
routines here call it through ``ctypes`` with the call forms and results
of ``scipy.linalg.lapack``'s wrappers (``dpotrf`` as with ``clean=0``: the
other triangle keeps the input's entries), so solving needs no
``scipy.linalg`` import, which about doubles the peak memory of importing
this package (30 against 57 MB with NumPy 2.4 and SciPy 1.17 on x86-64
Linux).  Where the library or one of its symbols is missing,
``scipy.linalg.lapack``'s own routines are bound instead; :data:`LAPACK`
names the backend that loaded.

``ctypes`` releases the interpreter lock during each call, so threads may
run these routines at once: each call passes its integer arguments, and
gets ``info`` back, through a ``ctypes`` array of its own.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

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


def _wrap(gbsv, pbtrf, potrf):
    """``scipy.linalg.lapack``-style functions calling the ctypes routines."""

    def dgbsv(kl, ku, ab, b, overwrite_ab=0, overwrite_b=0):
        ab = np.array(ab, np.float64, order="F", copy=not overwrite_ab or None)
        b = np.array(b, np.float64, order="F", copy=not overwrite_b or None)
        n = ab.shape[1]
        if b.shape[0] != n:
            raise ValueError(f"dgbsv: b has {b.shape[0]} rows, ab {n} columns")
        # n, kl, ku, nrhs, ldab, ldb, info, then the n pivots
        ints = (ctypes.c_int64 * (7 + n))(
            n, kl, ku, b.shape[1] if b.ndim == 2 else 1, ab.shape[0], max(n, 1))
        p = ctypes.addressof(ints)
        gbsv(p, p + 8, p + 16, p + 24, _address(ab.T), p + 32, p + 56,
             _address(b.T), p + 40, p + 48)
        # scipy's pivots count from 0
        return ab, np.frombuffer(ints, np.int64, n, 56) - 1, b, ints[6]

    def dpbtrf(ab, lower=0, overwrite_ab=0):
        ab = np.array(ab, np.float64, order="F", copy=not overwrite_ab or None)
        ints = (ctypes.c_int64 * 4)(ab.shape[1], ab.shape[0] - 1, ab.shape[0])
        p = ctypes.addressof(ints)  # n, kd, ldab, info
        pbtrf(b"L" if lower else b"U", p, p + 8, _address(ab.T), p + 16,
              p + 24, 1)
        return ab, ints[3]

    def dpotrf(a, lower=0):
        a = np.array(a, np.float64, order="F")
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"dpotrf: a of shape {a.shape} is not square")
        ints = (ctypes.c_int64 * 3)(n, max(n, 1))
        p = ctypes.addressof(ints)  # n, lda, info
        potrf(b"L" if lower else b"U", p, _address(a.T), p + 8, p + 16, 1)
        return a, ints[2]

    return dgbsv, dpbtrf, dpotrf


def _scipy():
    """``scipy.linalg.lapack``'s routines, called as :func:`_wrap`'s are."""
    from scipy.linalg import lapack
    return lapack.dgbsv, lapack.dpbtrf, functools.partial(lapack.dpotrf,
                                                          clean=0)


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
