"""The LAPACK backend: NumPy's OpenBLAS through ctypes, else scipy's wrappers.

``fotd._lapack`` calls ``dgbsv``, ``dpbtrf`` and ``dpotrf`` in the OpenBLAS
that NumPy loads, in the three forms ``fotd.banded`` uses, and binds
``scipy.linalg.lapack``'s routines in the same forms where that library is
missing.  These tests hold the two backends to the same results byte for
byte, check that importing the package leaves ``scipy.linalg`` out, and
that a missing library or symbol falls back to scipy with the same
directions.
"""

import ctypes
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fotd
from fotd import _lapack, banded
from fotd.banded import _kkt_band, _test_band, pivot_failure, solve_lq_kkt
from fotd.benchmarks import (PlateSpec, make_initializations,
                             make_plate_problem, make_toy_problem,
                             toy_case_params)
from fotd.exceptions import LinearSolverError, SingularKKTError
from fotd.newton import assemble_newton_data, default_definiteness_constant

from oracles import lq_data, report_bytes

numpy_backend = pytest.mark.skipif(
    not _lapack.LAPACK.startswith("ctypes"),
    reason=f"LAPACK backend is {_lapack.LAPACK}")


@pytest.fixture
def scipy_lapack():
    """The routines that the fallback binds, by name."""
    pytest.importorskip("scipy.linalg.lapack")
    return SimpleNamespace(**dict(zip(("dgbsv", "dpbtrf", "dpotrf"),
                                      _lapack._scipy())))


def toy_lq(T):
    spec, _ = toy_case_params(1, N=T)
    p = make_toy_problem(spec)
    return assemble_newton_data(p, *make_initializations(p, 2, 0)[1])


def plate_lq(m):
    p = make_plate_problem(PlateSpec(m=m, N=60))
    return assemble_newton_data(p, *make_initializations(p, 2, 0)[1])


def wide_control_lq():
    """n_x = 1, n_u = 31: half-bandwidth 32, where LAPACK's blocked code runs."""
    return lq_data(20, 1, 31, seed=5)


def assert_same(got, want):
    """Two routines' result tuples agree: floats by bytes, the rest by value."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(g, np.ndarray) and g.dtype.kind == "f":
            assert g.shape == w.shape and g.tobytes("F") == w.tobytes("F")
        else:
            np.testing.assert_array_equal(g, w)


def both(scipy_lapack, name, *args):
    """``name`` of each backend on its own copies of ``args``; checked equal.

    What each call returns is compared, and so is every array it was given,
    as the call left it.  Returns what the ctypes backend's call returned.
    """
    returned, compared = [], []
    for backend in (_lapack, scipy_lapack):
        copies = [np.copy(a, order="F") if isinstance(a, np.ndarray) else a
                  for a in args]
        got = getattr(backend, name)(*copies)
        returned.append(got)
        compared.append((*(got if isinstance(got, tuple) else (got,)),
                         *(a for a in copies if isinstance(a, np.ndarray))))
    assert_same(*compared)
    return returned[0]


@numpy_backend
@pytest.mark.parametrize("make", [
    lambda: toy_lq(110), lambda: toy_lq(505), lambda: toy_lq(5000),
    lambda: plate_lq(4), lambda: plate_lq(6), wide_control_lq],
    ids=["toy-110", "toy-505", "toy-5000", "plate-m4", "plate-m6", "nu31"])
def test_backends_give_the_same_bytes(scipy_lapack, make):
    lq = make()
    blocks = (lq.Q, lq.S, lq.R, lq.A, lq.B)
    ab, bw = _kkt_band(*blocks)
    rhs = np.random.default_rng(0).standard_normal(ab.shape[1])
    assert both(scipy_lapack, "dgbsv", bw, ab, rhs) == 0
    c = default_definiteness_constant(lq)
    both(scipy_lapack, "dpbtrf", _test_band(*blocks, c))
    for r in lq.R[:3] @ lq.R[:3].transpose(0, 2, 1) + np.eye(lq.R.shape[1]):
        r[np.triu_indices_from(r, 1)] = np.nan  # never read
        # scipy's OpenBLAS may round the lower factor otherwise (0.3.30
        # against NumPy's 0.3.31 from n = 6 on); np.linalg.cholesky calls
        # the same routine of NumPy's library
        fact, info = _lapack.dpotrf(r)
        assert info == 0
        assert np.array_equal(np.triu(fact, 1), np.triu(r, 1), equal_nan=True)
        fact = np.tril(fact)
        assert fact.tobytes() == np.linalg.cholesky(r).tobytes()
        want, info = scipy_lapack.dpotrf(r)
        assert info == 0
        assert np.array_equal(np.triu(want, 1), np.triu(r, 1), equal_nan=True)
        np.testing.assert_allclose(fact, np.tril(want), rtol=0,
                                   atol=1e-13 * np.abs(fact).max())


@numpy_backend
def test_backends_agree_on_a_zero_pivot(scipy_lapack, monkeypatch):
    d = lq_data(4, 2, 3, seed=0)
    d.S[2], d.R[2], d.B[2] = 0.0, 0.0, 0.0  # stage 2's controls vanish
    args = (d.Q, d.S, d.R, d.A, d.B, d.gx, d.gu, d.c0, d.cdyn)
    ab, bw = _kkt_band(*args[:5])
    rhs = np.ones(ab.shape[1])
    assert both(scipy_lapack, "dgbsv", bw, ab, rhs) == 19
    errors = []
    for dgbsv in (_lapack.dgbsv, scipy_lapack.dgbsv):
        monkeypatch.setattr(banded, "dgbsv", dgbsv)
        with pytest.raises(SingularKKTError) as err:
            solve_lq_kkt(*args)
        errors.append((err.value.stage, err.value.info, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][:2] == (2, 19)


@numpy_backend
def test_backends_agree_on_a_cholesky_breakdown(scipy_lapack, monkeypatch):
    d = lq_data(6, 2, 3, seed=6, shift=-3.0)
    blocks = (d.Q, d.S, d.R, d.A, d.B)
    assert both(scipy_lapack, "dpbtrf", _test_band(*blocks, 1.0)) > 0
    _, info = both(scipy_lapack, "dpotrf", d.R[0])
    assert info > 0
    d.S[3], d.A[3], d.B[3] = 0.0, 0.0, 0.0  # a junction: R_3 ends piece 0
    failures = []
    for backend in (_lapack, scipy_lapack):
        monkeypatch.setattr(banded, "dpbtrf", backend.dpbtrf)
        failures.append((pivot_failure(*blocks, 1.0),
                         pivot_failure(*blocks, 1.0, junctions=[3])))
    assert failures[0] == failures[1]
    assert failures[0][0][1] < -banded.PIVOT_TOL  # a breakdown's margin


ILLEGAL_CALLS = {
    "dgbsv": lambda d: solve_lq_kkt(d.Q, d.S, d.R, d.A, d.B, d.gx, d.gu,
                                    d.c0, d.cdyn),
    "dpbtrf": lambda d: pivot_failure(d.Q, d.S, d.R, d.A, d.B, 10.0),
    "dpotrf-riccati": lambda d: banded._indefinite_member(
        np.array([[[1.0, 2.0], [2.0, 1.0]]]), np.full((1, 2), np.nan), 0),
}


# The address argument through which each ctypes routine returns info.
INFO_ARGUMENT = {"dgbsv": 9, "dpbtrf": 5, "dpotrf": 4}


def illegal_ctypes_routine(name):
    """A stand-in for a ctypes routine: it sets info = -4 and nothing else."""
    def call(*args):
        ctypes.c_int64.from_address(args[INFO_ARGUMENT[name]]).value = -4
    return call


@pytest.mark.parametrize("call", ILLEGAL_CALLS)
def test_an_illegal_argument_raises(monkeypatch, call):
    # Each backend's form of the routine raises, from a call that returns
    # info = -4, and the error reaches banded's caller unchanged.
    lapack = pytest.importorskip("scipy.linalg.lapack")
    routine = call.split("-")[0]
    real = getattr(lapack, routine)
    monkeypatch.setattr(lapack, routine,
                        lambda *a, **k: (*real(*a, **k)[:-1], -4))
    for routines in (_lapack._wrap(*map(illegal_ctypes_routine, INFO_ARGUMENT)),
                     _lapack._scipy()):
        monkeypatch.setattr(banded, routine,
                            dict(zip(INFO_ARGUMENT, routines))[routine])
        with pytest.raises(LinearSolverError) as err:
            ILLEGAL_CALLS[call](lq_data(6, 2, 3, seed=2))
        assert str(err.value) == (f"LAPACK {routine} rejected its argument 4 "
                                  f"as illegal (info=-4)")


@numpy_backend
def test_an_array_lapack_cannot_work_in_place_raises():
    d = lq_data(4, 2, 3, seed=0)
    ab, bw = _kkt_band(d.Q, d.S, d.R, d.A, d.B)
    rhs = np.ones(ab.shape[1])
    frozen = rhs.copy()
    frozen.flags.writeable = False
    for args in ((bw, np.ascontiguousarray(ab), rhs),  # not F-contiguous
                 (bw, ab, np.ones(2 * ab.shape[1])[::2]),  # strided
                 (bw, ab, frozen)):
        with pytest.raises(TypeError):
            _lapack.dgbsv(*args)
    with pytest.raises(TypeError):
        _lapack.dpbtrf(np.ascontiguousarray(_test_band(d.Q, d.S, d.R, d.A,
                                                       d.B, 1.0)))


# Run in a fresh interpreter: {patch} stands in for the loader's failure.
SCRIPT = """
import ctypes, hashlib, sys
{patch}
import fotd
from fotd import banded, benchmarks, decomposition, newton

print(banded.LAPACK)
digest = hashlib.sha256()
for p, M, init in ((benchmarks.make_toy_problem(
                       benchmarks.toy_case_params(1, N=500)[0]), 5, 1),
                   (benchmarks.make_plate_problem(
                       benchmarks.PlateSpec(m=4, N=100)), 10, 0)):
    nd = newton.modify_hessian(newton.assemble_newton_data(
        p, *benchmarks.make_initializations(p, 2, 0)[init]))
    for d in (decomposition.approximate_direction(
                  nd, decomposition.make_plan(p.N, M, 5), 25.0),
              newton.solve_full_newton(nd)):
        digest.update(d.dz.tobytes() + d.dlam.tobytes())
print(digest.hexdigest())
print("scipy.linalg" in sys.modules)
"""

MISSING_LIBRARY = """
def CDLL(*args, **kwargs):
    raise OSError("simulated: no such library")
ctypes.CDLL = CDLL
"""

MISSING_SYMBOL = """
class CDLL(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "scipy_dpbtrf_64_":
            raise AttributeError("simulated: no symbol " + name)
        return super().__getattr__(name)
ctypes.CDLL = CDLL
"""


def run_fresh(patch=""):
    """``(LAPACK, direction digest, scipy.linalg imported)`` of a fresh import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fotd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SCRIPT.format(patch=patch)],
                         env=env, capture_output=True, text=True, timeout=300,
                         check=True).stdout.splitlines()
    return out[0], out[1], out[2] == "True"


@pytest.fixture(scope="module")
def fresh():
    return run_fresh()


def test_import_binds_numpy_openblas_without_scipy_linalg(fresh):
    backend, _, imported = fresh
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    assert backend.startswith(f"ctypes {libs}{os.sep}libscipy_openblas64_")
    assert not imported  # not by the import, nor by solving


@pytest.mark.parametrize("patch", [MISSING_LIBRARY, MISSING_SYMBOL],
                         ids=["library", "symbol"])
def test_a_missing_library_or_symbol_falls_back_to_scipy(fresh, patch):
    pytest.importorskip("scipy.linalg.lapack")
    backend, digest, imported = run_fresh(patch)
    assert backend.startswith("scipy.linalg.lapack (")
    assert "simulated" in backend
    assert imported
    assert digest == fresh[1]


def test_two_workers_repeat_one_worker_bit_for_bit():
    """With ``workers=2`` the helper thread's band solves run outside the
    interpreter lock while the calling thread's ``dpbtrf`` tests the
    Hessian."""
    spec, _ = toy_case_params(1, N=500)
    p = make_toy_problem(spec)
    init = make_initializations(p, 2, 0)[1]
    cfg = fotd.SolverConfig(M=10, b=5)
    base = report_bytes(fotd.solve(p, cfg, init))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert report_bytes(fotd.solve(p, replace(cfg, workers=2),
                                           init)) == base
    finally:
        sys.setswitchinterval(interval)
