"""The banded LQ kernels checked directly against the dense oracles."""

from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from numpy.linalg import _umath_linalg

from fotd.banded import (PIVOT_TOL, _band, _kkt_band, _test_band,
                         definiteness_pivots_ok, pivot_failure, solve_lq_kkt,
                         solve_lq_riccati, stage_windows)
from fotd.exceptions import IndefiniteStageError, LinearSolverError
from fotd.newton import default_definiteness_constant

from oracles import (definiteness_pivot, dense_lq_kkt, dense_lq_matrices,
                     dense_lq_solve, dense_reduced_hessian_eigmin, lapack_band,
                     lq_data, reference_riccati_sweep, riccati_stage_pivot,
                     stage_interleaving)

# (T, n_x, n_u): a single stage, n_x != n_u both ways, and plate-sized blocks.
SHAPES = [(1, 2, 3), (1, 3, 1), (6, 2, 3), (5, 3, 1), (4, 16, 16)]


def blocks(d):
    return d.Q, d.S, d.R, d.A, d.B


def rhs(d):
    return d.gx, d.gu, d.c0, d.cdyn


@pytest.mark.parametrize("shape", SHAPES)
def test_solve_matches_dense_oracle(shape):
    d = lq_data(*shape, seed=sum(shape))
    for got, want in zip(solve_lq_kkt(*blocks(d), *rhs(d)),
                         dense_lq_solve(*blocks(d), *rhs(d))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("shape", SHAPES)
def test_pivot_test_agrees_with_reduced_hessian_sign(shape):
    T, nx, nu = shape
    # Shifting the stage blocks down makes them indefinite before the
    # reduced Hessian is (for all but one shape here), so the c * G^T G term
    # has to carry the verdict.
    seen = set()
    for shift in (0.7, -0.3, -1.0, -3.0, -10.0):
        d = lq_data(T, nx, nu, seed=T + nx, shift=shift)
        eigmin = dense_reduced_hessian_eigmin(*blocks(d))
        if abs(eigmin) < 1e-3:
            continue
        ok = definiteness_pivots_ok(*blocks(d), default_definiteness_constant(d))
        assert ok == (eigmin > 0), shift
        seen.add(eigmin > 0)
    assert seen == {True, False}


# Every (n_x, n_u) in {1, 2, 3}^2 plus plate-sized blocks, one and seven stages.
LAYOUTS = [(T, nx, nu) for T in (1, 7)
           for nx, nu in [*product((1, 2, 3), repeat=2), (16, 16)]]


@pytest.mark.parametrize("shape", LAYOUTS)
def test_kkt_band_is_the_interleaved_kkt_matrix_entry_for_entry(shape):
    T, nx, nu = shape
    d = lq_data(*shape, seed=sum(shape))
    order = stage_interleaving(T, nx, nu)
    K = dense_lq_kkt(*blocks(d))[np.ix_(order, order)]
    ab, bw = _kkt_band(*blocks(d))
    assert bw == 2 * nx + nu - 1
    assert np.array_equal(ab, lapack_band(K, bw, bw, fill=bw))


@pytest.mark.parametrize("shape", LAYOUTS)
def test_definiteness_band_is_h_plus_c_gtg_entry_for_entry(shape):
    T, nx, nu = shape
    d = lq_data(*shape, seed=sum(shape))
    H, G = dense_lq_matrices(*blocks(d))
    kd = 2 * nx + nu - 1
    # With c = 0 the band holds H's entries unchanged, so equality is exact.
    assert np.array_equal(_test_band(*blocks(d), 0.0),
                          lapack_band(np.tril(H), kd, 0))
    # With c > 0 the dense G^T G sums in another order: equal to rounding,
    # with the same entries zero.
    c = default_definiteness_constant(d)
    want = lapack_band(np.tril(H + c * (G.T @ G)), kd, 0)
    got = _test_band(*blocks(d), c)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_band_views_past_the_storage_raise():
    ab, blocks_at, diagonal_at = _band(4, 6, 1, 2)
    blocks_at(0, 0, 2, 2, 3)[...] = 1.0  # the last view that fits
    assert ab.sum() == 12.0
    with pytest.raises(ValueError):
        blocks_at(0, 0, 2, 2, 4)  # a fourth repeat starts past the last column
    with pytest.raises(ValueError):
        diagonal_at(2, 2, 2, 3)


def test_singular_kkt_raises():
    d = lq_data(4, 2, 3, seed=0)
    d.S[:] = 0.0
    d.R[:] = 0.0
    d.B[:] = 0.0  # the controls appear nowhere: zero columns in the KKT matrix
    with pytest.raises(LinearSolverError):
        solve_lq_kkt(*blocks(d), *rhs(d))


def test_non_finite_blocks_raise():
    d = lq_data(4, 2, 3, seed=0)
    d.Q[2, 0, 0] = np.nan
    with pytest.raises(LinearSolverError):
        solve_lq_kkt(*blocks(d), *rhs(d))
    assert not definiteness_pivots_ok(*blocks(d), 10.0)


def test_non_contiguous_inputs_are_accepted_and_left_alone():
    T, nx, nu, lo = 5, 3, 2, 2
    d = lq_data(T, nx, nu, seed=4)
    # Views the callers pass: Q sliced out of a longer horizon, S stored
    # transposed, A and B every other stage of a doubled array.
    Q_long = lq_data(T + 4, nx, nu, seed=5).Q
    Q_long[lo:lo + T + 1] = d.Q
    St = np.ascontiguousarray(d.S.transpose(0, 2, 1))
    A2 = np.repeat(d.A, 2, axis=0)
    B2 = np.repeat(d.B, 2, axis=0)
    views = SimpleNamespace(**dict(vars(d), Q=Q_long[lo:lo + T + 1],
                                   S=St.transpose(0, 2, 1), A=A2[::2], B=B2[::2]))
    assert not any(v.flags.c_contiguous for v in (views.S, views.A, views.B))
    before = {k: v.copy() for k, v in vars(views).items()}
    long_before = Q_long.copy()

    for got, want in zip(solve_lq_kkt(*blocks(views), *rhs(views)),
                         solve_lq_kkt(*blocks(d), *rhs(d))):
        assert np.array_equal(got, want)
    c = default_definiteness_constant(d)
    assert definiteness_pivots_ok(*blocks(views), c) == definiteness_pivots_ok(*blocks(d), c)
    assert definiteness_pivots_ok(*blocks(views), c)

    for k, v in vars(views).items():
        assert np.array_equal(v, before[k]), k
    assert np.array_equal(Q_long, long_before)


# ---------------------------------------------------------------------------
# The batched Riccati kernel
# ---------------------------------------------------------------------------

FIELDS = ("Q", "S", "R", "A", "B", "gx", "gu", "c0", "cdyn")


def stacked(ds):
    return [np.stack([getattr(d, name) for d in ds]) for name in FIELDS]


@pytest.mark.parametrize("shape", [(1, 2, 3), (1, 3, 1), (60, 2, 5),
                                   (60, 5, 2), (60, 16, 16)])
def test_riccati_matches_dense_oracle(shape):
    ds = [lq_data(*shape, seed=sum(shape) + j) for j in range(3)]
    assert all(np.any(d.c0 != 0) and np.any(d.cdyn != 0) for d in ds)
    out = solve_lq_riccati(*stacked(ds))
    for j, d in enumerate(ds):
        for got, want in zip(out, dense_lq_solve(*blocks(d), *rhs(d))):
            assert got[j].shape == want.shape
            assert np.max(np.abs(got[j] - want)) <= 1e-10 * np.max(np.abs(want))


def test_riccati_batch_members_match_solving_alone():
    ds = [lq_data(60, 16, 16, seed=j) for j in range(4)]
    together = solve_lq_riccati(*stacked(ds))
    for j, d in enumerate(ds):
        alone = solve_lq_riccati(*stacked([d]))
        for got, want in zip(together, alone):
            assert np.array_equal(got[j], want[0])


def test_riccati_names_the_first_failing_stage_and_member():
    ds = [lq_data(6, 3, 2, seed=j) for j in range(3)]
    ds[1].R[4] = -10.0 * np.eye(2)  # stages 5 and 4 are met first
    ds[2].R[2] = -10.0 * np.eye(2)
    with pytest.raises(IndefiniteStageError) as err:
        solve_lq_riccati(*stacked(ds))
    assert (err.value.member, err.value.stage) == (1, 4)
    # The Cholesky breaks down; the margin is the pivot it stopped at in
    # member 1's R_4 + B_4^T P_5 B_4, less the pivot tolerance.
    assert err.value.margin == pytest.approx(
        riccati_stage_pivot(*blocks(ds[1]), 4) - PIVOT_TOL, rel=1e-9)
    assert err.value.margin < -1.0
    with pytest.raises(IndefiniteStageError) as err:
        solve_lq_riccati(*stacked([ds[0], ds[2]]))
    assert (err.value.member, err.value.stage) == (1, 2)


def test_riccati_pivot_below_tolerance_carries_its_margin():
    # One stage: R + B^T Q_T B = 1 + (-1 + 1e-12) leaves a pivot of 1e-12.
    d = lq_data(1, 1, 1, seed=0)
    d.S[:] = 0.0
    d.R[:] = 1.0
    d.B[:] = 1.0
    d.Q[1] = -1.0 + 1e-12
    with pytest.raises(IndefiniteStageError) as err:
        solve_lq_riccati(*stacked([d]))
    assert err.value.stage == 0
    assert err.value.margin == pytest.approx(1e-12 - PIVOT_TOL, rel=1e-3)


def sweep_outcome(sweep, args):
    """What ``sweep`` returns, or the type and fields of what it raises."""
    try:
        return sweep(*args)
    except IndefiniteStageError as err:
        return (type(err), err.member, err.stage,
                np.float64(err.margin).tobytes())
    except (LinearSolverError, np.linalg.LinAlgError) as err:
        return type(err), str(err)


def assert_sweeps_agree(args):
    got = sweep_outcome(solve_lq_riccati, args)
    want = sweep_outcome(reference_riccati_sweep, args)
    if isinstance(want[0], type):
        assert got == want
        return
    assert all(isinstance(a, np.ndarray) for a in got)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


# T runs across the edges of the sweep's COST_CHUNK = 16 stage chunks.
@pytest.mark.parametrize("nx, nu", [(1, 1), (3, 5), (4, 4), (16, 16)])
@pytest.mark.parametrize("K", [1, 2, 8])
def test_riccati_sweep_matches_the_reference_bit_for_bit(K, nx, nu):
    for T in (1, 15, 16, 17, 33, 60):
        assert_sweeps_agree(stacked(
            [lq_data(T, nx, nu, seed=100 * K + T + j) for j in range(K)]))


@pytest.mark.parametrize("K", [1, 3])
def test_riccati_sweep_matches_the_reference_on_shared_read_only_blocks(K):
    # Blocks as the solvers hand them over: one zero S and one R broadcast
    # over every stage (stride 0), the rest overlapping read-only windows.
    d = lq_data(70, 4, 3, seed=K)
    T, step = 33, 12
    Q, gx, c = (stage_windows(a, 2, step, K, T + 1)
                for a in (d.Q, d.gx, np.vstack([d.c0, d.cdyn])))
    A, B, gu = (stage_windows(a, 2, step, K, T) for a in (d.A, d.B, d.gu))
    S = np.broadcast_to(np.zeros((3, 4)), (K, T, 3, 4))
    R = np.broadcast_to(d.R[0], (K, T, 3, 3))
    assert Q.flags.writeable == (K == 1) and S.strides[:2] == (0, 0)
    assert_sweeps_agree((Q, S, R, A, B, gx, gu, c[:, 0], c[:, 1:]))


def failing_batch(kind):
    """A batch of three whose member 1 fails at stage 4 of 6."""
    ds = [lq_data(6, 3, 2, seed=j) for j in range(3)]
    if kind == "breakdown":
        ds[1].R[4] = -10.0 * np.eye(2)
        ds[2].R[2] = -10.0 * np.eye(2)
    elif kind == "small pivot":
        # Stage 5 passes nothing back, so P_5 = Q_5; B_4 picks its first two
        # states, and R_4 + B_4^T P_5 B_4 = I + (-1 + 1e-12) I has pivots of
        # 1e-12, which the factorization takes and the test does not.
        d = ds[1]
        d.R[4] = np.eye(2)
        d.B[4] = 0.0
        d.B[4][0, 0] = d.B[4][1, 1] = 1.0
        d.Q[5] = np.diag([-1.0 + 1e-12, -1.0 + 1e-12, 1.0])
        d.S[5] = d.A[5] = d.B[5] = 0.0
    else:
        ds[1].R[4][1, 0] = np.nan
    return stacked(ds)


@pytest.mark.parametrize("kind", ["breakdown", "small pivot", "nan"])
def test_riccati_sweep_fails_as_the_reference_does(kind):
    args = failing_batch(kind)
    got = sweep_outcome(solve_lq_riccati, args)
    assert got[:3] == (IndefiniteStageError, 1, 4)
    margin = np.frombuffer(got[3])[0]
    assert {"breakdown": margin < -PIVOT_TOL, "nan": np.isnan(margin),
            "small pivot": -PIVOT_TOL < margin < 0}[kind]
    assert got == sweep_outcome(reference_riccati_sweep, args)


def test_riccati_sweep_raises_the_references_singular_solve():
    # Rt = [[a, b], [b, (b / a) b]] keeps a positive Cholesky pivot of
    # rounding size, at least PIVOT_TOL when the entries are ~1e7, while its
    # LU can end at an exact zero.  The sweep must raise what the reference
    # raises there, np.linalg.solve's LinAlgError.
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = 10.0 ** rng.uniform(6, 9) * rng.uniform([1, 0.1], [2, 1])
        Rt = np.array([[a, b], [b, b / a * b]])
        try:
            np.linalg.solve(Rt, np.eye(2))
        except np.linalg.LinAlgError:
            if np.diagonal(np.linalg.cholesky(Rt)).min() ** 2 >= PIVOT_TOL:
                break
    else:
        pytest.skip("this LAPACK factors every candidate without a zero pivot")
    d = lq_data(3, 1, 2, seed=0)
    d.B[0] = 0.0  # Rt_0 = R_0 exactly
    d.R[0] = Rt
    args = stacked([lq_data(3, 1, 2, seed=1), d])
    assert sweep_outcome(solve_lq_riccati, args) == (
        np.linalg.LinAlgError, "Singular matrix")
    assert_sweeps_agree(args)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_linalg_kernels_match_their_numpy_wrappers(n):
    # The sweep calls the gufuncs behind np.linalg.cholesky and
    # np.linalg.solve directly and relies on these properties of them.
    rng = np.random.default_rng(n)
    M = rng.standard_normal((4, n, n))
    spd = M @ M.transpose(0, 2, 1) + 0.1 * np.eye(n)
    rhs = rng.standard_normal((4, n, n + 1))
    assert np.array_equal(_umath_linalg.cholesky_lo(spd),
                          np.linalg.cholesky(spd))
    assert np.array_equal(_umath_linalg.solve(spd, rhs),
                          np.linalg.solve(spd, rhs))
    # A member that breaks down, or is singular, gets NaN and raises the
    # invalid flag; the others keep their results.
    bad = spd.copy()
    bad[2] = -np.eye(n)
    with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
        _umath_linalg.cholesky_lo(bad)
    with np.errstate(invalid="ignore"):
        L = _umath_linalg.cholesky_lo(bad)
        X = _umath_linalg.solve(np.where(np.arange(4)[:, None, None] == 2,
                                         0.0, spd), rhs)
    assert np.isnan(L[2]).all() and np.isnan(X[2]).all()
    keep = [0, 1, 3]
    assert np.array_equal(L[keep], np.linalg.cholesky(spd[keep]))
    assert np.array_equal(X[keep], np.linalg.solve(spd[keep], rhs[keep]))


def test_band_pivot_failure_names_stage_and_margin():
    d = lq_data(5, 3, 2, seed=1)
    c = default_definiteness_constant(d)
    assert pivot_failure(*blocks(d), c) is None
    d.R[3] = -1e3 * np.eye(2)
    stage, margin = pivot_failure(*blocks(d), c)
    # The Cholesky breaks down in a column of stage 3, at the pivot the
    # dense textbook factorization finds there.
    want_stage, pivot = definiteness_pivot(*blocks(d), c)
    assert stage == want_stage == 3
    assert margin == pytest.approx(pivot - PIVOT_TOL, rel=1e-9)
    assert not definiteness_pivots_ok(*blocks(d), c)


# Breakdown at the first stage, a middle one and the terminal block (T = 6).
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("stage", [0, 3, 6])
def test_band_pivot_failure_matches_the_textbook_cholesky(n, stage):
    T = 6
    d = lq_data(T, n, n, seed=10 + n)
    c = default_definiteness_constant(d)
    assert pivot_failure(*blocks(d), c) is None
    assert definiteness_pivot(*blocks(d), c)[1] >= PIVOT_TOL
    # The block is made negative enough that c G^T G cannot restore it.
    if stage < T:
        d.R[stage] = -1e4 * np.eye(n)
    else:
        d.Q[T] = -1e4 * np.eye(n)
    got_stage, margin = pivot_failure(*blocks(d), c)
    want_stage, pivot = definiteness_pivot(*blocks(d), c)
    assert got_stage == want_stage == stage
    assert margin < -1.0
    assert margin == pytest.approx(pivot - PIVOT_TOL, rel=1e-9)
