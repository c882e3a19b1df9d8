"""The banded LQ kernels checked directly against the dense oracles."""

import warnings
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from numpy.linalg import _umath_linalg

from fotd.banded import (COST_CHUNK, LQ, PIVOT_TOL, LQBands, _band, _kkt_band,
                         _kkt_stages, _test_band, definiteness_pivots_ok,
                         junction_stages, even_batches, pivot_failure,
                         solve_kkt_band, solve_lq_kkt, solve_lq_pieces,
                         solve_lq_riccati, solve_lq_windows, stage_windows)
from fotd.exceptions import (IndefiniteStageError, LinearSolverError,
                             SingularKKTError, SingularStageError)
from fotd.newton import default_definiteness_constant

from oracles import (definiteness_pivot, dense_lq_kkt, dense_lq_matrices,
                     dense_lq_solve, dense_reduced_hessian_eigmin, lapack_band,
                     lq_data, reference_riccati_sweep, riccati_stage_pivot,
                     singular_gain_block, stage_interleaving)

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


def in_matrix(rows, n, diag, lower, upper):
    """Mask of a band's entries (i, j), row diag + i - j, with 0 <= i < n."""
    r, j = np.indices((rows, n))
    i = r - diag + j
    return (i >= 0) & (i < n) & (i - j <= lower) & (j - i <= upper)


@pytest.mark.parametrize("nx,nu", [(1, 1), (2, 1), (1, 3), (3, 3)])
def test_band_windows_are_the_bands_of_their_stages(nx, nu):
    T = 9
    d = lq_data(T, nx, nu, seed=nx + 4 * nu)
    terminal = lq_data(0, nx, nu, seed=1).Q[0]
    bands = LQBands(LQ(**vars(d)))
    # The split parts add up to the one test band, entry for entry.
    assert np.array_equal(bands.gtg * 7.5 + bands.hess,
                          _test_band(*blocks(d), 7.5))
    for first, last in ((0, T), (0, 4), (3, 7), (5, T), (2, 3)):
        k = slice(first, last)
        Q = d.Q[first:last + 1].copy()
        Q[-1] = terminal
        own = (Q, d.S[k], d.R[k], d.A[k], d.B[k])
        want, bw = _kkt_band(*own)
        got = bands.kkt_window(first, last, terminal)
        assert got.flags.f_contiguous and got.shape == want.shape
        mask = in_matrix(*want.shape, 2 * bw, bw, bw)
        assert np.array_equal(got[mask], want[mask])
        want = _test_band(*own, 7.5)
        got = bands.test_window(first, last, 7.5, terminal)
        assert got.flags.f_contiguous and got.shape == want.shape
        mask = in_matrix(*want.shape, 0, want.shape[0] - 1, 0)
        assert np.array_equal(got[mask], want[mask])
        n = (last - first) * (2 * nx + nu) + 2 * nx
        want = _kkt_stages(d.gx[first:last + 1], d.gu[k], d.c0, d.cdyn[k])
        got = bands.stages_window(first, last, d.c0)
        assert np.array_equal(got.reshape(-1)[:n], want.reshape(-1)[:n])


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
    with pytest.raises(SingularKKTError) as err:
        solve_lq_kkt(*blocks(d), *rhs(d))
    assert isinstance(err.value, LinearSolverError)
    # The first zero pivot is q_0's first column, 2 n_x + 1 = 5 (1-based).
    assert (err.value.stage, err.value.info, err.value.subproblem) == (0, 5, None)
    assert str(err.value) == ("banded KKT factorization failed at stage 0: "
                              "LAPACK dgbsv met a zero pivot (info=5)")
    # Only stage 2's controls vanish: column 2 (2 n_x + n_u) + 2 n_x + 1.
    d = lq_data(4, 2, 3, seed=0)
    d.S[2], d.R[2], d.B[2] = 0.0, 0.0, 0.0
    with pytest.raises(SingularKKTError) as err:
        solve_lq_kkt(*blocks(d), *rhs(d))
    assert (err.value.stage, err.value.info) == (2, 19)


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


@pytest.mark.parametrize("nx,nu", [(1, 1), (2, 3), (3, 2)])
def test_a_kkt_band_solves_a_fortran_ordered_rhs_as_a_c_ordered_one(nx, nu):
    # A right-hand side that is not C-contiguous has no flat view, so the
    # solve must land in the buffer the solution is read from.
    d = lq_data(6, nx, nu, seed=nx + nu)
    want = solve_kkt_band(*_kkt_band(*blocks(d)), _kkt_stages(*rhs(d)), nx)
    for stages in (np.asfortranarray(_kkt_stages(*rhs(d))),
                   np.repeat(_kkt_stages(*rhs(d)), 2, axis=1)[:, ::2]):
        assert not stages.flags.c_contiguous
        before = stages.copy()
        got = solve_kkt_band(*_kkt_band(*blocks(d)), stages, nx)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert not np.array_equal(got[0], before[:, nx:2 * nx])


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


# T runs across the edges of the sweep's chunks of COST_CHUNK // K stages.
@pytest.mark.parametrize("nx, nu", [(1, 1), (3, 5), (4, 4), (16, 16)])
@pytest.mark.parametrize("K", [1, 2, 8])
def test_riccati_sweep_matches_the_reference_bit_for_bit(K, nx, nu):
    C = COST_CHUNK // K
    for T in (1, C - 1, C, C + 1, 2 * C + 1, 60):
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
    # The reference raises np.linalg.solve's untyped LinAlgError where the
    # gain's LU meets an exactly singular Rt that passed the pivot test; the
    # sweep raises a LinearSolverError naming the member and the stage.
    Rt = singular_gain_block()
    if Rt is None:
        pytest.skip("this LAPACK factors every candidate without a zero pivot")
    d = lq_data(3, 1, 2, seed=0)
    d.B[0] = 0.0  # Rt_0 = R_0 exactly
    d.R[0] = Rt
    args = stacked([lq_data(3, 1, 2, seed=1), d])
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        reference_riccati_sweep(*args)
    # the reference gets through stages 2 and 1: stage 0 is its singular one
    reference_riccati_sweep(*(a[:, 1:] for a in args[:7]), args[8][:, 0],
                            args[8][:, 1:])
    with pytest.raises(SingularStageError) as err:
        solve_lq_riccati(*args)
    assert isinstance(err.value, LinearSolverError)
    assert (err.value.member, err.value.stage) == (1, 0)


def test_a_singular_gain_is_named_past_a_member_with_an_infinite_gradient():
    # At stage 2 member 0's gain solve turns its infinite gradient into NaN
    # without a singular LU; member 1's LU is singular there, and only its
    # gain is NaN throughout.
    Rt = singular_gain_block()
    if Rt is None:
        pytest.skip("this LAPACK factors every candidate without a zero pivot")
    ds = [lq_data(3, 1, 2, seed=j) for j in range(2)]
    for d in ds:
        d.B[2] = 0.0  # Rt_2 = R_2 exactly
    ds[0].R[2] = np.array([[2.0, 1.0], [1.0, 2.0]])
    ds[0].gu[2] = np.inf
    ds[1].R[2] = Rt
    with pytest.raises(SingularStageError) as err:
        solve_lq_riccati(*stacked(ds))
    assert (err.value.member, err.value.stage) == (1, 2)


def test_a_failed_sweep_is_named_without_np_linalg(monkeypatch):
    # The failing member, its stage and its margin are read from the batch
    # that failed and, after a breakdown, from one dpotrf of that member.
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg called on the sweep's failure path")

    want = {kind: sweep_outcome(solve_lq_riccati, failing_batch(kind))
            for kind in ("breakdown", "small pivot", "nan")}
    monkeypatch.setattr(np.linalg, "cholesky", refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    for kind, outcome in want.items():
        assert outcome[:3] == (IndefiniteStageError, 1, 4)
        assert sweep_outcome(solve_lq_riccati, failing_batch(kind)) == outcome


@pytest.mark.parametrize("stage", [3, 5])
def test_pieces_name_the_whole_sweeps_singular_stage(stage):
    # A singular gain solve at a junction's own control (stage 3) or in the
    # piece after it (stage 5) makes the pieces run again as the whole sweep.
    Rt = singular_gain_block()
    if Rt is None:
        pytest.skip("this LAPACK factors every candidate without a zero pivot")
    d = lq_data(7, 1, 2, seed=2)
    d.S[3] = d.A[3] = d.B[3] = 0.0
    d.B[stage], d.R[stage] = 0.0, Rt
    args = [getattr(d, name) for name in FIELDS]
    junctions = junction_stages(d.S, d.A, d.B)
    assert list(junctions) == [3]
    with pytest.raises(SingularStageError) as whole:
        solve_lq_riccati(*(a[None] for a in args))
    with pytest.raises(SingularStageError) as got:
        solve_lq_pieces(*args, junctions)
    assert (got.value.member, got.value.stage) == (0, whole.value.stage) == (
        0, stage)


@pytest.mark.parametrize("pivots", [(-1.0, 1.0), (1e-12, 1.0)],
                         ids=["breakdown", "small pivot"])
def test_pieces_name_the_whole_sweeps_indefinite_junction(pivots):
    # A junction's R_3 that breaks down, or factors with a pivot below
    # PIVOT_TOL, makes the pieces run again as the whole sweep, which meets
    # it at stage 3: the same stage and margin, as member 0.
    d = lq_data(7, 1, 2, seed=2)
    d.S[3] = d.A[3] = d.B[3] = 0.0
    d.R[3] = np.diag(pivots)
    args = [getattr(d, name) for name in FIELDS]
    junctions = junction_stages(d.S, d.A, d.B)
    assert list(junctions) == [3]
    with pytest.raises(IndefiniteStageError) as whole:
        solve_lq_riccati(*(a[None] for a in args))
    with pytest.raises(IndefiniteStageError) as got:
        solve_lq_pieces(*args, junctions)
    assert (got.value.member, got.value.stage) == (0, 3)
    assert (whole.value.member, whole.value.stage) == (0, 3)
    assert np.float64(got.value.margin).tobytes() == np.float64(
        whole.value.margin).tobytes()
    assert got.value.margin == pivots[0] - PIVOT_TOL


def junction_draw(seed, junctions, T=12, nx=3):
    """``lq_data`` with S_k = A_k = B_k = 0 at each junction k.

    Each junction's R_k is non-diagonal, of 2-5 controls, and scaled by a
    factor from 1e-3 to 1e3.
    """
    rng = np.random.default_rng(seed)
    d = lq_data(T, nx, int(rng.integers(2, 6)), seed=seed)
    for k in junctions:
        d.S[k] = d.A[k] = d.B[k] = 0.0
        d.R[k] *= 10.0 ** rng.uniform(-3.0, 3.0)
    return d


@pytest.mark.parametrize("junctions", [[3, 7], [0], [1], [4, 5], [10], [11]],
                         ids=["3-7", "stage-0", "stage-1", "consecutive",
                              "stage-T-2", "stage-T-1"])
def test_pieces_solve_and_test_as_the_whole_horizon(monkeypatch, junctions):
    # The pieces' sweep is the whole horizon's bit for bit, junction
    # controls included, and their band test gives the whole band's result:
    # its pass, its smallest pivot and its breakdown.
    for seed in range(20):
        d = junction_draw(seed, junctions)
        args = [getattr(d, name) for name in FIELDS]
        assert list(junction_stages(d.S, d.A, d.B)) == junctions
        whole = solve_lq_riccati(*(a[None] for a in args))
        for got, want in zip(solve_lq_pieces(*args, junctions), whole):
            assert got.shape == want[0].shape
            assert got.tobytes() == want[0].tobytes()
        c = default_definiteness_constant(d)
        R = d.R.copy()
        assert pivot_failure(*blocks(d), c, junctions) is None
        for tol, stages in ((1e6, []), (PIVOT_TOL, [junctions[-1]]),
                            (PIVOT_TOL, [junctions[0], 9])):
            monkeypatch.setattr("fotd.banded.PIVOT_TOL", tol)
            d.R = R.copy()
            d.R[stages] = -1e4 * np.eye(d.R.shape[1])
            want = pivot_failure(*blocks(d), c)
            assert want[0] == min(stages, default=want[0])
            assert pivot_failure(*blocks(d), c, junctions) == want


def test_an_overflowed_band_fails_the_test():
    # A = 1e200 overflows every A_k^T A_k to inf.  The band's factorization
    # completes with inf pivots, which certify nothing: the test fails at
    # the first of them with an infinite margin.  The overflow itself is no
    # failure, so it raises no RuntimeWarning where warnings are errors.
    T = 4
    Q, S, R, A, B = (np.full((n, 1, 1), v) for n, v in (
        (T + 1, 1.0), (T, 0.0), (T, 1.0), (T, 1e200), (T, 1.0)))
    assert pivot_failure(Q, S, R, A, B, 1.0) == (0, np.inf)
    assert not definiteness_pivots_ok(Q, S, R, A, B, 1.0)
    # So does a window of the horizon's bands, as narrow subproblems are.
    zeros = np.zeros((T + 1, 1))
    bands = LQBands(LQ(Q, S, R, A, B, zeros, zeros[:T], zeros[0], zeros[:T]))
    with pytest.raises(IndefiniteStageError) as err:
        bands.solve(0, T, Q[T], zeros[0], 1.0)
    assert (err.value.stage, err.value.margin) == (0, np.inf)
    # Past a junction at stage 1, the piece that overflows is not the one
    # with the smallest finite pivot; it fails the test all the same.
    A[0], A[1], B[1] = 1.0, 0.0, 0.0
    assert pivot_failure(Q, S, R, A, B, 1.0) == (2, np.inf)
    assert pivot_failure(Q, S, R, A, B, 1.0, [1]) == (2, np.inf)


def overflowing_sweep(A: float, c0: float):
    """One member of T=3 stages, n_x = n_u = 1, Q = R = B = 1, S = 0 and
    zero gradients and cdyn."""
    T = 3
    values = dict(Q=1.0, S=0.0, R=1.0, A=A, B=1.0, gx=0.0, gu=0.0, c0=c0, cdyn=0.0)
    shapes = dict(Q=(T + 1, 1, 1), gx=(T + 1, 1), gu=(T, 1), c0=(1,), cdyn=(T, 1))
    return [np.full((1,) + shapes.get(name, (T, 1, 1)), values[name])
            for name in FIELDS]


@pytest.mark.parametrize("A, c0, error", [
    (100.0, 1e307, LinearSolverError),  # the forward pass overflows
    (1e160, 0.0, IndefiniteStageError),  # the backward pass's products do
], ids=["forward", "backward"])
@pytest.mark.parametrize("action", ["error", "default", "ignore"])
def test_an_overflowing_sweep_fails_typed_under_any_warning_filter(
        A, c0, error, action):
    # An overflow that warned would escape as a RuntimeWarning where
    # warnings are errors, instead of as the sweep's own typed failure.
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(error):
            solve_lq_riccati(*overflowing_sweep(A, c0))


def test_a_junction_control_that_overflows_raises():
    # R_2 = 1e-9 passes the pivot test, and -R_2^{-1} gu_2 overflows.
    d = lq_data(6, 1, 1, seed=2)
    d.S[2] = d.A[2] = d.B[2] = 0.0
    d.R[2], d.gu[2] = 1e-9, 1e300
    args = [getattr(d, name) for name in FIELDS]
    assert list(junction_stages(d.S, d.A, d.B)) == [2]
    with pytest.raises(LinearSolverError, match="non-finite"):
        solve_lq_pieces(*args, [2])


# ---------------------------------------------------------------------------
# Windows of one horizon, batched
# ---------------------------------------------------------------------------

# (firsts, lasts, batches) on a horizon of 40 stages.
WINDOW_LAYOUTS = {
    # overlapping subproblems as make_plan(40, 4, 2) cuts them: two lengths,
    # each from evenly spaced starts
    "overlapping": ([0, 8, 18, 28], [12, 22, 32, 40], [[0, 3], [1, 2]]),
    # the pieces between junctions at stages 9, 19 and 29
    "pieces": ([0, 10, 20, 30], [9, 19, 29, 40], [[0, 1, 2], [3]]),
    # one length from uneven starts, each window a batch of one, beside an
    # evenly spaced pair
    "uneven": ([0, 10, 25, 2, 14], [10, 20, 35, 10, 22], [[0], [1], [2], [3, 4]]),
    # one length from evenly spaced starts given in descending order: one
    # batch, in order of start
    "descending": ([20, 10, 0], [25, 15, 5], [[2, 1, 0]]),
}


def window_layout(name, lq):
    """``solve_lq_windows``' arguments for layout ``name`` on ``lq``."""
    firsts, lasts, _ = WINDOW_LAYOUTS[name]
    nx = lq.Q.shape[1]
    if name == "overlapping":  # zero pins, terminal blocks Q + mu I
        return (lq, firsts, lasts, np.zeros((len(firsts), nx)),
                [lq.Q[b] + 25.0 * np.eye(nx) for b in lasts])
    if name == "pieces":  # each pinned to the cdyn of the junction before it
        return (lq, firsts, lasts, [lq.c0] + [lq.cdyn[a - 1] for a in firsts[1:]])
    return (lq, firsts, lasts, np.random.default_rng(3).standard_normal(
        (len(firsts), nx)))


def window_alone(lq, first, last, pin, terminal=None):
    """solve_lq_riccati of one window's own problem, from copies, alone."""
    Q = lq.Q[first:last + 1].copy()
    if terminal is not None:
        Q[-1] = terminal
    k = slice(first, last)
    own = LQ(Q, lq.S[k], lq.R[k], lq.A[k], lq.B[k], lq.gx[first:last + 1],
             lq.gu[k], np.array(pin), lq.cdyn[k])
    return [a[0] for a in solve_lq_riccati(*(a[None].copy() for a in own))]


@pytest.mark.parametrize("name", WINDOW_LAYOUTS)
def test_windows_solve_bit_for_bit_as_their_own_problems_alone(name):
    lq = LQ(**vars(lq_data(40, 4, 2, seed=7)))
    args = window_layout(name, lq)
    firsts, lasts, batches = WINDOW_LAYOUTS[name]
    assert even_batches(firsts, [b - a for a, b in zip(firsts, lasts)]) == batches
    before = [a.copy() for a in lq]
    got = solve_lq_windows(*args)
    assert len(got) == len(firsts)
    for i, part in enumerate(got):
        alone = window_alone(lq, firsts[i], lasts[i], args[3][i],
                             None if len(args) < 5 else args[4][i])
        for a, b in zip(part, alone):
            assert a.shape == b.shape and np.array_equal(a, b)
    assert all(np.array_equal(a, b) for a, b in zip(lq, before))


def test_a_failing_window_is_named_by_its_member_within_its_batch():
    lq = LQ(**vars(lq_data(40, 4, 2, seed=7)))
    # Stage 35 is only in window 3, [28, 40], member 1 of the batch [0, 3]
    # and its stage 7.
    lq.R[35] = -100.0 * np.eye(2)
    with pytest.raises(IndefiniteStageError) as err:
        solve_lq_windows(*window_layout("overlapping", lq))
    assert (err.value.member, err.value.stage) == (1, 7)
    with pytest.raises(IndefiniteStageError) as alone:
        solve_lq_windows(lq, [28], [40], np.zeros((1, 4)),
                         [lq.Q[40] + 25.0 * np.eye(4)])
    assert (alone.value.member, alone.value.stage) == (0, 7)
    assert alone.value.margin == err.value.margin


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
