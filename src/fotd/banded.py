"""Structured linear algebra for stagewise linear-quadratic KKT systems.

Every Newton-type solve in this package reduces to one canonical problem:

    minimize    sum_{k<T} { 1/2 (p_k; q_k)^T [[Q_k, S_k^T], [S_k, R_k]] (p_k; q_k)
                            + gx_k^T p_k + gu_k^T q_k }
                + 1/2 p_T^T Q_T p_T + gx_T^T p_T
    subject to  p_0 = c_0,
                p_{k+1} = A_k p_k + B_k q_k + cdyn_k,   k = 0..T-1.

Its saddle-point optimality system is solved by one structured direct method:
the variables and multipliers are interleaved per stage as
(zeta_k, p_k, q_k), which makes the symmetric indefinite KKT matrix banded
with half-bandwidth 2*n_x + n_u - 1, and LAPACK ``dgbsv`` factorizes the band.

The companion definiteness test factorizes H + c * G^T G (block tridiagonal
in the primal ordering) with LAPACK's banded Cholesky ``dpbtrf`` and
inspects the pivots.

Both matrices are written straight into the column-major band storage that
LAPACK factorizes in place, so no band is ever copied.  In that storage a
stage block repeats at a fixed stride, so each block type is written for all
stages at once, by one assignment into one view: an ``np.ndarray`` built on
the band's buffer with that offset and those strides.  NumPy checks such a
view against the buffer, so a block that would run past the storage raises
instead of writing beyond it.

Wide blocks have a second kernel, :func:`solve_lq_riccati`: a backward
Riccati sweep over the stage blocks, batched over a stack of problems of one
length.  Its definiteness test is exact rather than the c * G^T G
heuristic: with p_0 pinned the problem is strictly convex iff
R_k + B_k^T P_{k+1} B_k factors by Cholesky at every stage.  Its cost is
O(T (n_x + n_u)^3) like the band's, but in ten NumPy calls per stage on
small dense blocks instead of one LAPACK call over the band: eight in the
backward pass (products, the Cholesky test and the gain's LU solve) and
two in the forward one.  Each call writes into a buffer made once per
sweep, and the two factorizations call the kernels behind np.linalg
without the wrappers' checks.  So at narrow widths the sweep's cost is the
per-stage call overhead, and it only wins once the blocks are wide enough
for the band's fill to outweigh it.  A batch spreads that overhead over
its members, so the crossover depends on the batch: the decomposed
direction's subproblems, batched by length, go to the sweep from
:data:`fotd.decomposition.RICCATI_MIN_NX` states on, the exact
full-horizon direction, a batch of one unless junctions (below) split it,
from :data:`fotd.newton.FULL_RICCATI_MIN_NX`; those modules give the
measurements.  The sweep holds the per-stage maps and costs of
COST_CHUNK stages at a time; only its cost-to-go, gain and solution arrays
grow with the horizon.  The H + c G^T G test keeps the band
Cholesky on every path that runs it.

Both definiteness tests report a failure by one margin: the smallest
Cholesky pivot minus PIVOT_TOL, read from the factorization that failed.
A margin below -PIVOT_TOL means the factorization broke down at a pivot
that is not positive.

A *junction* is a stage k < T whose S_k, A_k and B_k are all exactly zero.
Nothing passes across it: p_{k+1} = cdyn_k is pinned, q_k enters only its
own cost 1/2 q^T R_k q + gu_k^T q, and both H + c G^T G and the KKT matrix
have no entry that couples the stages before it to those after.  So a
problem with junctions is independent *pieces*, one from each junction (or
stage 0) to the next junction (or T), each a canonical problem of its own
with c_0 = cdyn of the junction before it, plus one control per junction.
:func:`solve_lq_pieces` and :func:`pivot_failure` split there when asked.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky
from numpy.linalg._umath_linalg import solve as _solve
from scipy.linalg.lapack import dgbsv, dpbtrf, dpotrf

from .exceptions import IndefiniteStageError, LinearSolverError

PIVOT_TOL = 1e-10
COST_CHUNK = 16  # stages whose blocks the Riccati sweep holds at once


def _band(rows: int, n: int, diag: int, step: int):
    """Zeroed column-major (rows, n) band holding entry (i, j) in row diag + i - j.

    Also returns two view makers over the band's buffer, for entries that
    repeat every ``step`` rows and columns:

    - ``blocks(i0, j0, r, c, count)``: the (count, r, c) view of the
      entries (i0 + k*step + a, j0 + k*step + b);
    - ``diagonal(i0, j0, r, count)``: the (count, r) view of the entries
      (i0 + k*step + a, j0 + k*step + a).

    Each view is an ``np.ndarray`` on the band's own buffer, so one that runs
    past the storage raises ValueError.  Within the storage it is the
    caller's duty to stay inside the band: an entry below or above it would
    land in another column's slot.
    """
    flat = np.zeros(n * rows)
    it = flat.itemsize
    kstride = step * rows * it

    def blocks(i0, j0, r, c, count):
        return np.ndarray((count, r, c), flat.dtype, flat,
                          (diag + i0 + j0 * (rows - 1)) * it,
                          (kstride, it, (rows - 1) * it))

    def diagonal(i0, j0, r, count):
        return np.ndarray((count, r), flat.dtype, flat,
                          (diag + i0 + j0 * (rows - 1)) * it,
                          (kstride, rows * it))

    return flat.reshape(n, rows).T, blocks, diagonal


def _kkt_band(Q, S, R, A, B):
    """The stage-interleaved KKT matrix in ``dgbsv``'s band layout.

    Returns ``(ab, bw)``: ``ab`` holds the matrix with half-bandwidth ``bw``
    below ``bw`` zero rows of fill-in workspace.
    """
    T, nx, nu = A.shape[0], A.shape[1], B.shape[2]
    s = 2 * nx + nu
    n = T * s + 2 * nx
    bw = s - 1  # worst-case reach: stationarity row of p_k to zeta_{k+1}
    ab, blocks, diagonal = _band(3 * bw + 1, n, 2 * bw, s)

    # Stage T holds only (zeta_T, p_T), laid out like the first 2*n_x
    # entries of a full stage, so the pin and Q blocks run over T + 1 stages.
    # The blocks do not overlap, so each is written once into the zeros.
    diagonal(0, nx, nx, T + 1)[...] = 1.0
    diagonal(nx, 0, nx, T + 1)[...] = 1.0
    blocks(nx, nx, nx, nx, T + 1)[...] = Q
    blocks(nx, 2 * nx, nx, nu, T)[...] = S.transpose(0, 2, 1)
    blocks(2 * nx, nx, nu, nx, T)[...] = S
    blocks(2 * nx, 2 * nx, nu, nu, T)[...] = R
    np.negative(A.transpose(0, 2, 1), out=blocks(nx, s, nx, nx, T))
    np.negative(B.transpose(0, 2, 1), out=blocks(2 * nx, s, nu, nx, T))
    np.negative(A, out=blocks(s, nx, nx, nx, T))
    np.negative(B, out=blocks(s, 2 * nx, nx, nu, T))
    return ab, bw


def solve_lq_kkt(Q, S, R, A, B, gx, gu, c0, cdyn):
    """Solve the canonical LQ-DP saddle-point system by banded factorization.

    Returns ``(p, q, zeta)`` with shapes (T+1, n_x), (T, n_u), (T+1, n_x);
    zeta_0 is the multiplier of the initial pin and zeta_{k+1} of dynamics
    row k.  Raises :class:`LinearSolverError` on a singular factorization.
    """
    T, nx, nu = A.shape[0], A.shape[1], B.shape[2]
    ab, bw = _kkt_band(Q, S, R, A, B)
    stages = np.empty((T + 1, 2 * nx + nu))
    stages[0, :nx] = c0
    stages[1:, :nx] = cdyn
    np.negative(gx, out=stages[:, nx: 2 * nx])
    np.negative(gu, out=stages[:T, 2 * nx:])
    rhs = stages.reshape(-1)[:ab.shape[1]]

    _, _, sol, info = dgbsv(bw, bw, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise LinearSolverError(
            f"banded KKT factorization failed: LAPACK dgbsv info={info}")
    if not np.isfinite(sol).all():
        raise LinearSolverError("banded KKT solve produced non-finite values")
    rhs[:] = sol  # LAPACK solves in place; this keeps ``stages`` right regardless
    return (stages[:, nx: 2 * nx].copy(), stages[:T, 2 * nx:].copy(),
            stages[:, :nx].copy())


def hessian_vector_product(Q, S, R, vx: np.ndarray, vu: np.ndarray):
    """Stagewise H @ v for block-diagonal H with blocks [[Q, S^T], [S, R]]."""
    N = vu.shape[0]
    hx = np.einsum("kij,kj->ki", Q[:N], vx[:N]) + np.einsum("kji,kj->ki", S, vu)
    hu = np.einsum("kij,kj->ki", S, vx[:N]) + np.einsum("kij,kj->ki", R, vu)
    hxN = Q[N] @ vx[N]
    return np.vstack([hx, hxN[None, :]]), hu


def jacobian_products(A, B, vx, vu, w):
    """Constraint Jacobian products (G v, G^T w) for the staircase structure.

    ``w`` has shape (N+1, n_x).  Returns (Gv with shape (N+1, n_x),
    (GTw_x, GTw_u) stage arrays).
    """
    N = vu.shape[0]
    Gv = np.empty_like(w)
    Gv[0] = vx[0]
    Gv[1:] = vx[1:] - np.einsum("kij,kj->ki", A, vx[:N]) - np.einsum("kij,kj->ki", B, vu)
    GTx = np.empty_like(vx)
    GTx[:N] = w[:N] - np.einsum("kji,kj->ki", A, w[1:])
    GTx[N] = w[N]
    GTu = -np.einsum("kji,kj->ki", B, w[1:])
    return Gv, (GTx, GTu)


def definiteness_pivots_ok(Q, S, R, A, B, c: float, junctions=()) -> bool:
    """Definiteness test: does H + c * G^T G factor with pivots >= PIVOT_TOL?

    H is the block-diagonal stage Hessian and G the staircase constraint
    Jacobian of the canonical LQ problem.  The sum is block tridiagonal; a
    banded Cholesky provides the pivots (squares of the factor's diagonal).
    Returns False when the factorization stops at a pivot that is not
    positive.  ``junctions`` is passed on to :func:`pivot_failure`.
    """
    return pivot_failure(Q, S, R, A, B, c, junctions) is None


def _test_band(Q, S, R, A, B, c: float):
    """Lower triangle of H + c * G^T G in ``dpbtrf``'s band layout.

    The primal ordering (p_0, q_0, ..., p_T) gives half-bandwidth
    2 n_x + n_u - 1, so the band has that many rows below the diagonal row.
    """
    T, nx, nu = A.shape[0], A.shape[1], B.shape[2]
    m = nx + nu
    ab, blocks, _ = _band(m + nx, T * m + nx, 0, m)

    def lower(i0, blk):
        # Above the diagonal a view would alias another column's entries,
        # so column b of a diagonal block writes only its rows b..r-1.
        count, r = blk.shape[:2]
        for b in range(r):
            blocks(i0 + b, i0 + b, r - b, 1, count)[...] = blk[:, b:, b:b + 1]

    Bt = B.transpose(0, 2, 1)
    # One stage stack of products is alive at a time, each freed before the
    # next is made.  p_k's block is Q_k + c (I + A_k^T A_k); stage T has no
    # A_T, leaving Q_T + c I.
    tmp = np.zeros((T + 1, nx, nx))
    np.matmul(A.transpose(0, 2, 1), A, out=tmp[:T])
    tmp.reshape(T + 1, nx * nx)[:, ::nx + 1] += 1.0
    tmp *= c
    tmp += Q
    lower(0, tmp)
    del tmp
    tmp = Bt @ A
    tmp *= c
    np.add(S, tmp, out=blocks(nx, 0, nu, nx, T))
    del tmp
    tmp = Bt @ B
    tmp *= c
    tmp += R
    lower(nx, tmp)
    np.multiply(A, -c, out=blocks(m, 0, nx, nx, T))
    np.multiply(B, -c, out=blocks(m, nx, nx, nu, T))
    return ab


def pivot_failure(Q, S, R, A, B, c: float, junctions=()):
    """Where :func:`definiteness_pivots_ok` fails: None if it passes.

    Otherwise ``(stage, margin)``: the stage of the column with the
    smallest pivot, which is the column LAPACK stopped at if the
    factorization broke down, and that pivot minus PIVOT_TOL.

    Given the problem's ``junctions`` (see :func:`junction_stages`), the
    band is factored piece by piece, in horizon order, plus one block R_k
    per junction k: the columns of H + c G^T G in the order the whole band
    has them, with nothing coupling two of the parts.  The first part that
    breaks down stops the test, as it stops the whole band's factorization,
    and otherwise the first smallest pivot is reported, so the result is
    the whole band's.  Each part's band holds only its own stages.
    """
    smallest = None
    parts = (_part_pivots(Q, S, R, A, B, c, junctions) if len(junctions)
             else [_band_pivot(Q, S, R, A, B, c)])
    for stage, pivot, broke in parts:
        if broke or smallest is None or pivot < smallest[1]:
            smallest = (stage, pivot)
        if broke:
            break
    stage, pivot = smallest
    if pivot >= PIVOT_TOL:
        return None
    return stage, pivot - PIVOT_TOL


def _band_pivot(Q, S, R, A, B, c: float):
    """``(stage, pivot, broke)`` of the H + c G^T G band's factorization.

    ``pivot`` is its smallest pivot, ``stage`` the stage of that pivot's
    column and ``broke`` whether the factorization broke down there.
    """
    fact, info = dpbtrf(_test_band(Q, S, R, A, B, c), lower=1, overwrite_ab=1)
    col, pivot = _smallest_pivot(fact[0], info)
    return col // (A.shape[1] + B.shape[2]), pivot, info > 0


def _part_pivots(Q, S, R, A, B, c: float, junctions):
    """:func:`_band_pivot` of each part of the split test, in column order.

    A part is a piece's band or a junction's R_k (see
    :func:`pivot_failure`); stages count from the horizon's start.
    """
    for first, last in _pieces(junctions, A.shape[0]):
        k = slice(first, last)
        stage, pivot, broke = _band_pivot(Q[first:last + 1], S[k], R[k], A[k],
                                          B[k], c)
        yield first + stage, pivot, broke
        if last < A.shape[0]:
            fact, info = dpotrf(R[last], lower=1)
            yield last, _smallest_pivot(np.diagonal(fact), info)[1], info > 0


def _smallest_pivot(diag, info: int):
    """``(column, pivot)`` of the smallest pivot of a LAPACK Cholesky factor.

    ``diag`` is the factor's diagonal and ``info`` LAPACK's return code.
    A factorization that succeeded holds each pivot's square root there.
    One that broke down (``info`` > 0) stopped at 1-based column ``info``
    and left that column's pivot, zero, negative or NaN, in place without
    taking its root; the pivots before it are positive, so it is the
    smallest.
    """
    if info > 0:
        return info - 1, float(diag[info - 1])
    col = int(np.argmin(diag ** 2))
    return col, float(diag[col] ** 2)


def solve_lq_riccati(Q, S, R, A, B, gx, gu, c0, cdyn):
    """Solve a stack of canonical LQ problems of one length by a Riccati sweep.

    Every argument has a leading batch axis of size K ahead of the shapes
    :func:`solve_lq_kkt` takes; returns ``(p, q, zeta)`` with shapes
    (K, T+1, n_x), (K, T, n_u), (K, T+1, n_x) and its conventions, i.e.
    zeta_k = -(P_k p_k + s_k) for the cost-to-go 1/2 p^T P_k p + s_k^T p.

    Stage k of the backward sweep factors R_k + B_k^T P_{k+1} B_k by
    Cholesky.  If that breaks down or a pivot (squared diagonal of the
    factor) falls below PIVOT_TOL in some member, the sweep stops with
    :class:`IndefiniteStageError` naming the first such member, the stage
    and the margin.  An LU solve for the gain that meets an exactly singular
    R_k + B_k^T P_{k+1} B_k raises what np.linalg.solve raises.  No
    operation mixes members, so a member's result is bit for bit the one it
    gets when solved alone.

    A stage costs eight NumPy calls: two products for the stage's quadratic
    form, one addition of its costs, the Cholesky factorization, one
    reduction for the pivot test, the gain's LU solve, and one product and
    one subtraction for the cost-to-go; the forward pass makes two products
    a stage.  Each writes into a buffer allocated once per sweep.
    """
    K, T, nx, nu = B.shape
    m = nx + nu
    # The stage vector is y_k = [p_k; 1; q_k]: F_k = [[A_k, cdyn_k, B_k],
    # [0, 1, 0]] maps it to [p_{k+1}; 1], and H_k holds the stage costs'
    # [Hessian | gradient] in the same order, so one product per stage also
    # carries the affine terms.  F and H hold the stages of one chunk of
    # COST_CHUNK stages at a time, stage k in slot k % COST_CHUNK, refilled
    # as each pass enters a chunk: the backward pass both, the forward one F.
    # Every work array is stage-major, so a stage's blocks of all members
    # are one contiguous (K, ., .) array.
    C = min(T, COST_CHUNK)
    F = np.zeros((C, K, nx + 1, m + 1))
    F[..., nx, nx] = 1.0
    Ft = F[..., :nx, :].swapaxes(2, 3)
    H = np.zeros((C, K, m + 1, m + 1))

    def fill_F(chunk, count, fill_B):
        F[:count, :, :nx, :nx] = A[:, chunk].swapaxes(0, 1)
        F[:count, :, :nx, nx] = cdyn[:, chunk].swapaxes(0, 1)
        fill_B(B[:, chunk].swapaxes(0, 1), out=F[:count, :, :nx, nx + 1:])

    # The backward pass solves for -q_k: its F holds -B_k and its H -S_k
    # and -gu_k.  Negation is exact and commutes with every rounding, so
    # R_k + B_k^T P_{k+1} B_k, P_k and s_k come out bit for bit as for q_k,
    # and the gain X_k comes out exactly negated, ready for the forward pass.
    # V_k = [P_k, s_k]: the cost-to-go 1/2 p^T P_k p + s_k^T p.
    V = np.empty((T + 1, K, nx, nx + 1))
    V[T, :, :, :nx] = Q[:, T]
    V[T, :, :, nx] = gx[:, T]
    # X_k = -Rt_k^{-1} [St_k, gut_k], so q_k = X_k [p_k; 1].
    X = np.empty((T, K, nu, nx + 1))
    VF = np.empty((K, nx, m + 1))
    # Rows p and q of Z: [[Qt, gxt, -St^T], [-St, -gut, Rt]].
    Z = np.empty((K, m + 1, m + 1))
    Rt, Zq = Z[:, nx + 1:, nx + 1:], Z[:, nx + 1:, :nx + 1]
    Zp, Zpq = Z[:, :nx, :nx + 1], Z[:, :nx, nx + 1:]
    L = np.empty((K, nu, nu))
    pivot_roots = np.diagonal(L, 0, 1, 2)
    W = np.empty((K, nx, nx + 1))
    # The kernels behind np.linalg.cholesky and np.linalg.solve, without
    # their wrappers' checks.  A member whose factorization breaks down, or
    # whose LU is singular, gets NaN and raises the invalid flag, which
    # calls ``flagged`` here: a NaN pivot fails the test below as the
    # breakdown would, and a flag from the solve raises what np.linalg.solve
    # raises.  (Cholesky pivots >= PIVOT_TOL do not rule out an exactly
    # singular LU of a badly scaled Rt.)
    flags = []

    def flagged(err, flag):
        flags.append(flag)

    with np.errstate(invalid="call", call=flagged):
        for k in range(T - 1, -1, -1):
            j = k % COST_CHUNK
            if k == T - 1 or j == COST_CHUNK - 1:
                chunk, n = slice(k - j, k + 1), j + 1
                fill_F(chunk, n, np.negative)
                H[:n, :, :nx, :nx] = Q[:, chunk].swapaxes(0, 1)
                H[:n, :, :nx, nx] = gx[:, chunk].swapaxes(0, 1)
                np.negative(S[:, chunk].transpose(1, 0, 3, 2),
                            out=H[:n, :, :nx, nx + 1:])
                np.negative(S[:, chunk].swapaxes(0, 1),
                            out=H[:n, :, nx + 1:, :nx])
                np.negative(gu[:, chunk].swapaxes(0, 1),
                            out=H[:n, :, nx + 1:, nx])
                H[:n, :, nx + 1:, nx + 1:] = R[:, chunk].swapaxes(0, 1)
            np.matmul(V[k + 1], F[j], out=VF)
            np.matmul(Ft[j], VF, out=Z)
            Z += H[j]
            _cholesky(Rt, out=L)
            if not pivot_roots.min() ** 2 >= PIVOT_TOL:
                raise _indefinite_member(Rt, k)
            flags.clear()
            _solve(Rt, Zq, out=X[k])
            if flags:
                raise np.linalg.LinAlgError("Singular matrix")
            np.matmul(Zpq, X[k], out=W)
            np.subtract(Zp, W, out=V[k])

    y = np.empty((T + 1, K, m + 1, 1))
    y[0, :, :nx, 0] = c0
    y[0, :, nx] = 1.0
    for k in range(T):
        j = k % COST_CHUNK
        if j == 0:
            fill_F(slice(k, k + C), min(C, T - k), np.positive)
        np.matmul(X[k], y[k, :, :nx + 1], out=y[k, :, nx + 1:])
        np.matmul(F[j], y[k], out=y[k + 1, :, :nx + 1])
    zeta = np.matmul(V, y[:, :, :nx + 1])
    np.negative(zeta, out=zeta)
    out = (y[:, :, :nx, 0].swapaxes(0, 1), y[:T, :, nx + 1:, 0].swapaxes(0, 1),
           zeta[..., 0].swapaxes(0, 1))
    if not all(np.all(np.isfinite(a)) for a in out):
        raise LinearSolverError("Riccati solve produced non-finite values")
    return out


def _indefinite_member(Rt, stage: int) -> IndefiniteStageError:
    """The error for the first member whose ``Rt`` fails the pivot test.

    numpy's per-member Cholesky decides which member fails, as it decided
    for the batch.  It returns no factor when it stops, so LAPACK's
    ``dpotrf`` factors that member again for the pivot it stopped at.
    """
    for member, r in enumerate(Rt):
        try:
            _, pivot = _smallest_pivot(np.diagonal(np.linalg.cholesky(r)), 0)
        except np.linalg.LinAlgError:
            fact, info = dpotrf(r, lower=1)
            _, pivot = _smallest_pivot(np.diagonal(fact), info)
            return IndefiniteStageError(member, stage, pivot - PIVOT_TOL)
        if not pivot >= PIVOT_TOL:
            return IndefiniteStageError(member, stage, pivot - PIVOT_TOL)
    raise AssertionError("a batch failed the pivot test but no member did")


def junction_stages(S, A, B) -> np.ndarray:
    """The stages k < T whose S_k, A_k and B_k are all exactly zero."""
    T = A.shape[0]
    coupled = (A.reshape(T, -1).any(axis=1) | B.reshape(T, -1).any(axis=1)
               | S.reshape(T, -1).any(axis=1))
    return np.flatnonzero(~coupled)


def _pieces(junctions, T: int):
    """``(first, last)`` stage of each piece of a horizon of T stages.

    A piece runs from stage 0, or from the stage after a junction, to the
    next junction, or to T; without junctions the one piece is (0, T).
    """
    firsts = [0] + [int(k) + 1 for k in junctions]
    return list(zip(firsts, [int(k) for k in junctions] + [T]))


def stage_windows(arr: np.ndarray, first: int, step: int, count: int,
                  length: int) -> np.ndarray:
    """(count, length, ...) view of arr[first + j*step + t].

    One window is a plain slice with a leading axis of one; more windows
    may overlap, so their strided view is read-only.  Raises ValueError
    instead of making a view that runs past ``arr``.
    """
    span = arr[first:first + (count - 1) * step + length]
    if step < 0 or span.shape[0] != (count - 1) * step + length:
        raise ValueError(f"{count} windows of {length} stages from {first} "
                         f"every {step} run past {arr.shape[0]} stages")
    return span[None] if count == 1 else np.lib.stride_tricks.as_strided(
        span, (count, length) + span.shape[1:],
        (step * span.strides[0],) + span.strides, writeable=False)


def even_batches(firsts, lengths):
    """Problems of each length, one batch where their starts are evenly spaced.

    ``firsts[i]`` and ``lengths[i]`` place problem i on a horizon.  Returns
    lists of problem indices, in order of first appearance of each length;
    a length whose problems do not start evenly spaced gives one batch per
    problem, so that every batch is a set of :func:`stage_windows`.
    """
    by_length = {}
    for i, length in enumerate(lengths):
        by_length.setdefault(length, []).append(i)
    batches = []
    for group in by_length.values():
        even = len(set(np.diff([firsts[i] for i in group]))) <= 1
        batches.extend([group] if even else [[i] for i in group])
    return batches


def solve_lq_pieces(Q, S, R, A, B, gx, gu, c0, cdyn, junctions=()):
    """:func:`solve_lq_riccati` of one problem, as a batch of its pieces.

    The arguments are those of :func:`solve_lq_kkt`, and so are the
    returned ``(p, q, zeta)``.  Given the problem's ``junctions`` (see
    :func:`junction_stages`), the pieces of each length (module docstring)
    are solved by one batched sweep over :func:`stage_windows` of the
    blocks, and each junction's control is q_k = -R_k^{-1} gu_k.  Without
    junctions the problem is a batch of one.  This is the sweep over the
    whole horizon, bit for bit: a junction passes that sweep nothing but
    zeros, so its cost-to-go is the piece's terminal one, Q_k and gx_k, and
    its control solves R_k alone.  (Where R_k is not diagonal, LAPACK may
    round that one solve otherwise than with the sweep's other columns.)

    A stage that fails the pivot test, in a piece or in a junction's R_k,
    makes the whole horizon run again as one sweep, so the
    :class:`IndefiniteStageError` names what that sweep names: the last
    failing stage of the horizon, as member 0.
    """
    def whole():
        lq = (Q, S, R, A, B, gx, gu, c0, cdyn)
        return tuple(a[0] for a in solve_lq_riccati(*(a[None] for a in lq)))

    if not len(junctions):
        return whole()
    T, nx, nu = B.shape
    c = np.concatenate([c0[None], cdyn])  # c[k] is what p_k is pinned to
    pieces = _pieces(junctions, T)
    p, q, zeta = np.empty((T + 1, nx)), np.empty((T, nu)), np.empty((T + 1, nx))
    try:
        for batch in even_batches([a for a, _ in pieces],
                                  [b - a for a, b in pieces]):
            (first, last), K = pieces[batch[0]], len(batch)
            step = pieces[batch[1]][0] - first if K > 1 else 0
            Qw, gxw, cw = (stage_windows(a, first, step, K, last - first + 1)
                           for a in (Q, gx, c))
            out = solve_lq_riccati(
                Qw, *(stage_windows(a, first, step, K, last - first)
                      for a in (S, R, A, B)),
                gxw, stage_windows(gu, first, step, K, last - first),
                cw[:, 0], cw[:, 1:])
            for j, i in enumerate(batch):
                a, b = pieces[i]
                p[a:b + 1], q[a:b], zeta[a:b + 1] = (o[j] for o in out)
        L = np.linalg.cholesky(R[junctions])
    except (IndefiniteStageError, np.linalg.LinAlgError):
        return whole()
    if not np.diagonal(L, 0, 1, 2).min() ** 2 >= PIVOT_TOL:
        return whole()
    q[junctions] = -np.linalg.solve(R[junctions], gu[junctions][..., None])[..., 0]
    if not np.all(np.isfinite(q[junctions])):
        raise LinearSolverError("Riccati solve produced non-finite values")
    return p, q, zeta
