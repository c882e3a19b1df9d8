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
stages at once through one strided view.

Wide blocks have a second kernel, :func:`solve_lq_riccati`: a backward
Riccati sweep over the stage blocks, batched over a stack of problems of one
length.  Its definiteness test is exact rather than the c * G^T G
heuristic: with p_0 pinned the problem is strictly convex iff
R_k + B_k^T P_{k+1} B_k factors by Cholesky at every stage.  Its cost is
O(T (n_x + n_u)^3) like the band's, but in small dense products instead of
one LAPACK call over the band, so it only wins once the blocks are wide
enough for the band's fill to outweigh the per-stage call overhead
(:data:`fotd.decomposition.RICCATI_MIN_NX` holds the measured crossover).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dgbsv, dpbtrf

from .exceptions import IndefiniteStageError, LinearSolverError

PIVOT_TOL = 1e-10


def _band(rows: int, n: int, diag: int, step: int):
    """Zeroed column-major (rows, n) band holding entry (i, j) in row diag + i - j.

    Also returns ``blocks(i0, j0, r, c, count)``: the writable (count, r, c)
    view of the entries (i0 + k*step + a, j0 + k*step + b), all of which must
    lie in the band.
    """
    flat = np.zeros(n * rows)
    it = flat.itemsize

    def blocks(i0, j0, r, c, count):
        return as_strided(flat[diag + i0 + j0 * (rows - 1):], (count, r, c),
                          (step * rows * it, it, (rows - 1) * it))

    return flat.reshape(n, rows).T, blocks


def solve_lq_kkt(Q, S, R, A, B, gx, gu, c0, cdyn):
    """Solve the canonical LQ-DP saddle-point system by banded factorization.

    Returns ``(p, q, zeta)`` with shapes (T+1, n_x), (T, n_u), (T+1, n_x);
    zeta_0 is the multiplier of the initial pin and zeta_{k+1} of dynamics
    row k.  Raises :class:`LinearSolverError` on a singular factorization.
    """
    T, nx, nu = A.shape[0], A.shape[1], B.shape[2]
    s = 2 * nx + nu
    n = T * s + 2 * nx
    bw = s - 1  # worst-case reach: stationarity row of p_k to zeta_{k+1}
    # dgbsv's layout: bw rows of fill-in workspace above the 2*bw + 1 bands.
    ab, blocks = _band(3 * bw + 1, n, 2 * bw, s)

    # Stage T holds only (zeta_T, p_T), laid out like the first 2*n_x
    # entries of a full stage, so the pin and Q blocks run over T + 1 stages.
    eye = np.eye(nx)
    blocks(0, nx, nx, nx, T + 1)[...] += eye
    blocks(nx, 0, nx, nx, T + 1)[...] += eye
    blocks(nx, nx, nx, nx, T + 1)[...] += Q
    blocks(nx, 2 * nx, nx, nu, T)[...] += S.transpose(0, 2, 1)
    blocks(2 * nx, nx, nu, nx, T)[...] += S
    blocks(2 * nx, 2 * nx, nu, nu, T)[...] += R
    blocks(nx, s, nx, nx, T)[...] -= A.transpose(0, 2, 1)
    blocks(2 * nx, s, nu, nx, T)[...] -= B.transpose(0, 2, 1)
    blocks(s, nx, nx, nx, T)[...] -= A
    blocks(s, 2 * nx, nx, nu, T)[...] -= B

    stages = np.empty((T + 1, s))
    stages[0, :nx] = c0
    stages[1:, :nx] = cdyn
    stages[:, nx: 2 * nx] = -gx
    stages[:T, 2 * nx:] = -gu
    rhs = stages.reshape(-1)[:n]

    _, _, sol, info = dgbsv(bw, bw, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise LinearSolverError(
            f"banded KKT factorization failed: LAPACK dgbsv info={info}")
    if not np.all(np.isfinite(sol)):
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


def definiteness_pivots_ok(Q, S, R, A, B, c: float) -> bool:
    """Definiteness test: does H + c * G^T G factor with pivots >= PIVOT_TOL?

    H is the block-diagonal stage Hessian and G the staircase constraint
    Jacobian of the canonical LQ problem.  The sum is block tridiagonal; a
    banded Cholesky provides the pivots (squares of the factor's diagonal).
    Returns False on factorization breakdown.
    """
    return pivot_failure(Q, S, R, A, B, c) is None


def pivot_failure(Q, S, R, A, B, c: float):
    """Where :func:`definiteness_pivots_ok` fails: None if it passes.

    Otherwise ``(stage, margin)``: the stage of the column whose pivot is
    smallest and that pivot minus PIVOT_TOL, or after a factorization
    breakdown the stage of the column LAPACK stopped at and None.
    """
    T, nx, nu = A.shape[0], A.shape[1], B.shape[2]
    m = nx + nu
    n = T * m + nx
    bw = m + nx - 1
    ab, blocks = _band(bw + 1, n, 0, m)  # lower triangle only

    def lower(i0, blk):
        # Above the diagonal a view would alias another column's entries,
        # so column b of a diagonal block writes only its rows b..r-1.
        count, r = blk.shape[:2]
        for b in range(r):
            blocks(i0 + b, i0 + b, r - b, 1, count)[...] += blk[:, b:, b:b + 1]

    At = A.transpose(0, 2, 1)
    Bt = B.transpose(0, 2, 1)
    lower(0, Q[:T] + c * (np.eye(nx) + At @ A))
    blocks(nx, 0, nu, nx, T)[...] += S + c * (Bt @ A)
    lower(nx, R + c * (Bt @ B))
    blocks(m, 0, nx, nx, T)[...] -= c * A
    blocks(m, nx, nx, nu, T)[...] -= c * B
    lower(T * m, (Q[T] + c * np.eye(nx))[None])

    fact, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        return (info - 1) // m, None  # info is the 1-based failing column
    pivots = fact[0, :] ** 2
    if np.all(pivots >= PIVOT_TOL):
        return None
    col = int(np.argmin(pivots))
    return col // m, float(pivots[col] - PIVOT_TOL)


def solve_lq_riccati(Q, S, R, A, B, gx, gu, c0, cdyn):
    """Solve a stack of canonical LQ problems of one length by a Riccati sweep.

    Every argument has a leading batch axis of size K ahead of the shapes
    :func:`solve_lq_kkt` takes; returns ``(p, q, zeta)`` with shapes
    (K, T+1, n_x), (K, T, n_u), (K, T+1, n_x) and its conventions, i.e.
    zeta_k = -(P_k p_k + s_k) for the cost-to-go 1/2 p^T P_k p + s_k^T p.

    Stage k of the backward sweep factors R_k + B_k^T P_{k+1} B_k by
    Cholesky.  If that breaks down or a pivot (squared diagonal of the
    factor) falls below PIVOT_TOL in some member, the sweep stops with
    :class:`IndefiniteStageError` naming the first such member and the
    stage.  No operation mixes members, so a member's result is bit for bit
    the one it gets when solved alone.
    """
    K, T, nx, nu = B.shape
    m = nx + nu
    # The stage vector is y_k = [p_k; 1; q_k]: F_k = [[A_k, cdyn_k, B_k],
    # [0, 1, 0]] maps it to [p_{k+1}; 1], and H_k holds the stage costs'
    # [Hessian | gradient] in the same order, so one product per stage also
    # carries the affine terms.
    F = np.zeros((K, T, nx + 1, m + 1))
    F[..., :nx, :nx] = A
    F[..., :nx, nx] = cdyn
    F[..., :nx, nx + 1:] = B
    F[..., nx, nx] = 1.0
    Ft = F[..., :nx, :].transpose(0, 1, 3, 2)
    H = np.zeros((K, T, m + 1, m + 1))
    H[..., :nx, :nx] = Q[:, :T]
    H[..., :nx, nx] = gx[:, :T]
    H[..., :nx, nx + 1:] = S.transpose(0, 1, 3, 2)
    H[..., nx + 1:, :nx] = S
    H[..., nx + 1:, nx] = gu
    H[..., nx + 1:, nx + 1:] = R
    # V_k = [P_k, s_k]: the cost-to-go 1/2 p^T P_k p + s_k^T p.
    V = np.empty((K, T + 1, nx, nx + 1))
    V[:, T, :, :nx] = Q[:, T]
    V[:, T, :, nx] = gx[:, T]
    # X_k = Rt_k^{-1} [St_k, gut_k], so q_k = -X_k [p_k; 1].
    X = np.empty((K, T, nu, nx + 1))
    for k in range(T - 1, -1, -1):
        Z = Ft[:, k] @ (V[:, k + 1] @ F[:, k])
        Z += H[:, k]  # rows p and q: [[Qt, gxt, St^T], [St, gut, Rt]]
        Rt = Z[:, nx + 1:, nx + 1:]
        try:
            L = np.linalg.cholesky(Rt)
        except np.linalg.LinAlgError:
            raise _indefinite_member(Rt, k) from None
        if not np.diagonal(L, 0, 1, 2).min() ** 2 >= PIVOT_TOL:
            raise _indefinite_member(Rt, k)
        X[:, k] = np.linalg.solve(Rt, Z[:, nx + 1:, :nx + 1])
        np.subtract(Z[:, :nx, :nx + 1], Z[:, :nx, nx + 1:] @ X[:, k],
                    out=V[:, k])

    y = np.empty((K, T + 1, m + 1, 1))
    y[:, 0, :nx, 0] = c0
    y[:, 0, nx] = 1.0
    for k in range(T):
        np.negative(X[:, k] @ y[:, k, :nx + 1], out=y[:, k, nx + 1:])
        np.matmul(F[:, k], y[:, k], out=y[:, k + 1, :nx + 1])
    zeta = -(V @ y[:, :, :nx + 1])
    out = (y[:, :, :nx, 0], y[:, :T, nx + 1:, 0], zeta[..., 0])
    if not all(np.all(np.isfinite(a)) for a in out):
        raise LinearSolverError("Riccati solve produced non-finite values")
    return out


def _indefinite_member(Rt, stage: int) -> IndefiniteStageError:
    """The error for the first member whose ``Rt`` fails the pivot test."""
    for member, r in enumerate(Rt):
        try:
            pivot = np.diagonal(np.linalg.cholesky(r)).min() ** 2
        except np.linalg.LinAlgError:
            return IndefiniteStageError(member, stage, None)
        if not pivot >= PIVOT_TOL:
            return IndefiniteStageError(member, stage, float(pivot - PIVOT_TOL))
    raise AssertionError("a batch failed the pivot test but no member did")
