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
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dgbsv, dpbtrf

from .exceptions import LinearSolverError

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
        return False
    pivots = fact[0, :] ** 2
    return bool(np.all(pivots >= PIVOT_TOL))
