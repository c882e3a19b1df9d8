"""Independent dense reference implementations used as test oracles.

Everything here deliberately avoids the package's structured solve paths:
systems are assembled densely with plain index arithmetic and solved with
numpy, finite differences are central, and Newton iterations for reference
KKT points run without any globalization.  :func:`recording` copies a problem
so that its callbacks record the stages they are called on.
"""

from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from scipy.linalg.lapack import dgbsv, dpbtrf

from fotd._lapack import dpotrf
from fotd.banded import (COST_CHUNK, PIVOT_TOL, _kkt_band, _test_band,
                         pivot_failure, solve_lq_kkt)
from fotd.decomposition import compose
from fotd.exceptions import (IndefiniteStageError, LinearSolverError,
                             MuTooSmallError, SingularKKTError)
from fotd.newton import NewtonDirection, stage_norms_fro
from fotd.problem import (DualTrajectory, MeritTerms, ProblemDef, Trajectory,
                          stack_primal, stage_batched)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def central_diff(fun, x, h=FD_STEP):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def central_diff_jacobian(fun, x, h=FD_STEP):
    """Central-difference Jacobian of a vector function of a flat vector."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        J[:, i] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * h)
    return J


# ---------------------------------------------------------------------------
# Dense LQ saddle-point solve
# ---------------------------------------------------------------------------

def dense_lq_matrices(Q, S, R, A, B):
    """Dense stage Hessian H and constraint Jacobian G of the canonical LQ problem.

    Primal ordering (p_0, q_0, ..., p_{T-1}, q_{T-1}, p_T); row block 0 of G
    is the initial pin, row block k+1 the dynamics of stage k.
    """
    T, nx = A.shape[0], A.shape[1]
    nu = B.shape[2]
    m = nx + nu
    nz = T * m + nx
    nc = (T + 1) * nx
    H = np.zeros((nz, nz))
    G = np.zeros((nc, nz))
    for k in range(T):
        ix, iu = k * m, k * m + nx
        H[ix:ix + nx, ix:ix + nx] = Q[k]
        H[iu:iu + nu, ix:ix + nx] = S[k]
        H[ix:ix + nx, iu:iu + nu] = S[k].T
        H[iu:iu + nu, iu:iu + nu] = R[k]
        row = (k + 1) * nx
        G[row:row + nx, ix:ix + nx] = -A[k]
        G[row:row + nx, iu:iu + nu] = -B[k]
        G[row:row + nx, k * m + m:k * m + m + nx] = np.eye(nx)
    H[T * m:, T * m:] = Q[T]
    G[:nx, :nx] = np.eye(nx)
    return H, G


def dense_lq_kkt(Q, S, R, A, B):
    """Dense KKT matrix [[H, G^T], [G, 0]] of the canonical LQ problem."""
    H, G = dense_lq_matrices(Q, S, R, A, B)
    return np.block([[H, G.T], [G, np.zeros((G.shape[0], G.shape[0]))]])


def stage_interleaving(T, nx, nu):
    """Indices that reorder ``dense_lq_kkt``'s unknowns as (zeta_k, p_k, q_k).

    Entry i is the primal-dual position of the i-th unknown in the stage
    order zeta_0, p_0, q_0, ..., zeta_T, p_T.
    """
    m = nx + nu
    nz = T * m + nx
    order = []
    for k in range(T + 1):
        order += [nz + k * nx + a for a in range(nx)]
        order += [k * m + a for a in range(nx if k == T else m)]
    return np.array(order)


def lapack_band(M, kl, ku, fill=0):
    """LAPACK band storage of a dense matrix: entry (i, j) at row fill + ku + i - j.

    ``fill`` zero rows go on top: ``dgbsv`` takes fill = kl rows of fill-in
    workspace, and ``dpbtrf``'s lower form is kl = kd, ku = 0, fill = 0 of a
    symmetric matrix's lower triangle.  Raises AssertionError if M has a
    nonzero outside the band, which the storage would lose.
    """
    n = M.shape[0]
    i, j = np.indices(M.shape)
    inside = (i - j <= kl) & (j - i <= ku)
    assert not np.any(M[~inside]), "matrix has entries outside the band"
    ab = np.zeros((fill + ku + kl + 1, n))
    ab[fill + ku + (i - j)[inside], j[inside]] = M[inside]
    return ab


def dense_lq_solve(Q, S, R, A, B, gx, gu, c0, cdyn):
    """Dense assembly and solve of the canonical LQ optimality system.

    Identical problem statement as the banded path, independent assembly.
    Returns (p, q, zeta) stage arrays.
    """
    T, nx = A.shape[0], A.shape[1]
    nu = B.shape[2]
    m = nx + nu
    nz = T * m + nx
    g = np.concatenate([np.hstack([gx[:T], gu]).ravel(), gx[T]])
    c = np.concatenate([c0, cdyn.ravel()])
    sol = np.linalg.solve(dense_lq_kkt(Q, S, R, A, B), np.concatenate([-g, c]))
    w, zeta = sol[:nz], sol[nz:].reshape(T + 1, nx)
    p = np.vstack([w[:T * m].reshape(T, m)[:, :nx], w[T * m:][None, :]])
    q = w[:T * m].reshape(T, m)[:, nx:].copy()
    return p, q, zeta


def dense_full_newton(nd):
    """Dense solve of a NewtonData system; returns (p, q, zeta)."""
    return dense_lq_solve(nd.Q, nd.S, nd.R, nd.A, nd.B, nd.gx, nd.gu,
                          -nd.glam[0], -nd.glam[1:])


def dense_reduced_hessian_eigmin(Q, S, R, A, B):
    """Smallest eigenvalue of Z^T H Z with Z an orthonormal null-space basis."""
    H, G = dense_lq_matrices(Q, S, R, A, B)
    _, sv, vt = np.linalg.svd(G)
    Z = vt[np.sum(sv > 1e-12):].T
    if Z.shape[1] == 0:
        return np.inf
    return float(np.linalg.eigvalsh(Z.T @ H @ Z).min())


def cholesky_pivot(M):
    """``(column, pivot)`` of a textbook unblocked Cholesky of symmetric M.

    Column by column, the pivot is M_jj less the squares of the factor's row
    j so far.  The first column whose pivot is not positive stops the
    factorization and is returned with that pivot; otherwise the column of
    the smallest pivot.
    """
    n = M.shape[0]
    L = np.zeros_like(M)
    pivots = np.empty(n)
    for j in range(n):
        pivots[j] = M[j, j] - L[j, :j] @ L[j, :j]
        if not pivots[j] > 0:
            return j, float(pivots[j])
        L[j, j] = np.sqrt(pivots[j])
        L[j + 1:, j] = (M[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    j = int(np.argmin(pivots))
    return j, float(pivots[j])


def definiteness_pivot(Q, S, R, A, B, c):
    """``(stage, pivot)`` of :func:`cholesky_pivot` on the dense H + c G^T G.

    The stage is that of the pivot's column in the primal ordering of
    :func:`dense_lq_matrices`.
    """
    H, G = dense_lq_matrices(Q, S, R, A, B)
    col, pivot = cholesky_pivot(H + c * (G.T @ G))
    return col // (A.shape[1] + B.shape[2]), pivot


def riccati_stage_pivot(Q, S, R, A, B, k):
    """:func:`cholesky_pivot`'s pivot of R_k + B_k^T P_{k+1} B_k.

    P_{k+1} comes from the textbook Riccati recursion P_T = Q_T,
    P_j = Q_j + A_j^T P A_j - St^T (R_j + B_j^T P B_j)^{-1} St with
    St = S_j + B_j^T P A_j, made symmetric at every stage: over long
    horizons of unstable A its rounding asymmetry would otherwise grow until
    P is meaningless.
    """
    P = Q[-1]
    for j in range(A.shape[0] - 1, k, -1):
        St = S[j] + B[j].T @ P @ A[j]
        P = Q[j] + A[j].T @ P @ A[j] - St.T @ np.linalg.solve(
            R[j] + B[j].T @ P @ B[j], St)
        P = 0.5 * (P + P.T)
    return cholesky_pivot(R[k] + B[k].T @ P @ B[k])[1]


def reference_riccati_sweep(Q, S, R, A, B, gx, gu, c0, cdyn):
    """``fotd.banded.solve_lq_riccati`` in its plain form, through np.linalg.

    The kernel makes fewer and cheaper calls per stage; this form, kept as
    it was, is what it must match bit for bit, in results and in errors.
    It solves a stack of canonical LQ problems of one length by a Riccati
    sweep.

    Every argument has a leading batch axis of size K ahead of the shapes
    :func:`solve_lq_kkt` takes; returns ``(p, q, zeta)`` with shapes
    (K, T+1, n_x), (K, T, n_u), (K, T+1, n_x) and its conventions, i.e.
    zeta_k = -(P_k p_k + s_k) for the cost-to-go 1/2 p^T P_k p + s_k^T p.

    Stage k of the backward sweep factors R_k + B_k^T P_{k+1} B_k by
    Cholesky.  If that breaks down or a pivot (squared diagonal of the
    factor) falls below PIVOT_TOL in some member, the sweep stops with
    :class:`IndefiniteStageError` naming the first such member, the stage
    and the margin.  No operation mixes members, so a member's result is bit
    for bit the one it gets when solved alone.
    """
    K, T, nx, nu = B.shape
    m = nx + nu
    # The stage vector is y_k = [p_k; 1; q_k]: F_k = [[A_k, cdyn_k, B_k],
    # [0, 1, 0]] maps it to [p_{k+1}; 1], and H_k holds the stage costs'
    # [Hessian | gradient] in the same order, so one product per stage also
    # carries the affine terms.  F and H hold the stages of one chunk of
    # COST_CHUNK stages at a time, stage k in slot k % COST_CHUNK, refilled
    # as each pass enters a chunk: the backward pass both, the forward one F.
    C = min(T, COST_CHUNK)
    F = np.zeros((K, C, nx + 1, m + 1))
    F[..., nx, nx] = 1.0
    Ft = F[..., :nx, :].transpose(0, 1, 3, 2)
    H = np.zeros((K, C, m + 1, m + 1))

    def fill_F(chunk, count):
        F[:, :count, :nx, :nx] = A[:, chunk]
        F[:, :count, :nx, nx] = cdyn[:, chunk]
        F[:, :count, :nx, nx + 1:] = B[:, chunk]
    # V_k = [P_k, s_k]: the cost-to-go 1/2 p^T P_k p + s_k^T p.
    V = np.empty((K, T + 1, nx, nx + 1))
    V[:, T, :, :nx] = Q[:, T]
    V[:, T, :, nx] = gx[:, T]
    # X_k = Rt_k^{-1} [St_k, gut_k], so q_k = -X_k [p_k; 1].
    X = np.empty((K, T, nu, nx + 1))
    for k in range(T - 1, -1, -1):
        j = k % COST_CHUNK
        if k == T - 1 or j == COST_CHUNK - 1:
            chunk = slice(k - j, k + 1)
            fill_F(chunk, j + 1)
            H[:, :j + 1, :nx, :nx] = Q[:, chunk]
            H[:, :j + 1, :nx, nx] = gx[:, chunk]
            H[:, :j + 1, :nx, nx + 1:] = S[:, chunk].transpose(0, 1, 3, 2)
            H[:, :j + 1, nx + 1:, :nx] = S[:, chunk]
            H[:, :j + 1, nx + 1:, nx] = gu[:, chunk]
            H[:, :j + 1, nx + 1:, nx + 1:] = R[:, chunk]
        Z = Ft[:, j] @ (V[:, k + 1] @ F[:, j])
        Z += H[:, j]  # rows p and q: [[Qt, gxt, St^T], [St, gut, Rt]]
        Rt = Z[:, nx + 1:, nx + 1:]
        try:
            L = np.linalg.cholesky(Rt)
        except np.linalg.LinAlgError:
            raise first_indefinite_member(Rt, k) from None
        if not np.diagonal(L, 0, 1, 2).min() ** 2 >= PIVOT_TOL:
            raise first_indefinite_member(Rt, k)
        X[:, k] = np.linalg.solve(Rt, Z[:, nx + 1:, :nx + 1])
        np.subtract(Z[:, :nx, :nx + 1], Z[:, :nx, nx + 1:] @ X[:, k],
                    out=V[:, k])

    y = np.empty((K, T + 1, m + 1, 1))
    y[:, 0, :nx, 0] = c0
    y[:, 0, nx] = 1.0
    for k in range(T):
        j = k % COST_CHUNK
        if j == 0:
            fill_F(slice(k, k + C), min(C, T - k))
        np.negative(X[:, k] @ y[:, k, :nx + 1], out=y[:, k, nx + 1:])
        np.matmul(F[:, j], y[:, k], out=y[:, k + 1, :nx + 1])
    zeta = -(V @ y[:, :, :nx + 1])
    out = (y[:, :, :nx, 0], y[:, :T, nx + 1:, 0], zeta[..., 0])
    if not all(np.all(np.isfinite(a)) for a in out):
        raise LinearSolverError("Riccati solve produced non-finite values")
    return out


def first_indefinite_member(Rt, stage):
    """The :class:`IndefiniteStageError` of a stack ``Rt`` that failed the test.

    np.linalg.cholesky of each member alone decides which member is the
    first to fail the pivot test.  It returns no factor when it stops, so
    LAPACK's ``dpotrf``, the routine the package calls, factors that member
    again for the pivot it stopped at.
    """
    for member, r in enumerate(Rt):
        try:
            diag, info = np.diagonal(np.linalg.cholesky(r)), 0
        except np.linalg.LinAlgError:
            fact, info = dpotrf(r)
            diag = np.diagonal(fact)
        pivot = diag[info - 1] if info > 0 else np.min(diag ** 2)
        if not pivot >= PIVOT_TOL:
            return IndefiniteStageError(member, stage, float(pivot) - PIVOT_TOL)
    raise AssertionError("a stack failed the pivot test but no member did")


def reference_band_direction(nd, plan, mu):
    """``fotd.decomposition.approximate_direction``'s band path in its plain form.

    Every subproblem is truncated from the blocks and assembled alone: a
    copy of Q with mu * I on the terminal block short of N, its own
    H + c G^T G band and KKT band from ``banded._test_band`` and
    ``banded._kkt_band``, and its own right-hand side; c comes from the
    horizon's stage norms and the subproblem's terminal block.  ``dpbtrf``
    tests, ``dgbsv`` solves, and the first failing subproblem in plan order
    raises ``MuTooSmallError``.  The direction assembled once over the
    horizon and cut into windows must match this bit for bit, in results
    and in errors.
    """
    nx, nu = nd.n_x, nd.n_u
    m = nx + nu
    norms = stage_norms_fro(nd.Q, nd.S, nd.R)

    def solve(i):
        m1, m2 = plan.m1[i], plan.m2[i]
        T, k = m2 - m1, slice(m1, m2)
        Q = nd.Q[m1:m2 + 1].copy()
        if m2 < plan.N:
            penalty = np.zeros((nx, nx))
            penalty.flat[::nx + 1] = mu
            Q[-1] += penalty
        blocks = (Q, nd.S[k], nd.R[k], nd.A[k], nd.B[k])
        c = 10.0 * float(max(norms[k].max(initial=0.0),
                             np.sqrt(np.einsum("ij,ij->", Q[-1], Q[-1])))) + 1.0
        fact, info = dpbtrf(_test_band(*blocks, c), lower=1, overwrite_ab=1)
        diag = fact[0]
        if info > 0:
            col, pivot = info - 1, float(diag[info - 1])
        else:
            col = int(np.argmin(diag ** 2))
            pivot = float(diag[col] ** 2)
        if not pivot >= PIVOT_TOL:
            raise MuTooSmallError(i, mu, m1 + col // m, pivot - PIVOT_TOL)
        ab, bw = _kkt_band(*blocks)
        stages = np.empty((T + 1, 2 * nx + nu))
        stages[0, :nx] = np.zeros(nx)
        stages[1:, :nx] = -nd.glam[m1 + 1:m2 + 1]
        np.negative(nd.gx[m1:m2 + 1], out=stages[:, nx: 2 * nx])
        np.negative(nd.gu[k], out=stages[:T, 2 * nx:])
        rhs = stages.reshape(-1)[:ab.shape[1]]
        _, _, sol, info = dgbsv(bw, bw, ab, rhs, overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise LinearSolverError(
                f"banded KKT factorization failed: LAPACK dgbsv info={info}")
        if not np.isfinite(sol).all():
            raise LinearSolverError("banded KKT solve produced non-finite values")
        rhs[:] = sol
        return (stages[:, nx: 2 * nx].copy(), stages[:T, 2 * nx:].copy(),
                stages[:, :nx].copy())

    parts = [solve(i) for i in range(plan.M)]
    dx, du, dlam = compose(parts, plan)
    return NewtonDirection(stack_primal(dx, du), dlam.ravel())


# ---------------------------------------------------------------------------
# Residuals of the LQ optimality system at a candidate solution
# ---------------------------------------------------------------------------

def lq_kkt_residual(Q, S, R, A, B, gx, gu, c0, cdyn, p, q, zeta) -> float:
    """2-norm of the KKT residual of a candidate (p, q, zeta), stage by stage."""
    T = len(R)
    res = [Q[T] @ p[T] + gx[T] + zeta[T], p[0] - c0]
    for k in range(T):
        res += [Q[k] @ p[k] + S[k].T @ q[k] + gx[k] + zeta[k] - A[k].T @ zeta[k + 1],
                S[k] @ p[k] + R[k] @ q[k] + gu[k] - B[k].T @ zeta[k + 1],
                p[k + 1] - A[k] @ p[k] - B[k] @ q[k] - cdyn[k]]
    return float(np.sqrt(sum(float(r @ r) for r in res)))


def lq_rhs_norm(gx, gu, c0, cdyn) -> float:
    """Norm of the KKT right-hand side (for relative residual tolerances)."""
    return float(np.sqrt(float(gx.ravel() @ gx.ravel())
                         + float(gu.ravel() @ gu.ravel())
                         + float(c0 @ c0)
                         + float(cdyn.ravel() @ cdyn.ravel())))


def direction_kkt_residual(nd, d) -> float:
    """Residual of the Newton system of ``nd`` at a candidate direction."""
    dx, du, dl = d.stage_arrays(nd.N, nd.n_x, nd.n_u)
    return lq_kkt_residual(nd.Q, nd.S, nd.R, nd.A, nd.B, nd.gx, nd.gu,
                           -nd.glam[0], -nd.glam[1:], dx, du, dl)


def newton_rhs_norm(nd) -> float:
    return lq_rhs_norm(nd.gx, nd.gu, -nd.glam[0], -nd.glam[1:])


def subproblem_kkt_residual(sub, sol) -> float:
    """Residual of the subproblem KKT system at a candidate solution."""
    return lq_kkt_residual(*sub.lq, sol.p, sol.q, sol.zeta)


# ---------------------------------------------------------------------------
# Dense nonlinear KKT machinery
# ---------------------------------------------------------------------------

def dense_kkt_system(p: ProblemDef, z: Trajectory, lam: DualTrajectory):
    """Dense KKT matrix and residual at an iterate, assembled from callbacks."""
    N, nx, nu = p.N, p.n_x, p.n_u
    m = nx + nu
    nz, nc = N * m + nx, (N + 1) * nx
    H = np.zeros((nz, nz))
    G = np.zeros((nc, nz))
    grad = np.zeros(nz)
    cons = np.zeros(nc)
    cons[:nx] = z.x[0] - p.x0
    for k in range(N):
        ix, iu = k * m, k * m + nx
        Qc, Sc, Rc = p.cost_hessian(k, z.x[k], z.u[k])
        Wxx, Wux, Wuu = p.dynamics_hessian_contraction(k, z.x[k], z.u[k],
                                                       lam.lam[k + 1])
        blk = np.block([[Qc + Wxx, (Sc + Wux).T], [Sc + Wux, Rc + Wuu]])
        H[ix:ix + m, ix:ix + m] = blk
        A, B = p.dynamics_jacobians(k, z.x[k], z.u[k])
        gx, gu = p.cost_gradient(k, z.x[k], z.u[k])
        grad[ix:ix + nx] = gx + lam.lam[k] - A.T @ lam.lam[k + 1]
        grad[iu:iu + nu] = gu - B.T @ lam.lam[k + 1]
        row = (k + 1) * nx
        G[row:row + nx, ix:ix + nx] = -A
        G[row:row + nx, iu:iu + nu] = -B
        G[row:row + nx, ix + m:ix + m + nx] = np.eye(nx)
        cons[row:row + nx] = z.x[k + 1] - np.asarray(p.dynamics(k, z.x[k], z.u[k]))
    H[N * m:, N * m:] = p.cost_hessian(N, z.x[N])
    grad[N * m:] = p.cost_gradient(N, z.x[N]) + lam.lam[N]
    G[:nx, :nx] = np.eye(nx)
    K = np.block([[H, G.T], [G, np.zeros((nc, nc))]])
    return K, np.concatenate([grad, cons])


def stagewise_merit_terms(p: ProblemDef, z: Trajectory,
                          lam: DualTrajectory) -> MeritTerms:
    """(L, grad_z, grad_lam) with all arithmetic inside the stage loop.

    The per-stage form of ``fotd.problem._merit_terms``, kept as the
    reference the horizon-batched pass must match bit for bit.
    """
    gx = np.empty((p.N + 1, p.n_x))
    gu = np.empty((p.N, p.n_u))
    glam = np.empty((p.N + 1, p.n_x))
    glam[0] = z.x[0] - p.x0
    lm = lam.lam
    lagr = float(lm[0] @ glam[0])
    for k in range(p.N):
        xk, uk = z.x[k], z.u[k]
        lagr += float(p.stage_cost(k, xk, uk))
        cgx, cgu = p.cost_gradient(k, xk, uk)
        A, B = p.dynamics_jacobians(k, xk, uk)
        gx[k] = cgx + lm[k] - A.T @ lm[k + 1]
        gu[k] = cgu - B.T @ lm[k + 1]
        glam[k + 1] = z.x[k + 1] - np.asarray(p.dynamics(k, xk, uk))
        lagr += float(lm[k + 1] @ glam[k + 1])
    lagr += float(p.stage_cost(p.N, z.x[p.N]))
    gx[p.N] = p.cost_gradient(p.N, z.x[p.N]) + lm[p.N]
    return MeritTerms(lagr, stack_primal(gx, gu), glam.ravel())


def stagewise_linearize(p: ProblemDef, z: Trajectory, lam: DualTrajectory):
    """``fotd.problem.linearize`` with all arithmetic inside the stage loop.

    The per-stage reference the horizon-batched pass must match bit for bit.
    """
    nx, nu = p.n_x, p.n_u
    Q = np.empty((p.N + 1, nx, nx))
    S = np.empty((p.N, nu, nx))
    R = np.empty((p.N, nu, nu))
    A = np.empty((p.N, nx, nx))
    B = np.empty((p.N, nx, nu))
    gx = np.empty((p.N + 1, nx))
    gu = np.empty((p.N, nu))
    glam = np.empty((p.N + 1, nx))
    glam[0] = z.x[0] - p.x0
    lm = lam.lam
    for k in range(p.N):
        xk, uk = z.x[k], z.u[k]
        Qc, Sc, Rc = p.cost_hessian(k, xk, uk)
        Wxx, Wux, Wuu = p.dynamics_hessian_contraction(k, xk, uk, lm[k + 1])
        Q[k] = Qc + Wxx
        S[k] = Sc + Wux
        R[k] = Rc + Wuu
        A[k], B[k] = p.dynamics_jacobians(k, xk, uk)
        cgx, cgu = p.cost_gradient(k, xk, uk)
        gx[k] = cgx + lm[k] - A[k].T @ lm[k + 1]
        gu[k] = cgu - B[k].T @ lm[k + 1]
        glam[k + 1] = z.x[k + 1] - np.asarray(p.dynamics(k, xk, uk))
    Q[p.N] = p.cost_hessian(p.N, z.x[p.N])
    gx[p.N] = p.cost_gradient(p.N, z.x[p.N]) + lm[p.N]
    return Q, S, R, A, B, stack_primal(gx, gu), glam.ravel()


def newton_solve_to_kkt(p: ProblemDef, z0=None, lam0=None, tol=1e-12,
                        max_iters=100):
    """Plain dense Newton iteration on the KKT system (no globalization)."""
    N, nx, nu = p.N, p.n_x, p.n_u
    m = nx + nu
    z = z0.copy() if z0 is not None else Trajectory.zeros(p)
    lam = lam0.copy() if lam0 is not None else DualTrajectory.zeros(p)
    for _ in range(max_iters):
        K, r = dense_kkt_system(p, z, lam)
        if np.linalg.norm(r) <= tol:
            return z, lam
        d = np.linalg.solve(K, -r)
        w = d[:N * m + nx]
        z.x[:N] += w[:N * m].reshape(N, m)[:, :nx]
        z.u += w[:N * m].reshape(N, m)[:, nx:]
        z.x[N] += w[N * m:]
        lam.lam += d[N * m + nx:].reshape(N + 1, nx)
    raise AssertionError("oracle Newton iteration did not reach a KKT point")


# ---------------------------------------------------------------------------
# Generic linear-quadratic test problem
# ---------------------------------------------------------------------------

def make_random_lq(N, nx, nu, seed=0, definite=True, affine=True):
    """Random LQ problem instance with analytic callbacks.

    Costs are 1/2 w^T H_k w + h_k^T w per stage, dynamics A_k x + B_k u + c_k.
    ``definite=True`` makes every stage block positive definite.
    """
    rng = np.random.default_rng(seed)

    def sym(n):
        M = rng.standard_normal((n, n))
        return M @ M.T + (0.7 * np.eye(n) if definite else -0.2 * np.eye(n))

    Q = np.stack([sym(nx) for _ in range(N + 1)])
    S = 0.2 * rng.standard_normal((N, nu, nx))
    R = np.stack([sym(nu) for _ in range(N)])
    qx = rng.standard_normal((N + 1, nx))
    qu = rng.standard_normal((N, nu))
    A = 0.6 * rng.standard_normal((N, nx, nx))
    B = rng.standard_normal((N, nx, nu))
    cdyn = rng.standard_normal((N, nx)) if affine else np.zeros((N, nx))
    x0 = rng.standard_normal(nx)
    zero = (np.zeros((nx, nx)), np.zeros((nu, nx)), np.zeros((nu, nu)))

    def stage_cost(k, x, u=None):
        if k == N:
            return 0.5 * float(x @ Q[N] @ x) + float(qx[N] @ x)
        return (0.5 * float(x @ Q[k] @ x) + float(u @ S[k] @ x)
                + 0.5 * float(u @ R[k] @ u) + float(qx[k] @ x)
                + float(qu[k] @ u))

    def cost_gradient(k, x, u=None):
        if k == N:
            return Q[N] @ x + qx[N]
        return Q[k] @ x + S[k].T @ u + qx[k], S[k] @ x + R[k] @ u + qu[k]

    def cost_hessian(k, x, u=None):
        if k == N:
            return Q[N]
        return Q[k], S[k], R[k]

    prob = ProblemDef(
        N=N, n_x=nx, n_u=nu, x0=x0,
        stage_cost=stage_cost, cost_gradient=cost_gradient,
        cost_hessian=cost_hessian,
        dynamics=lambda k, x, u: A[k] @ x + B[k] @ u + cdyn[k],
        dynamics_jacobians=lambda k, x, u: (A[k], B[k]),
        dynamics_hessian_contraction=lambda k, x, u, lam: zero,
    )
    data = dict(Q=Q, S=S, R=R, qx=qx, qu=qu, A=A, B=B, cdyn=cdyn, x0=x0)
    return prob, data


def singular_gain_block(tries=1000):
    """A 2x2 block that passes the pivot test but whose LU is exactly singular.

    Rt = [[a, b], [b, (b / a) b]] keeps a positive Cholesky pivot of
    rounding size, at least PIVOT_TOL when the entries are ~1e7, while its
    LU can end at an exact zero.  None when this LAPACK factors every
    candidate without a zero pivot.
    """
    rng = np.random.default_rng(1)
    for _ in range(tries):
        a, b = 10.0 ** rng.uniform(6, 9) * rng.uniform([1, 0.1], [2, 1])
        Rt = np.array([[a, b], [b, b / a * b]])
        try:
            np.linalg.solve(Rt, np.eye(2))
        except np.linalg.LinAlgError:
            if np.diagonal(np.linalg.cholesky(Rt)).min() ** 2 >= PIVOT_TOL:
                return Rt
    return None


def singular_lu_block(tries=1000):
    """A 2x2 block that passes the band pivot test but whose band LU is singular.

    Rt = [[a, b], [b, (b / a) b]] with b a power of two: the LU's
    elimination b - (b / a) b is then exactly zero however it rounds, while
    the Cholesky pivot (b / sqrt(a))^2 rounds otherwise and may leave a
    positive remainder of at least PIVOT_TOL.  Each candidate is tried as
    the control block of a one-stage problem with S = B = 0, which
    ``fotd.banded`` both tests and solves.  None when no candidate does.
    """
    rng = np.random.default_rng(1)
    d = lq_data(1, 1, 2, seed=0)
    d.S[0], d.B[0] = 0.0, 0.0
    b = 2.0 ** 23
    for _ in range(tries):
        a = 10.0 ** rng.uniform(7, 8)
        d.R[0] = np.array([[a, b], [b, b / a * b]])
        try:
            solve_lq_kkt(d.Q, d.S, d.R, d.A, d.B, d.gx, d.gu, d.c0, d.cdyn)
        except SingularKKTError:
            if pivot_failure(d.Q, d.S, d.R, d.A, d.B, 10.0) is None:
                return d.R[0].copy()
    return None


def lq_data(T, nx, nu, seed, shift=0.7):
    """Canonical LQ data; stage Hessian blocks are M M^T + shift * I."""
    rng = np.random.default_rng(seed)

    def sym(count, n):
        M = rng.standard_normal((count, n, n))
        return M @ M.transpose(0, 2, 1) + shift * np.eye(n)

    return SimpleNamespace(
        Q=sym(T + 1, nx), S=0.2 * rng.standard_normal((T, nu, nx)), R=sym(T, nu),
        A=0.6 * rng.standard_normal((T, nx, nx)), B=rng.standard_normal((T, nx, nu)),
        gx=rng.standard_normal((T + 1, nx)), gu=rng.standard_normal((T, nu)),
        c0=rng.standard_normal(nx), cdyn=rng.standard_normal((T, nx)))


def random_point(p: ProblemDef, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    z = Trajectory(rng.uniform(-scale, scale, (p.N + 1, p.n_x)),
                   rng.uniform(-scale, scale, (p.N, p.n_u)))
    lam = DualTrajectory(rng.uniform(-scale, scale, (p.N + 1, p.n_x)))
    return z, lam


# ---------------------------------------------------------------------------
# Callback call records
# ---------------------------------------------------------------------------

CALLBACKS = ("stage_cost", "cost_gradient", "cost_hessian", "dynamics",
             "dynamics_jacobians", "dynamics_hessian_contraction")


def recording(p: ProblemDef):
    """Copy of ``p`` whose callbacks record their per-stage and batched calls.

    Returns the copy, the stages of every per-stage call and the stage
    tuples of every batched call, both keyed by callback name.  A callback
    keeps its batched form when it has one.
    """
    stages, batches = defaultdict(list), defaultdict(list)

    def recorded(name):
        fn = getattr(p, name)

        def callback(k, *args):
            stages[name].append(k)
            return fn(k, *args)

        def form(ks, *arrays):
            batches[name].append(tuple(ks.tolist()))
            return fn.batched(ks, *arrays)
        return stage_batched(form)(callback) if hasattr(fn, "batched") else callback

    return replace(p, **{name: recorded(name) for name in CALLBACKS}), stages, batches


def per_stage_copy(p: ProblemDef) -> ProblemDef:
    """Copy of ``p`` whose callbacks are plain per-stage callables."""
    return replace(p, **{name: (lambda fn: lambda *args: fn(*args))(
        getattr(p, name)) for name in CALLBACKS})


def batched_copy(p: ProblemDef) -> ProblemDef:
    """Copy of ``p`` whose callbacks carry a batched form over per-stage calls.

    The form stacks the per-stage outputs, so it matches them bit for bit,
    as the batched-form contract asks.
    """
    def batched(fn):
        def form(ks, *arrays):
            outs = [fn(*args) for args in zip(ks.tolist(), *arrays)]
            if isinstance(outs[0], tuple):
                return tuple(np.array(out) for out in zip(*outs))
            return np.array(outs)
        return stage_batched(form)(lambda *args: fn(*args))

    return replace(p, **{name: batched(getattr(p, name)) for name in CALLBACKS})


def report_bytes(report):
    """A solve report as comparable values, floats by their bits.

    Every record's fields but ``wall_ms``, the status, the descent
    violations, the error's type and string, and the bytes of the final x,
    u and lam: two reports with equal values are equal bit for bit.
    """
    records = [tuple(None if v is None else float(v).hex() for v in (
        r.iteration, r.kkt_residual, r.merit, r.stepsize, r.gamma,
        r.dir_err_ratio, r.step_norm)) for r in report.records]
    return (records, report.status, report.descent_violations,
            type(report.exception), report.error, report.z.x.tobytes(),
            report.z.u.tobytes(), report.lam.lam.tobytes())
