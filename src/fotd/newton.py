"""Full-horizon Newton system: assembly, Hessian modification, direct solve.

At an iterate (z, lam) the SQP direction solves the saddle-point system

    [ Hhat  G^T ] [ dz   ]     [ grad_z L   ]
    [ G     0   ] [ dlam ] = - [ grad_lam L ],

where Hhat is a structure-preserving modification of the stagewise Lagrangian
Hessian that is positive definite on the null space of the constraint
Jacobian G.  Definiteness is certified by factorizing H + c * G^T G for a
sufficiently large scalar c (the matrix is block tridiagonal, so the test
costs one banded Cholesky); when the test fails, a Levenberg shift
Hhat = H + gamma * I is applied with gamma chosen from a geometric ladder.
The test is the same whatever kernel later solves the system, so gamma
does not depend on the mode.

The exact direction goes to one of the two LQ kernels of :mod:`banded` by
block width.  Below FULL_RICCATI_MIN_NX states it is the banded LU of the
stage-interleaved KKT matrix; from there on, the Riccati sweep as a batch
of one.  Unlike the decomposed direction's batches, a single horizon
cannot spread the sweep's per-stage call overhead over several members,
so the LU stays faster up to much wider blocks than there
(:data:`fotd.decomposition.RICCATI_MIN_NX`).  Sweep time over LU time,
measured on random definite blocks at T = 500 with n_u = n_x, one x86-64
core, medians of 21 interleaved runs, two runs of the table:

    n_x     4    8    10   12   13   14   15   16   20
    ratio   5.3  1.6  1.0  0.96 0.80 0.70 0.59 0.50 0.40
            5.9  1.9  1.1  1.1  0.92 0.78 0.65 0.59 0.43

The sweep is the faster from 13 states on, two below the switch.
FULL_RICCATI_MIN_NX stays 15 all the same, until a kernel-crossover
harness measures both switches: the kernel also decides how a horizon of
13 or 14 states rounds, so moving it is a change of results, to be
declared as such, not only of speed.

The LU's band holds (3 (2 n_x + n_u) - 2) (T (2 n_x + n_u) + 2 n_x)
doubles, 27 MB on the plate at m = 6 (n_x = n_u = 16, T = 500), against
about 5 MB for the sweep's arrays there.

On the sweep's side the horizon is split at its junctions, the stages
whose S, A and B are exactly zero (see :mod:`banded`): nothing passes
across them, so the pieces between them are independent problems.  A
horizon the Schwarz baseline chains from its intervals has one junction
between each two intervals (:mod:`fotd.schwarz`).  There the pieces of each
length are solved by one batched sweep, and the H + c G^T G test factors
one band per piece; both give what the whole horizon gives, bit for bit.
A horizon with no junction is one piece.  The LU's side is not split.

The module also evaluates two closed-form constants from the method's
analysis, used purely as diagnostics: a lower bound on G G^T implied by
controllability, and the penalty threshold above which every decomposed
subproblem stays definite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import banded
from .exceptions import (IndefiniteHorizonError, IndefiniteStageError,
                         ModificationFailure, NumericsError)
from .problem import (DualTrajectory, ProblemDef, Trajectory, linearize,
                      split_primal, stack_primal)

GAMMA_SEED = 1e-4     # ladder start, scaled by (1 + max block norm)
GAMMA_STEP = 2.0      # ladder ratio
GAMMA_CEILING = 1e8   # ladder abort, same scaling

# Block width n_x from which the exact direction is solved by the Riccati
# sweep instead of the band LU (see the module docstring).
FULL_RICCATI_MIN_NX = 15


@dataclass(frozen=True)
class NewtonData:
    """Linearization of the problem at one iterate.

    Holds the (possibly modified) stage Hessian blocks, dynamics Jacobians,
    and the Lagrangian gradient split by stage.  ``glam`` stacks the
    constraint residuals; ``gamma_applied`` records the Levenberg shift.
    ``junctions`` are stages whose S, A and B are zero, at which the Riccati
    sweep may split the horizon (module docstring); none solves it whole.
    :func:`assemble_newton_data` scans for them once, from
    FULL_RICCATI_MIN_NX states on: the Levenberg shift keeps S, A and B, so
    every rung of the ladder and the solve share the scan.  ``stage_norms``
    is computed on first use and kept, so the Hessian modification's
    definiteness constant and the decomposed direction's share one pass;
    so is ``lq``, the system as canonical LQ data.  A Levenberg-shifted
    copy computes its own.  Immutable and safe to share across worker
    threads.
    """

    N: int
    n_x: int
    n_u: int
    Q: np.ndarray      # (N+1, n_x, n_x), terminal block included
    S: np.ndarray      # (N, n_u, n_x)
    R: np.ndarray      # (N, n_u, n_u)
    A: np.ndarray      # (N, n_x, n_x)
    B: np.ndarray      # (N, n_x, n_u)
    gx: np.ndarray     # (N+1, n_x)
    gu: np.ndarray     # (N, n_u)
    glam: np.ndarray   # (N+1, n_x)
    gamma_applied: float = 0.0
    junctions: tuple | np.ndarray = ()

    @cached_property
    def stage_norms(self) -> np.ndarray:
        """:func:`stage_norms_fro` of the blocks, computed once."""
        return stage_norms_fro(self.Q, self.S, self.R)

    @cached_property
    def lq(self) -> banded.LQ:
        """The Newton system as a :class:`banded.LQ`: c0 = -glam_0, cdyn = -glam_{1:}.

        Every direction reads the system through it: the exact one whole,
        the decomposed one by windows of its stages.
        """
        return banded.LQ(self.Q, self.S, self.R, self.A, self.B, self.gx,
                         self.gu, -self.glam[0], -self.glam[1:])

    def max_block_norm_2(self) -> float:
        full = np.zeros((self.N, self.n_x + self.n_u, self.n_x + self.n_u))
        full[:, : self.n_x, : self.n_x] = self.Q[: self.N]
        full[:, self.n_x:, : self.n_x] = self.S
        full[:, : self.n_x, self.n_x:] = self.S.transpose(0, 2, 1)
        full[:, self.n_x:, self.n_x:] = self.R
        top = float(np.linalg.norm(np.linalg.svd(full, compute_uv=False), np.inf))
        return max(top, float(np.linalg.norm(self.Q[self.N], 2)))


@dataclass(frozen=True)
class NewtonDirection:
    """Primal/dual search direction, stage-major flat vectors."""

    dz: np.ndarray
    dlam: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(self.dz @ self.dz + self.dlam @ self.dlam))

    def stage_arrays(self, N: int, n_x: int, n_u: int):
        dx, du = split_primal(self.dz, N, n_x, n_u)
        return dx, du, self.dlam.reshape(N + 1, n_x)


def assemble_newton_data(p: ProblemDef, z: Trajectory, lam: DualTrajectory) -> NewtonData:
    """Evaluate Hessian blocks, Jacobians and gradients at (z, lam).

    Blocks are unmodified (gamma_applied = 0), and from FULL_RICCATI_MIN_NX
    states on the horizon's junctions are found.  Non-finite callback output
    raises :class:`NumericsError` carrying the offending stage; row k+1 of
    the constraint residual holds the dynamics of stage k.
    """
    N = p.N
    Q, S, R, A, B, gz, gl = linearize(p, z, lam)
    gx, gu = split_primal(gz, N, p.n_x, p.n_u)
    glam = gl.reshape(N + 1, p.n_x)
    if not all(np.isfinite(a).all() for a in (Q, S, R, A, B, gx, gu, glam[1:])):
        _raise_first_nonfinite(N, Q, S, R, A, B, gx, gu, glam)
    wide = p.n_x >= FULL_RICCATI_MIN_NX
    return NewtonData(N, p.n_x, p.n_u, Q, S, R, A, B, gx, gu, glam,
                      junctions=banded.junction_stages(S, A, B) if wide else ())


def _raise_first_nonfinite(N, Q, S, R, A, B, gx, gu, glam):
    """Raise :class:`NumericsError` at the first bad stage of the first bad group.

    The groups, in order: the Hessian and Jacobian blocks, the gradient and
    the constraint residual at the stages k < N, then the terminal block.
    """
    for name, arrs in (("Hessian/Jacobian", (Q[:N], S, R, A, B)),
                       ("gradient", (gx[:N], gu)),
                       ("constraint residual", (glam[1:],))):
        bad = np.zeros(N, dtype=bool)
        for arr in arrs:
            bad |= ~np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
        if bad.any():
            raise NumericsError(int(np.argmax(bad)), name)
    raise NumericsError(N, "terminal block")


def stage_norms_fro(Q, S, R) -> np.ndarray:
    """||H_k||_F of every stage Hessian [[Q_k, S_k^T], [S_k, R_k]], k < len(S)."""
    T = S.shape[0]
    q2 = np.einsum("kij,kij->k", Q[:T], Q[:T])
    s2 = np.einsum("kij,kij->k", S, S)
    r2 = np.einsum("kij,kij->k", R, R)
    return np.sqrt(q2 + 2.0 * s2 + r2)


def definiteness_constant(stage_norms, terminal) -> float:
    """Scalar c for the H + c G^T G test: 10 * max_k ||H_k||_F + 1.

    The maximum runs over the ``stage_norms`` (:func:`stage_norms_fro`)
    and the terminal block Q_T, ``terminal``.
    """
    terminal = np.sqrt(np.einsum("ij,ij->", terminal, terminal))
    return 10.0 * float(max(stage_norms.max(initial=0.0), terminal)) + 1.0


def default_definiteness_constant(lq) -> float:
    """:func:`definiteness_constant` of the blocks of canonical LQ data ``lq``.

    ``lq`` is a :class:`banded.LQ`, or anything else with its ``Q``, ``S``
    and ``R``.
    """
    return definiteness_constant(stage_norms_fro(lq.Q, lq.S, lq.R), lq.Q[-1])


def check_reduced_hessian(nd: NewtonData, c: float) -> bool:
    """True iff Hhat + c G^T G factors with all pivots >= 1e-10.

    For c large enough this is equivalent to positive definiteness of the
    reduced Hessian Z^T Hhat Z on the constraint null space.  From
    FULL_RICCATI_MIN_NX states on, the band is factored piece by piece
    between ``nd.junctions`` (module docstring).
    """
    if not c > 0:
        raise ValueError(f"definiteness constant must be positive, got {c}")
    return banded.definiteness_pivots_ok(nd.Q, nd.S, nd.R, nd.A, nd.B, c,
                                         nd.junctions)


def _shift(nd: NewtonData, gamma: float) -> NewtonData:
    nx = np.eye(nd.n_x)
    nu = np.eye(nd.n_u)
    return replace(nd, Q=nd.Q + gamma * nx, R=nd.R + gamma * nu,
                   gamma_applied=gamma)


def modify_hessian(nd: NewtonData) -> NewtonData:
    """Levenberg-style modification Hhat = H + gamma * I.

    The definiteness test uses :func:`definiteness_constant` of
    ``nd.stage_norms``.  Returns ``nd`` unchanged when the test already
    passes.  Otherwise the smallest shift from the geometric ladder
    gamma_0 * GAMMA_STEP^j that passes is applied, with
    gamma_0 = GAMMA_SEED * (1 + max_k ||H_k||).
    """
    c = definiteness_constant(nd.stage_norms, nd.Q[-1])
    if check_reduced_hessian(nd, c):
        return nd
    scale = 1.0 + nd.max_block_norm_2()
    gamma = GAMMA_SEED * scale
    ceiling = GAMMA_CEILING * scale
    while gamma <= ceiling:
        cand = _shift(nd, gamma)
        if check_reduced_hessian(cand, c):
            return cand
        gamma *= GAMMA_STEP
    raise ModificationFailure(
        f"no Levenberg shift up to {ceiling:.3e} restored definiteness")


def solve_full_newton(nd: NewtonData) -> NewtonDirection:
    """Unique solution of the full-horizon Newton system.

    Blocks narrower than FULL_RICCATI_MIN_NX states go to the banded LU of
    the stage-interleaved KKT matrix (:func:`banded.solve_lq_kkt`); wider
    ones to the Riccati sweep, split at ``nd.junctions`` into pieces
    that are solved in one batch per length (:func:`banded.solve_lq_pieces`;
    a horizon without junctions is a batch of one).  Its stagewise Cholesky
    raises :class:`IndefiniteHorizonError` naming the horizon stage that
    fails, the last one of the horizon, as a sweep over the whole horizon
    names it.  The caller is expected to have certified the reduced Hessian
    first.
    """
    if nd.n_x < FULL_RICCATI_MIN_NX:
        p, q, zeta = banded.solve_lq_kkt(*nd.lq)
    else:
        try:
            p, q, zeta = banded.solve_lq_pieces(*nd.lq, nd.junctions)
        except IndefiniteStageError as err:
            raise IndefiniteHorizonError(err.stage, err.margin) from err
    return NewtonDirection(stack_primal(p, q), zeta.ravel())


# ---------------------------------------------------------------------------
# Closed-form diagnostic constants
# ---------------------------------------------------------------------------

def _check_theory_args(gamma_c: float, t: float, upsilon: float):
    if not gamma_c > 0:
        raise ValueError(f"gamma_c must be positive, got {gamma_c}")
    if not t >= 1:
        raise ValueError(f"t must be at least 1, got {t}")
    if not upsilon > 1:
        raise ValueError(f"upsilon must exceed 1, got {upsilon}")


def theory_gamma_G(gamma_c: float, t: float, upsilon: float) -> float:
    """Lower bound on the singular values of G G^T implied by controllability."""
    _check_theory_args(gamma_c, t, upsilon)
    reach = upsilon ** (t + 1) / (upsilon - 1.0)
    return ((gamma_c / (gamma_c + reach)) ** 2
            * min(1.0, gamma_c) / (1.0 + upsilon) ** (2 * t))


def theory_mu_bar(gamma_c: float, t: float, upsilon: float) -> float:
    """Terminal-penalty threshold guaranteeing definite subproblems."""
    _check_theory_args(gamma_c, t, upsilon)
    return 32.0 * upsilon ** (4 * t + 1) / gamma_c
