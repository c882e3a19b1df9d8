"""Overlapping temporal decomposition of the horizon and of Newton solves.

The horizon [0, N] is cut at knots n_0 < ... < n_M into M exclusive
intervals, each extended by ``b`` stages on both ends:

    m1_i = max(n_i - b, 0),    m2_i = min(n_{i+1} + b, N).

A decomposition operator slices a full-horizon point onto the extended
intervals; the composition operator rebuilds a full-horizon point by taking
stage k from the unique interval whose exclusive range [n_i, n_{i+1})
contains it (variables on overlap stages are discarded), with stage N coming
from the last interval.

Each subproblem is the truncation of the full linear-quadratic Newton
problem onto [m1, m2], with its initial state pinned to a boundary value and
its terminal cost adjusted: the terminal Hessian block gains a quadratic
proximity penalty mu, and the terminal linear term absorbs the boundary
guesses for the next-stage multiplier and terminal control.  With all
boundary values set to zero, solving the M subproblems in parallel and
composing the exclusive parts yields the approximate search direction.

One truncation rule, :func:`_truncate`, slices the Newton data onto the
intervals for both kernels: windows of the blocks, a copy of Q with the
penalty on each terminal block short of N, and zero boundary values, which
therefore cost no arithmetic.  The kernel is chosen by the
block width n_x.  From RICCATI_MIN_NX states on, the subproblems of each
length are truncated together, through strided windows, and solved by one
batched Riccati sweep (:func:`banded.solve_lq_riccati`), whose stagewise
Cholesky is the exact definiteness test.  The windows need evenly spaced
starts, which even knots always give; a length whose starts are uneven is
solved one subproblem at a time, which changes no direction, as a batch
member solves bit for bit as it does alone.  Narrower blocks are truncated
one at a time by :func:`assemble_subproblem` and solved by the band kernel
and its H + c G^T G test, on a thread pool when ``workers > 1``.

Measured on the whole direction at N=500, M=10, b=5 (subproblems of 55 and
60 stages), random definite blocks with n_u = n_x, one x86-64 core, medians
of 41 interleaved runs, two runs: the band kernel is faster at n_x = 3
(1.1x) and the batched Riccati sweep from n_x = 4 on (1.1x at 4, 1.3x at 5
and 6, 1.6x at 7, 1.9x at 8, 3.3-3.8x at 16).  A band's factorization
grows with its (n_x + n_u)-wide fill, while the sweep's cost at small
widths is per-stage call overhead (see :mod:`banded`), which a batch of
subproblems shares.  So RICCATI_MIN_NX = 4 is the measured crossover.  The
kernel also decides the definiteness test (exact, against the c G^T G
heuristic) and the rounding, so moving the switch would change how the
plate at m = 4 (n_x = 4) is solved, not only how fast.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import banded
from .exceptions import IndefiniteStageError, MuTooSmallError
from .newton import (NewtonData, NewtonDirection,
                     default_definiteness_constant, stage_norms_fro)
from .problem import stack_primal

# Block width n_x from which the decomposed direction uses the batched
# Riccati kernel instead of the band kernel (see the module docstring).
RICCATI_MIN_NX = 4


@dataclass(frozen=True)
class DecompositionPlan:
    """Knots and extended-interval boundaries for an overlapping split."""

    N: int
    b: int
    knots: tuple
    m1: tuple
    m2: tuple

    @property
    def M(self) -> int:
        return len(self.knots) - 1


def make_plan(N: int, M: Optional[int] = None, b: int = 1,
              knots: Optional[Sequence[int]] = None) -> DecompositionPlan:
    """Build a plan from evenly spaced knots, or from explicit ones.

    Even spacing requires M to divide N and b >= 1.  Explicit knots may be
    uneven and tolerate b = 0, which expresses plain (non-overlapping)
    truncations.
    """
    if knots is None:
        if M is None:
            raise ValueError("either M or explicit knots are required")
        if M < 1 or M > N:
            raise ValueError(f"M must be in [1, {N}], got {M}")
        if N % M != 0:
            raise ValueError(f"M={M} must divide N={N} for even spacing "
                             "(pass explicit knots otherwise)")
        if b < 1:
            raise ValueError(f"overlap b must be at least 1, got {b}")
        knots = tuple(i * (N // M) for i in range(M + 1))
    else:
        knots = tuple(int(k) for k in knots)
        if knots[0] != 0 or knots[-1] != N:
            raise ValueError(f"knots must run from 0 to {N}, got {knots}")
        if any(a >= c for a, c in zip(knots, knots[1:])):
            raise ValueError(f"knots must be strictly increasing, got {knots}")
        if b < 0:
            raise ValueError(f"overlap b must be nonnegative, got {b}")
    if b >= N:
        raise ValueError(f"overlap b={b} must be smaller than the horizon N={N}")
    m1 = tuple(max(k - b, 0) for k in knots[:-1])
    m2 = tuple(min(k + b, N) for k in knots[1:])
    return DecompositionPlan(N, b, knots, m1, m2)


@dataclass(frozen=True)
class BoundaryVars:
    """Nonzero boundary data handed to one subproblem.

    ``d1`` pins the initial state; ``d2``/``d3``/``d4`` are the terminal
    state, terminal control, and next-stage multiplier guesses.  The last
    subproblem (terminal boundary at N) carries only d1.
    """

    d1: np.ndarray
    d2: Optional[np.ndarray] = None
    d3: Optional[np.ndarray] = None
    d4: Optional[np.ndarray] = None


def decompose(x: np.ndarray, u: np.ndarray, lam: np.ndarray,
              plan: DecompositionPlan):
    """Slice a full-horizon point onto every extended interval.

    Returns a list of (x_i, u_i, lam_i) with states/multipliers over
    [m1, m2] and controls over [m1, m2).
    """
    return [(x[m1:m2 + 1].copy(), u[m1:m2].copy(), lam[m1:m2 + 1].copy())
            for m1, m2 in zip(plan.m1, plan.m2)]


def compose(parts: Sequence, plan: DecompositionPlan):
    """Rebuild a full-horizon point from per-interval parts.

    Stage k is taken from the unique interval with k in [n_i, n_{i+1});
    stage N from the last interval.  Overlap stages outside the exclusive
    ranges are discarded.  Raises ValueError when parts are missing or
    mis-sized.
    """
    if len(parts) != plan.M:
        raise ValueError(f"expected {plan.M} subproblem parts, got {len(parts)}")
    xi0, ui0, li0 = parts[0]
    n_x, n_u = xi0.shape[1], ui0.shape[1]
    x = np.empty((plan.N + 1, n_x))
    u = np.empty((plan.N, n_u))
    lam = np.empty((plan.N + 1, n_x))
    for i, (xi, ui, li) in enumerate(parts):
        m1, m2 = plan.m1[i], plan.m2[i]
        if (xi.shape[0] != m2 - m1 + 1 or ui.shape[0] != m2 - m1
                or li.shape[0] != m2 - m1 + 1):
            raise ValueError(f"part {i} does not match interval [{m1}, {m2}]")
        lo, hi = plan.knots[i], plan.knots[i + 1]
        x[lo:hi] = xi[lo - m1:hi - m1]
        u[lo:hi] = ui[lo - m1:hi - m1]
        lam[lo:hi] = li[lo - m1:hi - m1]
    xi, ui, li = parts[-1]
    x[plan.N] = xi[plan.N - plan.m1[-1]]
    lam[plan.N] = li[plan.N - plan.m1[-1]]
    return x, u, lam


@dataclass(frozen=True)
class SubproblemData:
    """Canonical LQ data of one decomposed Newton subproblem."""

    index: int
    m1: int
    m2: int
    mu: float
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    A: np.ndarray
    B: np.ndarray
    gx: np.ndarray
    gu: np.ndarray
    c0: np.ndarray
    cdyn: np.ndarray


@dataclass(frozen=True)
class SubproblemSolution:
    """Primal (p over [m1, m2], q over [m1, m2)) and dual zeta over [m1, m2]."""

    index: int
    p: np.ndarray
    q: np.ndarray
    zeta: np.ndarray


def assemble_subproblem(nd: NewtonData, plan: DecompositionPlan, i: int,
                        mu: float,
                        d: Optional[BoundaryVars] = None) -> SubproblemData:
    """Truncate the Newton problem onto extended interval i.

    This is member 0 of :func:`_truncate`, the rule the Riccati kernel reads
    too: zero boundary values, and the terminal block Q_{m2} + mu * I when
    m2 < N.  Boundary values ``d``, when given, are added on top: c0 = d1,
    and short of N the terminal linear term becomes
    gx_{m2} - A_{m2}^T d4 + S_{m2}^T d3 - mu * d2, with stage m2's own A and
    S, which lie outside the window.  When m2 = N only d1 applies, and
    short of N d2, d3 and d4 are required; ValueError says which value is
    missing or unused, or which is not of its shape: (n_u,) for d3, (n_x,)
    for the others.
    """
    Q, S, R, A, B, gx, gu, c0, cdyn = [a[0] for a in _truncate(nd, plan, [i], mu)]
    m1, m2 = plan.m1[i], plan.m2[i]
    if d is not None:
        missing = [k for k in ("d2", "d3", "d4") if getattr(d, k) is None]
        if m2 == plan.N and len(missing) < 3:
            raise ValueError("terminal boundary values are not used when the "
                             "interval reaches the end of the horizon")
        if m2 < plan.N and missing:
            raise ValueError(f"interval {i} ends before N, so it needs {missing}")
        for k, n in (("d1", nd.n_x), ("d2", nd.n_x), ("d3", nd.n_u),
                     ("d4", nd.n_x)):
            shape = np.shape(getattr(d, k))
            if k not in missing and shape != (n,):
                raise ValueError(f"{k} must have shape ({n},), got {shape}")
        c0 = d.d1.copy()
        if m2 < plan.N:
            gx = gx.copy()
            gx[-1] = gx[-1] - nd.A[m2].T @ d.d4 + nd.S[m2].T @ d.d3 - mu * d.d2
    return SubproblemData(i, m1, m2, mu, Q, S, R, A, B, gx, gu, c0, cdyn)


def solve_subproblem(sub: SubproblemData,
                     c: Optional[float] = None) -> SubproblemSolution:
    """Unique KKT solution of one subproblem via the banded factorization.

    The same H + c G^T G definiteness test used on the full problem is run
    at subproblem scope first, with c derived from the subproblem's blocks
    unless given; failure raises :class:`MuTooSmallError` naming the stage
    and margin.
    """
    blocks = (sub.Q, sub.S, sub.R, sub.A, sub.B)
    if c is None:
        c = default_definiteness_constant(sub)
    if not banded.definiteness_pivots_ok(*blocks, c):
        stage, margin = banded.pivot_failure(*blocks, c)
        raise MuTooSmallError(sub.index, sub.mu, sub.m1 + stage, margin)
    p, q, zeta = banded.solve_lq_kkt(*blocks, sub.gx, sub.gu, sub.c0, sub.cdyn)
    return SubproblemSolution(sub.index, p, q, zeta)


def _truncate(nd: NewtonData, plan: DecompositionPlan, indices: Sequence[int],
              mu: float):
    """The LQ kernels' arguments for subproblems ``indices``, zero boundaries.

    The one code that slices ``nd`` onto intervals.  Returns
    ``(Q, S, R, A, B, gx, gu, c0, cdyn)``, each with a leading member axis
    in the order of ``indices``.  Q is the only copy: each member that ends
    short of N has mu * I added to its terminal block.  S, R, A, B, gx and
    gu are windows of ``nd`` (see :func:`banded.stage_windows`), c0 is zero
    and cdyn is -glam on the window's later stages.  The subproblems must be
    of one length and start at evenly spaced stages, as one subproblem
    always is.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    K, first = len(indices), plan.m1[indices[0]]
    T = plan.m2[indices[0]] - first
    step = plan.m1[indices[1]] - first if K > 1 else 0
    if K > 1 and any(plan.m1[i] != first + j * step or plan.m2[i] != T + plan.m1[i]
                     for j, i in enumerate(indices)):
        raise ValueError(f"subproblems {list(indices)} are not of one length "
                         "with evenly spaced starts")
    S, R, A, B, gu = (banded.stage_windows(a, first, step, K, T)
                      for a in (nd.S, nd.R, nd.A, nd.B, nd.gu))
    Q = banded.stage_windows(nd.Q, first, step, K, T + 1).copy()
    penalty = np.zeros((nd.n_x, nd.n_x))  # mu * I, cheaper than by np.eye
    penalty.flat[::nd.n_x + 1] = mu
    for j, i in enumerate(indices):
        if plan.m2[i] < plan.N:
            Q[j, -1] += penalty
    return (Q, S, R, A, B, banded.stage_windows(nd.gx, first, step, K, T + 1),
            gu, np.zeros((K, nd.n_x)),
            -banded.stage_windows(nd.glam, first + 1, step, K, T))


def solve_subproblems_riccati(nd: NewtonData, plan: DecompositionPlan,
                              indices: Sequence[int],
                              mu: float) -> List[SubproblemSolution]:
    """Solve subproblems of one length together by one batched Riccati sweep.

    The batch is :func:`_truncate` of ``indices``, so the subproblems must
    start at evenly spaced stages, and member j is what
    :func:`assemble_subproblem` gives subproblem ``indices[j]``.  Each
    solution is bit for bit the one the subproblem gets alone.  A stage
    whose Cholesky pivot test fails raises :class:`MuTooSmallError` for the
    first failing subproblem of the batch, with that stage and its margin.
    """
    try:
        p, q, zeta = banded.solve_lq_riccati(*_truncate(nd, plan, indices, mu))
    except IndefiniteStageError as err:
        i = indices[err.member]
        raise MuTooSmallError(i, mu, plan.m1[i] + err.stage, err.margin) from err
    return [SubproblemSolution(i, p[j], q[j], zeta[j])
            for j, i in enumerate(indices)]


def _riccati_batches(plan: DecompositionPlan) -> List[List[int]]:
    """Subproblems of each length, one batch if their starts are evenly spaced.

    Even knots give one batch per length; a length whose starts are not
    evenly spaced is solved member by member (:func:`banded.even_batches`).
    """
    return banded.even_batches(plan.m1, [b - a for a, b in zip(plan.m1, plan.m2)])


def approximate_direction(nd: NewtonData, plan: DecompositionPlan, mu: float,
                          workers: int = 1) -> NewtonDirection:
    """Decomposed Newton direction: solve all subproblems with zero boundaries.

    Blocks at least RICCATI_MIN_NX states wide go to the batched Riccati
    kernel, one batch per length (see :func:`_riccati_batches`), on the
    calling thread.
    Narrower ones are solved one by one by the band kernel, on a thread
    pool when ``workers > 1``; results land in slots indexed by subproblem,
    so the composed direction does not depend on scheduling.  Either way a
    failed definiteness test names the first failing subproblem in plan
    order.
    """
    if nd.n_x >= RICCATI_MIN_NX:
        try:
            sols = [sol for group in _riccati_batches(plan)
                    for sol in solve_subproblems_riccati(nd, plan, group, mu)]
        except MuTooSmallError:
            for i in range(plan.M):  # alone, the first failing one raises
                solve_subproblems_riccati(nd, plan, [i], mu)
            raise
        sols.sort(key=lambda sol: sol.index)
    else:
        norms = stage_norms_fro(nd.Q, nd.S, nd.R)

        def solve(i: int) -> SubproblemSolution:
            sub = assemble_subproblem(nd, plan, i, mu)
            return solve_subproblem(sub, default_definiteness_constant(
                sub, norms[sub.m1:sub.m2]))

        if workers > 1 and plan.M > 1:
            with ThreadPoolExecutor(max_workers=min(workers, plan.M)) as pool:
                sols = list(pool.map(solve, range(plan.M)))
        else:
            sols = [solve(i) for i in range(plan.M)]
    dx, du, dlam = compose([(s.p, s.q, s.zeta) for s in sols], plan)
    return NewtonDirection(stack_primal(dx, du), dlam.ravel())
