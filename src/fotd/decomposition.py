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

The subproblems go to one of two kernels, chosen by the block width n_x.
From RICCATI_MIN_NX states on, the subproblems of each length are read
from the Newton data through strided windows and solved together by one
batched Riccati sweep (:func:`banded.solve_lq_riccati`), whose stagewise
Cholesky is the exact definiteness test.  The windows need evenly spaced
starts, which even knots always give; a length whose starts are uneven is
solved one subproblem at a time, which changes no direction, as a batch
member solves bit for bit as it does alone.  Narrower blocks are solved
one at a time by the band kernel and its H + c G^T G test, on a thread
pool when ``workers > 1``.

Measured on the whole direction at N=500, M=10, b=5 (subproblems of 55 and
60 stages), random definite blocks with n_u = n_x, one x86-64 core, medians
of 41-61 interleaved runs: the band kernel is faster up to n_x = 6 (1.7-1.9x
at n_x = 3, 1.4-1.5x at 4, 1.1x at 5 and 6) and the batched Riccati sweep
from n_x = 7 on (1.1x at 7, 1.2-1.4x at 8, 2.3x at 16).  A band's
factorization grows with its (n_x + n_u)-wide fill, while the sweep's cost
at small widths is per-stage call overhead.  With the earlier band build
(``as_strided`` views, written by in-place addition) the same measurement
put the crossover at n_x = 4: the band 8% faster at 3, the sweep 6% at 4.
RICCATI_MIN_NX stays 4 all the same.  The kernel also decides the
definiteness test (exact, against the c G^T G heuristic) and the rounding,
so moving the switch would change how the plate at m = 4 (n_x = 4) is
solved, not only how fast.
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
    """Boundary data handed to one subproblem.

    ``d1`` pins the initial state; ``d2``/``d3``/``d4`` are the terminal
    state, terminal control, and next-stage multiplier guesses.  The last
    subproblem (terminal boundary at N) carries only d1.
    """

    d1: np.ndarray
    d2: Optional[np.ndarray] = None
    d3: Optional[np.ndarray] = None
    d4: Optional[np.ndarray] = None

    @classmethod
    def zeros(cls, n_x: int, n_u: int, terminal: bool) -> "BoundaryVars":
        if terminal:
            return cls(np.zeros(n_x))
        return cls(np.zeros(n_x), np.zeros(n_x), np.zeros(n_u), np.zeros(n_x))


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
        if xi.shape[0] != m2 - m1 + 1 or ui.shape[0] != m2 - m1:
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


def _penalize_terminal(nd: NewtonData, m2: int, mu: float, d: BoundaryVars,
                       Q: np.ndarray, gx: np.ndarray) -> None:
    """Give a terminal boundary at m2 < N its cost, in place in Q[-1] and gx[-1]."""
    Q[-1] += mu * np.eye(nd.n_x)
    gx[-1] = gx[-1] - nd.A[m2].T @ d.d4 + nd.S[m2].T @ d.d3 - mu * d.d2


def assemble_subproblem(nd: NewtonData, plan: DecompositionPlan, i: int,
                        mu: float, d: BoundaryVars) -> SubproblemData:
    """Truncate the Newton problem onto extended interval i.

    For a terminal boundary short of N the terminal quadratic block becomes
    Q_{m2} + mu * I and the linear term
    gx_{m2} - A_{m2}^T d4 + S_{m2}^T d3 - mu * d2; when m2 = N the original
    terminal cost is restored and only d1 applies.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    m1, m2 = plan.m1[i], plan.m2[i]
    Q = nd.Q[m1:m2 + 1].copy()
    gx = nd.gx[m1:m2 + 1].copy()
    if m2 == plan.N:
        if d.d2 is not None or d.d3 is not None or d.d4 is not None:
            raise ValueError("terminal boundary values are not used when the "
                             "interval reaches the end of the horizon")
    else:
        _penalize_terminal(nd, m2, mu, d, Q, gx)
    return SubproblemData(
        index=i, m1=m1, m2=m2, mu=mu,
        Q=Q, S=nd.S[m1:m2], R=nd.R[m1:m2], A=nd.A[m1:m2], B=nd.B[m1:m2],
        gx=gx, gu=nd.gu[m1:m2],
        c0=d.d1.copy(), cdyn=-nd.glam[m1 + 1:m2 + 1],
    )


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


def _windows(arr: np.ndarray, first: int, step: int, count: int,
             length: int) -> np.ndarray:
    """Read-only (count, length, ...) view of arr[first + j*step + t].

    Raises ValueError instead of making a view that runs past ``arr``.
    """
    span = arr[first:first + (count - 1) * step + length]
    if step < 0 or span.shape[0] != (count - 1) * step + length:
        raise ValueError(f"{count} windows of {length} stages from {first} "
                         f"every {step} run past {arr.shape[0]} stages")
    return np.lib.stride_tricks.as_strided(
        span, (count, length) + span.shape[1:],
        (step * span.strides[0],) + span.strides, writeable=False)


def solve_subproblems_riccati(nd: NewtonData, plan: DecompositionPlan,
                              indices: Sequence[int],
                              mu: float) -> List[SubproblemSolution]:
    """Solve subproblems of one length together by one batched Riccati sweep.

    The subproblems must start at evenly spaced stages, so that the batch
    is read from ``nd`` through strided windows, with zero boundary values:
    member j holds what ``assemble_subproblem`` gives subproblem
    ``indices[j]``.  Only Q and gx, whose terminal blocks the penalty
    changes, are copied.  Each solution is bit for bit the one the subproblem gets
    alone.  A stage whose Cholesky pivot test fails raises
    :class:`MuTooSmallError` for the first failing subproblem of the batch,
    with that stage.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    m1 = [plan.m1[i] for i in indices]
    K, T = len(indices), plan.m2[indices[0]] - m1[0]
    step = m1[1] - m1[0] if K > 1 else 0
    if any(b - a != step for a, b in zip(m1, m1[1:])):
        raise ValueError(f"subproblems {list(indices)} do not start at evenly "
                         f"spaced stages: {m1}")

    def window(arr, length=T, first=m1[0]):
        return _windows(arr, first, step, K, length)

    Q, gx = window(nd.Q, T + 1).copy(), window(nd.gx, T + 1).copy()
    d = BoundaryVars.zeros(nd.n_x, nd.n_u, terminal=False)
    for j, i in enumerate(indices):
        if plan.m2[i] != plan.N:
            _penalize_terminal(nd, plan.m2[i], mu, d, Q[j], gx[j])
    try:
        p, q, zeta = banded.solve_lq_riccati(
            Q, window(nd.S), window(nd.R), window(nd.A), window(nd.B), gx,
            window(nd.gu), np.zeros((K, nd.n_x)),
            -window(nd.glam, first=m1[0] + 1))
    except IndefiniteStageError as err:
        i = indices[err.member]
        raise MuTooSmallError(i, mu, plan.m1[i] + err.stage, err.margin) from err
    return [SubproblemSolution(i, p[j], q[j], zeta[j])
            for j, i in enumerate(indices)]


def _riccati_batches(plan: DecompositionPlan) -> List[List[int]]:
    """Subproblems of each length, one batch if their starts are evenly spaced.

    Even knots give one batch per length; a length whose starts are not
    evenly spaced is solved member by member.
    """
    by_length = {}
    for i in range(plan.M):
        by_length.setdefault(plan.m2[i] - plan.m1[i], []).append(i)
    batches = []
    for group in by_length.values():
        even = len(set(np.diff([plan.m1[i] for i in group]))) <= 1
        batches.extend([group] if even else [[i] for i in group])
    return batches


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
        inner = BoundaryVars.zeros(nd.n_x, nd.n_u, terminal=False)
        last = BoundaryVars.zeros(nd.n_x, nd.n_u, terminal=True)

        def solve(i: int) -> SubproblemSolution:
            d = last if plan.m2[i] == plan.N else inner
            sub = assemble_subproblem(nd, plan, i, mu, d)
            return solve_subproblem(sub, default_definiteness_constant(
                sub, norms[sub.m1:sub.m2]))

        if workers > 1 and plan.M > 1:
            with ThreadPoolExecutor(max_workers=min(workers, plan.M)) as pool:
                sols = list(pool.map(solve, range(plan.M)))
        else:
            sols = [solve(i) for i in range(plan.M)]
    dx, du, dlam = compose([(s.p, s.q, s.zeta) for s in sols], plan)
    return NewtonDirection(stack_primal(dx, du), dlam.ravel())
