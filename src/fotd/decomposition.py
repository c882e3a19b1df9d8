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

The kernel is chosen by the block width n_x.  Both take one truncation
rule: windows of the Newton data's canonical LQ data ``nd.lq``, the
terminal block Q_{m2} plus the penalty mu * I short of N
(:func:`_terminal`), and zero boundary values, which therefore cost no
arithmetic.

From RICCATI_MIN_NX states on, the subproblems are the windows
[m1_i, m2_i] of ``nd.lq`` with zero pins and their terminal blocks, and
:func:`banded.solve_lq_windows` solves them: the subproblems of each
length together, through strided windows, by one batched Riccati sweep,
whose stagewise Cholesky is the exact definiteness test.  A batch needs
evenly spaced starts, which even knots always give; a length whose
starts are uneven is solved one subproblem at a time, which changes no
direction, as a batch member solves bit for bit as it does alone.

Narrower blocks go to the band kernel and its H + c G^T G test, and no
subproblem's band is built from its blocks.  Once per direction a
:class:`banded.LQBands` assembles the whole horizon: its stage-interleaved
KKT band, its H + c G^T G band as two parts (H, and the G^T G that c
scales) and its right-hand side.  That class owns the band storage, its
layout and signs; a :class:`SubproblemData` names only its window of
stages, terminal block and pin, and :func:`solve_subproblem` hands them to
:meth:`banded.LQBands.solve`, which factors the window on its own: one
``dpbtrf`` of G^T G * c + H with its terminal block written in, one
``dgbsv`` of a copy of its KKT window.  A window is, in every entry LAPACK
reads, the band the subproblem's own blocks give, so the direction is bit
for bit the one of assembling each subproblem alone; the overlap stages
are assembled once instead of twice.  :func:`assemble_subproblem`
assembles bands of the subproblem's own stages instead, its terminal
boundary term in their gx, and its window is all of them.
With s = 2 n_x + n_u, the horizon's arrays hold about 8 s (3 s - 2) N
bytes for the KKT band, 16 s (n_x + n_u) N for the two test parts and
8 s N for the right-hand side: 144 KB on toy case 1 at N=500
(n_x = n_u = 1), 27 MB at n_x = n_u = 3 and N=10000, alive for one
direction.

Either kernel solves the subproblems one batch or one window after
another, on the thread that calls :func:`approximate_direction`.  The
solver's only parallelism is around that call: with ``workers`` above 1 the
driver runs it on a helper thread while the Hessian is tested
(:mod:`fotd.driver`).  A thread per subproblem does not pay at these
sizes: a pool of them made the toy benchmark workloads about twice as slow
as this loop, since the glue between the LAPACK calls holds the
interpreter lock.

One failure rule holds for both kernels: the first failing subproblem in
plan order raises, naming its index and the horizon stage m1_i + k of the
failure.  Each kernel names a failure by the stage k of the subproblem's
window, and :func:`_subproblem_error` alone turns that into the
subproblem's error: a failed definiteness test
(:class:`IndefiniteStageError`) raises :class:`MuTooSmallError` with the
margin; a singular gain solve of the sweep raises
:class:`SingularStageError`, and an exact zero pivot of the band LU
:class:`SingularKKTError`.  A batched sweep that fails is
solved again one subproblem at a time, so the batch it failed in does not
show.

RICCATI_MIN_NX = 4 has not been measured against the band windows of one
horizon assembly above: it is the crossover of a band path that assembled
each subproblem alone (the whole direction at N=500, M=10, b=5, random
definite blocks with n_u = n_x, one x86-64 core).  A band's factorization
grows with its (n_x + n_u)-wide fill, while the sweep's cost at small
widths is per-stage call overhead (see :mod:`banded`), which a batch of
subproblems shares; the windows cut the band path's cost, so the
crossover may lie at a wider n_x.
The switch stays until a kernel-crossover harness measures it again: the
kernel also decides the definiteness test (exact, against the c G^T G
heuristic) and the rounding, so moving it would change how the plate at
m = 4 (n_x = 4) is solved, not only how fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import banded
from .exceptions import (IndefiniteStageError, MuTooSmallError,
                         SingularKKTError, SingularStageError)
from .newton import (NewtonData, NewtonDirection, default_definiteness_constant,
                     definiteness_constant)
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
    """One decomposed Newton subproblem: a window of stages of ``bands``.

    The window runs from stage ``first`` of the LQ that ``bands``
    assembles, over m2 - m1 stages: the whole horizon's LQ, which every
    subproblem of one direction shares (``first`` = m1), or, from
    :func:`assemble_subproblem`, one of this subproblem's own stages with
    its terminal boundary term (``first`` = 0).  The subproblem owns its
    terminal block ``terminal``, Q_{m2} plus mu * I short of N, and its
    initial pin ``c0``.  ``lq``, its canonical LQ data, is read from
    ``bands.lq`` on access, for checks and comparisons.
    """

    index: int
    m1: int
    m2: int
    mu: float
    bands: banded.LQBands = field(repr=False)
    first: int
    terminal: np.ndarray
    c0: np.ndarray

    @property
    def lq(self) -> banded.LQ:
        """The subproblem's LQ data: windows of ``bands.lq`` but for c0 and Q.

        c0 is the pin ``c0``, and Q a copy ending in ``terminal``.
        """
        a, b, lq = self.first, self.first + self.m2 - self.m1, self.bands.lq
        Q = lq.Q[a:b + 1].copy()
        Q[-1] = self.terminal
        return banded.LQ(Q, lq.S[a:b], lq.R[a:b], lq.A[a:b], lq.B[a:b],
                         lq.gx[a:b + 1], lq.gu[a:b], self.c0, lq.cdyn[a:b])


@dataclass(frozen=True)
class SubproblemSolution:
    """Primal (p over [m1, m2], q over [m1, m2)) and dual zeta over [m1, m2]."""

    index: int
    p: np.ndarray
    q: np.ndarray
    zeta: np.ndarray


def _terminal(nd: NewtonData, plan: DecompositionPlan, i: int, mu: float):
    """Subproblem i's terminal block: Q_{m2}, plus mu * I when m2 < N.

    Raises ValueError for a negative ``mu``.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    m2 = plan.m2[i]
    if m2 == plan.N:
        return nd.Q[m2]
    penalty = np.zeros((nd.n_x, nd.n_x))  # mu * I, cheaper than by np.eye
    penalty.flat[::nd.n_x + 1] = mu
    return nd.Q[m2] + penalty


def _subproblem_error(err, i: int, m1: int, mu: float):
    """Subproblem i's error for ``err``, a failure at stage k of its window.

    The stage becomes the horizon stage m1 + k: a failed pivot test
    (:class:`IndefiniteStageError`) is :class:`MuTooSmallError` with its
    margin, a singular gain solve :class:`SingularStageError` and a zero
    pivot of the band LU :class:`SingularKKTError`, each naming subproblem i.
    """
    if isinstance(err, IndefiniteStageError):
        return MuTooSmallError(i, mu, m1 + err.stage, err.margin)
    if isinstance(err, SingularStageError):
        return SingularStageError(i, m1 + err.stage, subproblem=True)
    return SingularKKTError(m1 + err.stage, err.info, subproblem=i)


def assemble_subproblem(nd: NewtonData, plan: DecompositionPlan, i: int,
                        mu: float,
                        d: Optional[BoundaryVars] = None) -> SubproblemData:
    """Truncate the Newton problem onto extended interval i.

    The subproblem is cut from an assembly of its own stages [m1, m2] by the
    rule the decomposed direction cuts it from the horizon's: zero boundary
    values, and the terminal block Q_{m2} + mu * I when m2 < N.  Boundary
    values ``d``, when given, are added on top: c0 = d1, and short of N the
    terminal linear term becomes gx_{m2} - A_{m2}^T d4 + S_{m2}^T d3 - mu * d2,
    with stage m2's own A and S, which lie outside the window.  When m2 = N
    only d1 applies, and short of N d2, d3 and d4 are required; ValueError
    says which value is missing or unused, or which is not of its shape:
    (n_u,) for d3, (n_x,) for the others.
    """
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
    lq, k = nd.lq, slice(m1, m2)
    c0 = np.zeros(nd.n_x) if d is None else d.d1.copy()
    gx = lq.gx[m1:m2 + 1]
    if d is not None and m2 < plan.N:  # the terminal linear term
        gx = gx.copy()
        gx[-1] = nd.gx[m2] - nd.A[m2].T @ d.d4 + nd.S[m2].T @ d.d3 - mu * d.d2
    bands = banded.LQBands(banded.LQ(lq.Q[m1:m2 + 1], lq.S[k], lq.R[k], lq.A[k],
                                     lq.B[k], gx, lq.gu[k], c0, lq.cdyn[k]))
    return SubproblemData(i, m1, m2, mu, bands, 0, _terminal(nd, plan, i, mu),
                          c0)


def solve_subproblem(sub: SubproblemData,
                     c: Optional[float] = None) -> SubproblemSolution:
    """Unique KKT solution of one subproblem via the banded factorization.

    The same H + c G^T G definiteness test used on the full problem is run
    at subproblem scope first, with c derived from the subproblem's blocks
    unless given; c must be positive and finite (ValueError otherwise).  A
    failed test raises :class:`MuTooSmallError` naming the horizon stage
    and margin.  Then the KKT band is factored; an exact zero pivot raises
    :class:`SingularKKTError` naming the subproblem and the horizon stage.
    One ``dpbtrf`` and one ``dgbsv`` call, each on a new array, by
    :meth:`banded.LQBands.solve` of the subproblem's window.
    """
    if c is None:
        c = default_definiteness_constant(sub.lq)
    if not (c > 0 and math.isfinite(c)):
        raise ValueError(f"definiteness constant must be positive and finite, "
                         f"got {c}")
    try:
        p, q, zeta = sub.bands.solve(sub.first, sub.first + sub.m2 - sub.m1,
                                     sub.terminal, sub.c0, c)
    except (IndefiniteStageError, SingularKKTError) as err:
        raise _subproblem_error(err, sub.index, sub.m1, sub.mu) from err
    return SubproblemSolution(sub.index, p, q, zeta)


def approximate_direction(nd: NewtonData, plan: DecompositionPlan,
                          mu: float) -> NewtonDirection:
    """Decomposed Newton direction: solve all subproblems with zero boundaries.

    Blocks at least RICCATI_MIN_NX states wide go to the batched Riccati
    kernel on the calling thread: :func:`banded.solve_lq_windows` of the
    subproblems' windows of ``nd.lq`` (one batch per length, member by
    member where the starts of a length are uneven), with each window's
    solution in its subproblem's slot.  If a sweep fails, the subproblems are
    solved again alone in plan order, and the first that fails raises:
    :class:`MuTooSmallError` for the pivot test, :class:`SingularStageError`
    for a singular gain solve, each naming the subproblem and the horizon
    stage.  Narrower blocks are cut from one :class:`banded.LQBands` of the
    horizon and solved in plan order by :func:`solve_subproblem`, each with
    the constant of its own blocks from the horizon's ``nd.stage_norms``, so
    the first failing subproblem raises.
    """
    if nd.n_x >= RICCATI_MIN_NX:
        terminals = [_terminal(nd, plan, i, mu) for i in range(plan.M)]
        pins = np.zeros((plan.M, nd.n_x))

        def windows(k: slice):  # the subproblems k, by banded.solve_lq_windows
            return banded.solve_lq_windows(nd.lq, plan.m1[k], plan.m2[k],
                                           pins[k], terminals[k])

        try:
            parts = windows(slice(None))
        except (IndefiniteStageError, SingularStageError):
            for i in range(plan.M):  # alone, the first failing one raises
                try:
                    windows(slice(i, i + 1))
                except (IndefiniteStageError, SingularStageError) as err:
                    raise _subproblem_error(err, i, plan.m1[i], mu) from err
            raise
    else:
        norms = nd.stage_norms
        bands = banded.LQBands(nd.lq)
        parts = []
        for i, (m1, m2) in enumerate(zip(plan.m1, plan.m2)):
            sub = SubproblemData(i, m1, m2, mu, bands, m1,
                                 _terminal(nd, plan, i, mu), np.zeros(nd.n_x))
            sol = solve_subproblem(sub, definiteness_constant(norms[m1:m2],
                                                              sub.terminal))
            parts.append((sol.p, sol.q, sol.zeta))
    dx, du, dlam = compose(parts, plan)
    return NewtonDirection(stack_primal(dx, du), dlam.ravel())
