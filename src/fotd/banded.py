"""Structured linear algebra for stagewise linear-quadratic KKT systems.

This module holds the LQ kernels and nothing else; the merit gradient's
products with the Lagrangian Hessian and the constraint Jacobian are
:func:`fotd.problem.eval_merit_gradient`'s.  Every Newton-type solve in this
package reduces to one canonical problem:

    minimize    sum_{k<T} { 1/2 (p_k; q_k)^T [[Q_k, S_k^T], [S_k, R_k]] (p_k; q_k)
                            + gx_k^T p_k + gu_k^T q_k }
                + 1/2 p_T^T Q_T p_T + gx_T^T p_T
    subject to  p_0 = c_0,
                p_{k+1} = A_k p_k + B_k q_k + cdyn_k,   k = 0..T-1.

:class:`LQ` holds its data (Q, S, R, A, B, gx, gu, c0, cdyn) in the order
every solver here takes them as arguments, so ``solve(*lq)`` solves it.
The Newton data map their system to it in one place
(:attr:`fotd.newton.NewtonData.lq`), and every direction reads that
mapping: the exact one whole, the decomposed one by windows of its stages.

Its saddle-point optimality system is solved by one structured direct method:
the variables and multipliers are interleaved per stage as
(zeta_k, p_k, q_k), which makes the symmetric indefinite KKT matrix banded
with half-bandwidth 2*n_x + n_u - 1, and LAPACK ``dgbsv`` factorizes the band.

The companion definiteness test factorizes H + c * G^T G (block tridiagonal
in the primal ordering) with LAPACK's banded Cholesky ``dpbtrf`` and
inspects the pivots.

Both matrices are written straight into the column-major band storage that
LAPACK factorizes in place.  In that storage a stage block repeats at a
fixed stride, so each block type is written for all stages at once, by one
assignment into one view: an ``np.ndarray`` built on the band's buffer with
that offset and those strides.  NumPy checks such a view against the
buffer, so a block that would run past the storage raises instead of
writing beyond it.

Three LAPACK calls do the factoring, in the forms of :mod:`fotd._lapack`:
``dgbsv(bw, ab, rhs)`` factors a KKT band and solves its right-hand side,
both in place; ``dpbtrf(ab)`` factors a test band in place; and
``dpotrf(R)`` factors a copy of one Riccati block again, for the pivot a
broken-down sweep stopped at (below).  They call
the OpenBLAS that NumPy loads, or ``scipy.linalg.lapack`` where that
library is missing; :data:`LAPACK` names the backend in use.  Each raises
:class:`LinearSolverError` when it rejects an argument as illegal.

The stages first..last of a horizon, given a terminal block and a pin, are
a canonical problem of their own, and in band storage its bands are a
column window of the horizon's.  :class:`LQBands` assembles a horizon once,
with H + c G^T G kept as its two parts, H and the G^T G that c scales, so
that windows for different c can be cut from it; a window is copied (the
KKT band) or computed (the test band) for LAPACK to factor in place.
:meth:`LQBands.solve` tests and solves one window, so the class is the one
owner of the band storage, its row layout and its signs: a caller gives
stage indices, a terminal block, a pin and c, and gets the window's
solution or the error naming the window's stage that failed.  The
decomposed direction solves each of its narrow subproblems so; the
full-horizon test and solve build their one band directly.

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
COST_CHUNK stage blocks at a time, those of COST_CHUNK // K stages of a
batch of K (at least one); only its cost-to-go, gain and solution arrays
grow with the horizon.  The H + c G^T G test keeps the band
Cholesky on every path that runs it.

:func:`solve_lq_windows` is the sweep's one batching loop.  Given windows
of stages of one :class:`LQ`, each with its pin and, optionally, its own
terminal block, it groups them by :func:`even_batches` and solves each
batch by one sweep over :func:`stage_windows` of the data, copying none of
it: the sweep takes a batch's terminal blocks in place of its last Q.  The
decomposed direction's overlapping subproblems and the pieces between
junctions (below) are both such windows.

Both definiteness tests report a failure by one margin: the smallest
Cholesky pivot minus PIVOT_TOL, read from the factorization that failed.
A margin below -PIVOT_TOL means the factorization broke down at a pivot
that is not positive.  A margin that is not finite means the arithmetic
overflowed, not that a tolerance was missed: inf from a band, whose first
infinite pivot fails its test, NaN from a sweep.  The sweep reads a
failure from its own batch, too: the failing member is the first whose
pivots fail the test, or whose gain solve left NaN throughout; only a
member whose Cholesky broke down, and so left no pivots, is factored
again, by ``dpotrf``, for the pivot it stopped at.

A *junction* is a stage k < T whose S_k, A_k and B_k are all exactly zero.
Nothing passes across it: p_{k+1} = cdyn_k is pinned, q_k enters only its
own cost 1/2 q^T R_k q + gu_k^T q, and both H + c G^T G and the KKT matrix
have no entry that couples the stages before it to those after.  So a
problem with junctions is independent *pieces*, one from each junction (or
stage 0) to the next junction (or T), each a canonical problem of its own
with c_0 = cdyn of the junction before it, plus one control per junction.
:func:`solve_lq_pieces` and :func:`pivot_failure` split there when asked,
and each runs a junction in the kernel call of its pieces: the sweep
solves q_k in a one-stage window (k, k+1) batched with them, and the band
test factors R_k's columns as the last ones of the piece ending at k.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky
from numpy.linalg._umath_linalg import solve as _solve

from ._lapack import LAPACK, dgbsv, dpbtrf, dpotrf
from .exceptions import (IndefiniteStageError, LinearSolverError,
                         SingularKKTError, SingularStageError)

PIVOT_TOL = 1e-10
# Stage blocks (stages times batch members) whose maps and costs the
# Riccati sweep holds at once.  On the 16-state plate at N=500 (one x86-64
# core, medians of 30 interleaved runs), a batch of one took as long at 32
# stages a chunk as at 16, and 3% less than at 8; the decomposed
# direction, chiefly a batch of eight, took 6% less at 4 stages a chunk
# than at 16, in a quarter of the memory (at 32 stages, 19% more).
COST_CHUNK = 32


class LQ(NamedTuple):
    """The data of one canonical problem (module docstring), in argument order.

    ``*lq`` is the argument list of :func:`solve_lq_kkt`,
    :func:`solve_lq_riccati` and :func:`solve_lq_pieces`.  Shapes are those
    :func:`solve_lq_kkt` takes: Q (T+1, n_x, n_x), S (T, n_u, n_x),
    R (T, n_u, n_u), A (T, n_x, n_x), B (T, n_x, n_u), gx (T+1, n_x),
    gu (T, n_u), c0 (n_x,) and cdyn (T, n_x).
    """

    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    A: np.ndarray
    B: np.ndarray
    gx: np.ndarray
    gu: np.ndarray
    c0: np.ndarray
    cdyn: np.ndarray


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
        if not count:  # no stage, so no entry, wherever its first would be
            return np.empty((0, r, c))
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
    row k.  Raises :class:`SingularKKTError` naming the stage where the
    factorization met a zero pivot.
    """
    ab, bw = _kkt_band(Q, S, R, A, B)
    return solve_kkt_band(ab, bw, _kkt_stages(gx, gu, c0, cdyn), A.shape[1])


def _kkt_stages(gx, gu, c0, cdyn):
    """The KKT right-hand side, stage-interleaved like the band: (T+1, 2 n_x + n_u).

    Row k holds (c_k, -gx_k, -gu_k), c_0 = ``c0`` and c_{k+1} = cdyn_k, the
    values of zeta_k's, p_k's and q_k's rows; the last row has no q part, so
    its last n_u entries are left unset.
    """
    T, nx, nu = gu.shape[0], gx.shape[1], gu.shape[1]
    stages = np.empty((T + 1, 2 * nx + nu))
    stages[0, :nx] = c0
    stages[1:, :nx] = cdyn
    np.negative(gx, out=stages[:, nx: 2 * nx])
    np.negative(gu, out=stages[:T, 2 * nx:])
    return stages


def solve_kkt_band(ab, bw: int, stages, nx: int):
    """Factor a KKT band by ``dgbsv`` in place and solve it for ``stages``.

    ``ab`` and ``bw`` are as :func:`_kkt_band` returns them and ``stages``
    as :func:`_kkt_stages` does, for a horizon of T = len(stages) - 1
    stages of ``nx`` states; returns the ``(p, q, zeta)`` of
    :func:`solve_lq_kkt`, read from the right-hand side that ``dgbsv``
    solved in place: ``stages`` itself when it is C-contiguous, else a
    C-ordered copy.  An exactly zero pivot of the LU raises
    :class:`SingularKKTError` with the stage of its column.
    """
    T, s = stages.shape[0] - 1, stages.shape[1]
    flat = stages.ravel()
    rhs = flat[:ab.shape[1]]
    info = dgbsv(bw, ab, rhs)
    if info > 0:
        raise SingularKKTError((info - 1) // s, info)
    if not np.isfinite(rhs).all():
        raise LinearSolverError("banded KKT solve produced non-finite values")
    sol = flat.reshape(T + 1, s)
    return sol[:, nx: 2 * nx].copy(), sol[:T, 2 * nx:].copy(), sol[:, :nx].copy()


def definiteness_pivots_ok(Q, S, R, A, B, c: float, junctions=()) -> bool:
    """Definiteness test: are H + c * G^T G's pivots finite and >= PIVOT_TOL?

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
    Bt = B.transpose(0, 2, 1)
    # One stage stack of products is alive at a time, each freed before the
    # next is made.  p_k's block is Q_k + c (I + A_k^T A_k); stage T has no
    # A_T, leaving Q_T + c I.  A product that overflows is no failure of its
    # own: the inf or NaN it leaves fails the test (:func:`pivot_failure`).
    with np.errstate(over="ignore", invalid="ignore"):
        tmp = np.zeros((T + 1, nx, nx))
        np.matmul(A.transpose(0, 2, 1), A, out=tmp[:T])
        tmp.reshape(T + 1, nx * nx)[:, ::nx + 1] += 1.0
        tmp *= c
        tmp += Q
        _write_lower(blocks, 0, tmp)
        del tmp
        tmp = Bt @ A
        tmp *= c
        np.add(S, tmp, out=blocks(nx, 0, nu, nx, T))
        del tmp
        tmp = Bt @ B
        tmp *= c
        tmp += R
        _write_lower(blocks, nx, tmp)
        np.multiply(A, -c, out=blocks(m, 0, nx, nx, T))
        np.multiply(B, -c, out=blocks(m, nx, nx, nu, T))
    return ab


def _write_lower(blocks, i0: int, blk) -> None:
    """Write the lower triangles of the diagonal blocks ``blk`` from entry i0.

    ``blocks`` is the view maker of :func:`_band`.  Above the diagonal a
    view would alias another column's entries, so column b of a block writes
    only its rows b..r-1.
    """
    count, r = blk.shape[:2]
    for b in range(r):
        blocks(i0 + b, i0 + b, r - b, 1, count)[...] = blk[:, b:, b:b + 1]


def _test_band_parts(Q, S, R, A, B):
    """H + c * G^T G's band split into the part c scales and the rest.

    Returns ``(gtg, hess)`` in :func:`_test_band`'s layout: ``gtg`` holds
    G^T G's blocks I + A_k^T A_k, B_k^T A_k, B_k^T B_k, -A_k and -B_k (and I
    for stage T), ``hess`` holds H's Q_k, S_k and R_k.  Each entry of
    ``gtg * c + hess`` is the one :func:`_test_band` computes for that c,
    bit for bit: it forms the same products, scales them by c and then adds
    H's block, and -A_k * c is A_k * -c (up to the sign of a zero).
    """
    T, nx, nu = A.shape[0], A.shape[1], B.shape[2]
    m = nx + nu
    gtg, gblocks, _ = _band(m + nx, T * m + nx, 0, m)
    hess, hblocks, _ = _band(m + nx, T * m + nx, 0, m)
    Bt = B.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _test_band
        tmp = np.zeros((T + 1, nx, nx))
        np.matmul(A.transpose(0, 2, 1), A, out=tmp[:T])
        tmp.reshape(T + 1, nx * nx)[:, ::nx + 1] += 1.0
        _write_lower(gblocks, 0, tmp)
        gblocks(nx, 0, nu, nx, T)[...] = Bt @ A
        _write_lower(gblocks, nx, Bt @ B)
    _write_lower(hblocks, 0, Q)
    hblocks(nx, 0, nu, nx, T)[...] = S
    _write_lower(hblocks, nx, R)
    np.negative(A, out=gblocks(m, 0, nx, nx, T))
    np.negative(B, out=gblocks(m, nx, nx, nu, T))
    return gtg, hess


def pivot_failure(Q, S, R, A, B, c: float, junctions=()):
    """Where :func:`definiteness_pivots_ok` fails: None if it passes.

    Otherwise ``(stage, margin)``: the stage of the column with the
    smallest pivot, which is the column LAPACK stopped at if the
    factorization broke down, and that pivot minus PIVOT_TOL.  A completed
    factorization's first infinite pivot counts as its smallest: the
    band's arithmetic overflowed, and the margin is inf.

    The band is factored piece by piece (the whole band is the one piece
    of a problem without ``junctions``, see :func:`junction_stages`), in
    horizon order.  A piece that ends at junction k is the band of stages
    first..k+1 cut after q_k's columns: the whole band's columns, in its
    order, and nothing couples them to p_{k+1}.  The first piece that
    breaks down stops the test, as it stops the whole band's
    factorization, and otherwise the first smallest pivot is reported, so
    the result is the whole band's, the first infinite pivot included.
    Each piece's band holds only its own stages and the one after its
    junction.
    """
    T, m = A.shape[0], A.shape[1] + B.shape[2]
    least = (True, np.inf, 0)  # (finite, pivot, stage): an overflow first
    for first, last in _pieces(junctions, T):
        stop = min(last + 1, T)
        k = slice(first, stop)
        ab = _test_band(Q[first:stop + 1], S[k], R[k], A[k], B[k], c)
        cols = ab.shape[1] if last == T else (last + 1 - first) * m
        stage, pivot, broke = _band_pivot(ab[:, :cols], m)
        if broke:
            return _failure(first + stage, pivot)
        least = min(least, (bool(np.isfinite(pivot)), pivot, first + stage))
    return _failure(least[2], least[1])


def _failure(stage: int, pivot: float):
    """None if ``pivot`` passes the test, else ``(stage, pivot - PIVOT_TOL)``.

    Only a finite pivot passes: an inf one is the mark of an overflow.
    """
    return None if PIVOT_TOL <= pivot < np.inf else (stage, pivot - PIVOT_TOL)


def _band_pivot(ab, m: int):
    """``(stage, pivot, broke)`` of an H + c G^T G band's factorization.

    ``pivot`` is its smallest pivot, ``stage`` the stage of that pivot's
    column and ``broke`` whether the factorization broke down there.
    """
    info = dpbtrf(ab)
    col, pivot = _smallest_pivot(ab[0], info)
    return col // m, pivot, info > 0


class LQBands:
    """One horizon's bands, assembled once and cut into windows of stages.

    Holds the :class:`LQ` ``lq`` it assembles, its stage-interleaved KKT
    band of :func:`_kkt_band`, its H + c G^T G band as the two parts of
    :func:`_test_band_parts`, and its KKT right-hand side of
    :func:`_kkt_stages`; each window sets its own pin.  The stages
    ``first``..``last`` of the horizon are a canonical problem of their own
    once given a terminal block and a pin, and each window below is its
    band (or right-hand side), entry for entry as :func:`_kkt_band`,
    :func:`_test_band` and :func:`_kkt_stages` build it from that problem's
    blocks.  Entries a window holds outside its problem's matrix, beside its
    first and last stages, are the horizon's; LAPACK reads none of them.
    The arrays are only read, so threads may cut and solve windows at once.
    """

    def __init__(self, lq: LQ):
        self.lq = lq
        self.nx, self.nu = lq.A.shape[1], lq.B.shape[2]
        self.kkt, self.bw = _kkt_band(*lq[:5])
        self.gtg, self.hess = _test_band_parts(*lq[:5])
        self.gtg_end = np.eye(self.nx)  # G^T G's block at a horizon's end
        self.stages = _kkt_stages(*lq[5:])

    def kkt_window(self, first: int, last: int, terminal):
        """The KKT band of stages first..last with Q_last replaced by ``terminal``.

        A copy, for ``dgbsv`` to factor in place.
        """
        nx, s, diag = self.nx, 2 * self.nx + self.nu, 2 * self.bw
        ab = self.kkt[:, first * s:last * s + 2 * nx].copy(order="F")
        end = (last - first) * s + nx
        for b in range(nx):  # entry (end + a, end + b) is in row diag + a - b
            ab[diag - b:diag - b + nx, end + b] = terminal[:, b]
        return ab

    def test_window(self, first: int, last: int, c: float, terminal):
        """The H + c G^T G band of stages first..last, ending in ``terminal``.

        Stage ``last``'s block is ``terminal`` + c I, as :func:`_test_band`
        forms the terminal block of a horizon ending there.
        """
        nx, m = self.nx, self.nx + self.nu
        cols = slice(first * m, last * m + nx)
        with np.errstate(over="ignore", invalid="ignore"):  # as in _test_band
            ab = self.gtg[:, cols] * c
            ab += self.hess[:, cols]
            blk = self.gtg_end * c
            blk += terminal
        end = (last - first) * m
        for b in range(nx):  # entry (end + a, end + b), a >= b, is in row a - b
            ab[:nx - b, end + b] = blk[b:, b]
        return ab

    def stages_window(self, first: int, last: int, c0):
        """A copy of the right-hand side's rows first..last, pinned to ``c0``."""
        stages = self.stages[first:last + 1].copy()
        stages[0, :self.nx] = c0
        return stages

    def solve(self, first: int, last: int, terminal, c0, c: float):
        """Test and solve the window of stages first..last, as one problem.

        The window's problem ends in ``terminal`` and is pinned to ``c0``.
        One ``dpbtrf`` of its H + c G^T G band runs the definiteness test;
        a pivot below PIVOT_TOL raises :class:`IndefiniteStageError` as
        member 0, with the stage counted from ``first`` and the margin of
        :func:`pivot_failure`.  Then one ``dgbsv`` of a copy of its KKT
        band returns ``(p, q, zeta)`` as :func:`solve_kkt_band` does, whose
        :class:`SingularKKTError` names a stage counted from ``first``.
        """
        test = self.test_window(first, last, c, terminal)
        stage, pivot, _ = _band_pivot(test, self.nx + self.nu)
        failure = _failure(stage, pivot)
        if failure is not None:
            raise IndefiniteStageError(0, *failure)
        return solve_kkt_band(self.kkt_window(first, last, terminal), self.bw,
                              self.stages_window(first, last, c0), self.nx)


def _smallest_pivot(diag, info: int):
    """``(column, pivot)`` of the smallest pivot of a LAPACK Cholesky factor.

    ``diag`` is the factor's diagonal and ``info`` LAPACK's return code.
    A factorization that succeeded holds each pivot's square root there;
    if one of them is not finite, the first such is reported instead, since
    an overflow, not the smallest pivot, is what the factorization shows.
    One that broke down (``info`` > 0) stopped at 1-based column ``info``
    and left that column's pivot, zero, negative or NaN, in place without
    taking its root; the pivots before it are positive, so it is the
    smallest.
    """
    if info > 0:
        return info - 1, float(diag[info - 1])
    pivots = diag ** 2
    finite = np.isfinite(pivots)
    col = int(pivots.argmin() if finite.all() else finite.argmin())
    return col, float(pivots[col])


def solve_lq_riccati(Q, S, R, A, B, gx, gu, c0, cdyn, terminal=None):
    """Solve a stack of canonical LQ problems of one length by a Riccati sweep.

    Every argument has a leading batch axis of size K ahead of the shapes
    :func:`solve_lq_kkt` takes.  ``terminal``, when given, is a (K, n_x,
    n_x) stack of terminal blocks that the sweep takes in place of Q[:, T],
    which it then does not read.  Returns ``(p, q, zeta)`` with shapes
    (K, T+1, n_x), (K, T, n_u), (K, T+1, n_x) and its conventions, i.e.
    zeta_k = -(P_k p_k + s_k) for the cost-to-go 1/2 p^T P_k p + s_k^T p.

    Stage k of the backward sweep factors R_k + B_k^T P_{k+1} B_k by
    Cholesky.  If that breaks down or a pivot (squared diagonal of the
    factor) falls below PIVOT_TOL in some member, the sweep stops with
    :class:`IndefiniteStageError` naming the first such member, the stage
    and the margin.  An LU solve for the gain that meets an exactly singular
    R_k + B_k^T P_{k+1} B_k raises :class:`SingularStageError` naming the
    first member whose gain it left NaN throughout, and the stage.  No
    operation mixes members, so a member's result is bit for bit the one it
    gets when solved alone, and a failure is read from the batch that
    failed.

    A stage costs eight NumPy calls: two products for the stage's quadratic
    form, one addition of its costs, the Cholesky factorization, one
    reduction for the pivot test, the gain's LU solve, and one product and
    one subtraction for the cost-to-go; the forward pass makes two products
    a stage.  Each writes into a buffer allocated once per sweep.

    A product that overflows is no failure of its own, whatever the warning
    filter: the inf or NaN it leaves fails the pivot test, or the finiteness
    check that raises :class:`LinearSolverError` after the forward pass.
    """
    K, T, nx, nu = B.shape
    m = nx + nu
    # The stage vector is y_k = [p_k; 1; q_k]: F_k = [[A_k, cdyn_k, B_k],
    # [0, 1, 0]] maps it to [p_{k+1}; 1], and H_k holds the stage costs'
    # [Hessian | gradient] in the same order, so one product per stage also
    # carries the affine terms.  F and H hold the stages of one chunk of
    # ``span`` stages at a time, stage k in slot k % span, refilled as each
    # pass enters a chunk: the backward pass both, the forward one F.  Every
    # work array is stage-major, so a stage's blocks of all members are one
    # contiguous (K, ., .) array.
    span = max(1, COST_CHUNK // K)
    C = min(T, span)
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
    V[T, :, :, :nx] = Q[:, T] if terminal is None else terminal
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
    # whose LU is singular, gets NaN throughout and raises the invalid flag
    # (which no other NaN raises: the kernels clear the flags LAPACK's own
    # arithmetic sets), which calls ``flagged`` here: a NaN pivot fails the
    # test below as the breakdown would, and a flag from the solve is a
    # singular stage, in the first member whose gain is NaN throughout.
    # (Cholesky pivots >= PIVOT_TOL do not rule out an exactly singular LU
    # of a badly scaled Rt.)
    flags = []

    def flagged(err, flag):
        flags.append(flag)

    with np.errstate(over="ignore", invalid="call", call=flagged):
        for k in range(T - 1, -1, -1):
            j = k % span
            if k == T - 1 or j == span - 1:
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
                raise _indefinite_member(Rt, pivot_roots, k)
            flags.clear()
            _solve(Rt, Zq, out=X[k])
            if flags:
                member = np.isnan(X[k]).all(axis=(1, 2)).argmax()
                raise SingularStageError(int(member), k)
            np.matmul(Zpq, X[k], out=W)
            np.subtract(Zp, W, out=V[k])

    y = np.empty((T + 1, K, m + 1, 1))
    y[0, :, :nx, 0] = c0
    y[0, :, nx] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T):
            j = k % span
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


def _indefinite_member(Rt, roots, stage: int) -> IndefiniteStageError:
    """The error for the first member whose pivots fail the test.

    ``roots`` holds each member's factor diagonal, the square roots of its
    pivots, as the batch's Cholesky left it.  A member whose factorization
    broke down has NaN there instead, so LAPACK's ``dpotrf`` factors that
    member again for the pivot it stopped at.
    """
    member = int((roots ** 2 >= PIVOT_TOL).all(axis=1).argmin())
    pivot = float((roots[member] ** 2).min())
    if np.isnan(pivot):
        fact, info = dpotrf(Rt[member])
        pivot = _smallest_pivot(np.diagonal(fact), info)[1]
    return IndefiniteStageError(member, stage, pivot - PIVOT_TOL)


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
    lists of problem indices, in order of first appearance of each length,
    each batch in order of start; a length whose problems do not start
    evenly spaced gives one batch per problem, so that every batch is a set
    of :func:`stage_windows`.
    """
    by_length = {}
    for i, length in enumerate(lengths):
        by_length.setdefault(length, []).append(i)
    batches = []
    for group in by_length.values():
        group.sort(key=lambda i: firsts[i])
        even = len(set(np.diff([firsts[i] for i in group]))) <= 1
        batches.extend([group] if even else [[i] for i in group])
    return batches


def solve_lq_windows(lq: LQ, firsts, lasts, pins, terminals=None):
    """:func:`solve_lq_riccati` of windows of stages of ``lq``, batched.

    Window i is the canonical problem of stages ``firsts[i]``..``lasts[i]``
    of ``lq``, its initial state pinned to ``pins[i]`` and, when
    ``terminals`` is given, its last Q replaced by ``terminals[i]``.  The
    windows of each :func:`even_batches` batch are solved by one sweep over
    :func:`stage_windows` of ``lq``, which takes the batch's terminal blocks
    beside them, so no window is copied.  Returns ``(p, q, zeta)`` of every
    window, in window order, each bit for bit what the window's own problem
    gives when solved alone.  A
    failing sweep's :class:`IndefiniteStageError` or
    :class:`SingularStageError` passes through, naming the member within
    its batch and the stage within the window.
    """
    pins = np.asarray(pins)
    parts = [None] * len(firsts)
    for batch in even_batches(firsts, [b - a for a, b in zip(firsts, lasts)]):
        first, K = firsts[batch[0]], len(batch)
        T = lasts[batch[0]] - first
        step = firsts[batch[1]] - first if K > 1 else 0
        Q, gx = (stage_windows(a, first, step, K, T + 1) for a in (lq.Q, lq.gx))
        S, R, A, B, gu, cdyn = (stage_windows(a, first, step, K, T)
                                for a in (lq.S, lq.R, lq.A, lq.B, lq.gu, lq.cdyn))
        ends = None if terminals is None else np.stack([terminals[i]
                                                         for i in batch])
        out = solve_lq_riccati(Q, S, R, A, B, gx, gu, pins[batch], cdyn, ends)
        for j, i in enumerate(batch):
            parts[i] = tuple(a[j] for a in out)
    return parts


def solve_lq_pieces(Q, S, R, A, B, gx, gu, c0, cdyn, junctions=()):
    """:func:`solve_lq_riccati` of one problem, as a batch of its pieces.

    The arguments are those of :func:`solve_lq_kkt`, and so are the
    returned ``(p, q, zeta)``.  Given the problem's ``junctions`` (see
    :func:`junction_stages`), one :func:`solve_lq_windows` call solves the
    pieces (module docstring), each pinned to the cdyn of the junction
    before it, and one window (k, k+1) per junction k, pinned to zero,
    whose q_k is the junction's control.  Without junctions the problem is
    a batch of one.  This is the sweep over the whole horizon, bit for
    bit: a junction passes that sweep nothing but zeros, so a piece's
    cost-to-go ends in its terminal Q_k and gx_k, and with A_k, B_k and
    S_k zero neither the pin nor Q_{k+1} enters q_k, which the window's
    stage k computes as the whole sweep's does.

    A stage that fails the pivot test or meets a singular gain solve, in a
    piece or at a junction, makes the whole horizon run again as one
    sweep, so the :class:`IndefiniteStageError` or
    :class:`SingularStageError` names what that sweep names: the last
    failing stage of the horizon, as member 0.
    """
    lq = LQ(Q, S, R, A, B, gx, gu, c0, cdyn)
    T, nx, nu = B.shape
    if not len(junctions):
        return solve_lq_windows(lq, [0], [T], [c0])[0]
    pieces = _pieces(junctions, T)
    firsts, lasts = zip(*pieces, *((k, k + 1) for k in junctions))
    pins = np.concatenate([c0[None], cdyn[junctions],
                           np.zeros((len(junctions), nx))])
    try:
        parts = solve_lq_windows(lq, firsts, lasts, pins)
    except (IndefiniteStageError, SingularStageError):
        return solve_lq_pieces(*lq)
    p, q, zeta = np.empty((T + 1, nx)), np.empty((T, nu)), np.empty((T + 1, nx))
    for (a, b), out in zip(pieces, parts):
        p[a:b + 1], q[a:b], zeta[a:b + 1] = out
    q[junctions] = [out[1][0] for out in parts[len(pieces):]]
    return p, q, zeta
