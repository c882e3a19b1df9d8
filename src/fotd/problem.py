"""Nonlinear dynamic program (NLDP) model and pointwise evaluations.

An NLDP is an equality-constrained optimal control problem over a discrete
horizon of ``N`` stages:

    minimize    sum_{k<N} g_k(x_k, u_k) + g_N(x_N)
    subject to  x_{k+1} = f_k(x_k, u_k),   k = 0..N-1,
                x_0 = x0.

This module holds the problem container (:class:`ProblemDef`), the primal and
dual trajectory containers, and the evaluations every solver layer builds on:
objective, constraint residual, Lagrangian gradient (whose norm is the KKT
residual), and the differentiable exact augmented Lagrangian merit function

    merit(z, lam) = L(z, lam) + eta1/2 ||grad_lam L||^2 + eta2/2 ||grad_z L||^2

together with its gradient.

The problem owns its callbacks' contract: :attr:`ProblemDef.output_shapes`
is the one table of what each callback returns at a stage k < N, and
:func:`eval_merit_gradient` applies the merit's block operator to the
Lagrangian gradient itself, from the blocks of one :func:`linearize`.

Conventions used across the package:
  * Flattened primal vectors are stage-major: (x_0, u_0, ..., x_{N-1},
    u_{N-1}, x_N), with n_z = (N+1) n_x + N n_u entries.
  * lam_0 is attached to the initial-state constraint, lam_{k+1} to the k-th
    dynamic constraint, and dynamics multipliers enter stage gradients with a
    minus sign (-lam_{k+1}^T f_k).
  * All evaluations are pure functions; :class:`ProblemDef` is immutable and
    safe to share across worker threads.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ProblemDef:
    """Immutable NLDP definition with user-supplied derivative callbacks.

    Callback signatures (all deterministic and side-effect free):

    - ``stage_cost(k, x, u)`` -> float for k < N; ``stage_cost(N, x)`` -> float.
      The terminal cost depends on the state only.
    - ``cost_gradient(k, x, u)`` -> (gx, gu); ``cost_gradient(N, x)`` -> gx.
    - ``cost_hessian(k, x, u)`` -> (Q, S, R) with S of shape (n_u, n_x);
      ``cost_hessian(N, x)`` -> Q_N.
    - ``dynamics(k, x, u)`` -> next state, shape (n_x,).
    - ``dynamics_jacobians(k, x, u)`` -> (A, B) with A = df/dx, B = df/du.
    - ``dynamics_hessian_contraction(k, x, u, lam_next)`` -> (Wxx, Wux, Wuu),
      the blocks of  -sum_j lam_next[j] * hess(f_j)  laid out like the
      cost Hessian's (Q, S, R), i.e. the dynamics' contribution to the
      Lagrangian Hessian block.

    A callback may carry a stage-batched form (see :func:`stage_batched`)
    that evaluates the stages k < N in one call over stage arrays: ``ks``
    (K,) integer stages, ``X`` (K, n_x), ``U`` (K, n_u) and, for the
    contraction, ``Lam`` (K, n_x) holding lam_{k+1}.  Its outputs stack the
    per-stage ones on a leading axis: costs (K,), (GX, GU), (Q, S, R),
    next states (K, n_x), (A, B) and contractions (WXX, WUX, WUU).
    It must match the per-stage form bit for bit.  An evaluation pass makes
    one call per callback over the stages k < N -- the batched form, or a
    loop over the per-stage form that copies its outputs into fresh stage
    arrays shaped by :attr:`output_shapes` -- and one per-stage call at the
    terminal stage.  Outputs may be shared read-only arrays; the pass never
    writes into them.  The batched form travels with its callable, so
    ``dataclasses.replace`` of one callback drops that callback's batched
    form only.
    """

    N: int
    n_x: int
    n_u: int
    x0: np.ndarray
    stage_cost: Callable
    cost_gradient: Callable
    cost_hessian: Callable
    dynamics: Callable
    dynamics_jacobians: Callable
    dynamics_hessian_contraction: Callable

    def __post_init__(self):
        if self.N < 1 or self.n_x < 1 or self.n_u < 1:
            raise ValueError("N, n_x, n_u must be positive")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.n_x,):
            raise ValueError(f"x0 must have shape ({self.n_x},), got {x0.shape}")
        x0 = x0.copy()
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)

    @cached_property
    def output_shapes(self) -> dict:
        """Each callback's output shapes at a stage k < N, by name in field order."""
        nx, nu = self.n_x, self.n_u
        blocks = [(nx, nx), (nu, nx), (nu, nu)]
        return {"stage_cost": [()], "cost_gradient": [(nx,), (nu,)],
                "cost_hessian": blocks, "dynamics": [(nx,)],
                "dynamics_jacobians": [(nx, nx), (nx, nu)],
                "dynamics_hessian_contraction": blocks}

    @property
    def n_z(self) -> int:
        return (self.N + 1) * self.n_x + self.N * self.n_u

    @property
    def n_c(self) -> int:
        """Total number of equality constraints, (N+1)*n_x."""
        return (self.N + 1) * self.n_x


@dataclass
class Trajectory:
    """Full-horizon primal variables: states x (N+1, n_x), controls u (N, n_u)."""

    x: np.ndarray
    u: np.ndarray

    def copy(self) -> "Trajectory":
        return Trajectory(self.x.copy(), self.u.copy())

    @classmethod
    def zeros(cls, p: ProblemDef) -> "Trajectory":
        return cls(np.zeros((p.N + 1, p.n_x)), np.zeros((p.N, p.n_u)))


@dataclass
class DualTrajectory:
    """Multipliers lam (N+1, n_x); lam[0] belongs to the initial-state pin."""

    lam: np.ndarray

    def copy(self) -> "DualTrajectory":
        return DualTrajectory(self.lam.copy())

    @classmethod
    def zeros(cls, p: ProblemDef) -> "DualTrajectory":
        return cls(np.zeros((p.N + 1, p.n_x)))


@dataclass(frozen=True)
class PenaltyParams:
    """Merit penalties: eta1 biases feasibility, eta2 biases optimality."""

    eta1: float
    eta2: float

    def __post_init__(self):
        if not (self.eta1 > 0 and self.eta2 > 0):
            raise ValueError(f"penalty parameters must be positive, got {self}")


def check_point(p: ProblemDef, z: Trajectory, lam: Optional[DualTrajectory] = None):
    """Validate container shapes against ``p``; raises ValueError on mismatch."""
    if z.x.shape != (p.N + 1, p.n_x):
        raise ValueError(f"states must have shape {(p.N + 1, p.n_x)}, got {z.x.shape}")
    if z.u.shape != (p.N, p.n_u):
        raise ValueError(f"controls must have shape {(p.N, p.n_u)}, got {z.u.shape}")
    if lam is not None and lam.lam.shape != (p.N + 1, p.n_x):
        raise ValueError(
            f"multipliers must have shape {(p.N + 1, p.n_x)}, got {lam.lam.shape}"
        )


def stack_primal(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Flatten stage arrays to the stage-major primal vector."""
    (N, n_u), n_x = u.shape, x.shape[1]
    vec = np.empty(N * (n_x + n_u) + n_x, np.result_type(x, u))
    body = vec[:-n_x].reshape(N, n_x + n_u)
    body[:, :n_x] = x[:N]
    body[:, n_x:] = u
    vec[-n_x:] = x[N]
    return vec


def split_primal(vec: np.ndarray, N: int, n_x: int, n_u: int):
    """Inverse of :func:`stack_primal`; returns fresh (x, u) stage arrays."""
    m = n_x + n_u
    body = vec[: N * m].reshape(N, m)
    x = np.empty((N + 1, n_x), vec.dtype)
    x[:N] = body[:, :n_x]
    x[N] = vec[N * m:]
    return x, body[:, n_x:].copy()


def stage_batched(form: Callable):
    """Decorator: attach ``form`` as the stage-batched form of a callback.

    ``form(ks, X, U[, Lam])`` evaluates the stages ``ks`` at once; see
    :class:`ProblemDef` for the shapes.  The decorated per-stage callable is
    returned unchanged apart from its ``batched`` attribute.
    """
    def attach(fn: Callable) -> Callable:
        fn.batched = form
        return fn
    return attach


def batched_callback(form: Callable, N: int,
                     terminal: Optional[Callable] = None) -> Callable:
    """Per-stage callback that evaluates the batched ``form`` on stage k alone.

    Stage N goes to ``terminal(x)``.  The callback carries ``form`` as its
    stage-batched form, so both forms evaluate one formula and agree bit for
    bit.
    """
    @stage_batched(form)
    def callback(k, x, *args):
        if k == N:
            return terminal(x)
        out = form(np.array([k]), *(np.asarray(a)[None] for a in (x, *args)))
        return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]
    return callback


def _over_stages(p: ProblemDef, name: str, ks: np.ndarray, *arrays):
    """Evaluate ``p``'s callback ``name`` at the stages ``ks`` in one call.

    Uses the callback's batched form when it has one.  Otherwise calls it
    once per stage and copies its outputs into fresh stage arrays shaped by
    :attr:`ProblemDef.output_shapes`, as a per-stage callback may return
    shared arrays.
    """
    fn = getattr(p, name)
    form = getattr(fn, "batched", None)
    if form is not None:
        return form(ks, *arrays)
    outs = [np.empty((len(ks),) + shape) for shape in p.output_shapes[name]]
    for i, args in enumerate(zip(ks.tolist(), *arrays)):
        res = fn(*args)
        for out, r in zip(outs, res if len(outs) > 1 else (res,)):
            out[i] = r
    return outs[0] if len(outs) == 1 else tuple(outs)


def _stages(p: ProblemDef, z: Trajectory):
    """The stage arrays ``(ks, X, U)`` of the stages k < N."""
    return np.arange(p.N), z.x[: p.N], z.u


def eval_objective(p: ProblemDef, z: Trajectory) -> float:
    """Total cost sum_{k<N} g_k(x_k, u_k) + g_N(x_N), summed in stage order.

    The sum starts from 0.0 and adds one cost at a time, left to right
    (``np.cumsum`` does not reorder).
    """
    check_point(p, z)
    costs = np.zeros(p.N + 2)
    costs[1:-1] = _over_stages(p, "stage_cost", *_stages(p, z))
    costs[-1] = p.stage_cost(p.N, z.x[p.N])
    return float(np.cumsum(costs)[-1])


def eval_constraints(p: ProblemDef, z: Trajectory) -> np.ndarray:
    """Equality residual: component 0 is x_0 - x0bar, k+1 is x_{k+1} - f_k."""
    check_point(p, z)
    c = np.empty((p.N + 1, p.n_x))
    c[0] = z.x[0] - p.x0
    np.subtract(z.x[1:], _over_stages(p, "dynamics", *_stages(p, z)), out=c[1:])
    return c.ravel()


def eval_lagrangian_gradient(p: ProblemDef, z: Trajectory, lam: DualTrajectory):
    """Gradient of L(z, lam) = g(z) + lam^T f(z).

    Returns ``(grad_z, grad_lam)`` as flat stage-major vectors.  The KKT
    residual is the 2-norm of their concatenation.
    """
    terms = _merit_terms(p, z, lam)
    return terms.gz, terms.gl


@dataclass(frozen=True)
class MeritTerms:
    """Lagrangian value and gradient at one point; the merit is built from them.

    ``lagr`` is L, ``gz`` and ``gl`` its flat gradients in z and lam, and
    ``parts`` the terms that L sums (arrays or numbers); none when not given.
    """

    lagr: float
    gz: np.ndarray
    gl: np.ndarray
    parts: tuple = ()

    @cached_property
    def magnitude(self) -> float:
        """Sum of the absolute values of L's terms, the scale of its rounding.

        Summed in any order, when first asked for: it only scales a rounding
        allowance.  0 without ``parts``.
        """
        return float(sum(np.abs(part).sum() for part in self.parts))

    def residual(self) -> float:
        """KKT residual: the norm of the stacked (grad_z L, grad_lam L)."""
        return float(np.sqrt(self.gz @ self.gz + self.gl @ self.gl))

    def merit(self, eta: PenaltyParams) -> float:
        """Exact augmented Lagrangian L + eta1/2 ||gl||^2 + eta2/2 ||gz||^2."""
        return (self.lagr + 0.5 * eta.eta1 * float(self.gl @ self.gl)
                + 0.5 * eta.eta2 * float(self.gz @ self.gz))


def kkt_residual(p: ProblemDef, z: Trajectory, lam: DualTrajectory) -> float:
    """Norm of the stacked Lagrangian gradient and constraint violation."""
    return _merit_terms(p, z, lam).residual()


def _stage_pass(p: ProblemDef, z: Trajectory, lam: DualTrajectory,
                second_order: bool):
    """Call each callback once over the stages k < N, then once at N.

    Each call over k < N goes through :func:`_over_stages` (the batched form,
    or the per-stage loop for a callback without one), and all arithmetic
    runs over the whole horizon afterwards.  The callbacks' outputs are used
    as returned and never written into.  With ``second_order`` the pass calls
    ``cost_hessian`` and ``dynamics_hessian_contraction`` and ``first`` is
    ``(Q, S, R)`` with the contractions merged in (S or R is the cost
    callback's own output where the contraction's block is a broadcast
    zero, see :func:`_plus`); without it the pass calls
    ``stage_cost`` and ``first`` is ``(costs, terminal)``: the array of the
    stage costs k < N and the terminal cost.  Returns
    ``(first, A, B, grad_z, grad_lam)``.
    """
    check_point(p, z, lam)
    N, nx, nu = p.N, p.n_x, p.n_u
    x, lm = z.x, lam.lam
    stages = _stages(p, z)
    cgx, cgu = _over_stages(p, "cost_gradient", *stages)
    A, B = _over_stages(p, "dynamics_jacobians", *stages)
    f = _over_stages(p, "dynamics", *stages)
    if second_order:
        Qc, Sc, Rc = _over_stages(p, "cost_hessian", *stages)
        Wxx, Wux, Wuu = _over_stages(p, "dynamics_hessian_contraction",
                                     *stages, lm[1:])
        # Each part is dropped once summed, so that at most one sum and its
        # two parts are alive beyond the parts still waiting.
        Q = np.empty((N + 1, nx, nx))
        np.add(Qc, Wxx, out=Q[:N])
        del Qc, Wxx
        Q[N] = p.cost_hessian(N, x[N])
        S = _plus(Sc, Wux)
        del Sc, Wux
        first = (Q, S, _plus(Rc, Wuu))
        del Rc, Wuu
    else:
        first = (_over_stages(p, "stage_cost", *stages),
                 float(p.stage_cost(N, x[N])))
    gx = np.empty((N + 1, nx))
    np.add(cgx, lm[:N], out=gx[:N])
    gx[N] = p.cost_gradient(N, x[N])
    gx[N] += lm[N]
    # grad_x L_k = (grad g_k + lam_k) - A_k^T lam_{k+1}.  The stacked matmul
    # makes one gemv per stage, rounding as A_k.T @ lam_{k+1} does; einsum
    # would sum in another order.
    lnext = lm[1:, :, None]
    gx[:N] -= np.matmul(A.transpose(0, 2, 1), lnext)[..., 0]
    gu = cgu - np.matmul(B.transpose(0, 2, 1), lnext)[..., 0]
    glam = np.empty((N + 1, nx))
    glam[0] = x[0] - p.x0
    np.subtract(x[1:], f, out=glam[1:])
    return first, A, B, stack_primal(gx, gu), glam.ravel()


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, or ``a`` itself when ``b`` is one zero block over every stage.

    Such a ``b`` (a callback's broadcast zeros, say) adds nothing, so the
    sum would be a copy of ``a``, or a materialized copy when ``a`` is a
    broadcast block as well.
    """
    if b.strides[0] == 0 and not b[0].any():
        return a
    return a + b


def _merit_terms(p: ProblemDef, z: Trajectory, lam: DualTrajectory) -> MeritTerms:
    """One fused pass returning (L, grad_z, grad_lam) for merit evaluations.

    L is summed in stage order: lam_0 . c_0, then g_k and lam_{k+1} . c_{k+1}
    for each k, then g_N, by one ``np.cumsum`` over the terms laid out in
    that order, which adds them one at a time, left to right.  Another order
    moves merits in the last bits, which the acceptance tests' merit
    comparisons see.  The result keeps those terms as its ``parts``.
    """
    (costs, terminal), _, _, gz, gl = _stage_pass(p, z, lam,
                                                  second_order=False)
    lm = lam.lam
    c = gl.reshape(lm.shape)
    dots = np.matmul(lm[:, None, :], c[:, :, None]).ravel()
    terms = np.empty(2 * p.N + 2)
    terms[:-1:2] = dots
    terms[1:-1:2] = costs
    terms[-1] = terminal
    lagr = float(np.cumsum(terms)[-1])
    return MeritTerms(lagr, gz, gl, (dots, costs, terminal))


def eval_merit(p: ProblemDef, z: Trajectory, lam: DualTrajectory,
               eta: PenaltyParams) -> float:
    """Exact augmented Lagrangian L + eta1/2 ||grad_lam L||^2 + eta2/2 ||grad_z L||^2."""
    return _merit_terms(p, z, lam).merit(eta)


def linearize(p: ProblemDef, z: Trajectory, lam: DualTrajectory):
    """Exact Lagrangian Hessian blocks, Jacobians and gradient in one pass.

    Returns ``(Q, S, R, A, B, grad_z, grad_lam)``: Q (N+1, n_x, n_x) includes
    the terminal block, S, R, A, B lead with N, Q_k, S_k, R_k include the
    dynamics curvature contracted with lam_{k+1}, and the gradients are those
    of :func:`eval_lagrangian_gradient`.  Each callback runs once over the
    stages k < N and once at N (see :func:`_stage_pass`).  S, R, A and B
    may be the callbacks' own outputs, which may be shared and read-only.
    """
    (Q, S, R), A, B, gz, gl = _stage_pass(p, z, lam, second_order=True)
    return Q, S, R, A, B, gz, gl


def stage_hessian_blocks(p: ProblemDef, z: Trajectory, lam: DualTrajectory):
    """The ``(Q, S, R, A, B)`` blocks of :func:`linearize`."""
    return linearize(p, z, lam)[:5]


def eval_merit_gradient(p: ProblemDef, z: Trajectory, lam: DualTrajectory,
                        eta: PenaltyParams):
    """Gradient of the augmented Lagrangian.

    Computed as the 2x2 block operator applied to the Lagrangian gradient,

        [ I + eta2 H   eta1 G^T ] [ grad_z L ]
        [ eta2 G       I        ] [ grad_lam L ],

    with the exact (unmodified) Lagrangian Hessian H.  Returns flat
    ``(grad_z_merit, grad_lam_merit)``.
    """
    Q, S, R, A, B, gz, gl = linearize(p, z, lam)
    N = p.N
    vx, vu = split_primal(gz, N, p.n_x, p.n_u)
    w = gl.reshape(N + 1, p.n_x)
    # H v, stage by stage, for H's blocks [[Q_k, S_k^T], [S_k, R_k]] and Q_N.
    hx = np.empty_like(vx)
    hx[:N] = np.einsum("kij,kj->ki", Q[:N], vx[:N]) + np.einsum("kji,kj->ki", S, vu)
    hu = np.einsum("kij,kj->ki", S, vx[:N]) + np.einsum("kij,kj->ki", R, vu)
    hx[N] = Q[N] @ vx[N]
    # G v and G^T w for the staircase Jacobian: row 0 pins x_0, row k+1 is
    # x_{k+1} - A_k x_k - B_k u_k.
    Gv = np.empty_like(w)
    Gv[0] = vx[0]
    Gv[1:] = vx[1:] - np.einsum("kij,kj->ki", A, vx[:N]) - np.einsum("kij,kj->ki", B, vu)
    GTx = np.empty_like(vx)
    GTx[:N] = w[:N] - np.einsum("kji,kj->ki", A, w[1:])
    GTx[N] = w[N]
    GTu = -np.einsum("kji,kj->ki", B, w[1:])
    mz = gz + eta.eta2 * stack_primal(hx, hu) + eta.eta1 * stack_primal(GTx, GTu)
    ml = gl + eta.eta2 * Gv.ravel()
    return mz, ml


# ---------------------------------------------------------------------------
# CSV serialization of primal/dual points
# ---------------------------------------------------------------------------

def atomic_write(path: str, text: str):
    """Write ``text`` to ``path`` via a temporary file and ``os.replace``.

    Readers never see a partly written file; newlines are written as given.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = tempfile.NamedTemporaryFile("w", dir=d, delete=False, newline="")
    try:
        tmp.write(text)
        tmp.close()
        os.replace(tmp.name, path)
    except BaseException:
        tmp.close()
        os.unlink(tmp.name)
        raise


def save_point_csv(path: str, p: ProblemDef, z: Trajectory, lam: DualTrajectory):
    """Write one row per stage; control columns are empty at stage N."""
    check_point(p, z, lam)
    header = (["stage"]
              + [f"x_{i}" for i in range(p.n_x)]
              + [f"u_{i}" for i in range(p.n_u)]
              + [f"lambda_{i}" for i in range(p.n_x)])
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for k in range(p.N + 1):
        us = [f"{v:.17g}" for v in z.u[k]] if k < p.N else [""] * p.n_u
        w.writerow([k]
                   + [f"{v:.17g}" for v in z.x[k]]
                   + us
                   + [f"{v:.17g}" for v in lam.lam[k]])
    atomic_write(path, buf.getvalue())


def load_point_csv(path: str):
    """Read a point written by :func:`save_point_csv`; dims come from the header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    n_x = sum(1 for h in header if h.startswith("x_"))
    n_u = sum(1 for h in header if h.startswith("u_"))
    N = len(rows) - 2
    x = np.zeros((N + 1, n_x))
    u = np.zeros((N, n_u))
    lm = np.zeros((N + 1, n_x))
    for row in rows[1:]:
        k = int(row[0])
        x[k] = [float(v) for v in row[1:1 + n_x]]
        if k < N:
            u[k] = [float(v) for v in row[1 + n_x:1 + n_x + n_u]]
        lm[k] = [float(v) for v in row[1 + n_x + n_u:1 + 2 * n_x + n_u]]
    return Trajectory(x, u), DualTrajectory(lm)
