"""Benchmark problem generators and the experiment initialization scheme.

Two problem families are provided:

* A scalar toy problem with a nonconvex stage cost and linear dynamics,

      g_k = 2 cos^2(x_k - d_k) + C1 (x_k - d_k)^2 - C2 (u_k - d_k)^2,
      g_N = C1 x_N^2,        x_{k+1} = x_k + u_k + d_k,      x_0 = 0,

  whose reduced Hessian is bounded below by (C1 - 2 - 4|C2|)/4 whenever
  C1 - 2 > 4 |C2|, so no Hessian modification is ever needed in that regime.
  Three standard parameter cases are exposed by :func:`toy_case_params`.

* A thin-plate temperature control problem: the controlled heat equation
  with convection and radiation terms on the unit square, zero boundary and
  initial temperature, discretized by a 5-point Laplacian on an m x m grid
  (explicit Euler in time) with one heat input per interior node, and a
  quadrature stage cost dt * dw^2 * sum((x - d)^2 + u^2).

Initial iterates follow the benchmark protocol: the first is all zeros, the
remainder draw every coordinate iid Uniform(-1e5, 1e5), and x_0 is always
overwritten with the problem's initial state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .problem import (DualTrajectory, ProblemDef, Trajectory,
                      batched_callback)

UNIFORM_HALF_WIDTH = 1e5


# ---------------------------------------------------------------------------
# Scalar toy problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToySpec:
    """Scalar benchmark parameters; d is the reference sequence by knot index."""

    N: int
    C1: float
    C2: float
    d: Callable[[int], float]

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"toy horizon must be at least 2, got {self.N}")
        if not self.C1 - 2.0 > 4.0 * abs(self.C2):
            warnings.warn(
                f"C1 - 2 = {self.C1 - 2:g} does not exceed 4|C2| = "
                f"{4 * abs(self.C2):g}; the reduced Hessian may lose "
                "definiteness and trigger Levenberg shifts", stacklevel=2)


TOY_CASES = {
    1: dict(N=5000, M=50, C1=8.0, C2=1.0),
    2: dict(N=5000, M=100, C1=15.0, C2=3.0),
    3: dict(N=10000, M=100, C1=12.0, C2=2.0),
}


def toy_case_d(case: int) -> Callable[[int], float]:
    if case == 1:
        return lambda k: 1.0
    if case == 2:
        return lambda k: 100.0 * math.sin(k) ** 2
    if case == 3:
        return lambda k: 5.0 * math.sin(k)
    raise ValueError(f"unknown toy case {case}")


def toy_case_params(case: int, N: int | None = None, M: int | None = None):
    """Table of standard cases; returns (ToySpec, M), optionally rescaled."""
    if case not in TOY_CASES:
        raise ValueError(f"unknown toy case {case}")
    base = TOY_CASES[case]
    spec = ToySpec(N=N if N is not None else base["N"], C1=base["C1"],
                   C2=base["C2"], d=toy_case_d(case))
    return spec, (M if M is not None else base["M"])


def toy_reference(spec: ToySpec) -> np.ndarray:
    """The reference sequence d_k = spec.d(k), k < N, as a float array."""
    return np.fromiter(map(spec.d, range(spec.N)), float, spec.N)


def make_toy_problem(spec: ToySpec) -> ProblemDef:
    """Scalar problem with analytic derivatives; n_x = n_u = 1.

    The callbacks are stage-batched.  The cost squares with
    ``np.float_power`` (libm's pow, as Python's ``**`` on floats); ``x * x``
    rounds differently for about one value in a thousand, which moves merits
    and iterates in their last bits.  The terminal cost does too, so that a
    far iterate overflows it to inf, where ``float ** 2`` would raise
    ``OverflowError``.
    """
    C1, C2, N = spec.C1, spec.C2, spec.N
    d = toy_reference(spec)

    def stage_cost(ks, X, U):
        dk = d[ks][:, None]
        e = X - dk
        return (2.0 * np.float_power(np.cos(e), 2) + C1 * e * e
                - C2 * np.float_power(U - dk, 2))[:, 0]

    def cost_gradient(ks, X, U):
        dk = d[ks][:, None]
        e = X - dk
        return -2.0 * np.sin(2.0 * e) + 2.0 * C1 * e, -2.0 * C2 * (U - dk)

    def cost_hessian(ks, X, U):
        e = X - d[ks][:, None]
        K = len(ks)
        return ((-4.0 * np.cos(2.0 * e) + 2.0 * C1)[:, :, None],
                np.zeros((K, 1, 1)), np.full((K, 1, 1), -2.0 * C2))

    def dynamics(ks, X, U):
        return X + U + d[ks][:, None]

    def dynamics_jacobians(ks, X, U):
        ones = np.ones((len(ks), 1, 1))
        ones.flags.writeable = False
        return ones, ones

    def dynamics_hessian_contraction(ks, X, U, Lam):
        zero = np.zeros((len(ks), 1, 1))
        zero.flags.writeable = False
        return zero, zero, zero

    return ProblemDef(
        N=N, n_x=1, n_u=1, x0=np.zeros(1),
        stage_cost=batched_callback(stage_cost, N,
                                    lambda x: C1 * np.float_power(x[0], 2)),
        cost_gradient=batched_callback(
            cost_gradient, N, lambda x: np.array([2.0 * C1 * float(x[0])])),
        cost_hessian=batched_callback(cost_hessian, N,
                                      lambda x: np.array([[2.0 * C1]])),
        dynamics=batched_callback(dynamics, N),
        dynamics_jacobians=batched_callback(dynamics_jacobians, N),
        dynamics_hessian_contraction=batched_callback(
            dynamics_hessian_contraction, N),
    )


# ---------------------------------------------------------------------------
# Thin-plate temperature control
# ---------------------------------------------------------------------------

def _sin_of_time(node: int, t: float) -> float:
    return math.sin(t)


@dataclass(frozen=True)
class PlateSpec:
    """Heat-equation benchmark on an m x m grid with (m-2)^2 interior nodes.

    Physical constants: convection coefficient h_c, thermal conductivity
    kappa_c, emissivity eps_c, Stefan-Boltzmann constant sigma_c, ambient
    temperature T_c, plate thickness t_c.  ``desired(node, t)`` gives the
    temperature target of an interior node at physical time t = k / N.
    """

    m: int = 4
    N: int = 5000
    h_c: float = 1.0
    kappa_c: float = 400.0
    eps_c: float = 0.5
    sigma_c: float = 5.67e-8
    T_c: float = 300.0
    t_c: float = 0.01
    desired: Callable[[int, float], float] = field(default=_sin_of_time)

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"mesh must have at least one interior node, got m={self.m}")
        if self.N < 2:
            raise ValueError(f"plate horizon must be at least 2, got {self.N}")
        for name in ("h_c", "kappa_c", "eps_c", "sigma_c", "T_c", "t_c"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def dt(self) -> float:
        return 1.0 / self.N

    @property
    def dw(self) -> float:
        return 1.0 / (self.m - 1)

    @property
    def n_interior(self) -> int:
        return (self.m - 2) ** 2


def _interior_laplacian(m: int, dw: float) -> np.ndarray:
    """5-point stencil with zero Dirichlet boundary folded in."""
    s = m - 2
    T = np.eye(s, k=1) - 2.0 * np.eye(s) + np.eye(s, k=-1)
    return (np.kron(np.eye(s), T) + np.kron(T, np.eye(s))) / dw ** 2


def plate_targets(spec: PlateSpec) -> np.ndarray:
    """Targets ``desired(i, k * dt)`` as an (N, n_interior) array, k < N."""
    n, dt = spec.n_interior, spec.dt
    flat = np.fromiter((spec.desired(i, k * dt)
                        for k in range(spec.N) for i in range(n)),
                       float, spec.N * n)
    return flat.reshape(spec.N, n)


def make_plate_problem(spec: PlateSpec) -> ProblemDef:
    """Explicit-Euler discretization of the controlled heat equation."""
    n = spec.n_interior
    dt, dw = spec.dt, spec.dw
    if dt * 4.0 / dw ** 2 >= 2.0:
        warnings.warn(
            f"explicit Euler stability margin violated: dt*4/dw^2 = "
            f"{dt * 4.0 / dw ** 2:g} >= 2; expect oscillatory dynamics",
            stacklevel=2)
    L = _interior_laplacian(spec.m, dw)
    a_conv = 2.0 * spec.h_c / (spec.kappa_c * spec.t_c)
    a_rad = 2.0 * spec.eps_c * spec.sigma_c / (spec.kappa_c * spec.t_c)
    Tc, Tc4 = spec.T_c, spec.T_c ** 4
    # Explicit Euler on the PDE terms; u is the heat injected per node per
    # step (unit input matrix), which keeps the linearized system uniformly
    # controllable as the time grid is refined.
    M_lin = np.eye(n) + dt * (L - a_conv * np.eye(n))
    B = np.eye(n)
    B.flags.writeable = False
    w_cost = dt * dw ** 2
    d_table = plate_targets(spec)
    const = dt * (a_conv * Tc + a_rad * Tc4)
    N = spec.N
    Qs = 2.0 * w_cost * np.eye(n)
    zero = np.zeros((n, n))
    for arr in (Qs, zero):
        arr.flags.writeable = False

    # Stage-batched callbacks.  The radiation term is diagonal, so A differs
    # from M_lin and the contraction's state block from zero on the diagonal
    # only; its other blocks, B and the cost Hessian are constant.  Stacked
    # matmuls make one gemv (or dot) per stage, so a stage rounds alike in a
    # batch of one or of N.
    def dynamics(ks, X, U):
        return np.matmul(M_lin, X[:, :, None])[..., 0] + U + const \
            - dt * a_rad * X ** 4

    def dynamics_jacobians(ks, X, U):
        A = np.repeat(M_lin[None], len(ks), axis=0)
        diag = np.arange(n)
        A[:, diag, diag] -= 4.0 * dt * a_rad * X ** 3
        return A, np.broadcast_to(B, A.shape)

    def dynamics_hessian_contraction(ks, X, U, Lam):
        Wxx = np.zeros((len(ks), n, n))
        diag = np.arange(n)
        Wxx[:, diag, diag] = 12.0 * dt * a_rad * Lam * X ** 2
        zeros = np.broadcast_to(zero, Wxx.shape)
        return Wxx, zeros, zeros

    def stage_cost(ks, X, U):
        E = X - d_table[ks]
        return w_cost * (np.matmul(E[:, None], E[:, :, None])[:, 0, 0]
                         + np.matmul(U[:, None], U[:, :, None])[:, 0, 0])

    def cost_gradient(ks, X, U):
        return 2.0 * w_cost * (X - d_table[ks]), 2.0 * w_cost * U

    def cost_hessian(ks, X, U):
        shape = (len(ks), n, n)
        return (np.broadcast_to(Qs, shape), np.broadcast_to(zero, shape),
                np.broadcast_to(Qs, shape))

    return ProblemDef(
        N=spec.N, n_x=n, n_u=n, x0=np.zeros(n),
        stage_cost=batched_callback(stage_cost, N, lambda x: 0.0),
        cost_gradient=batched_callback(cost_gradient, N,
                                       lambda x: np.zeros(n)),
        cost_hessian=batched_callback(cost_hessian, N, lambda x: zero),
        dynamics=batched_callback(dynamics, N),
        dynamics_jacobians=batched_callback(dynamics_jacobians, N),
        dynamics_hessian_contraction=batched_callback(
            dynamics_hessian_contraction, N),
    )


# ---------------------------------------------------------------------------
# Initial iterates
# ---------------------------------------------------------------------------

def make_initializations(p: ProblemDef, count: int = 5, seed: int = 0):
    """Zero iterate plus ``count - 1`` iid Uniform(-1e5, 1e5) draws.

    The initial-state row of every draw is overwritten with the problem's
    initial state.  The same seed reproduces the same draws bit for bit.
    """
    rng = np.random.default_rng(seed)
    inits = []
    for i in range(count):
        if i == 0:
            z = Trajectory.zeros(p)
            lam = DualTrajectory.zeros(p)
        else:
            hw = UNIFORM_HALF_WIDTH
            z = Trajectory(rng.uniform(-hw, hw, (p.N + 1, p.n_x)),
                           rng.uniform(-hw, hw, (p.N, p.n_u)))
            lam = DualTrajectory(rng.uniform(-hw, hw, (p.N + 1, p.n_x)))
        z.x[0] = p.x0
        inits.append((z, lam))
    return inits
