"""Overlapping Schwarz baseline: nonlinear subproblems solved to optimality.

Each outer iteration freezes boundary values from the current full-horizon
iterate, solves the nonlinear truncation of the problem on every extended
interval to optimality (inner SQP with warm start), and composes the
exclusive parts into the next iterate.  The truncated problem on [m1, m2]
keeps the original stage costs and dynamics; its initial state is pinned to
the boundary state and, unless the interval reaches the end of the horizon,
its terminal cost is adjusted to

    g_m2(x, ubar) - lambar^T f_m2(x, ubar) + mu/2 ||x - xbar||^2,

where (xbar, ubar, lambar) are the frozen terminal boundary values.

The one-Newton-step variant replaces the inner solve-to-optimality with a
single Newton step of each truncated problem; starting from the same
iterate it reproduces the decomposed SQP update exactly, which is exercised
as an equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .decomposition import DecompositionPlan, compose, decompose, make_plan
from .driver import (STATUS_KKT, IterationRecord, SolveReport, SolverConfig,
                     SolverState, run_outer_loop, solve)
from .exceptions import SubproblemFailure
from .newton import assemble_newton_data, solve_full_newton
from .problem import DualTrajectory, ProblemDef, Trajectory, stage_batched

INNER_TOL = 1e-8
INNER_MAX_ITERS = 50


@dataclass(frozen=True)
class NonlinearSubproblem:
    """Nonlinear truncation of ``parent`` onto [m1, m2] with boundary data.

    ``x_end``, ``u_end`` and ``lam_next`` are the frozen terminal boundary
    values; they are None when the interval reaches the end of the horizon,
    in which case the original terminal cost applies.  ``index`` is the
    interval's position in its decomposition plan, reported on failure.
    """

    parent: ProblemDef
    m1: int
    m2: int
    mu: float
    x_start: np.ndarray
    x_end: Optional[np.ndarray] = None
    u_end: Optional[np.ndarray] = None
    lam_next: Optional[np.ndarray] = None
    index: int = 0

    @property
    def has_adjusted_terminal(self) -> bool:
        return self.m2 < self.parent.N


def subproblem_from_iterate(p: ProblemDef, plan: DecompositionPlan, i: int,
                            mu: float, z: Trajectory,
                            lam: DualTrajectory) -> NonlinearSubproblem:
    """Boundary values for interval i taken from the current full iterate."""
    m1, m2 = plan.m1[i], plan.m2[i]
    if m2 == plan.N:
        return NonlinearSubproblem(p, m1, m2, mu, z.x[m1].copy(), index=i)
    return NonlinearSubproblem(p, m1, m2, mu, z.x[m1].copy(), z.x[m2].copy(),
                               z.u[m2].copy(), lam.lam[m2 + 1].copy(), index=i)


def truncated_problem(sub: NonlinearSubproblem) -> ProblemDef:
    """Express the nonlinear subproblem as a standalone problem definition.

    Stages k < T are the parent's stages m1 + k; each callback whose parent
    callback is stage-batched carries the parent's batched form on the
    stages m1 + ks.  The terminal stage T is the parent's terminal cost when
    the interval reaches the end of the horizon, and the adjusted cost from
    the module docstring otherwise.
    """
    p = sub.parent
    off, m2, mu = sub.m1, sub.m2, sub.mu
    T = m2 - off
    ubar, lbar, xbar = sub.u_end, sub.lam_next, sub.x_end
    terminal = {}
    if sub.has_adjusted_terminal:
        def cost(x):
            dx = x - xbar
            return (p.stage_cost(m2, x, ubar)
                    - float(lbar @ np.asarray(p.dynamics(m2, x, ubar)))
                    + 0.5 * mu * float(dx @ dx))

        def gradient(x):
            gx, _ = p.cost_gradient(m2, x, ubar)
            A, _ = p.dynamics_jacobians(m2, x, ubar)
            return gx - A.T @ lbar + mu * (x - xbar)

        def hessian(x):
            Qc, _, _ = p.cost_hessian(m2, x, ubar)
            Wxx, _, _ = p.dynamics_hessian_contraction(m2, x, ubar, lbar)
            return Qc + Wxx + mu * np.eye(p.n_x)

        terminal = {"stage_cost": cost, "cost_gradient": gradient,
                    "cost_hessian": hessian}

    def shifted(name):
        """The parent's ``name`` at stage m1 + k, or the adjusted terminal at T."""
        fn, end = getattr(p, name), terminal.get(name)

        def callback(k, x, *args):
            return fn(off + k, x, *args) if end is None or k < T else end(x)

        form = getattr(fn, "batched", None)
        if form is None:
            return callback
        return stage_batched(lambda ks, *arrays: form(off + ks, *arrays))(callback)

    return ProblemDef(
        N=T, n_x=p.n_x, n_u=p.n_u, x0=sub.x_start,
        **{name: shifted(name) for name in (
            "stage_cost", "cost_gradient", "cost_hessian", "dynamics",
            "dynamics_jacobians", "dynamics_hessian_contraction")})


def solve_nonlinear_subproblem(sub: NonlinearSubproblem,
                               warm: Tuple[np.ndarray, np.ndarray, np.ndarray]):
    """Solve one subproblem to optimality by an inner centralized SQP.

    ``warm`` is the (x, u, lam) slice of the current full iterate over
    [m1, m2].  Returns the subproblem's (x, u, lam) arrays; raises
    :class:`SubproblemFailure` when the inner loop does not reach
    INNER_TOL within INNER_MAX_ITERS iterations.
    """
    trunc = truncated_problem(sub)
    xw, uw, lw = warm
    cfg = SolverConfig(kkt_tol=INNER_TOL, step_tol=0.0,
                       max_iters=INNER_MAX_ITERS)
    report = solve(trunc, cfg, (Trajectory(xw, uw), DualTrajectory(lw)),
                   mode="centralized")
    if report.status != STATUS_KKT:
        raise SubproblemFailure(
            sub.index, f"interval [{sub.m1}, {sub.m2}] stopped with "
                f"status={report.status}, residual={report.final_kkt:.3e}")
    return report.z.x, report.z.u, report.lam.lam


def schwarz_solve(p: ProblemDef, cfg: SolverConfig, init) -> SolveReport:
    """Outer Schwarz iteration: freeze boundaries, solve, compose, repeat.

    Runs the SQP drivers' outer loop, so it stops on the same KKT, step and
    ``cfg.max_iters`` conditions.  The intervals are solved one after
    another in plan order.
    """
    plan = make_plan(p.N, cfg.M, cfg.b)

    def step(state: SolverState, cfg: SolverConfig, terms):
        z, lam = state.z, state.lam
        warms = decompose(z.x, z.u, lam.lam, plan)
        parts = [solve_nonlinear_subproblem(
                     subproblem_from_iterate(p, plan, i, cfg.mu, z, lam),
                     warms[i])
                 for i in range(plan.M)]
        x_new, u_new, lam_new = compose(parts, plan)
        step_norm = float(np.sqrt(np.sum((x_new - z.x) ** 2)
                                  + np.sum((u_new - z.u) ** 2)
                                  + np.sum((lam_new - lam.lam) ** 2)))
        state.z = Trajectory(x_new, u_new)
        state.lam = DualTrajectory(lam_new)
        state.z.x[0] = p.x0
        record = IterationRecord(
            state.tau, terms.residual(), terms.merit(cfg.eta), stepsize=1.0,
            gamma=0.0, step_norm=step_norm)
        state.tau += 1
        return record, cfg, 0

    return run_outer_loop(p, cfg, init, step)


def one_newton_schwarz_step(p: ProblemDef, z: Trajectory, lam: DualTrajectory,
                            plan: DecompositionPlan, mu: float):
    """One full Newton step of every nonlinear subproblem, then compose.

    Boundary values come from the current iterate and no Hessian
    modification is applied; starting from the same iterate, the result
    coincides with the decomposed SQP update taken with unit stepsize.
    """
    warms = decompose(z.x, z.u, lam.lam, plan)
    parts = []
    for i in range(plan.M):
        sub = subproblem_from_iterate(p, plan, i, mu, z, lam)
        trunc = truncated_problem(sub)
        xw, uw, lw = warms[i]
        nd = assemble_newton_data(trunc, Trajectory(xw, uw), DualTrajectory(lw))
        direction = solve_full_newton(nd)
        dx, du, dl = direction.stage_arrays(trunc.N, trunc.n_x, trunc.n_u)
        parts.append((xw + dx, uw + du, lw + dl))
    x_new, u_new, lam_new = compose(parts, plan)
    return Trajectory(x_new, u_new), DualTrajectory(lam_new)


def boundary_compatibility(p: ProblemDef, parts, plan: DecompositionPlan):
    """Cross-interval compatibility residuals at every interior knot.

    For knot k = n_i the three residuals are the state mismatch
    ||x_i(k) - x_{i-1}(k)|| and the Jacobian-projected multiplier mismatches
    ||A_{k-1}^T (lam_i(k) - lam_{i-1}(k))|| and ||B_{k-1}^T (...)||, with the
    Jacobians evaluated at interval i-1's stage k-1 point.  Composed
    subproblem stationary points form a full-horizon stationary point
    exactly when all residuals vanish.
    """
    out = []
    for i in range(1, plan.M):
        k = plan.knots[i]
        x_prev, u_prev, lam_prev = parts[i - 1]
        x_cur, _, lam_cur = parts[i]
        lo_prev, lo_cur = plan.m1[i - 1], plan.m1[i]
        A, B = p.dynamics_jacobians(k - 1, x_prev[k - 1 - lo_prev],
                                    u_prev[k - 1 - lo_prev])
        dlam = lam_cur[k - lo_cur] - lam_prev[k - lo_prev]
        out.append((
            float(np.linalg.norm(x_cur[k - lo_cur] - x_prev[k - lo_prev])),
            float(np.linalg.norm(A.T @ dlam)),
            float(np.linalg.norm(B.T @ dlam)),
        ))
    return out
