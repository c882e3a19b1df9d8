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

The intervals of one outer iteration are solved in groups, each group as
one problem by one inner SQP.  A group chains its intervals end to end:
interval i's T_i = m2_i - m1_i stages are chain stages o_i .. o_i + T_i - 1,
with o_{i+1} = o_i + T_i + 1, and chain stage o_i + T_i holds its terminal
state.  For every interval but the last that stage is a *junction*, a
stage with a control u whose cost is the interval's terminal cost in x plus
1/2 ||u||^2 (Hessian blocks: the terminal Hessian, S = 0 and R = I) and
whose dynamics is the next interval's initial state, so A = B = 0 and the
dynamics curvature is zero.  The next dynamics row is then exactly the next
interval's initial pin: no term couples two intervals, the chain's KKT
conditions are those of its intervals plus u = 0 at every junction, and
each Newton step of the chain is the intervals' own Newton steps at once.
The intervals do share the step's Levenberg shift, Armijo stepsize and
stop test, and the definiteness test's constant c is the largest
interval's.  Each callback pass makes one call of the parent's batched form
over every interval's stages, junction rows included, plus, for a cost
callback, one call of the dynamics callback its adjustment reads over the
junction rows; so an inner step makes the same number of callback calls,
one band test and one band LU whatever the number of intervals.

The grouping follows the block width, as the decomposed direction's kernel
does: below :data:`fotd.decomposition.RICCATI_MIN_NX` states all M
intervals form one chain; wider intervals are solved one per group, in plan
order.  A group of one is the interval's truncated problem.  Measured on
one x86-64 core, Schwarz alone, b=5: on toy case 1 (n_x = 1, N=500, M=5)
the chain took 41-49% of the time of the M solves, while on the plate at
m = 6 (n_x = 16, N=500, M=10) it took 12-13% longer and raised peak RSS
from 62 to 82 MB, as the plate's shared broadcast blocks are materialized
over the whole chain.

The one-Newton-step variant replaces the inner solve-to-optimality with a
single Newton step of each truncated problem; starting from the same
iterate it reproduces the decomposed SQP update exactly, which is exercised
as an equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .decomposition import (RICCATI_MIN_NX, DecompositionPlan, compose,
                            decompose, make_plan)
from .driver import (STATUS_KKT, IterationRecord, SolveReport, SolverConfig,
                     SolverState, run_outer_loop, solve)
from .exceptions import SubproblemFailure
from .newton import assemble_newton_data, solve_full_newton
from .problem import (DualTrajectory, ProblemDef, Trajectory, _merit_terms,
                      _over_stages, stage_batched)

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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (K, n) arrays, one per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _output_shapes(nx: int, nu: int) -> dict:
    """Each callback's output shapes at one stage k < N."""
    return {"stage_cost": [()], "cost_gradient": [(nx,), (nu,)],
            "cost_hessian": [(nx, nx), (nu, nx), (nu, nu)],
            "dynamics": [(nx,)], "dynamics_jacobians": [(nx, nx), (nx, nu)],
            "dynamics_hessian_contraction": [(nx, nx), (nu, nx), (nu, nu)]}


_COSTS = ("stage_cost", "cost_gradient", "cost_hessian")


class _Junctions:
    """The junction stages of a chain, one per interval but the last.

    Junction j ends interval j of the group.  A cost callback's row there is
    the parent's at (m2_j, x, ubar_j), adjusted as in the module docstring;
    an interval that reaches N has no stage m2 < N, so that row is evaluated
    at stage N - 1 with zero boundary values and then replaced by the
    parent's terminal value.  The dynamics callbacks' junction rows are
    constants, whatever the parent gives there.
    """

    def __init__(self, subs: Sequence[NonlinearSubproblem], shapes: dict):
        p = self.parent = subs[0].parent
        ends = subs[:-1]
        self.shapes = shapes
        self.stage = np.array([min(s.m2, p.N - 1) for s in ends])
        self.adjusted = np.array([s.has_adjusted_terminal for s in ends])
        self.mu = np.array([s.mu for s in ends])
        self.xbar, self.ubar, self.lbar = (
            np.array([np.zeros(n) if getattr(s, name) is None
                      else getattr(s, name) for s in ends])
            for name, n in (("x_end", p.n_x), ("u_end", p.n_u),
                            ("lam_next", p.n_x)))
        self.x_next = np.array([s.x_start for s in subs[1:]])

    def constant(self, name: str, js: np.ndarray) -> tuple:
        """Rows of the dynamics callback ``name`` at junctions ``js``."""
        if name == "dynamics":
            return (self.x_next[js],)
        return tuple(np.zeros((len(js),) + shape) for shape in self.shapes[name])

    def costs(self, name: str, js: np.ndarray, X: np.ndarray, U: np.ndarray,
              first: np.ndarray) -> tuple:
        """Rows of the cost callback ``name`` at junctions ``js``.

        ``X`` and ``U`` are fresh copies of the chain's states and controls
        at those junctions and ``first`` the first output of the parent's
        ``name`` at (m2_j, x, ubar_j).  The arithmetic is row by row, so a
        batch of junctions gives what each gives alone.
        """
        p, K = self.parent, len(js)
        ks, ubar, lbar, mu = self.stage[js], self.ubar[js], self.lbar[js], self.mu[js]
        dx = X - self.xbar[js]
        if name == "stage_cost":
            f = _over_stages(p.dynamics, self.shapes["dynamics"], ks, X, ubar)
            term = first - _rowdot(lbar, f) + 0.5 * mu * _rowdot(dx, dx)
        elif name == "cost_gradient":
            A, _ = _over_stages(p.dynamics_jacobians,
                                self.shapes["dynamics_jacobians"], ks, X, ubar)
            term = (first - np.matmul(A.transpose(0, 2, 1), lbar[:, :, None])[..., 0]
                    + mu[:, None] * dx)
        else:
            Wxx, _, _ = _over_stages(
                p.dynamics_hessian_contraction,
                self.shapes["dynamics_hessian_contraction"], ks, X, ubar, lbar)
            term = first + Wxx + mu[:, None, None] * np.eye(p.n_x)
        for r in (~self.adjusted[js]).nonzero()[0]:
            term[r] = getattr(p, name)(p.N, X[r])
        if name == "stage_cost":
            return (term + 0.5 * _rowdot(U, U),)
        if name == "cost_gradient":
            return term, U
        return (term, np.zeros((K, p.n_u, p.n_x)),
                np.eye(p.n_u)[None].repeat(K, axis=0))


def truncated_problem(subs: Sequence[NonlinearSubproblem]) -> ProblemDef:
    """Express a group of nonlinear subproblems as one problem definition.

    The group's intervals are chained as the module docstring describes.
    Chain stage o_i + t, t < T_i, is the parent's stage m1_i + t.  A
    junction stage evaluates the parent's callback on its row (through the
    parent's batched form when there is one, see
    :func:`fotd.problem._over_stages`) and then overwrites the row, on a
    copy, since outputs may be shared; a callback whose parent callback is
    stage-batched carries a batched form that does this for all the stages
    asked for with one parent call, so both forms agree bit for bit.  The
    terminal stage is the last interval's: the parent's terminal cost when
    it reaches the end of the horizon, and the adjusted cost from the
    module docstring otherwise.  A group of one is the interval's truncated
    problem.
    """
    p, last = subs[0].parent, subs[-1]
    stage, junction = [], []
    for j, sub in enumerate(subs):
        stage += range(sub.m1, sub.m2)
        junction += [-1] * (sub.m2 - sub.m1)
        if sub is not last:
            stage.append(min(sub.m2, p.N - 1))
            junction.append(j)
    N = len(stage)
    shapes = _output_shapes(p.n_x, p.n_u)
    joins = _Junctions(subs, shapes) if len(subs) > 1 else None
    stages, junctions = np.array(stage), np.array(junction)
    at_junction = junctions >= 0
    ubar, lbar, xbar, m2, mu = (last.u_end, last.lam_next, last.x_end,
                                last.m2, last.mu)
    terminal = {}
    if last.has_adjusted_terminal:
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

    def chained(name):
        """The parent's ``name`` on the chain's stages and junctions."""
        fn, end, cost = getattr(p, name), terminal.get(name), name in _COSTS
        form = getattr(fn, "batched", None)

        def over_chain(ks, X, U, *lam):
            """``name`` at chain stages ``ks``, junction rows overwritten."""
            rows = at_junction[ks].nonzero()[0]
            js = junctions[ks[rows]]
            if cost:
                Uj = U[rows]
                U = U.copy()
                U[rows] = joins.ubar[js]
            out = _over_stages(fn, shapes[name], stages[ks], X, U, *lam)
            outs = [np.array(o) for o in (out if isinstance(out, tuple) else (out,))]
            new = (joins.costs(name, js, X[rows], Uj, outs[0][rows]) if cost
                   else joins.constant(name, js))
            for o, value in zip(outs, new):
                o[rows] = value
            return outs[0] if len(outs) == 1 else tuple(outs)

        def callback(k, x, *args):
            if k == N:
                return fn(m2, x) if end is None else end(x)
            if junction[k] < 0:
                return fn(stage[k], x, *args)
            out = over_chain(np.array([k]), *(np.asarray(a)[None] for a in (x, *args)))
            return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]

        if form is None:
            return callback
        if joins is None:
            return stage_batched(lambda ks, *arrays: form(stages[ks], *arrays))(callback)
        return stage_batched(over_chain)(callback)

    return ProblemDef(
        N=N, n_x=p.n_x, n_u=p.n_u, x0=subs[0].x_start,
        **{name: chained(name) for name in shapes})


def solve_nonlinear_subproblem(subs: Sequence[NonlinearSubproblem],
                               warms: Sequence[Tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]]):
    """Solve a group of subproblems to optimality by one inner centralized SQP.

    ``warms[i]`` is the (x, u, lam) slice of the current full iterate over
    interval i's [m1, m2]; the chain starts from the stacked slices with
    zero junction controls.  Returns one (x, u, lam) part per interval.
    Raises :class:`SubproblemFailure` when the inner loop does not reach
    INNER_TOL within INNER_MAX_ITERS iterations, for the first interval in
    the group whose own residual (its rows of the chain's Lagrangian
    gradient at the final iterate) exceeds INNER_TOL, or else the largest.
    """
    chain = truncated_problem(subs)
    nx, nu = chain.n_x, chain.n_u
    offsets = np.cumsum([0] + [s.m2 - s.m1 + 1 for s in subs[:-1]]).tolist()
    x = np.concatenate([w[0] for w in warms])
    u = [np.zeros((1, nu))] * (2 * len(warms) - 1)  # zero junction controls
    u[::2] = [w[1] for w in warms]
    u = np.concatenate(u)
    lw = np.concatenate([w[2] for w in warms])
    cfg = SolverConfig(kkt_tol=INNER_TOL, step_tol=0.0,
                       max_iters=INNER_MAX_ITERS)
    report = solve(chain, cfg, (Trajectory(x, u), DualTrajectory(lw)),
                   mode="centralized")
    if report.status != STATUS_KKT:
        terms = _merit_terms(chain, report.z, report.lam)
        res = []
        for o, sub in zip(offsets, subs):
            T = sub.m2 - sub.m1
            gz = terms.gz[o * (nx + nu):(o + T) * (nx + nu) + nx]
            gl = terms.gl[o * nx:(o + T + 1) * nx]
            res.append(float(np.sqrt(gz @ gz + gl @ gl)))
        i = next((i for i, r in enumerate(res) if r > INNER_TOL),
                 int(np.argmax(res)))
        raise SubproblemFailure(
            subs[i].index, f"interval [{subs[i].m1}, {subs[i].m2}] stopped "
                f"with status={report.status}, residual={res[i]:.3e}")
    z, lam = report.z, report.lam
    return [(z.x[o:o + s.m2 - s.m1 + 1], z.u[o:o + s.m2 - s.m1],
             lam.lam[o:o + s.m2 - s.m1 + 1]) for o, s in zip(offsets, subs)]


def schwarz_solve(p: ProblemDef, cfg: SolverConfig, init) -> SolveReport:
    """Outer Schwarz iteration: freeze boundaries, solve, compose, repeat.

    Runs the SQP drivers' outer loop, so it stops on the same KKT, step and
    ``cfg.max_iters`` conditions.  Below RICCATI_MIN_NX states the M
    intervals are chained into one problem and solved together; wider ones
    are solved one after another in plan order (module docstring).
    """
    plan = make_plan(p.N, cfg.M, cfg.b)
    intervals = list(range(plan.M))
    groups = ([intervals] if p.n_x < RICCATI_MIN_NX
              else [[i] for i in intervals])

    def step(state: SolverState, cfg: SolverConfig, terms):
        z, lam = state.z, state.lam
        warms = decompose(z.x, z.u, lam.lam, plan)
        parts = [part for group in groups
                 for part in solve_nonlinear_subproblem(
                     [subproblem_from_iterate(p, plan, i, cfg.mu, z, lam)
                      for i in group], [warms[i] for i in group])]
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
        trunc = truncated_problem([sub])
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
