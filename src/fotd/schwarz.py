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

The M intervals of one outer iteration are solved as one problem by one
inner SQP.  One :class:`IntervalChain`, built once per outer iteration from
the plan, mu and the current iterate, holds what that problem needs: the
boundary values, the layout and the ends' formula.  The chain joins the
intervals end to end: interval i's T_i = m2_i - m1_i stages are chain
stages o_i .. o_i + T_i - 1, with o_{i+1} = o_i + T_i + 1, and chain stage
o_i + T_i is the interval's *end*, which holds its terminal state.  The last
interval's end is the chain's terminal stage.  Every other end is a
*junction*, a stage with a control u whose cost is the interval's terminal
cost in x plus 1/2 ||u||^2 (Hessian blocks: the terminal Hessian, S = 0 and
R = I) and whose dynamics is the next interval's initial state, so A = B = 0
and the dynamics curvature is zero.  The next dynamics row is then exactly
the next interval's initial pin: no term couples two intervals, the chain's
KKT conditions are those of its intervals plus u = 0 at every junction, and
each Newton step of the chain is the intervals' own Newton steps at once.
The intervals do share the step's Levenberg shift, Armijo stepsize and stop
test, and the definiteness test's constant c is the largest interval's.
One batched formula gives every end's terminal cost, gradient and Hessian.
Each callback pass makes one call of the parent's batched form over every
interval's stages, junction rows included, plus, for a cost callback, one
call of the dynamics callback its adjustment reads over the junction rows;
so an inner step makes the same number of callback calls whatever the
number of intervals.  An output is copied once and its junction rows
overwritten, unless it is one block broadcast over the stages, which a copy
would materialize, and its junction rows already hold the junction's values
(the plate's zero S and contraction blocks, say): then it is passed on as
the parent gave it.  What a pass needs that does not depend on the iterate
is built once per chain, not on each of the inner solve's passes (about
18 per inner step): the layout of a pass over every chain stage in order,
which is the pass the inner SQP makes (the junction rows, their ends as a
slice, so that the boundary values are read as views, and the parent
stage of every chain stage), and the junction rows that are constants
(the dynamics callbacks' rows, the cost Hessian's S = 0 and R = I, and
mu I), read-only and copied into the outputs.  Such a pass recognizes
itself by one comparison of its stage array's bytes; a batch over other
stages (a per-stage call, say) looks its junctions up.

Every width is chained.  Below :data:`fotd.newton.FULL_RICCATI_MIN_NX`
states an inner step makes one band test and one band LU over the chain.
From there on the junctions split both (see :mod:`fotd.banded`): the
definiteness test factors one band per interval, each but the last ending
in its junction's control, and the Newton step is one batched Riccati
sweep per interval length plus one over the junctions' one-stage windows,
bit for bit the sweep over the whole chain, and each interval's part bit
for bit that interval's data solved alone.  On the plate at m = 6
(n_x = 16, N = 500, M = 10, b = 5) that is three sweeps, of 2 and 8
intervals and of the 9 junctions, where one solve per interval made ten.

The one-Newton-step variant replaces the inner solve-to-optimality with a
single Newton step of the same chain; starting from the same iterate it
reproduces the decomposed SQP update exactly, which is exercised as an
equivalence test.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .decomposition import DecompositionPlan, compose, decompose, make_plan
from .driver import (STATUS_KKT, IterationRecord, SolveReport, SolverConfig,
                     SolverState, run_outer_loop, solve)
from .exceptions import NonDescentError, SubproblemFailure
from .newton import assemble_newton_data, modify_hessian, solve_full_newton
from .problem import (DualTrajectory, ProblemDef, Trajectory, _merit_terms,
                      _over_stages, batched_callback, eval_merit_gradient,
                      split_primal)

INNER_TOL = 1e-8
INNER_MAX_ITERS = 50


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (K, n) arrays, one per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


_COSTS = ("stage_cost", "cost_gradient", "cost_hessian")


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


class IntervalChain:
    """The intervals of one outer iteration, chained (module docstring).

    Built from the parent ``p``, the decomposition ``plan``, the terminal
    penalty ``mu`` and the current full iterate ``(z, lam)``, which gives
    every interval its frozen boundary values.  ``indices`` picks the plan's
    intervals to chain, in plan order; all of them by default.  Per interval,
    in chain order: ``indices``, ``m1``, ``m2``, the first chain stage
    ``offsets``, the initial state ``x_start`` and the terminal boundary
    values ``xbar``, ``ubar`` and ``lbar``, which only an interval that ends
    before N uses (``adjusted``): one that reaches N keeps the parent's
    terminal cost.  ``N`` is the number of chain stages.

    The junctions, in chain order, are the chain stages ``ends`` and the
    ends ``joined`` (a slice, so that the boundary values read at them are
    views), of which those at ``joined_at_N`` reach N.  ``rows`` holds,
    read-only, the junction rows that do not depend on the iterate, one per
    junction: the dynamics callbacks' rows and the cost Hessian's S = 0 and
    R = I; ``mu_eye`` is mu I.

    End j's cost callbacks give the parent's at (m2_j, x, ubar_j), adjusted
    as in the module docstring; an interval that reaches N has no stage
    m2 < N, so that row is evaluated at ``stage`` = N - 1 and then replaced
    by the parent's terminal value.  At a junction the control's terms are
    added, and the dynamics callbacks' rows are constants, whatever the
    parent gives there.
    """

    def __init__(self, p: ProblemDef, plan: DecompositionPlan, mu: float,
                 z: Trajectory, lam: DualTrajectory,
                 indices: Optional[Sequence[int]] = None):
        self.parent, self.mu = p, mu
        self.indices = np.arange(plan.M) if indices is None else np.asarray(indices)
        self.m1, self.m2 = (np.asarray(m)[self.indices] for m in (plan.m1, plan.m2))
        T = self.m2 - self.m1
        self.offsets = np.cumsum(np.append(0, T[:-1] + 1))
        self.N = int(T.sum()) + len(T) - 1
        self.stage = np.minimum(self.m2, p.N - 1)
        self.adjusted = self.m2 < p.N
        self.x_start, self.xbar = z.x[self.m1], z.x[self.m2]
        self.ubar, self.lbar = z.u[self.stage], lam.lam[self.stage + 1]
        nx, nu, J = p.n_x, p.n_u, len(T) - 1
        self.ends = self.offsets[1:] - 1
        self.joined = slice(0, J)
        self.joined_at_N = (~self.adjusted[self.joined]).nonzero()[0]
        self.mu_eye = _frozen(mu * np.eye(nx))
        # Junction rows that do not depend on the iterate, one per junction.
        self.rows = {name: tuple(_frozen(np.zeros((J,) + shape))
                                 for shape in p.output_shapes[name])
                     for name in ("dynamics_jacobians",
                                  "dynamics_hessian_contraction")}
        self.rows["dynamics"] = (_frozen(self.x_start[1:]),)
        self.rows["cost_hessian"] = (
            _frozen(np.zeros((J, nu, nx))),
            _frozen(np.eye(nu)[None].repeat(J, axis=0)))

    def stack(self, parts):
        """The chain's iterate (z, lam) from one (x, u, lam) per interval.

        The junction controls are zero.
        """
        x, u, lam = zip(*parts)
        controls = [np.zeros((1, self.parent.n_u))] * (2 * len(u) - 1)
        controls[::2] = u
        return (Trajectory(np.concatenate(x), np.concatenate(controls)),
                DualTrajectory(np.concatenate(lam)))

    def parts(self, x, u, lam) -> list:
        """Cut the chain's stage arrays x, u, lam into one part per interval."""
        return [(x[o:o + T + 1], u[o:o + T], lam[o:o + T + 1])
                for o, T in zip(self.offsets, self.m2 - self.m1)]

    def sums(self, vz: np.ndarray, vl: np.ndarray) -> np.ndarray:
        """Each interval's sum of the entries of its :meth:`parts`.

        ``vz`` is a stage-major primal vector of the chain and ``vl`` a
        multiplier vector; junction controls belong to no interval.
        """
        vx, vu = split_primal(vz, self.N, self.parent.n_x, self.parent.n_u)
        return np.array([sum(a.sum() for a in part) for part in
                         self.parts(vx, vu, vl.reshape(self.N + 1, -1))])

    def terminal(self, name: str, js: np.ndarray, X: np.ndarray,
                 first: np.ndarray) -> np.ndarray:
        """The terminal cost callback ``name`` at the ends ``js``.

        ``js`` indexes the ends (an index array or a slice), ``X`` holds
        their states and ``first`` the first output of the parent's ``name``
        at (m2_j, x, ubar_j).  The arithmetic is row by row, so a batch of
        ends gives what each gives alone.
        """
        p, mu = self.parent, self.mu
        ks, ubar, lbar = self.stage[js], self.ubar[js], self.lbar[js]
        dx = X - self.xbar[js]
        if name == "stage_cost":
            f = _over_stages(p, "dynamics", ks, X, ubar)
            term = first - _rowdot(lbar, f) + 0.5 * mu * _rowdot(dx, dx)
        elif name == "cost_gradient":
            A, _ = _over_stages(p, "dynamics_jacobians", ks, X, ubar)
            term = (first - np.matmul(A.transpose(0, 2, 1), lbar[:, :, None])[..., 0]
                    + mu * dx)
        else:
            Wxx, _, _ = _over_stages(p, "dynamics_hessian_contraction",
                                     ks, X, ubar, lbar)
            term = first + Wxx + self.mu_eye
        at_N = (self.joined_at_N if js is self.joined
                else (~self.adjusted[js]).nonzero()[0])
        for r in at_N:
            term[r] = getattr(p, name)(p.N, X[r])
        return term

    def constant(self, name: str, js: np.ndarray) -> tuple:
        """The constant rows of callback ``name`` at the junctions ``js``.

        All rows of a dynamics callback, the S and R rows of the cost
        Hessian; read-only views when ``js`` is a slice.
        """
        return tuple(rows[js] for rows in self.rows[name])

    def junction(self, name: str, js: np.ndarray, X: np.ndarray,
                 U: np.ndarray, first: np.ndarray) -> tuple:
        """Rows of the cost callback ``name`` at the junctions ``js``.

        ``U`` holds a fresh copy of each junction's control; ``X`` and
        ``first`` are as in :meth:`terminal`.
        """
        term = self.terminal(name, js, X, first)
        if name == "stage_cost":
            return (term + 0.5 * _rowdot(U, U),)
        if name == "cost_gradient":
            return term, U
        return (term,) + self.constant(name, js)


def truncated_problem(chain: IntervalChain) -> ProblemDef:
    """Express a chain of nonlinear subproblems as one problem definition.

    Chain stage o_i + t, t < T_i, is the parent's stage m1_i + t.  Every
    callback carries one batched form over the chain's stages (see
    :func:`fotd.problem.batched_callback`): it calls the parent's callback
    on all the stages asked for at once (through the parent's batched form
    when there is one, see :func:`fotd.problem._over_stages`) and then
    overwrites the junction rows, on a copy, since outputs may be shared.
    A batch of every chain stage in order, the one each evaluation pass
    asks for, takes its junction rows, ends and parent stages from a layout
    built here once per chain and its constant rows from ``chain.rows``;
    any other batch looks them up, and gives the same rows bit for bit.
    Its per-stage form is that batch taken at one stage.  The terminal
    stage is the last interval's end: the parent's terminal cost when it
    reaches the end of the horizon, and otherwise the ends' formula
    (:meth:`IntervalChain.terminal`) as a batch of one.  A chain of one is
    the interval's truncated problem, and its callbacks do no junction work.
    """
    p, N, M = chain.parent, chain.N, len(chain.indices)
    stages = _frozen(np.concatenate([
        np.append(np.arange(m1, m2), k)
        for m1, m2, k in zip(chain.m1, chain.m2, chain.stage)])[:-1])
    junction = np.full(N, -1)
    junction[chain.ends] = np.arange(M - 1)
    at_junction = junction >= 0
    every_stage = np.arange(N).tobytes()
    last = slice(M - 1, None)  # the last end, as a batch of one

    def layout(ks):
        """``(rows, js, parent stages)`` of a batch over the chain stages ks.

        ``rows`` are the batch rows at junctions and ``js`` their ends; a
        batch of every chain stage in order takes the chain's own.
        """
        if len(ks) == N and ks.tobytes() == every_stage:
            return chain.ends, chain.joined, stages
        rows = at_junction[ks].nonzero()[0]
        return rows, junction[ks[rows]], stages[ks]

    def chained(name):
        """The parent's ``name`` on the chain's stages and ends."""
        cost = name in _COSTS

        def over_chain(ks, X, U, *lam):
            """``name`` at chain stages ``ks``, junction rows overwritten."""
            if M == 1:
                return _over_stages(p, name, stages[ks], X, U, *lam)
            rows, js, parent_ks = layout(ks)
            # ``take`` gathers the junction rows as indexing by ``rows``
            # would, in fewer steps.
            if cost:
                Uj = U.take(rows, axis=0)
                U = U.copy()
                U[rows] = chain.ubar[js]
            out = _over_stages(p, name, parent_ks, X, U, *lam)
            outs = list(out) if isinstance(out, tuple) else [out]
            new = (chain.junction(name, js, X.take(rows, axis=0), Uj,
                                  outs[0].take(rows, axis=0)) if cost
                   else chain.constant(name, js))
            for i, value in enumerate(new):
                broadcast = outs[i].strides[0] == 0
                if not (broadcast and np.array_equal(outs[i][rows], value)):
                    outs[i] = np.array(outs[i])
                    outs[i][rows] = value
            return outs[0] if len(outs) == 1 else tuple(outs)

        def terminal(x):
            if not chain.adjusted[-1]:
                return getattr(p, name)(p.N, x)
            X = np.asarray(x)[None]
            out = _over_stages(p, name, chain.stage[last], X, chain.ubar[last])
            first = out[0] if isinstance(out, tuple) else out
            return chain.terminal(name, last, X, first)[0]

        return batched_callback(over_chain, N, terminal)

    return ProblemDef(N=N, n_x=p.n_x, n_u=p.n_u, x0=chain.x_start[0],
                      **{name: chained(name) for name in p.output_shapes})


def solve_nonlinear_subproblem(chain: IntervalChain, warms):
    """Solve a chain of subproblems to optimality by one inner centralized SQP.

    ``warms[i]`` is the (x, u, lam) slice of the current full iterate over
    the chain's interval i; the chain starts from the stacked slices with
    zero junction controls.  Returns one (x, u, lam) part per interval.
    Raises :class:`SubproblemFailure` when the inner loop does not reach
    INNER_TOL within INNER_MAX_ITERS iterations.  It names the interval
    that holds the chain stage of the inner solve's error when the error
    has one (a :class:`NumericsError` or an :class:`IndefiniteHorizonError`);
    for a :class:`NonDescentError`, the interval that holds the largest
    share of the positive slope, recomputed at the final iterate; otherwise
    the first interval whose own residual (its rows of the chain's
    Lagrangian gradient at the final iterate) exceeds INNER_TOL, or else
    the largest.  The message quotes the inner error, and the inner error is
    the failure's ``__cause__``.
    """
    problem = truncated_problem(chain)
    cfg = SolverConfig(kkt_tol=INNER_TOL, step_tol=0.0,
                       max_iters=INNER_MAX_ITERS)
    report = solve(problem, cfg, chain.stack(warms), mode="centralized")
    if report.status != STATUS_KKT:
        z, lam, error = report.z, report.lam, report.exception
        terms = _merit_terms(problem, z, lam)
        res = np.sqrt(chain.sums(terms.gz ** 2, terms.gl ** 2))
        stage = getattr(error, "stage", None)
        if stage is not None:
            i = int(np.searchsorted(chain.offsets, stage, side="right")) - 1
        elif isinstance(error, NonDescentError):
            mz, ml = eval_merit_gradient(problem, z, lam, cfg.eta)
            d = solve_full_newton(modify_hessian(
                assemble_newton_data(problem, z, lam)))
            i = int(np.argmax(chain.sums(mz * d.dz, ml * d.dlam)))
        else:
            i = next((i for i, r in enumerate(res) if r > INNER_TOL),
                     int(np.argmax(res)))
        cause = f" (inner solve: {report.error})" if report.error else ""
        raise SubproblemFailure(
            int(chain.indices[i]), f"interval [{chain.m1[i]}, {chain.m2[i]}] "
                f"stopped with status={report.status}{cause}, "
                f"residual={res[i]:.3e}") from error
    return chain.parts(report.z.x, report.z.u, report.lam.lam)


def schwarz_solve(p: ProblemDef, cfg: SolverConfig, init) -> SolveReport:
    """Outer Schwarz iteration: freeze boundaries, solve, compose, repeat.

    Runs the SQP drivers' outer loop, so it stops on the same KKT, step and
    ``cfg.max_iters`` conditions.  Each outer iteration chains the M
    intervals into one :class:`IntervalChain` and solves it by one inner SQP
    on the calling thread (module docstring).
    """
    plan = make_plan(p.N, cfg.M, cfg.b)

    def step(state: SolverState, terms) -> IterationRecord:
        z, lam = state.z, state.lam
        parts = solve_nonlinear_subproblem(
            IntervalChain(p, plan, cfg.mu, z, lam),
            decompose(z.x, z.u, lam.lam, plan))
        x_new, u_new, lam_new = compose(parts, plan)
        step_norm = float(np.sqrt(np.sum((x_new - z.x) ** 2)
                                  + np.sum((u_new - z.u) ** 2)
                                  + np.sum((lam_new - lam.lam) ** 2)))
        state.z = Trajectory(x_new, u_new)
        state.lam = DualTrajectory(lam_new)
        state.z.x[0] = p.x0
        return IterationRecord(
            state.tau, terms.residual(), terms.merit(cfg.eta), stepsize=1.0,
            gamma=0.0, step_norm=step_norm)

    return run_outer_loop(p, cfg, init, step)


def one_newton_schwarz_step(p: ProblemDef, z: Trajectory, lam: DualTrajectory,
                            plan: DecompositionPlan, mu: float):
    """One full Newton step of every nonlinear subproblem, then compose.

    Boundary values come from the current iterate and no Hessian
    modification is applied.  The M truncated problems are chained into one
    :class:`IntervalChain` (module docstring), whose Newton step is theirs
    at once; starting from the same iterate, the result coincides with the
    decomposed SQP update taken with unit stepsize.
    """
    chain = IntervalChain(p, plan, mu, z, lam)
    zc, lc = chain.stack(decompose(z.x, z.u, lam.lam, plan))
    d = solve_full_newton(assemble_newton_data(truncated_problem(chain), zc, lc))
    dx, du, dl = d.stage_arrays(chain.N, p.n_x, p.n_u)
    x_new, u_new, lam_new = compose(
        chain.parts(zc.x + dx, zc.u + du, lc.lam + dl), plan)
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
