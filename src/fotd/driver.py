"""SQP outer loop with decomposed or exact Newton directions.

One iteration: linearize at the current iterate, restore definiteness of the
stage Hessians if needed, compute a search direction (either the exact
full-horizon Newton direction, or the decomposed approximation with zero
boundary values), select a stepsize by Armijo backtracking on the exact
augmented Lagrangian, and update primal and dual variables with the same
stepsize.  Iterations stop when the KKT residual falls below its tolerance,
or when a step shorter than its tolerance lowered the residual.

For the decomposed direction the driver checks the descent inequality

    grad(merit)^T d  <=  -eta2/2 * ||grad L||^2

at every iteration.  A violation has one of three outcomes, depending on
configuration: with ``adaptivity`` the penalties are rescaled (eta2 /= NU,
eta1 *= NU^2, overlap widened accordingly) and the direction recomputed;
otherwise, with ``assert_descent`` the run aborts, and without it the step
proceeds along the direction and the violation is counted.

Where the Armijo test cannot decide, because the predicted decrease is below
the merit's rounding allowance, a step passes on rounding alone.  After
STALL_ITERS such steps in a row that each left the KKT residual no lower,
the run stops with :class:`ArmijoStall` instead of running to its budget.

:func:`run_outer_loop` owns every stop rule (the KKT tolerance, the budget,
the short step and the stall), error capture, the iteration counter
``tau``, the timing and the report's violation count.  A step owns the
iterate, the config (which it replaces when the penalties adapt) and what
rounding decided, all in one :class:`SolverState`, and adds each descent
violation to the state's count as it happens, so a step that fails keeps
its violations in the report.  The SQP driver :func:`solve` and the
overlapping Schwarz baseline (:func:`fotd.schwarz.schwarz_solve`) differ
only in the step they hand the loop; :func:`fotd_step` takes one SQP step
outside it, and so checks no stop rule.

With ``workers`` above 1, :func:`solve` keeps one helper thread for the
whole solve.  Each step computes the direction of the unmodified Newton
data there while the calling thread runs the Hessian's definiteness test
(:func:`_modified_direction`): the test and the direction's LAPACK calls
and large NumPy loops run outside the interpreter lock.  When the test
passes unshifted, the helper's direction, or its error, is the step's;
when it shifts the Hessian, the helper's result is dropped and the
shifted direction computed on the calling thread.  So every record,
status, error and iterate is the one of ``workers=1``, bit for bit.
"""

from __future__ import annotations

import contextvars
import math
import time
from concurrent import futures
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from .decomposition import approximate_direction, make_plan
from .exceptions import (AdaptivityFailure, ArmijoStall, LineSearchFailure,
                         NonDescentError, SolverError, UndefinedRatioError)
from .newton import (NewtonData, NewtonDirection, assemble_newton_data,
                     modify_hessian, solve_full_newton)
from .problem import (DualTrajectory, MeritTerms, PenaltyParams, ProblemDef,
                      Trajectory, _merit_terms, eval_merit,
                      eval_merit_gradient)

STATUS_KKT = "converged_kkt"
STATUS_STEP = "converged_step"
STATUS_MAX_ITERS = "max_iters"
STATUS_ERROR = "error"

ALPHA_FLOOR = 1e-12
BETA = 0.1  # Armijo sufficient-decrease fraction, in (0, 1/2)
BACKTRACK = 0.9  # stepsize shrink factor per rejected trial, in (0, 1)
NU = 2.0  # penalty rescaling factor of one adaptation, > 1
RHO_HAT = 0.5  # assumed per-stage decay of the direction error, in (0, 1)


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm parameters; defaults follow the reference experiment protocol.

    The protocol's line-search and adaptation constants are not fields: the
    Armijo fraction :data:`BETA`, the backtracking factor :data:`BACKTRACK`,
    the penalty rescaling factor :data:`NU` and the assumed decay rate
    :data:`RHO_HAT` are module constants.

    ``workers`` above 1 gives :func:`solve` one helper thread, which
    computes each step's direction while the calling thread tests the
    Hessian (module docstring); any count above 1 means that one helper,
    and no count changes a result.  The Schwarz baseline runs on the
    calling thread whatever its value: at every width it chains an outer
    iteration's intervals into one problem, solved by one inner SQP.
    """

    mu: float = 25.0
    eta: PenaltyParams = field(default_factory=lambda: PenaltyParams(10.0, 0.1))
    M: int = 10
    b: int = 5
    kkt_tol: float = 1e-6
    step_tol: float = 1e-6
    max_iters: int = 40
    adaptivity: bool = False
    workers: int = 1
    assert_descent: bool = True
    diagnostics: bool = False

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.max_iters < 0:
            raise ValueError(
                f"max_iters must be nonnegative, got {self.max_iters}")
        for name in ("kkt_tol", "step_tol"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass
class IterationRecord:
    """One row of the convergence history."""

    iteration: int
    kkt_residual: float
    merit: float
    stepsize: Optional[float] = None
    gamma: Optional[float] = None
    dir_err_ratio: Optional[float] = None
    wall_ms: float = 0.0
    step_norm: Optional[float] = None  # diagnostic, not serialized


@dataclass
class SolveReport:
    """Iteration history plus final iterate and termination status.

    A run with status "error" keeps the :class:`SolverError` that ended it
    as ``exception`` and its message, with the iteration, as ``error``.
    """

    records: List[IterationRecord]
    z: Trajectory
    lam: DualTrajectory
    status: str
    descent_violations: int = 0
    error: Optional[str] = None
    exception: Optional[SolverError] = None

    @property
    def converged(self) -> bool:
        return self.status in (STATUS_KKT, STATUS_STEP)

    @property
    def iterations(self) -> int:
        return sum(1 for r in self.records if r.stepsize is not None)

    @property
    def final_kkt(self) -> float:
        return self.records[-1].kkt_residual

    @property
    def total_ms(self) -> float:
        return sum(r.wall_ms for r in self.records)


@dataclass
class SolverState:
    """Mutable state of one solve.

    The outer loop advances ``tau``, the index of the iteration being
    taken.  A step updates the iterate ``z``, ``lam`` in place or replaces
    it, replaces ``cfg`` when the penalties adapt, adds each
    descent-inequality violation to ``violations`` as it is seen, and sets
    ``undecided``: (predicted decrease, rounding allowance) of the last SQP
    step when rounding decided its Armijo test, else None.
    """

    z: Trajectory
    lam: DualTrajectory
    cfg: SolverConfig
    tau: int = 0
    violations: int = 0
    undecided: Optional[Tuple[float, float]] = None


def adapt_penalties(cfg: SolverConfig, nu: float) -> SolverConfig:
    """Penalty rescaling after a failed descent check.

    eta2 shrinks by nu, eta1 grows by nu^2, and the overlap grows by
    ceil(4 ln(nu) / ln(1/RHO_HAT)) to shrink the direction error accordingly.
    """
    if not nu > 1:
        raise ValueError(f"nu must exceed 1, got {nu}")
    eta = PenaltyParams(cfg.eta.eta1 * nu * nu, cfg.eta.eta2 / nu)
    db = math.ceil(4.0 * math.log(nu) / math.log(1.0 / RHO_HAT))
    return replace(cfg, eta=eta, b=cfg.b + db)


MERIT_NOISE = 10.0 * np.finfo(float).eps
# Iterations in a row whose Armijo test rounding decided and whose KKT
# residual did not fall, after which a solve stops with ArmijoStall.
STALL_ITERS = 3


def armijo_allowance(merit0: float, magnitude: float) -> float:
    """The Armijo test's absolute allowance: MERIT_NOISE * max(|merit0|, magnitude).

    ``magnitude`` is the sum of the absolute terms that the merit's
    Lagrangian sums (:class:`MeritTerms`), whose rounding error scales with
    that sum rather than with the sum's own magnitude.
    """
    return MERIT_NOISE * max(abs(merit0), magnitude)


def armijo_backtrack(merit_along: Callable[[float], float], merit0: float,
                     slope: float, noise: float) -> Tuple[float, float]:
    """Largest alpha in {1, BACKTRACK, BACKTRACK^2, ...} passing Armijo's test.

    ``merit_along(alpha)`` evaluates the merit at the trial point;
    ``slope`` is the directional derivative at alpha = 0 and must be
    negative.  The test is merit <= merit0 + BETA * alpha * slope + noise,
    where ``noise`` is the absolute allowance for rounding
    (:func:`armijo_allowance`): once the predicted decrease drops below
    floating-point resolution the exact test is not evaluable and
    backtracking further would only chase rounding noise.
    """
    if not slope < 0:
        raise NonDescentError(
            f"directional derivative {slope:.6e} is not negative", margin=slope)
    alpha = 1.0
    while True:
        trial = merit_along(alpha)
        if trial <= merit0 + BETA * alpha * slope + noise:
            return alpha, trial
        alpha *= BACKTRACK
        if alpha < ALPHA_FLOOR:
            raise LineSearchFailure(
                f"stepsize underflowed below {ALPHA_FLOOR:g}")


def line_search(p: ProblemDef, z: Trajectory, lam: DualTrajectory,
                direction: NewtonDirection, eta: PenaltyParams, merit0: float,
                slope: float, noise: float) -> Tuple[float, float]:
    """Armijo backtracking on the augmented Lagrangian along ``direction``.

    ``merit0`` and ``slope`` are the merit at (z, lam) under ``eta`` and
    its directional derivative along ``direction``; ``noise`` is the
    test's rounding allowance (:func:`armijo_backtrack`).  Returns (alpha,
    merit value at the accepted point).  Raises :class:`NonDescentError`
    when the direction is not a descent direction and
    :class:`LineSearchFailure` when the stepsize underflows.
    """
    dx, du, dl = direction.stage_arrays(p.N, p.n_x, p.n_u)

    def merit_along(alpha: float) -> float:
        trial_z = Trajectory(z.x + alpha * dx, z.u + alpha * du)
        trial_lam = DualTrajectory(lam.lam + alpha * dl)
        return eval_merit(p, trial_z, trial_lam, eta)

    return armijo_backtrack(merit_along, merit0, slope, noise)


def direction_error_ratio(exact: NewtonDirection,
                          approx: NewtonDirection) -> float:
    denom = exact.norm()
    if denom == 0.0:
        raise UndefinedRatioError("exact Newton direction is zero")
    ddz = approx.dz - exact.dz
    ddl = approx.dlam - exact.dlam
    return float(np.sqrt(ddz @ ddz + ddl @ ddl)) / denom


def _direction(nd: NewtonData, plan, mu: float) -> NewtonDirection:
    """The decomposed direction of ``nd`` on ``plan``, else the exact one."""
    if plan is None:
        return solve_full_newton(nd)
    return approximate_direction(nd, plan, mu)


def _modified_direction(nd: NewtonData, plan, mu: float,
                        helper: Optional[futures.Executor]):
    """``modify_hessian(nd)`` and its :func:`_direction`, as one pair.

    With a ``helper``, the direction of ``nd`` as it is runs there while
    this thread runs the test, and is used, or its error raised, when the
    test leaves ``nd`` unshifted.  A shifted Hessian's direction is
    computed here once the helper is done, and the helper's result or error
    is dropped; an error of the test is raised once the helper is done.
    """
    if helper is None:
        nd = modify_hessian(nd)
        return nd, _direction(nd, plan, mu)
    # Both threads read these cached properties; they are made once, here.
    _ = nd.stage_norms, nd.lq
    # NumPy's error state is a context variable, which a new thread does not
    # inherit, so the helper runs in a copy of this thread's context.
    future = helper.submit(contextvars.copy_context().run, _direction, nd,
                           plan, mu)
    try:
        modified = modify_hessian(nd)
    finally:
        futures.wait([future])
    if modified is nd:
        return nd, future.result()
    return modified, _direction(modified, plan, mu)


def _step(p: ProblemDef, decomposed: bool, state: SolverState,
          terms: MeritTerms,
          helper: Optional[futures.Executor] = None) -> IterationRecord:
    """Lines 3-9 of the outer loop: linearize, direct, line-search, update.

    ``decomposed`` selects the decomposed direction, on the plan of
    ``state.cfg``'s M and b, or the exact one.  ``terms`` are the merit
    terms at the current iterate.  ``helper``, when given, computes the
    first direction while this thread tests the Hessian
    (:func:`_modified_direction`).  Updates ``state`` as the module
    docstring says and returns the iteration's record, untimed.
    """
    cfg = state.cfg
    plan = make_plan(p.N, cfg.M, cfg.b) if decomposed else None
    z, lam = state.z, state.lam
    kkt_res = terms.residual()
    # The merit gradient's linearization is freed before the Newton data's
    # is made, so the two are alive at once only when an adaptation
    # re-evaluates the gradient for its new penalties.
    merit_grad = eval_merit_gradient(p, z, lam, cfg.eta)
    nd, direction = _modified_direction(assemble_newton_data(p, z, lam), plan,
                                        cfg.mu, helper)
    rescalings = 0
    while True:
        slope = float(merit_grad[0] @ direction.dz
                      + merit_grad[1] @ direction.dlam)
        bound = -0.5 * cfg.eta.eta2 * kkt_res ** 2
        if plan is None or slope <= bound:
            break
        state.violations += 1
        if not cfg.adaptivity:
            if cfg.assert_descent:
                raise NonDescentError(
                    f"descent inequality violated: slope {slope:.6e} > "
                    f"{bound:.6e}", margin=slope - bound)
            break
        if rescalings == 30:
            raise AdaptivityFailure(
                "descent inequality still violated after 30 rescalings")
        rescalings += 1
        cfg = adapt_penalties(cfg, NU)
        state.cfg = cfg = replace(cfg, b=min(cfg.b, p.N - 1))
        plan = make_plan(p.N, cfg.M, cfg.b)
        merit_grad = eval_merit_gradient(p, z, lam, cfg.eta)
        direction = _direction(nd, plan, cfg.mu)

    ratio = None
    if cfg.diagnostics and plan is not None:
        ratio = direction_error_ratio(solve_full_newton(nd), direction)
    gamma = nd.gamma_applied
    del nd  # the line search's own evaluations need the room

    merit0 = terms.merit(cfg.eta)
    noise = armijo_allowance(merit0, terms.magnitude)
    alpha, _ = line_search(p, z, lam, direction, cfg.eta, merit0, slope, noise)
    predicted = BETA * alpha * abs(slope)
    state.undecided = (predicted, noise) if predicted < noise else None
    dx, du, dl = direction.stage_arrays(p.N, p.n_x, p.n_u)
    z.x += alpha * dx
    z.u += alpha * du
    lam.lam += alpha * dl
    z.x[0] = p.x0
    return IterationRecord(
        iteration=state.tau, kkt_residual=kkt_res, merit=merit0,
        stepsize=alpha, gamma=gamma, dir_err_ratio=ratio,
        step_norm=alpha * direction.norm(),
    )


def fotd_step(p: ProblemDef, state: SolverState) -> IterationRecord:
    """One decomposed SQP iteration at ``state.cfg``; returns its record.

    Does for one iteration what :func:`run_outer_loop` does around a step:
    the record is timed and ``state.tau`` advanced.  ``state`` is updated
    in place.  The iterate must satisfy x_0 = x0bar on entry, which the
    update preserves.
    """
    t0 = time.perf_counter()
    record = _step(p, True, state, _merit_terms(p, state.z, state.lam))
    record.wall_ms = 1e3 * (time.perf_counter() - t0)
    state.tau += 1
    return record


def run_outer_loop(p: ProblemDef, cfg: SolverConfig, init,
                   step: Callable) -> SolveReport:
    """Iterate ``step`` from ``init = (z0, lam0)`` until a stop condition.

    The loop holds a :class:`SolverState` at ``cfg``.  Each pass evaluates
    the merit terms at the current iterate, priced at ``state.cfg``, and
    stops on the KKT tolerance or the ``cfg.max_iters`` budget; otherwise
    it calls ``step(state, terms)``, which updates ``state`` in place
    (module docstring) and returns the iteration's record.  The loop sets
    the record's ``wall_ms`` to the time of the pass and then advances
    ``state.tau``.  A step no longer than ``cfg.step_tol`` after which the
    KKT residual is lower than before it stops the loop after one more head
    record at the new iterate; after one that left the residual no lower
    the loop goes on, to the KKT tolerance, the budget or the stall test:
    the STALL_ITERS-th step in a row that left ``state.undecided`` set and
    the residual no lower stops the loop with :class:`ArmijoStall`, raised
    where the next step would be taken.  A :class:`SolverError` from the
    step, or that stall, ends the run with status "error" and the history
    intact; the loop sets the error's ``iteration``, the report keeps the
    error, and the report's error string names it.  The report's
    ``descent_violations`` is ``state.violations``, so it counts those of a
    failed step too.
    """
    z0, lam0 = init
    state = SolverState(z0.copy(), lam0.copy(), cfg)
    state.z.x[0] = p.x0
    records: List[IterationRecord] = []
    error = exception = None
    short_step = False
    stalls = 0
    while True:
        t0 = time.perf_counter()
        terms = _merit_terms(p, state.z, state.lam)
        head = IterationRecord(state.tau, terms.residual(),
                               terms.merit(state.cfg.eta),
                               wall_ms=1e3 * (time.perf_counter() - t0))
        if short_step and head.kkt_residual < records[-1].kkt_residual:
            status = STATUS_STEP
        elif head.kkt_residual <= cfg.kkt_tol:
            status = STATUS_KKT
        elif state.tau >= cfg.max_iters:
            status = STATUS_MAX_ITERS
        else:
            stalls = (stalls + 1 if state.undecided
                      and head.kkt_residual >= records[-1].kkt_residual else 0)
            try:
                if stalls == STALL_ITERS:
                    raise ArmijoStall(STALL_ITERS, *state.undecided)
                record = step(state, terms)
            except SolverError as exc:
                exc.iteration = state.tau
                status, error = STATUS_ERROR, f"{exc} (iteration {state.tau})"
                exception = exc
            else:
                record.wall_ms = 1e3 * (time.perf_counter() - t0)
                records.append(record)
                state.tau += 1
                short_step = record.step_norm <= cfg.step_tol
                continue
        records.append(head)
        return SolveReport(records, state.z, state.lam, status,
                           descent_violations=state.violations, error=error,
                           exception=exception)


def solve(p: ProblemDef, cfg: SolverConfig, init, mode: str = "fotd") -> SolveReport:
    """Run the SQP outer loop from ``init = (z0, lam0)`` until a stop condition.

    ``mode`` selects the decomposed direction ("fotd") or the exact one
    ("centralized").  The initial state component of z0 is overwritten with
    the problem's initial state.  Solver failures are reported with
    status "error" and the history intact.  The decomposed direction's plan
    is built once before the first evaluation, so an invalid ``M`` or ``b``
    raises ValueError before any callback runs; each step then builds it
    from the config it holds.  With ``cfg.workers`` above 1 one helper
    thread serves every step of the solve (module docstring).
    """
    if mode not in ("fotd", "centralized"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "fotd":
        make_plan(p.N, cfg.M, cfg.b)
    step = partial(_step, p, mode == "fotd")
    if cfg.workers == 1:
        return run_outer_loop(p, cfg, init, step)
    with futures.ThreadPoolExecutor(max_workers=1) as helper:
        return run_outer_loop(p, cfg, init, partial(step, helper=helper))
