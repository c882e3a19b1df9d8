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

:func:`run_outer_loop` owns the stop tests, error capture and timing.  The
SQP driver :func:`solve` and the overlapping Schwarz baseline
(:func:`fotd.schwarz.schwarz_solve`) differ only in the step they hand it;
:func:`fotd_step` takes one SQP step outside the loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .decomposition import DecompositionPlan, approximate_direction, make_plan
from .exceptions import (AdaptivityFailure, ArmijoStall, LineSearchFailure,
                         NonDescentError, SolverError, UndefinedRatioError)
from .newton import (NewtonDirection, assemble_newton_data, modify_hessian,
                     solve_full_newton)
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

    ``workers`` only sizes the thread pool of the band kernel, which solves
    the decomposed direction's subproblems when their blocks are narrower
    than :data:`fotd.decomposition.RICCATI_MIN_NX`; wider blocks go to one
    batched Riccati sweep on the calling thread.  The Schwarz baseline runs
    on the calling thread whatever its value: at every width it chains an
    outer iteration's intervals into one problem, solved by one inner SQP.
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
    """Mutable loop state owned by one solve.

    ``undecided`` holds (KKT residual, predicted decrease, rounding
    allowance, stalls) of the last SQP step when rounding decided its
    Armijo test, else None; stalls counts the steps before it, in a row,
    that rounding decided and after which the residual did not fall.
    """

    z: Trajectory
    lam: DualTrajectory
    tau: int = 0
    undecided: Optional[Tuple[float, float, float, int]] = None


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


def armijo_backtrack(merit_along: Callable[[float], float], merit0: float,
                     slope: float, beta: float, factor: float,
                     magnitude: float = 0.0) -> Tuple[float, float]:
    """Largest alpha in {1, factor, factor^2, ...} passing the Armijo test.

    ``merit_along(alpha)`` evaluates the merit at the trial point;
    ``slope`` is the directional derivative at alpha = 0 and must be
    negative.  The comparison carries an absolute allowance for rounding,
    MERIT_NOISE times the larger of |merit0| and ``magnitude``: once the
    predicted decrease drops below floating-point resolution the exact test
    is not evaluable and backtracking further would only chase rounding
    noise.  ``magnitude`` is the sum of the absolute terms that the merit's
    Lagrangian sums (:class:`MeritTerms`), whose rounding error scales with
    that sum rather than with the sum's own magnitude.
    """
    if not slope < 0:
        raise NonDescentError(
            f"directional derivative {slope:.6e} is not negative", margin=slope)
    noise = MERIT_NOISE * max(abs(merit0), magnitude)
    alpha = 1.0
    while True:
        trial = merit_along(alpha)
        if trial <= merit0 + beta * alpha * slope + noise:
            return alpha, trial
        alpha *= factor
        if alpha < ALPHA_FLOOR:
            raise LineSearchFailure(
                f"stepsize underflowed below {ALPHA_FLOOR:g}")


def line_search(p: ProblemDef, z: Trajectory, lam: DualTrajectory,
                direction: NewtonDirection, eta: PenaltyParams, beta: float,
                factor: float, terms: Optional[MeritTerms] = None,
                merit_grad=None) -> Tuple[float, float]:
    """Armijo backtracking on the augmented Lagrangian along ``direction``.

    ``terms`` and ``merit_grad`` are the merit terms and merit gradient at
    (z, lam), evaluated here when not given.  Returns (alpha, merit value
    at the accepted point).  Raises :class:`NonDescentError` when the
    direction is not a descent direction and :class:`LineSearchFailure`
    when the stepsize underflows.
    """
    if merit_grad is None:
        merit_grad = eval_merit_gradient(p, z, lam, eta)
    mz, ml = merit_grad
    slope = float(mz @ direction.dz + ml @ direction.dlam)
    if terms is None:
        terms = _merit_terms(p, z, lam)
    dx, du, dl = direction.stage_arrays(p.N, p.n_x, p.n_u)

    def merit_along(alpha: float) -> float:
        trial_z = Trajectory(z.x + alpha * dx, z.u + alpha * du)
        trial_lam = DualTrajectory(lam.lam + alpha * dl)
        return eval_merit(p, trial_z, trial_lam, eta)

    return armijo_backtrack(merit_along, terms.merit(eta), slope, beta, factor,
                            terms.magnitude)


def direction_error_ratio(exact: NewtonDirection,
                          approx: NewtonDirection) -> float:
    denom = exact.norm()
    if denom == 0.0:
        raise UndefinedRatioError("exact Newton direction is zero")
    ddz = approx.dz - exact.dz
    ddl = approx.dlam - exact.dlam
    return float(np.sqrt(ddz @ ddz + ddl @ ddl)) / denom


def _step(p: ProblemDef, plan: Optional[DecompositionPlan],
          state: SolverState, cfg: SolverConfig,
          terms: MeritTerms) -> Tuple[IterationRecord, SolverConfig, int]:
    """Lines 3-9 of the outer loop: linearize, direct, line-search, update.

    ``plan`` is the decomposition plan for ``cfg``, or None for the exact
    direction.  ``terms`` are the merit terms at the current iterate.
    Returns the iteration's record (untimed), the (possibly adapted) config
    and the number of descent-inequality violations seen.
    """
    z, lam = state.z, state.lam
    kkt_res = terms.residual()
    last = state.undecided
    stalls = last[3] + 1 if last and kkt_res >= last[0] else 0
    if stalls == STALL_ITERS:
        raise ArmijoStall(STALL_ITERS, *last[1:3])
    # The merit gradient's linearization is freed before the Newton data's
    # is made, so the two are alive at once only when an adaptation
    # re-evaluates the gradient for its new penalties.
    merit_grad = eval_merit_gradient(p, z, lam, cfg.eta)
    nd = modify_hessian(assemble_newton_data(p, z, lam))
    violations = 0
    while True:
        direction = (solve_full_newton(nd) if plan is None else
                     approximate_direction(nd, plan, cfg.mu,
                                           workers=cfg.workers))
        slope = float(merit_grad[0] @ direction.dz
                      + merit_grad[1] @ direction.dlam)
        bound = -0.5 * cfg.eta.eta2 * kkt_res ** 2
        if plan is None or slope <= bound:
            break
        violations += 1
        if not cfg.adaptivity:
            if cfg.assert_descent:
                raise NonDescentError(
                    f"descent inequality violated: slope {slope:.6e} > "
                    f"{bound:.6e}", margin=slope - bound)
            break
        if violations > 30:
            raise AdaptivityFailure(
                "descent inequality still violated after 30 rescalings")
        cfg = adapt_penalties(cfg, NU)
        cfg = replace(cfg, b=min(cfg.b, p.N - 1))
        plan = make_plan(p.N, cfg.M, cfg.b)
        merit_grad = eval_merit_gradient(p, z, lam, cfg.eta)

    ratio = None
    if cfg.diagnostics and plan is not None:
        ratio = direction_error_ratio(solve_full_newton(nd), direction)
    gamma = nd.gamma_applied
    del nd  # the line search's own evaluations need the room

    alpha, _ = line_search(p, z, lam, direction, cfg.eta, BETA, BACKTRACK,
                           terms=terms, merit_grad=merit_grad)
    merit0, predicted = terms.merit(cfg.eta), BETA * alpha * abs(slope)
    noise = MERIT_NOISE * max(abs(merit0), terms.magnitude)  # Armijo's allowance
    state.undecided = ((kkt_res, predicted, noise, stalls) if predicted < noise
                       else None)
    dx, du, dl = direction.stage_arrays(p.N, p.n_x, p.n_u)
    z.x += alpha * dx
    z.u += alpha * du
    lam.lam += alpha * dl
    z.x[0] = p.x0
    record = IterationRecord(
        iteration=state.tau, kkt_residual=kkt_res, merit=merit0,
        stepsize=alpha, gamma=gamma, dir_err_ratio=ratio,
        step_norm=alpha * direction.norm(),
    )
    state.tau += 1
    return record, cfg, violations


def fotd_step(p: ProblemDef, state: SolverState, cfg: SolverConfig):
    """One decomposed SQP iteration; returns (record, possibly-adapted cfg).

    ``state`` is updated in place.  The iterate must satisfy x_0 = x0bar on
    entry, which the update preserves.
    """
    t0 = time.perf_counter()
    record, cfg, _ = _step(p, make_plan(p.N, cfg.M, cfg.b), state, cfg,
                           _merit_terms(p, state.z, state.lam))
    record.wall_ms = 1e3 * (time.perf_counter() - t0)
    return record, cfg


def run_outer_loop(p: ProblemDef, cfg: SolverConfig, init,
                   step: Callable) -> SolveReport:
    """Iterate ``step`` from ``init = (z0, lam0)`` until a stop condition.

    Each pass evaluates the merit terms at the current iterate and stops on
    the KKT tolerance or the ``cfg.max_iters`` budget; otherwise it calls
    ``step(state, cfg, terms)``, which updates ``state`` in place and
    returns ``(record, cfg, violations)``; the loop sets the record's
    ``wall_ms`` to the time of the pass.  A step no longer than
    ``cfg.step_tol`` after which the KKT residual is lower than before it
    stops the loop after one more head record at the new iterate; after
    one that left the residual no lower the loop goes on, to the KKT
    tolerance, the budget or the stall test of :func:`_step`.  A
    :class:`SolverError` from the step ends the run with status
    "error" and the history intact; the loop sets the error's ``iteration``,
    the report keeps the error, and the report's error string names it.
    """
    z0, lam0 = init
    state = SolverState(z0.copy(), lam0.copy())
    state.z.x[0] = p.x0
    records: List[IterationRecord] = []
    violations = 0
    error = exception = None
    short_step = False
    while True:
        t0 = time.perf_counter()
        terms = _merit_terms(p, state.z, state.lam)
        head = IterationRecord(state.tau, terms.residual(),
                               terms.merit(cfg.eta),
                               wall_ms=1e3 * (time.perf_counter() - t0))
        if short_step and head.kkt_residual < records[-1].kkt_residual:
            status = STATUS_STEP
        elif head.kkt_residual <= cfg.kkt_tol:
            status = STATUS_KKT
        elif state.tau >= cfg.max_iters:
            status = STATUS_MAX_ITERS
        else:
            try:
                record, cfg, v = step(state, cfg, terms)
            except SolverError as exc:
                exc.iteration = state.tau
                status, error = STATUS_ERROR, f"{exc} (iteration {state.tau})"
                exception = exc
            else:
                record.wall_ms = 1e3 * (time.perf_counter() - t0)
                records.append(record)
                violations += v
                short_step = record.step_norm <= cfg.step_tol
                continue
        records.append(head)
        return SolveReport(records, state.z, state.lam, status,
                           descent_violations=violations, error=error,
                           exception=exception)


def solve(p: ProblemDef, cfg: SolverConfig, init, mode: str = "fotd") -> SolveReport:
    """Run the SQP outer loop from ``init = (z0, lam0)`` until a stop condition.

    ``mode`` selects the decomposed direction ("fotd") or the exact one
    ("centralized").  The initial state component of z0 is overwritten with
    the problem's initial state.  Solver failures are reported with
    status "error" and the history intact.  The decomposed direction's plan
    is built before the first evaluation, so an invalid ``M`` or ``b``
    raises ValueError before any callback runs; it is rebuilt only when a
    penalty adaptation widens the overlap.
    """
    if mode not in ("fotd", "centralized"):
        raise ValueError(f"unknown mode {mode!r}")
    plan = make_plan(p.N, cfg.M, cfg.b) if mode == "fotd" else None

    def step(state: SolverState, cfg: SolverConfig, terms: MeritTerms):
        nonlocal plan
        if plan is not None and plan.b != cfg.b:  # an adaptation widened b
            plan = make_plan(p.N, cfg.M, cfg.b)
        return _step(p, plan, state, cfg, terms)

    return run_outer_loop(p, cfg, init, step)
