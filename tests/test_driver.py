import math
import re
import threading
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from fotd.benchmarks import (PlateSpec, ToySpec, make_initializations,
                             make_plate_problem, make_toy_problem,
                             toy_case_params)
from fotd.decomposition import approximate_direction, make_plan
import fotd.driver as driver
from fotd.driver import (MERIT_NOISE, STALL_ITERS, IterationRecord,
                         SolverConfig, SolverState, _step, adapt_penalties,
                         armijo_allowance, armijo_backtrack,
                         direction_error_ratio, fotd_step, line_search,
                         run_outer_loop, solve)
from fotd.exceptions import (AdaptivityFailure, ArmijoStall,
                             LineSearchFailure, ModificationFailure,
                             MuTooSmallError, NonDescentError, SolverError,
                             UndefinedRatioError)
from fotd.newton import (NewtonDirection, assemble_newton_data, modify_hessian,
                         solve_full_newton)
from fotd.problem import (DualTrajectory, MeritTerms, PenaltyParams,
                          Trajectory, _merit_terms, eval_lagrangian_gradient,
                          eval_merit, eval_merit_gradient)

from oracles import (make_random_lq, newton_solve_to_kkt, random_point,
                     recording, report_bytes)


def toy(N, C1=8.0, C2=1.0, d=lambda k: 1.0):
    return make_toy_problem(ToySpec(N=N, C1=C1, C2=C2, d=d))


# ---------------------------------------------------------------------------
# Backtracking
# ---------------------------------------------------------------------------

def test_armijo_accepts_unit_step_on_quadratic():
    merit = lambda a: 0.5 * (1.0 - a) ** 2
    alpha, val = armijo_backtrack(merit, merit(0.0), slope=-1.0, noise=0.0)
    assert alpha == 1.0 and val == 0.0


def test_armijo_matches_direct_scan(monkeypatch):
    merit = lambda a: 0.5 * (1.0 - 3.0 * a) ** 2
    beta, factor, slope = 0.4, 0.9, -3.0
    monkeypatch.setattr(driver, "BETA", beta)
    monkeypatch.setattr(driver, "BACKTRACK", factor)
    j = 0
    while not merit(factor ** j) <= merit(0.0) + beta * factor ** j * slope:
        j += 1
    alpha, _ = armijo_backtrack(merit, merit(0.0), slope=slope, noise=0.0)
    assert alpha == pytest.approx(factor ** j)
    assert j > 0  # the unit step is genuinely rejected in this construction


def test_armijo_underflow_raises(monkeypatch):
    monkeypatch.setattr(driver, "BACKTRACK", 0.5)
    with pytest.raises(LineSearchFailure):
        armijo_backtrack(lambda a: 1e6, 0.0, slope=-1.0, noise=0.0)


def test_armijo_allowance_scales_with_the_summed_terms(monkeypatch):
    # The merit is 1, summed from terms of magnitude 1e8 whose rounding the
    # trial's 1e-9 rise stays well inside; by |merit0| alone it is a rise.
    monkeypatch.setattr(driver, "BACKTRACK", 0.5)
    merit = lambda a: 1.0 + 1e-9 * (a > 0)
    assert 1e-9 < MERIT_NOISE * 1e8
    assert armijo_allowance(1.0, 1e8) == MERIT_NOISE * 1e8
    assert armijo_allowance(-2.0, 1.0) == MERIT_NOISE * 2.0
    alpha, _ = armijo_backtrack(merit, 1.0, slope=-1e-9,
                                noise=armijo_allowance(1.0, 1e8))
    assert alpha == 1.0
    with pytest.raises(LineSearchFailure):
        armijo_backtrack(merit, 1.0, slope=-1e-9,
                         noise=armijo_allowance(1.0, 0.0))


def test_merit_terms_carry_the_magnitude_of_their_terms():
    p = toy(N=30)
    z, lam = random_point(p, seed=3, scale=3.0)
    terms = _merit_terms(p, z, lam)
    lagr, gz, gl = terms.lagr, terms.gz, terms.gl
    got = eval_lagrangian_gradient(p, z, lam)
    assert len(got) == 2
    np.testing.assert_array_equal(got[0], gz)
    np.testing.assert_array_equal(got[1], gl)
    with pytest.raises(FrozenInstanceError):
        terms.lagr = 0.0
    costs = [p.stage_cost(k, z.x[k], z.u[k]) for k in range(p.N)]
    costs.append(p.stage_cost(p.N, z.x[p.N]))
    dots = (lam.lam * gl.reshape(lam.lam.shape)).sum(axis=1)
    assert terms.magnitude == pytest.approx(
        np.abs(costs).sum() + np.abs(dots).sum(), rel=1e-12)
    assert terms.magnitude >= abs(lagr)
    assert MeritTerms(lagr, gz, gl).magnitude == 0.0
    assert MeritTerms(lagr, gz, gl, (np.array([-1.0, 2.0]), -3.0)).magnitude == 6.0


def test_report_length_bounded_by_budget():
    p = toy(N=60, C1=15.0, C2=3.0, d=lambda k: 100.0 * np.sin(k) ** 2)
    init = make_initializations(p, 2, seed=13)[1]
    report = solve(p, SolverConfig(mu=25.0, M=3, b=2, max_iters=3),
                   init, mode="fotd")
    assert report.status == "max_iters"
    assert len(report.records) == 4  # three steps plus the final state


def _searched(p, z, lam, d, eta):
    """Line search along ``d`` from its Armijo inputs at (z, lam)."""
    terms = _merit_terms(p, z, lam)
    mz, ml = eval_merit_gradient(p, z, lam, eta)
    merit0 = terms.merit(eta)
    return line_search(p, z, lam, d, eta, merit0,
                       float(mz @ d.dz + ml @ d.dlam),
                       armijo_allowance(merit0, terms.magnitude))


def test_ascent_direction_rejected():
    p = toy(N=6)
    z, lam = random_point(p, seed=0)
    nd = assemble_newton_data(p, z, lam)
    d = solve_full_newton(nd)
    ascent = NewtonDirection(-d.dz, -d.dlam)
    with pytest.raises(NonDescentError) as err:
        _searched(p, z, lam, ascent, PenaltyParams(10.0, 0.1))
    assert err.value.margin > 0  # the directional derivative itself
    assert err.value.iteration is None  # raised outside an outer loop


def test_line_search_monotone_decrease():
    p = toy(N=10)
    z, lam = random_point(p, seed=1)
    nd = assemble_newton_data(p, z, lam)
    d = solve_full_newton(nd)
    eta = PenaltyParams(10.0, 0.1)
    merit0 = eval_merit(p, z, lam, eta)
    alpha, merit_new = _searched(p, z, lam, d, eta)
    assert merit_new < merit0 + MERIT_NOISE * abs(merit0)


# ---------------------------------------------------------------------------
# Penalty adaptation
# ---------------------------------------------------------------------------

def test_adapt_penalties_rescaling():
    cfg = SolverConfig(eta=PenaltyParams(10.0, 0.1), b=5)
    out = adapt_penalties(cfg, 2.0)
    assert out.eta.eta1 == pytest.approx(40.0)
    assert out.eta.eta2 == pytest.approx(0.05)
    assert out.b == 9   # ceil(4 ln 2 / ln 2) = 4 extra stages
    with pytest.raises(ValueError):
        adapt_penalties(cfg, 1.0)


# ---------------------------------------------------------------------------
# Steps and solves
# ---------------------------------------------------------------------------

def test_solve_stops_immediately_at_kkt_point():
    p = toy(N=6)
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    report = solve(p, SolverConfig(mu=25.0, M=2, b=1), (z, lam), mode="fotd")
    assert report.status == "converged_kkt"
    assert report.iterations == 0
    assert len(report.records) == 1


@pytest.mark.parametrize("M, b, names", [
    (7, 5, "M=7 must divide N=60"),
    (3, 60, "overlap b=60 must be smaller than the horizon N=60"),
], ids=["M", "b"])
def test_fotd_plan_is_checked_before_the_first_evaluation(M, b, names):
    # toy case 1 at N=60: M=7 does not divide N and b=60 is not below it.
    # From an init already under kkt_tol the solve would otherwise stop
    # without ever building the plan.
    spec, _ = toy_case_params(1, N=60)
    p = make_toy_problem(spec)
    q, stages, batches = recording(p)
    solved = newton_solve_to_kkt(p, tol=1e-13)
    assert solve(p, SolverConfig(), solved, mode="centralized").iterations == 0
    for init in (make_initializations(p, 2, seed=0)[1], solved):
        with pytest.raises(ValueError, match=names):
            solve(q, SolverConfig(M=M, b=b), init, mode="fotd")
        assert stages == {} and batches == {}


def test_fotd_builds_its_plan_before_any_callback_and_in_each_step(monkeypatch):
    built = []
    monkeypatch.setattr(driver, "make_plan",
                        lambda *args: built.append(args) or make_plan(*args))
    p = toy(N=60)
    report = solve(p, SolverConfig(M=3, b=2), make_initializations(p, 2, 4)[1],
                   mode="fotd")
    assert report.converged and report.iterations > 1
    # once up front, then once per step from the config the step holds
    assert built == [(60, 3, 2)] * (1 + report.iterations)


def test_step_from_near_kkt_triggers_step_tolerance():
    p = toy(N=6)
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    z.x[3] += 1e-8  # nudge off the solution but keep the direction tiny
    cfg = SolverConfig(mu=25.0, M=2, b=1, kkt_tol=1e-16, step_tol=1e-6,
                       max_iters=5)
    report = solve(p, cfg, (z, lam), mode="fotd")
    assert report.status == "converged_step"


def test_single_interval_step_equals_centralized_step():
    p = toy(N=8)
    inits = make_initializations(p, 2, seed=5)
    for mode_state in range(2):
        z, lam = inits[1]
        s1 = SolverState(z.copy(), lam.copy(), SolverConfig(mu=25.0, M=1, b=2))
        rec1 = fotd_step(p, s1)
        assert s1.tau == 1
        rep2 = solve(p, SolverConfig(mu=25.0, M=1, b=2, max_iters=1),
                     (z, lam), mode="centralized")
        rec2 = rep2.records[0]
        assert rec1.stepsize == rec2.stepsize
        assert rec1.kkt_residual == pytest.approx(rec2.kkt_residual, rel=1e-12)
        np.testing.assert_allclose(s1.z.x, rep2.z.x, atol=1e-12)


def test_monotone_merit_on_reference_run():
    p = toy(N=500)
    init = (Trajectory.zeros(p), DualTrajectory.zeros(p))
    cfg = SolverConfig(mu=1.0, M=10, b=25, eta=PenaltyParams(10.0, 0.1))
    report = solve(p, cfg, init, mode="fotd")
    assert report.status == "converged_kkt"
    merits = [r.merit for r in report.records]
    for a, b in zip(merits, merits[1:]):
        assert b < a + MERIT_NOISE * abs(a)


def test_desk_scale_case1_all_initializations_converge():
    p = toy(N=500)
    cfg = SolverConfig(mu=25.0, M=10, b=5, step_tol=1e-14)
    for init in make_initializations(p, 5, seed=17):
        report = solve(p, cfg, init, mode="fotd")
        assert report.status == "converged_kkt"
        assert report.iterations <= 40
        assert np.array_equal(report.z.x[0], p.x0)


def test_full_overlap_matches_centralized_iterates():
    p = toy(N=40)
    init = make_initializations(p, 2, seed=3)[1]
    cfg = SolverConfig(mu=25.0, M=4, b=39, step_tol=1e-14)
    rep_f = solve(p, cfg, init, mode="fotd")
    rep_c = solve(p, cfg, init, mode="centralized")
    assert rep_f.iterations == rep_c.iterations
    for rf, rc in zip(rep_f.records, rep_c.records):
        assert rf.kkt_residual == pytest.approx(rc.kkt_residual,
                                                rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(rep_f.z.x, rep_c.z.x, atol=1e-9)
    np.testing.assert_allclose(rep_f.lam.lam, rep_c.lam.lam, atol=1e-9)


def test_initial_state_pinned_every_iteration():
    p = toy(N=60)
    init = make_initializations(p, 2, seed=23)[1]
    cfg = SolverConfig(mu=25.0, M=3, b=4)
    report = solve(p, cfg, init, mode="fotd")
    assert np.array_equal(report.z.x[0], p.x0)


def _shrink_first_direction(monkeypatch):
    """Make the first decomposed direction 1e-3 times too short.

    The shortened direction misses the descent inequality, which no natural
    toy or plate configuration has been seen to do.
    """
    real = driver.approximate_direction
    calls = []

    def shrunk(*args, **kwargs):
        d = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 1:
            return NewtonDirection(1e-3 * d.dz, 1e-3 * d.dlam)
        return d

    monkeypatch.setattr(driver, "approximate_direction", shrunk)


def _violating_setup():
    p = toy(N=40)
    init = make_initializations(p, 2, seed=3)[1]
    return p, init, dict(mu=25.0, M=4, b=1)


def test_adaptivity_rescales_penalties_and_reprices_merit(monkeypatch):
    p, (z0, lam0), kw = _violating_setup()
    _shrink_first_direction(monkeypatch)
    state = SolverState(z0.copy(), lam0.copy(),
                        SolverConfig(adaptivity=True, **kw))
    record = fotd_step(p, state)
    assert state.cfg.eta == PenaltyParams(40.0, 0.05)
    assert state.cfg.b == 5
    assert state.violations == 1
    assert record.merit == eval_merit(p, z0, lam0, state.cfg.eta)


def test_line_search_prices_the_adapted_penalties(monkeypatch):
    # After an adaptation the line search's merit, slope and allowance are
    # the adapted merit's along the recomputed direction, not those of the
    # old penalties.
    p, (z0, lam0), kw = _violating_setup()
    _shrink_first_direction(monkeypatch)
    searched, armijo_inputs = [], []
    search, armijo = driver.line_search, driver.armijo_backtrack

    def recorded_search(*args, **kwargs):
        searched.append(args[3:5])
        return search(*args, **kwargs)

    def recorded_armijo(merit_along, merit0, slope, noise):
        armijo_inputs.append((merit0, slope, noise))
        return armijo(merit_along, merit0, slope, noise)

    monkeypatch.setattr(driver, "line_search", recorded_search)
    monkeypatch.setattr(driver, "armijo_backtrack", recorded_armijo)
    state = SolverState(z0.copy(), lam0.copy(),
                        SolverConfig(adaptivity=True, **kw))
    record = fotd_step(p, state)
    eta = state.cfg.eta
    assert eta == PenaltyParams(40.0, 0.05)
    [(direction, searched_eta)] = searched
    assert searched_eta == eta
    terms = _merit_terms(p, z0, lam0)
    mz, ml = eval_merit_gradient(p, z0, lam0, eta)
    merit0 = terms.merit(eta)
    slope = float(mz @ direction.dz + ml @ direction.dlam)
    noise = armijo_allowance(merit0, terms.magnitude)
    assert armijo_inputs == [(merit0, slope, noise)]
    assert record.merit == merit0


def test_adaptivity_recovers_from_a_violation(monkeypatch):
    p, init, kw = _violating_setup()
    _shrink_first_direction(monkeypatch)
    report = solve(p, SolverConfig(adaptivity=True, **kw), init, mode="fotd")
    assert report.converged
    assert report.descent_violations == 1


def test_violation_proceeds_without_assert_descent(monkeypatch):
    p, init, kw = _violating_setup()
    _shrink_first_direction(monkeypatch)
    report = solve(p, SolverConfig(assert_descent=False, **kw), init,
                   mode="fotd")
    assert report.converged
    assert report.descent_violations == 1


def test_violation_aborts_by_default(monkeypatch):
    p, init, kw = _violating_setup()
    _shrink_first_direction(monkeypatch)
    report = solve(p, SolverConfig(**kw), init, mode="fotd")
    assert report.status == "error"
    assert "descent inequality violated" in report.error
    assert report.error.endswith(" (iteration 0)")
    assert report.descent_violations == 1  # the failed step's own

    # the error itself carries the iteration and the margin slope - bound
    raised = []

    def step(state, terms):
        try:
            return _step(p, True, state, terms)
        except NonDescentError as exc:
            raised.append(exc)
            raise

    _shrink_first_direction(monkeypatch)
    again = run_outer_loop(p, SolverConfig(**kw), init, step)
    (exc,) = raised
    assert again.error == report.error == f"{exc} (iteration 0)"
    assert exc.iteration == 0
    slope, bound = (float(w) for w in str(exc).split("slope ")[1].split(" > "))
    assert exc.margin > 0
    assert exc.margin == pytest.approx(slope - bound,
                                       abs=1e-6 * (abs(slope) + abs(bound)))


def test_the_loop_numbers_times_and_counts_what_its_steps_do():
    # A step that never touches tau: it replaces the config, adds one
    # violation per call and fails on its third call.
    p = toy(N=20)
    init = make_initializations(p, 2, seed=7)[1]
    cfg = SolverConfig(M=2, b=1)
    other = replace(cfg, eta=PenaltyParams(40.0, 0.05))
    seen = []

    def step(state, terms):
        seen.append(terms)
        state.cfg = other
        state.violations += 1
        if len(seen) == 3:
            raise SolverError("third call")
        return IterationRecord(state.tau, terms.residual(),
                               terms.merit(state.cfg.eta), stepsize=1.0,
                               step_norm=1.0)

    report = run_outer_loop(p, cfg, init, step)
    assert [r.iteration for r in report.records] == [0, 1, 2]
    assert report.iterations == 2
    assert all(r.wall_ms > 0 for r in report.records)
    head = report.records[-1]
    assert head.merit == seen[2].merit(other.eta) != seen[2].merit(cfg.eta)
    assert report.status == "error" and report.exception.iteration == 2
    assert report.error == "third call (iteration 2)"
    assert report.descent_violations == 3


def test_the_loop_stops_steps_that_rounding_decides_without_progress():
    # A step that never moves the iterate, so the residual never falls;
    # rounding decides every call but the third, which resets the count.
    p = toy(N=20)
    init = make_initializations(p, 2, seed=7)[1]
    calls = []

    def step(state, terms):
        calls.append(None)
        state.undecided = None if len(calls) == 3 else (1e-30, 1e-20)
        return IterationRecord(state.tau, terms.residual(),
                               terms.merit(state.cfg.eta), stepsize=1.0,
                               step_norm=1.0)

    report = run_outer_loop(p, SolverConfig(step_tol=0.0), init, step)
    assert len(calls) == 3 + STALL_ITERS
    exc = report.exception
    assert isinstance(exc, ArmijoStall) and exc.iteration == 3 + STALL_ITERS
    assert (exc.predicted, exc.noise) == (1e-30, 1e-20)
    assert report.iterations == 3 + STALL_ITERS


def test_adaptivity_that_cannot_restore_descent_is_reported_with_its_iteration(
        monkeypatch):
    # Iteration 0 takes the decomposed direction; from iteration 1 on it is
    # turned into an ascent direction, which no rescaling of the penalties
    # can make satisfy the descent inequality.
    p, init, kw = _violating_setup()
    real, calls = driver.approximate_direction, []

    def ascent_after_the_first(*args, **kwargs):
        d = real(*args, **kwargs)
        calls.append(None)
        return d if len(calls) == 1 else NewtonDirection(-d.dz, -d.dlam)

    monkeypatch.setattr(driver, "approximate_direction", ascent_after_the_first)
    report = solve(p, SolverConfig(adaptivity=True, **kw), init, mode="fotd")
    assert report.status == "error" and report.iterations == 1
    assert isinstance(report.exception, AdaptivityFailure)
    assert report.exception.iteration == 1
    assert report.error == ("descent inequality still violated after 30 "
                            "rescalings (iteration 1)")
    assert len(calls) == 1 + 31  # the violation after the 30th rescaling stops it
    assert report.descent_violations == 31


@pytest.mark.parametrize("mode", ["fotd", "centralized"])
def test_an_exhausted_levenberg_ladder_is_reported_with_its_iteration(
        monkeypatch, mode):
    # R_5 = -10 I needs a shift of about 10; a ceiling of 1e-3 times the
    # block scale stops the ladder below it.
    import fotd.newton as newton
    p, data = make_random_lq(12, 2, 2, seed=3)
    data["R"][5] = -10.0 * np.eye(2)
    monkeypatch.setattr(newton, "GAMMA_CEILING", 1e-3)
    report = solve(p, SolverConfig(M=3, b=1), random_point(p, seed=3),
                   mode=mode)
    assert report.status == "error" and report.iterations == 0
    assert isinstance(report.exception, ModificationFailure)
    assert report.exception.iteration == 0
    assert re.fullmatch(r"no Levenberg shift up to \S+ restored "
                        r"definiteness \(iteration 0\)", report.error)


def _assert_stalls(monkeypatch, cfg):
    """Solve toy N=40 along 1e-20 times the Newton step; check the stall.

    Such directions predict decreases far below the merit's rounding
    allowance, so the Armijo test passes on rounding alone, and the iterate
    cannot move: the residual never falls.  The solve must stop with a
    typed error after STALL_ITERS such steps instead of running to
    max_iters.
    """
    p = toy(N=40)
    full = driver.solve_full_newton
    monkeypatch.setattr(driver, "solve_full_newton", lambda nd: NewtonDirection(
        1e-20 * full(nd).dz, 1e-20 * full(nd).dlam))
    report = solve(p, cfg, make_initializations(p, 2, seed=3)[1],
                   mode="centralized")
    assert report.status == "error" and not report.converged
    exc = report.exception
    assert isinstance(exc, ArmijoStall) and isinstance(exc, LineSearchFailure)
    assert exc.iteration == STALL_ITERS
    assert 0 < exc.predicted < exc.noise
    assert report.error == (
        f"the Armijo test was decided by rounding for {STALL_ITERS} steps in "
        f"a row and the KKT residual did not fall: predicted decrease "
        f"{exc.predicted:.3e} below the rounding allowance {exc.noise:.3e} "
        f"(iteration {STALL_ITERS})")
    residuals = [r.kkt_residual for r in report.records]
    assert len(residuals) == STALL_ITERS + 1
    assert all(b >= a for a, b in zip(residuals, residuals[1:]))
    assert all(r.stepsize == 1.0 for r in report.records[:-1])


def test_steps_rounding_decides_that_leave_the_residual_stop_the_solve(
        monkeypatch):
    # With no step test to end it, as in Schwarz's inner solves.
    _assert_stalls(monkeypatch, SolverConfig(step_tol=0.0))


def test_a_short_step_that_leaves_the_residual_is_not_convergence(
        monkeypatch):
    # Each step is far shorter than step_tol, but none lowers the residual
    # (5.7e6 here), so none ends the run as converged_step.
    _assert_stalls(monkeypatch, SolverConfig())


def test_descent_inequality_margin_holds_on_run():
    # the decomposed direction must beat the -eta2/2 * ||grad L||^2 margin
    p = toy(N=120)
    init = make_initializations(p, 2, seed=29)[1]
    report = solve(p, SolverConfig(mu=25.0, M=6, b=2), init, mode="fotd")
    assert report.converged
    assert report.descent_violations == 0


def _local_errors(case, N, b, seed):
    """Sup-norm errors of the fotd iterates to a tight centralized solution."""
    p = make_toy_problem(toy_case_params(case, N=N)[0])
    z0, lam0 = make_initializations(p, 2, seed)[1]
    ref = solve(p, SolverConfig(kkt_tol=1e-12, step_tol=0.0, max_iters=80),
                (z0, lam0), mode="centralized")
    assert ref.status == "converged_kkt"
    state = SolverState(z0.copy(), lam0.copy(), SolverConfig(M=N // 100, b=b))
    errors = []
    while not errors or errors[-1] >= 1e-10:
        assert len(errors) < 40
        if errors:
            fotd_step(p, state)
        errors.append(max(float(np.max(np.abs(got - want))) for got, want in (
            (state.z.x, ref.z.x), (state.z.u, ref.z.u),
            (state.lam.lam, ref.lam.lam))))
    return errors


def test_local_linear_rate_is_uniform_over_stages():
    # The abstract's "uniform, local linear convergence over stages": the
    # rate does not grow with the horizon N and shrinks as the overlap b
    # grows.  Toy case 3 alternates between fast and slow steps, so the
    # rate is read over two steps, on the errors between 1e-10 and 1e-2.
    # At this seed the b=1 rate at N=5000 is 1.05x (case 1) and 1.42x
    # (case 3) the N=500 one; b=2 is at most 0.10x b=1 where defined.
    def in_window(errors):
        return sum(1e-10 < e < 1e-2 for e in errors)

    def rate(errors):
        logs = [0.5 * math.log(errors[k + 2] / errors[k])
                for k in range(len(errors) - 2)
                if errors[k] < 1e-2 and errors[k + 2] > 1e-10]
        return float(np.exp(np.mean(logs))) if logs else None

    for case in (1, 3):
        errors = {(N, b): _local_errors(case, N, b, seed=11)
                  for N in (500, 5000) for b in (1, 2)}
        rates = {key: rate(e) for key, e in errors.items()}
        assert rates[5000, 1] <= 2.0 * rates[500, 1]
        for N in (500, 5000):
            if rates[N, 2] is not None:
                assert rates[N, 2] < 0.5 * rates[N, 1]
            else:
                assert in_window(errors[N, 2]) <= in_window(errors[N, 1])


# ---------------------------------------------------------------------------
# Direction-error ratio
# ---------------------------------------------------------------------------

def direction_error(p, z, lam, M, b, mu=25.0):
    """Relative error of the decomposed direction against the exact one, on
    the modified Newton data at (z, lam), as ``SolverConfig.diagnostics``
    reports it."""
    nd = modify_hessian(assemble_newton_data(p, z, lam))
    return direction_error_ratio(
        solve_full_newton(nd),
        approximate_direction(nd, make_plan(p.N, M, b), mu))


def test_diagnostic_zero_for_single_interval():
    p = toy(N=12)
    z, lam = random_point(p, seed=31)
    z.x[0] = p.x0
    assert direction_error(p, z, lam, M=1, b=2) == 0.0


def test_diagnostic_decreases_with_overlap():
    p = toy(N=80)
    z, lam = random_point(p, seed=37)
    z.x[0] = p.x0
    r1 = direction_error(p, z, lam, M=4, b=1)
    r8 = direction_error(p, z, lam, M=4, b=8)
    assert r8 < r1


def test_diagnostic_full_clip_negligible():
    p = toy(N=24)
    z, lam = random_point(p, seed=41)
    z.x[0] = p.x0
    ratio = direction_error(p, z, lam, M=3, b=23)
    assert ratio <= 1e-9


def test_diagnostic_undefined_at_exact_kkt_point():
    # pure quadratic with zero linear terms: the origin is an exact KKT
    # point, so the exact direction is identically zero
    from fotd.problem import ProblemDef
    eye = np.eye(1)
    zero = np.zeros((1, 1))
    p = ProblemDef(
        N=4, n_x=1, n_u=1, x0=np.zeros(1),
        stage_cost=lambda k, x, u=None: (float(x @ x) if k == 4
                                         else float(x @ x) + float(u @ u)),
        cost_gradient=lambda k, x, u=None: (2 * x if k == 4 else (2 * x, 2 * u)),
        cost_hessian=lambda k, x, u=None: (2 * eye if k == 4
                                           else (2 * eye, 0 * eye, 2 * eye)),
        dynamics=lambda k, x, u: x + u,
        dynamics_jacobians=lambda k, x, u: (eye, eye),
        dynamics_hessian_contraction=lambda k, x, u, lam: (zero, zero, zero),
    )
    z, lam = Trajectory.zeros(p), DualTrajectory.zeros(p)
    with pytest.raises(UndefinedRatioError):
        direction_error(p, z, lam, M=2, b=1)


def test_solver_config_rejects_budgets_and_tolerances_of_another_experiment():
    for bad in ({"max_iters": -1}, {"kkt_tol": -1e-6}, {"kkt_tol": math.nan},
                {"step_tol": -1e-6}, {"step_tol": math.nan}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)
    cfg = SolverConfig(max_iters=0, kkt_tol=0.0, step_tol=0.0)
    assert (cfg.max_iters, cfg.kkt_tol, cfg.step_tol) == (0, 0.0, 0.0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    p = toy(N=4)
    with pytest.raises(ValueError, match="unknown mode 'schwarz'"):
        solve(p, SolverConfig(M=2, b=1), (Trajectory.zeros(p),
                                          DualTrajectory.zeros(p)), mode="schwarz")
    # The Armijo and adaptation constants live in the driver module.
    with pytest.raises(TypeError):
        SolverConfig(beta=0.1)


# ---------------------------------------------------------------------------
# The helper thread of workers > 1
# ---------------------------------------------------------------------------

@pytest.fixture
def spy(monkeypatch):
    """Record the thread of each direction and whether each test shifted.

    ``directions`` gets, per direction the driver computes, whether it ran
    off the calling thread; ``shifted`` gets, per Hessian test that
    returned, whether it shifted the Hessian.
    """
    seen = SimpleNamespace(directions=[], shifted=[])
    main = threading.get_ident()
    for name in ("approximate_direction", "solve_full_newton"):
        def direction(*args, _real=getattr(driver, name)):
            seen.directions.append(threading.get_ident() != main)
            return _real(*args)
        monkeypatch.setattr(driver, name, direction)

    def modify(nd, _real=driver.modify_hessian):
        out = _real(nd)
        seen.shifted.append(out is not nd)
        return out

    monkeypatch.setattr(driver, "modify_hessian", modify)
    return seen


def solve_at_each_worker_count(spy, p, cfg, init, mode="fotd"):
    """Solve at workers 1, 2 and 3, whose reports must agree bit for bit.

    Returns the report at workers=1 and, per worker count, the ``spy``'s
    directions and tests of that solve.
    """
    reports, seen = [], []
    for workers in (1, 2, 3):
        spy.directions.clear()
        spy.shifted.clear()
        reports.append(solve(p, replace(cfg, workers=workers), init,
                             mode=mode))
        seen.append((list(spy.directions), list(spy.shifted)))
    want = report_bytes(reports[0])
    assert all(report_bytes(r) == want for r in reports[1:])
    return reports[0], seen


@pytest.mark.parametrize("mode", ["fotd", "centralized"])
def test_the_helper_gives_the_direction_of_an_unshifted_hessian(spy, mode):
    p = toy(N=60)
    report, seen = solve_at_each_worker_count(
        spy, p, SolverConfig(M=3, b=2), make_initializations(p, 2, seed=0)[1],
        mode)
    assert report.converged and report.iterations > 5
    (one, tests), *more = seen
    assert not any(one) and not any(tests)
    for directions, _ in more:  # every step's direction came from the helper
        assert len(directions) == report.iterations and all(directions)


def test_the_helper_result_is_dropped_when_the_test_shifts(spy):
    # Init 1 of the plate at m = 3 needs a Levenberg shift at iteration 0,
    # and then the shifted Hessian's subproblems fail their test.
    p = make_plate_problem(PlateSpec(m=3, N=100))
    report, seen = solve_at_each_worker_count(
        spy, p, SolverConfig(M=10, b=5), make_initializations(p, 5, seed=0)[1])
    assert isinstance(report.exception, MuTooSmallError)
    assert report.exception.iteration == 0
    assert seen[0] == ([False], [True])
    # The helper's direction of the unshifted Hessian, then the shifted one.
    assert seen[1] == seen[2] == ([True, False], [True])


def test_the_helper_error_is_the_step_error_of_an_unshifted_hessian(spy):
    # Criterion 8's pattern: the whole horizon is definite, and so is every
    # subproblem at mu = 2, but at mu = 0.5 the terminal penalty does not
    # make up for Q_1 = Q_2 = -1 in subproblem 0, stages 0-2.
    p, data = make_random_lq(4, 1, 1, seed=0)
    data["Q"][:, 0, 0] = [1.0, -1.0, -1.0, 3.0, 3.0]
    data["R"][:, 0, 0] = [1.0, 2.0, 2.0, 2.0]
    data["S"][:] = 0.0
    data["A"][:] = data["B"][:] = 1.0
    init = random_point(p, seed=1)
    report, seen = solve_at_each_worker_count(
        spy, p, SolverConfig(mu=0.5, M=4, b=1), init)
    assert isinstance(report.exception, MuTooSmallError)
    assert (report.exception.index, report.exception.stage) == (0, 2)
    assert seen == [([False], [False]), ([True], [False]), ([True], [False])]
    # At mu = 2 the helper's direction passes its test but violates the
    # descent inequality, and the adapted penalties' directions are
    # computed on the calling thread.
    report, seen = solve_at_each_worker_count(
        spy, p, SolverConfig(mu=2.0, M=4, b=1, adaptivity=True), init)
    assert report.converged and report.descent_violations > 0
    directions = seen[1][0]
    assert len(directions) > 1 and directions[0] and not any(directions[1:])


def test_an_error_of_the_hessian_test_is_the_step_error(spy, monkeypatch):
    # As in test_an_exhausted_levenberg_ladder_is_reported_with_its_iteration;
    # the helper's direction of the indefinite Hessian is dropped.
    import fotd.newton as newton
    p, data = make_random_lq(12, 2, 2, seed=3)
    data["R"][5] = -10.0 * np.eye(2)
    monkeypatch.setattr(newton, "GAMMA_CEILING", 1e-3)
    report, seen = solve_at_each_worker_count(
        spy, p, SolverConfig(M=3, b=1), random_point(p, seed=3))
    assert isinstance(report.exception, ModificationFailure)
    assert seen == [([], []), ([True], []), ([True], [])]
