import threading
from dataclasses import replace

import numpy as np
import pytest

import fotd.schwarz as fotd_schwarz

from fotd.benchmarks import (PlateSpec, ToySpec, make_initializations,
                             make_plate_problem, make_toy_problem,
                             toy_case_params)
from fotd.decomposition import approximate_direction, decompose, make_plan
from fotd import banded, driver
from fotd.driver import SolverConfig, solve
from fotd.exceptions import (IndefiniteHorizonError, IndefiniteStageError,
                             NonDescentError, SubproblemFailure)
from fotd.newton import (FULL_RICCATI_MIN_NX, assemble_newton_data,
                         check_reduced_hessian, default_definiteness_constant,
                         modify_hessian, solve_full_newton)
from fotd.problem import (DualTrajectory, Trajectory, _merit_terms,
                          eval_merit_gradient, kkt_residual, linearize,
                          split_primal)
from fotd.schwarz import (IntervalChain, boundary_compatibility,
                          one_newton_schwarz_step, schwarz_solve,
                          solve_nonlinear_subproblem, truncated_problem)

from oracles import (CALLBACKS, batched_copy, central_diff, dense_full_newton,
                     make_random_lq, newton_solve_to_kkt, per_stage_copy,
                     random_point, recording)


def toy(N, C1=8.0, C2=1.0, d=lambda k: 1.0):
    return make_toy_problem(ToySpec(N=N, C1=C1, C2=C2, d=d))


def test_truncated_problem_terminal_derivatives_match_fd():
    p = toy(N=10, d=lambda k: 0.2 * k)
    z, lam = random_point(p, seed=0)
    plan = make_plan(10, 2, 2)
    chain = IntervalChain(p, plan, 3.0, z, lam, indices=[0])
    trunc = truncated_problem(chain)
    T = chain.m2[0] - chain.m1[0]
    x = np.array([0.37])
    g = trunc.cost_gradient(T, x)
    fd = central_diff(lambda v: trunc.stage_cost(T, v), x)
    np.testing.assert_allclose(g, fd, atol=1e-6)
    h = trunc.cost_hessian(T, x)
    fdh = central_diff(lambda v: float(trunc.cost_gradient(T, v)[0]), x)
    np.testing.assert_allclose(h.ravel(), fdh, atol=1e-5)


def test_truncated_plate_terminal_hessian_carries_the_contraction():
    # the adjusted terminal cost subtracts lbar^T f, whose curvature on the
    # plate is the radiation term's
    from fotd.benchmarks import PlateSpec, make_plate_problem
    from oracles import central_diff_jacobian
    p = make_plate_problem(PlateSpec(m=4, N=20))
    z, lam = random_point(p, seed=1, scale=20.0)
    z.x += 300.0
    lam.lam *= 50.0
    chain = IntervalChain(p, make_plan(20, 2, 2), 3.0, z, lam, indices=[0])
    trunc = truncated_problem(chain)
    m2 = chain.m2[0]
    T = m2 - chain.m1[0]
    x = z.x[m2] + 1.0
    h = trunc.cost_hessian(T, x)
    fdh = central_diff_jacobian(lambda v: trunc.cost_gradient(T, v), x)
    Wxx, _, _ = p.dynamics_hessian_contraction(m2, x, chain.ubar[0],
                                               chain.lbar[0])
    assert np.abs(Wxx).max() > 1e-3 * np.abs(h).max()
    np.testing.assert_allclose(h, fdh, rtol=1e-6, atol=1e-9 * np.abs(h).max())


@pytest.mark.parametrize("family", ["toy-c3", "plate"])
def test_truncation_shifts_batched_and_per_stage_callbacks_alike(family):
    # The parent's dynamics is a plain per-stage callable; every other
    # callback keeps its batched form.  Toy case 3 varies its reference by
    # stage, so a stage that is not shifted by m1 shows.
    if family == "toy-c3":
        p = make_toy_problem(toy_case_params(3, N=30)[0])
    else:
        p = make_plate_problem(PlateSpec(m=4, N=30))
    z, lam = random_point(p, seed=4, scale=3.0)
    mixed, stages, batches = recording(
        replace(p, dynamics=lambda k, x, u: p.dynamics(k, x, u)))
    plan = make_plan(30, 3, 2)
    chain = IntervalChain(mixed, plan, 25.0, z, lam, indices=[1])
    assert chain.m1[0] > 0 and chain.adjusted[0]
    trunc = truncated_problem(chain)
    m2, shifted = int(chain.m2[0]), tuple(range(chain.m1[0], chain.m2[0]))
    zt, lt = random_point(trunc, seed=5, scale=3.0)

    # the adjusted terminal evaluates the parent at m2 as a batch of one
    lin = linearize(trunc, zt, lt)
    assert batches == {name: [shifted, (m2,)] for name in CALLBACKS
                       if name not in ("stage_cost", "dynamics")}
    assert stages == {"dynamics": list(shifted)}
    stages.clear()
    batches.clear()
    terms = _merit_terms(trunc, zt, lt)
    assert batches == {name: [shifted, (m2,)] for name in
                       ("stage_cost", "cost_gradient", "dynamics_jacobians")}
    assert stages == {"dynamics": list(shifted) + [m2]}

    # the truncation of a parent without any batched form
    ref = truncated_problem(
        IntervalChain(per_stage_copy(p), plan, 25.0, z, lam, indices=[1]))
    for got, want in zip(lin, linearize(ref, zt, lt)):
        np.testing.assert_array_equal(got, want)
    want = _merit_terms(ref, zt, lt)
    assert terms.lagr == want.lagr
    np.testing.assert_array_equal(terms.gz, want.gz)
    np.testing.assert_array_equal(terms.gl, want.gl)


def _group(family):
    """A parent, and a chain of its intervals, three consecutive by default.

    The chain is built by ``chained(parent, indices)`` at one random point.
    """
    if family == "toy-c3":
        # interval 3 reaches N before the group's last interval does
        p = make_toy_problem(toy_case_params(3, N=30)[0])
        plan, group = make_plan(30, 5, 8), [2, 3, 4]
        assert plan.m2[2] < 30 and plan.m2[3] == 30
    else:
        p = batched_copy(make_random_lq(12, 2, 1, seed=3)[0])
        plan, group = make_plan(12, 3, 2), [0, 1, 2]
    z, lam = random_point(p, seed=4, scale=3.0)

    def chained(parent=p, indices=group):
        return IntervalChain(parent, plan, 25.0, z, lam, indices)

    return p, chained


@pytest.mark.parametrize("family", ["toy-c3", "lq"])
def test_chained_group_batched_and_per_stage_callbacks_alike(family):
    p, chained = _group(family)
    group = chained()
    chain = truncated_problem(group)
    ref = truncated_problem(chained(per_stage_copy(p)))
    # every chain callback carries a batched form, whatever the parent has
    assert all(hasattr(getattr(prob, name), "batched")
               for prob in (chain, ref) for name in CALLBACKS)
    assert chain.N == sum(group.m2 - group.m1) + len(group.indices) - 1
    np.testing.assert_array_equal(chain.x0, group.x_start[0])
    zc, lc = random_point(chain, seed=5, scale=3.0)
    lin = linearize(chain, zc, lc)
    for got, want in zip(lin, linearize(ref, zc, lc)):
        np.testing.assert_array_equal(got, want)
    terms, want = _merit_terms(chain, zc, lc), _merit_terms(ref, zc, lc)
    assert terms.lagr == want.lagr
    np.testing.assert_array_equal(terms.gz, want.gz)
    np.testing.assert_array_equal(terms.gl, want.gl)

    # junction rows: the interval's own terminal values in x, the control's
    # 1/2 ||u||^2, and dynamics that pin the next interval's initial state
    nx, nu = chain.n_x, chain.n_u
    Q, S, R, A, B, gz, gl = lin
    gx, gu = split_primal(gz, chain.N, nx, nu)
    gl = gl.reshape(chain.N + 1, nx)
    k = -1
    for j, i in enumerate(group.indices[:-1]):
        k += int(group.m2[j] - group.m1[j]) + 1
        alone = truncated_problem(chained(indices=[i]))
        x_next = group.x_start[j + 1]
        T, x, u = alone.N, zc.x[k], zc.u[k]
        for prob in (chain, ref):
            np.testing.assert_allclose(
                prob.stage_cost(k, x, u), alone.stage_cost(T, x) + 0.5 * u @ u,
                rtol=1e-15)
            gxk, guk = prob.cost_gradient(k, x, u)
            np.testing.assert_allclose(gxk, alone.cost_gradient(T, x),
                                       rtol=1e-15)
            np.testing.assert_array_equal(guk, u)
            np.testing.assert_array_equal(prob.dynamics(k, x, u), x_next)
            for block in (*prob.dynamics_jacobians(k, x, u),
                          *prob.dynamics_hessian_contraction(k, x, u, lc.lam[k + 1])):
                assert not block.any()
        np.testing.assert_allclose(Q[k], alone.cost_hessian(T, x), rtol=1e-15)
        assert not S[k].any() and not A[k].any() and not B[k].any()
        np.testing.assert_array_equal(R[k], np.eye(nu))
        np.testing.assert_array_equal(gu[k], u)
        np.testing.assert_array_equal(gl[k + 1], zc.x[k + 1] - x_next)
    assert k + 1 + group.m2[-1] - group.m1[-1] == chain.N


@pytest.mark.parametrize("family", ["toy-c3", "plate", "per-stage"])
def test_a_pass_over_the_whole_chain_gives_its_single_stage_rows(family):
    # A pass over every chain stage in order takes the chain's own junction
    # layout and constant rows; any other batch looks them up.  The chains:
    # one with a junction end at N; the plate's broadcast B, Q and R and
    # zero S and contraction blocks; a parent without batched forms.
    if family == "plate":
        p = make_plate_problem(PlateSpec(m=4, N=30))
        z, lam = random_point(p, seed=4, scale=3.0)
        group = IntervalChain(p, make_plan(30, 3, 2), 25.0, z, lam)
    else:
        p, chained = _group("toy-c3" if family == "toy-c3" else "lq")
        group = chained() if family == "toy-c3" else chained(per_stage_copy(p))
    chain = truncated_problem(group)
    zc, lc = random_point(chain, seed=5, scale=3.0)
    ks, X, U, Lam = np.arange(chain.N), zc.x[:-1], zc.u, lc.lam[1:]
    U_given = U.copy()

    def outputs(out):
        return out if isinstance(out, tuple) else (out,)

    for name in CALLBACKS:
        form = getattr(chain, name).batched
        args = (X, U, Lam) if name == "dynamics_hessian_contraction" else (X, U)
        whole = outputs(form(ks, *args))
        values = [np.array(o) for o in whole]
        for k in range(chain.N):
            one = outputs(form(np.array([k]), *(a[k:k + 1] for a in args)))
            for got, want in zip(whole, one):
                assert got[k].tobytes() == want[0].tobytes(), (name, k)
        # every stage, but not in order
        back = outputs(form(ks[::-1], *(a[::-1] for a in args)))
        for got, want in zip(back, whole):
            assert got[::-1].tobytes() == want.tobytes(), name
        # the caller may write into what it gets; the next pass is unmoved
        for o in whole:
            if o.flags.writeable:
                o[...] = np.nan
        for got, want in zip(outputs(form(ks, *args)), values):
            assert got.tobytes() == want.tobytes(), name
        np.testing.assert_array_equal(U, U_given)


def test_chained_solve_matches_solving_each_interval_alone():
    # interval 3 of five reaches N, so the chain has a junction at N
    p = toy(N=100)
    plan = make_plan(100, 5, 25)
    assert plan.m2[3] == plan.N
    z, lam = random_point(p, seed=7, scale=2.0)
    z.x[0] = p.x0
    warms = decompose(z.x, z.u, lam.lam, plan)
    parts = solve_nonlinear_subproblem(IntervalChain(p, plan, 25.0, z, lam),
                                       warms)
    assert len(parts) == plan.M
    for i, part in enumerate(parts):
        [alone] = solve_nonlinear_subproblem(
            IntervalChain(p, plan, 25.0, z, lam, indices=[i]), [warms[i]])
        T = plan.m2[i] - plan.m1[i]
        for got, want, rows in zip(part, alone, (T + 1, T, T + 1)):
            assert got.shape == (rows, 1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_chained_failure_names_the_interval_that_holds_the_inner_stage(
        monkeypatch):
    # Interval 1 of [0, 12], [8, 22] and [18, 30] is indefinite at parent
    # stage 15, which no other interval holds.  With the Levenberg shift
    # bypassed, the chain's Riccati sweep fails at that stage's chain stage
    # on the first inner step, when every interval is still over INNER_TOL.
    n = FULL_RICCATI_MIN_NX
    p, data = make_random_lq(30, n, n, seed=5)
    data["R"][15] = -10.0 * np.eye(n)
    plan = make_plan(30, 3, 2)
    z, lam = random_point(p, seed=6)
    monkeypatch.setattr(driver, "modify_hessian", lambda nd: nd)
    with pytest.raises(SubproblemFailure) as exc:
        solve_nonlinear_subproblem(IntervalChain(p, plan, 25.0, z, lam),
                                   decompose(z.x, z.u, lam.lam, plan))
    assert exc.value.index == 1
    assert str(exc.value).startswith(
        "nonlinear subproblem 1 did not converge: interval [8, 22] stopped "
        "with status=error (inner solve: ")
    cause = exc.value.__cause__
    assert isinstance(cause, IndefiniteHorizonError)
    assert cause.stage == (12 + 1) + (15 - 8)
    assert cause.iteration == 0
    assert f"stage {cause.stage} failed" in str(exc.value)


def test_chained_non_descent_names_the_interval_with_most_of_the_slope():
    # The plate at m=3 from init 2 of seed 0 (N=100, M=10, b=5): the chain's
    # first inner direction has a positive merit slope, and every interval
    # is far over INNER_TOL, so the first one over it is interval 0.  Most
    # of the slope lies in interval 6.
    p = make_plate_problem(PlateSpec(m=3, N=100))
    plan = make_plan(100, 10, 5)
    z, lam = make_initializations(p, 5, seed=0)[2]
    z.x[0] = p.x0
    chain = IntervalChain(p, plan, 25.0, z, lam)
    warms = decompose(z.x, z.u, lam.lam, plan)
    with pytest.raises(SubproblemFailure) as exc:
        solve_nonlinear_subproblem(chain, warms)
    cause = exc.value.__cause__
    assert isinstance(cause, NonDescentError) and cause.iteration == 0

    # the inner step's direction and merit gradient at the chain's start
    problem = truncated_problem(chain)
    zc, lc = chain.stack(warms)
    d = solve_full_newton(modify_hessian(assemble_newton_data(problem, zc, lc)))
    mz, ml = eval_merit_gradient(problem, zc, lc, SolverConfig().eta)
    dx, du, dl = d.stage_arrays(problem.N, p.n_x, p.n_u)
    gx, gu = split_primal(mz, problem.N, p.n_x, p.n_u)
    gl = ml.reshape(problem.N + 1, p.n_x)
    shares, res = [], []
    terms = _merit_terms(problem, zc, lc)
    rx, ru = split_primal(terms.gz, problem.N, p.n_x, p.n_u)
    rl = terms.gl.reshape(problem.N + 1, p.n_x)
    for o, T in zip(chain.offsets, chain.m2 - chain.m1):
        kx, ku = slice(o, o + T + 1), slice(o, o + T)
        shares.append(np.vdot(gx[kx], dx[kx]) + np.vdot(gu[ku], du[ku])
                      + np.vdot(gl[kx], dl[kx]))
        res.append(np.sqrt(np.vdot(rx[kx], rx[kx]) + np.vdot(ru[ku], ru[ku])
                           + np.vdot(rl[kx], rl[kx])))
    assert sum(shares) == pytest.approx(cause.margin, rel=1e-9)
    assert np.argmax(shares) == 6 and shares[6] > 0.5 * sum(shares)
    assert min(res) > 1e-8
    assert exc.value.index == 6
    assert str(exc.value).startswith(
        "nonlinear subproblem 6 did not converge: interval [55, 75] stopped "
        "with status=error (inner solve: directional derivative ")


def test_interval_solved_alone_converges_where_rounding_decided_armijo():
    # ok.yaml's interval [18, 42] at outer iteration 0 (toy case 1, N=60,
    # M=3, b=2, init 1 of seed 0).  Its L is a sum of terms about 380 times
    # larger than L, so an allowance of 10 eps |merit0| rejected unit steps
    # that cut the residual, and the stepsize stalled near 3e-12.
    p = make_toy_problem(toy_case_params(1, N=60)[0])
    z, lam = make_initializations(p, 2, seed=0)[1]
    plan = make_plan(60, 3, 2)
    chain = IntervalChain(p, plan, 25.0, z, lam, indices=[1])
    assert (chain.m1[0], chain.m2[0]) == (18, 42)
    x, u, lw = decompose(z.x, z.u, lam.lam, plan)[1]
    report = solve(truncated_problem(chain),
                   SolverConfig(kkt_tol=1e-8, step_tol=0.0, max_iters=50),
                   (Trajectory(x, u), DualTrajectory(lw)), mode="centralized")
    assert report.status == "converged_kkt"
    assert all(r.stepsize == 1.0 for r in report.records[:-1])
    solve_nonlinear_subproblem(chain, [(x, u, lw)])


def test_schwarz_chains_intervals_of_every_width(monkeypatch):
    calls = []
    inner = fotd_schwarz.solve

    def counted(problem, *args, **kwargs):
        calls.append(problem.N)
        return inner(problem, *args, **kwargs)

    monkeypatch.setattr(fotd_schwarz, "solve", counted)
    p = toy(N=60)
    report = schwarz_solve(p, SolverConfig(mu=25.0, M=3, b=4),
                           make_initializations(p, 2, seed=19)[1])
    assert report.status == "converged_kkt"
    # one chained solve of 3 intervals (24, 28 and 24 stages) per iteration
    assert calls == [24 + 28 + 24 + 2] * report.iterations
    # the plate at m=4 (4 states, the band LU's chain) and m=6 (16 states,
    # the Riccati sweep's): two intervals of N/2 + 2 stages, one chain
    for m, N in ((4, 20), (6, 60)):
        calls.clear()
        p = make_plate_problem(PlateSpec(m=m, N=N))
        schwarz_solve(p, SolverConfig(mu=25.0, M=2, b=2, max_iters=1),
                      make_initializations(p, 1, seed=0)[0])
        assert calls == [2 * (N // 2 + 2) + 1]


def test_inner_solver_returns_warm_start_at_subproblem_optimum():
    p = toy(N=12)
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    plan = make_plan(12, 3, 2)
    warms = decompose(z.x, z.u, lam.lam, plan)
    [(xs, us, ls)] = solve_nonlinear_subproblem(
        IntervalChain(p, plan, 25.0, z, lam, indices=[1]), [warms[1]])
    np.testing.assert_array_equal(xs, warms[1][0])
    np.testing.assert_array_equal(us, warms[1][1])
    np.testing.assert_array_equal(ls, warms[1][2])


def test_inner_solver_one_iteration_on_lq_parent():
    p, _ = make_random_lq(12, 2, 1, seed=1)
    z, lam = random_point(p, seed=2)
    plan = make_plan(12, 3, 2)
    warms = decompose(z.x, z.u, lam.lam, plan)
    trunc = truncated_problem(IntervalChain(p, plan, 5.0, z, lam, indices=[1]))
    report = solve(trunc, SolverConfig(mu=5.0, kkt_tol=1e-8, step_tol=0.0,
                                       max_iters=50, assert_descent=False),
                   (Trajectory(warms[1][0].copy(), warms[1][1].copy()),
                    DualTrajectory(warms[1][2].copy())), mode="centralized")
    assert report.status == "converged_kkt"
    assert report.iterations == 1


def test_subproblem_with_exact_boundaries_returns_truncated_solution():
    p = toy(N=20)
    zs, ls = newton_solve_to_kkt(p, tol=1e-13)
    plan = make_plan(20, 4, 2)
    # boundary data from the exact full solution; interior interval
    chain = IntervalChain(p, plan, 25.0, zs, ls, indices=[1])
    warms = decompose(zs.x, zs.u, ls.lam, plan)
    x0w = warms[1][0] + 1e-3  # start slightly off to make the solve do work
    [(xs, us, lsub)] = solve_nonlinear_subproblem(
        chain, [(x0w, warms[1][1] + 1e-3, warms[1][2] + 1e-3)])
    m1, m2 = plan.m1[1], plan.m2[1]
    np.testing.assert_allclose(xs, zs.x[m1:m2 + 1], atol=1e-7)
    np.testing.assert_allclose(us, zs.u[m1:m2], atol=1e-7)
    np.testing.assert_allclose(lsub, ls.lam[m1:m2 + 1], atol=1e-7)


def test_schwarz_fixed_point_at_full_solution():
    p = toy(N=12)
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    report = schwarz_solve(p, SolverConfig(mu=25.0, M=3, b=2), (z, lam))
    assert report.status == "converged_kkt"
    assert report.iterations <= 1


def test_schwarz_converges_and_reaches_small_residual():
    p = toy(N=100)
    init = make_initializations(p, 2, seed=7)[1]
    cfg = SolverConfig(mu=25.0, M=5, b=25)
    rep_s = schwarz_solve(p, cfg, init)
    rep_f = solve(p, cfg, init, mode="fotd")
    assert rep_s.status == "converged_kkt"
    assert rep_f.converged
    # solving subproblems to optimality tends to land deeper than one
    # Newton step per iteration does
    assert rep_s.final_kkt <= max(rep_f.final_kkt, 1e-8)


def test_schwarz_parallel_workers_match_serial(monkeypatch):
    p = toy(N=60)
    init = make_initializations(p, 2, seed=19)[1]
    rep1 = schwarz_solve(p, SolverConfig(mu=25.0, M=3, b=4, workers=1), init)

    def refused(self):
        raise AssertionError("the Schwarz baseline started a thread")

    # Schwarz solves its chained intervals on the calling thread, whatever
    # ``workers`` says, so at workers=3 no thread may start.
    monkeypatch.setattr(threading.Thread, "start", refused)
    rep3 = schwarz_solve(p, SolverConfig(mu=25.0, M=3, b=4, workers=3), init)
    assert rep1.status == rep3.status == "converged_kkt"
    np.testing.assert_array_equal(rep1.z.x, rep3.z.x)
    np.testing.assert_array_equal(rep1.lam.lam, rep3.lam.lam)


def test_schwarz_step_tolerance_stop():
    # an unreachable KKT tolerance leaves the step test to end the run
    p = toy(N=60)
    init = make_initializations(p, 2, seed=19)[1]
    report = schwarz_solve(p, SolverConfig(mu=25.0, M=3, b=4, kkt_tol=1e-30),
                           init)
    assert report.status == "converged_step"
    assert report.iterations == 4
    assert len(report.records) == 5
    last = report.records[-1]
    assert last.stepsize is None
    assert last.wall_ms > 0


def test_schwarz_budget_exhaustion_recorded():
    p = toy(N=100)
    init = make_initializations(p, 2, seed=9)[1]
    report = schwarz_solve(p, SolverConfig(mu=25.0, M=5, b=1, max_iters=1),
                           init)
    assert report.status == "max_iters"
    assert len(report.records) == 2
    assert report.error is None
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(mu=25.0, M=5, b=1, max_iters=-1)


def test_schwarz_inner_failure_reported(monkeypatch):
    monkeypatch.setattr("fotd.schwarz.INNER_MAX_ITERS", 0)
    p = toy(N=12)
    init = make_initializations(p, 2, seed=11)[1]
    report = schwarz_solve(p, SolverConfig(mu=25.0, M=3, b=2), init)
    assert report.status == "error"
    assert report.error.startswith("nonlinear subproblem 0 did not converge: "
                                   "interval [0, 6]")
    assert report.error.count("did not converge") == 1
    assert "-1" not in report.error
    assert len(report.records) >= 1
    z, lam = init
    plan = make_plan(12, 3, 2)
    warms = decompose(z.x, z.u, lam.lam, plan)
    for i in range(plan.M):
        with pytest.raises(SubproblemFailure) as exc:
            solve_nonlinear_subproblem(
                IntervalChain(p, plan, 25.0, z, lam, indices=[i]), [warms[i]])
        assert exc.value.index == i
        assert str(exc.value).startswith(f"nonlinear subproblem {i} did not "
                                         f"converge: interval [{plan.m1[i]}, "
                                         f"{plan.m2[i]}]")


def test_chained_failure_names_the_interval_that_missed(monkeypatch):
    # intervals 0 and 1 start at their optimum; only interval 2 has work
    # left after one inner step, so the chain's failure must name it
    monkeypatch.setattr("fotd.schwarz.INNER_MAX_ITERS", 1)
    p = toy(N=12)
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    plan = make_plan(12, 3, 2)
    warms = decompose(z.x, z.u, lam.lam, plan)
    warms[2] = tuple(a + 0.5 for a in warms[2])
    with pytest.raises(SubproblemFailure) as exc:
        solve_nonlinear_subproblem(IntervalChain(p, plan, 25.0, z, lam), warms)
    assert exc.value.index == 2
    assert str(exc.value).startswith(
        f"nonlinear subproblem 2 did not converge: interval "
        f"[{plan.m1[2]}, {plan.m2[2]}] stopped with status=max_iters, "
        "residual=")
    residual = float(str(exc.value).rsplit("=", 1)[1])
    assert residual > 1e-8


def _check_one_newton_step(p, plan):
    """One Schwarz Newton step equals the decomposed update, seeds 13-14."""
    for seed in (13, 14):
        z, lam = random_point(p, seed=seed, scale=2.0)
        z.x[0] = p.x0
        nd = assemble_newton_data(p, z, lam)
        d = approximate_direction(nd, plan, 25.0)
        dx, du, dl = d.stage_arrays(p.N, p.n_x, p.n_u)
        zs, ls = one_newton_schwarz_step(p, z, lam, plan, 25.0)
        assert np.max(np.abs(zs.x - (z.x + dx))) <= 1e-9
        assert np.max(np.abs(zs.u - (z.u + du))) <= 1e-9
        assert np.max(np.abs(ls.lam - (lam.lam + dl))) <= 1e-9


@pytest.mark.parametrize("b", [1, 5])
def test_one_newton_step_equals_decomposed_update(b):
    _check_one_newton_step(toy(N=100), make_plan(100, 5, b))


@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("m", [4, 6])
def test_one_newton_step_equals_decomposed_update_on_wide_blocks(m, b):
    # the plate at m=4 (4 states) and m=6 (16 states): the decomposed
    # direction runs the Riccati kernel, and at m=6 the chain's exact step
    # is a Riccati sweep as well
    N = 10 * m
    _check_one_newton_step(make_plate_problem(PlateSpec(m=m, N=N)),
                           make_plan(N, 4, b))


def test_one_newton_step_fixed_at_kkt_point():
    p = toy(N=12)
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    zs, ls = one_newton_schwarz_step(p, z, lam, make_plan(12, 3, 2), 25.0)
    assert np.max(np.abs(zs.x - z.x)) <= 1e-9
    assert np.max(np.abs(ls.lam - lam.lam)) <= 1e-9


def test_one_newton_step_matches_dense_subproblem_solves():
    p, _ = make_random_lq(8, 2, 1, seed=15)
    z, lam = random_point(p, seed=16)
    plan = make_plan(8, 2, 2)
    zs, ls = one_newton_schwarz_step(p, z, lam, plan, 4.0)
    parts = []
    warms = decompose(z.x, z.u, lam.lam, plan)
    for i in range(2):
        trunc = truncated_problem(
            IntervalChain(p, plan, 4.0, z, lam, indices=[i]))
        nd = assemble_newton_data(p=trunc,
                                  z=Trajectory(warms[i][0], warms[i][1]),
                                  lam=DualTrajectory(warms[i][2]))
        pd, qd, zd = dense_full_newton(nd)
        parts.append((warms[i][0] + pd, warms[i][1] + qd, warms[i][2] + zd))
    from fotd.decomposition import compose
    xe, ue, le = compose(parts, plan)
    np.testing.assert_allclose(zs.x, xe, atol=1e-10)
    np.testing.assert_allclose(zs.u, ue, atol=1e-10)
    np.testing.assert_allclose(ls.lam, le, atol=1e-10)


def test_compatibility_conditions_decide_full_stationarity():
    p = toy(N=12)
    zs, ls = newton_solve_to_kkt(p, tol=1e-13)
    plan = make_plan(12, 2, 2)
    warms = decompose(zs.x, zs.u, ls.lam, plan)

    def solve_parts(perturb):
        parts = []
        for i in range(plan.M):
            z, lam = zs, ls
            if perturb and i == 0:
                z, lam = (Trajectory(zs.x + 0.5, zs.u + 0.5),
                          DualTrajectory(ls.lam + 0.5))
            parts += solve_nonlinear_subproblem(
                IntervalChain(p, plan, 25.0, z, lam, indices=[i]), [warms[i]])
        return parts

    # matched boundaries: composed point is a full KKT point and every
    # compatibility residual vanishes
    parts = solve_parts(perturb=False)
    from fotd.decomposition import compose
    x, u, lm = compose(parts, plan)
    assert kkt_residual(p, Trajectory(x, u), DualTrajectory(lm)) <= 1e-7
    for rx, ra, rb in boundary_compatibility(p, parts, plan):
        assert max(rx, ra, rb) <= 1e-7

    # mismatched boundaries: each part is a subproblem KKT point, but the
    # composition is not stationary and the knot residuals are bounded away
    parts = solve_parts(perturb=True)
    x, u, lm = compose(parts, plan)
    assert kkt_residual(p, Trajectory(x, u), DualTrajectory(lm)) >= 1e-3
    residuals = boundary_compatibility(p, parts, plan)
    assert max(max(r) for r in residuals) >= 1e-3


# ---------------------------------------------------------------------------
# A chain's Newton step as a batch of its pieces
# ---------------------------------------------------------------------------

def plate_chain():
    """The plate at m=6 chained over 4 intervals of 55, 60, 60 and 55 stages.

    Returns the chain and its Newton data at the stacked slices of a random
    point, made definite by the Levenberg shift if needed.
    """
    p = make_plate_problem(PlateSpec(m=6, N=200))
    z, lam = random_point(p, seed=3, scale=0.5)
    z.x[0] = p.x0
    plan = make_plan(200, 4, 5)
    chain = IntervalChain(p, plan, 25.0, z, lam)
    assert list(chain.m2 - chain.m1) == [55, 60, 60, 55]
    nd = modify_hessian(assemble_newton_data(
        truncated_problem(chain), *chain.stack(decompose(z.x, z.u, lam.lam,
                                                         plan))))
    return chain, nd


def lq_args(nd, R=None):
    return (nd.Q, nd.S, nd.R if R is None else R, nd.A, nd.B, nd.gx, nd.gu,
            -nd.glam[0], -nd.glam[1:])


def test_chain_pieces_solve_as_the_whole_sweep_and_alone_bit_for_bit(
        monkeypatch):
    chain, nd = plate_chain()
    ends = chain.offsets[1:] - 1
    junctions = banded.junction_stages(nd.S, nd.A, nd.B)
    np.testing.assert_array_equal(junctions, ends)
    lq = lq_args(nd)
    whole = [a[0] for a in banded.solve_lq_riccati(*(a[None] for a in lq))]
    batches = []
    sweep = banded.solve_lq_riccati

    def counted(*args):
        batches.append(args[4].shape[:2])
        return sweep(*args)

    monkeypatch.setattr(banded, "solve_lq_riccati", counted)
    pieces = banded.solve_lq_pieces(*lq, junctions)
    # one sweep per length, and one for the junctions' one-stage windows
    assert batches == [(2, 55), (2, 60), (3, 1)]
    for got, want in zip(pieces, whole):
        np.testing.assert_array_equal(got, want)
    monkeypatch.undo()
    # each piece solved alone, its initial pin the junction's dynamics
    c = -nd.glam
    for first, T in zip(chain.offsets, chain.m2 - chain.m1):
        k, kx = slice(first, first + T), slice(first, first + T + 1)
        alone = banded.solve_lq_riccati(*(a[None] for a in (
            nd.Q[kx], nd.S[k], nd.R[k], nd.A[k], nd.B[k], nd.gx[kx],
            nd.gu[k], c[first], c[first + 1:first + T + 1])))
        for got, want in zip((pieces[0][kx], pieces[1][k], pieces[2][kx]),
                             alone):
            np.testing.assert_array_equal(got, want[0])
    # and the exact direction of the chain is the pieces'
    d = solve_full_newton(nd)
    np.testing.assert_array_equal(d.dlam, pieces[2].ravel())


def test_a_failing_piece_names_the_whole_sweeps_stage_and_margin():
    chain, nd = plate_chain()
    first = chain.offsets
    junctions = banded.junction_stages(nd.S, nd.A, nd.B)
    n = nd.n_u
    # pieces 1 and 2 fail, and then the junction after piece 0 as well
    for stages in ([first[1] + 10], [first[1] + 10, first[1] + 40, first[2] + 5],
                   [first[1] + 10, junctions[0]]):
        R = nd.R.copy()
        R[stages] = -10.0 * np.eye(n)
        lq = lq_args(nd, R)
        with pytest.raises(IndefiniteStageError) as whole:
            banded.solve_lq_riccati(*(a[None] for a in lq))
        assert whole.value.stage == max(stages)  # the last one in chain order
        with pytest.raises(IndefiniteStageError) as got:
            banded.solve_lq_pieces(*lq, junctions)
        assert (got.value.member, got.value.stage, got.value.margin) == (
            0, whole.value.stage, whole.value.margin)


def test_split_band_test_gives_the_whole_chains_pivots_and_margins(
        monkeypatch):
    chain, nd = plate_chain()
    first = chain.offsets
    junctions = banded.junction_stages(nd.S, nd.A, nd.B)
    c = default_definiteness_constant(nd.lq)
    blocks = (nd.Q, nd.S, nd.R, nd.A, nd.B)
    # the full-horizon test of a wide chain factors one band per piece, each
    # but the last built through the stage after its junction and factored
    # only through its junction's control
    sizes, columns = [], []
    band, factor = banded._test_band, banded.dpbtrf
    monkeypatch.setattr(banded, "_test_band",
                        lambda *a: sizes.append(a[3].shape[0]) or band(*a))
    monkeypatch.setattr(banded, "dpbtrf",
                        lambda ab: columns.append(ab.shape[1]) or factor(ab))
    assert check_reduced_hessian(nd, c)
    assert sizes == [56, 61, 61, 55]
    nx, m = nd.Q.shape[1], nd.Q.shape[1] + nd.n_u
    assert columns == [56 * m, 61 * m, 61 * m, 55 * m + nx]
    monkeypatch.undo()
    assert banded.pivot_failure(*blocks, c, junctions) is None
    # a tolerance above every pivot reports the smallest one
    monkeypatch.setattr(banded, "PIVOT_TOL", 1e6)
    whole = banded.pivot_failure(*blocks, c)
    assert banded.pivot_failure(*blocks, c, junctions) == whole
    monkeypatch.undo()
    # breakdowns: in piece 2; in pieces 1 and 2 (piece 1's stops the test);
    # at a junction's control and in the piece after it
    for stages in ([first[2] + 5], [first[1] + 3, first[2] + 5],
                   [junctions[1], first[2] + 5]):
        R = nd.R.copy()
        R[stages] = -1e4 * np.eye(nd.n_u)
        whole = banded.pivot_failure(nd.Q, nd.S, R, nd.A, nd.B, c)
        assert whole[0] == min(stages) and whole[1] < -1.0
        assert banded.pivot_failure(nd.Q, nd.S, R, nd.A, nd.B, c,
                                    junctions) == whole
