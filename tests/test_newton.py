import math

import numpy as np
import pytest
import scipy.linalg

import fotd.newton as fotd_newton
from fotd import banded, driver
from fotd.banded import PIVOT_TOL
from fotd.benchmarks import ToySpec, make_toy_problem
from fotd.decomposition import approximate_direction, make_plan
from fotd.driver import SolverConfig, solve
from fotd.exceptions import (IndefiniteHorizonError, LinearSolverError,
                             NumericsError)
from fotd.newton import (FULL_RICCATI_MIN_NX, NewtonData,
                         assemble_newton_data, check_reduced_hessian,
                         default_definiteness_constant, definiteness_constant,
                         modify_hessian,
                         solve_full_newton, theory_gamma_G, theory_mu_bar)
from fotd.problem import DualTrajectory, Trajectory, stack_primal

from oracles import (central_diff_jacobian, dense_full_newton, dense_lq_solve,
                     dense_reduced_hessian_eigmin, direction_kkt_residual,
                     lq_data, make_random_lq, newton_rhs_norm, random_point,
                     riccati_stage_pivot)


def toy(N=4, C1=8.0, C2=1.0, d=lambda k: 0.0):
    return make_toy_problem(ToySpec(N=N, C1=C1, C2=C2, d=d))


def remark1_data(mu_unused=None):
    """N=2 scalar instance whose quadratic blocks are diag(1,1,-2,2,3)."""
    ones = np.ones((2, 1, 1))
    return NewtonData(
        N=2, n_x=1, n_u=1,
        Q=np.array([[[1.0]], [[-2.0]], [[3.0]]]),
        S=np.zeros((2, 1, 1)),
        R=np.array([[[1.0]], [[2.0]]]),
        A=ones.copy(), B=ones.copy(),
        gx=np.zeros((3, 1)), gu=np.zeros((2, 1)), glam=np.zeros((3, 1)),
    )


def test_assemble_lq_hessian_equals_cost_blocks():
    p, data = make_random_lq(5, 2, 2, seed=0)
    z, lam = random_point(p, seed=1)
    nd = assemble_newton_data(p, z, lam)
    np.testing.assert_array_equal(nd.Q, data["Q"])
    np.testing.assert_array_equal(nd.S, data["S"])
    np.testing.assert_array_equal(nd.R, data["R"])
    np.testing.assert_array_equal(nd.A, data["A"])
    np.testing.assert_array_equal(nd.B, data["B"])
    assert nd.gamma_applied == 0.0


def test_assemble_toy_blocks_hand_differentiated():
    p = toy(C1=8.0, C2=1.0)
    nd = assemble_newton_data(p, Trajectory.zeros(p), DualTrajectory.zeros(p))
    # at x = d = 0: Q = 2*C1 - 4*cos(0) = 12, R = -2*C2
    np.testing.assert_allclose(nd.Q[: p.N], 12.0)
    np.testing.assert_allclose(nd.R, -2.0)
    np.testing.assert_allclose(nd.Q[p.N], 16.0)


def test_assemble_hessian_matches_fd_of_gradient():
    p = toy(N=3, d=lambda k: 0.3 * k)
    z, lam = random_point(p, seed=2)
    nd = assemble_newton_data(p, z, lam)

    from fotd.problem import eval_lagrangian_gradient, split_primal

    def grad_of_flat(vec):
        x, u = split_primal(vec, p.N, p.n_x, p.n_u)
        gz, _ = eval_lagrangian_gradient(p, Trajectory(x, u), lam)
        return gz

    J = central_diff_jacobian(grad_of_flat, stack_primal(z.x, z.u))
    m = p.n_x + p.n_u
    for k in range(p.N):
        blk = J[k * m:(k + 1) * m, k * m:(k + 1) * m]
        full = np.block([[nd.Q[k], nd.S[k].T], [nd.S[k], nd.R[k]]])
        np.testing.assert_allclose(full, blk, atol=1e-4)


def test_assemble_nonfinite_callback_raises_with_stage():
    p0 = toy(N=4)
    nan = np.array([[np.nan]])

    def bad_gradient(k, x, u=None):
        if k == 2:
            return np.array([np.nan]), np.array([0.0])
        return p0.cost_gradient(k, x, u) if k < 4 else p0.cost_gradient(k, x)

    def bad_control_gradient(k, x, u=None):
        if k == 3:
            return p0.cost_gradient(k, x, u)[0], np.array([np.inf])
        return p0.cost_gradient(k, x, u) if k < 4 else p0.cost_gradient(k, x)

    def bad_terminal(k, x, u=None):
        return p0.cost_gradient(k, x, u) if k < 4 else np.array([np.nan])

    def bad_hessian(k, x, u=None):
        if k == 1:
            return nan, np.zeros((1, 1)), np.ones((1, 1))
        return p0.cost_hessian(k, x, u) if k < 4 else p0.cost_hessian(k, x)

    def bad_jacobians(k, x, u):
        A, B = p0.dynamics_jacobians(k, x, u)
        return (A, nan) if k == 3 else (A, B)

    def bad_contraction(k, x, u, lam):
        W = p0.dynamics_hessian_contraction(k, x, u, lam)
        return (W[0], nan, W[2]) if k == 0 else W

    def bad_dynamics(k, x, u):
        f = p0.dynamics(k, x, u)
        return np.array([np.nan]) if k == 2 else f

    from dataclasses import replace
    for field, fn, stage, what in (
            ("cost_gradient", bad_gradient, 2, "gradient"),
            ("cost_gradient", bad_control_gradient, 3, "gradient"),
            ("cost_gradient", bad_terminal, 4, "terminal block"),
            ("cost_hessian", bad_hessian, 1, "Hessian/Jacobian"),
            ("dynamics_jacobians", bad_jacobians, 3, "Hessian/Jacobian"),
            ("dynamics_hessian_contraction", bad_contraction, 0,
             "Hessian/Jacobian"),
            ("dynamics", bad_dynamics, 2, "constraint residual")):
        p = replace(p0, **{field: fn})
        with pytest.raises(NumericsError) as err:
            assemble_newton_data(p, Trajectory.zeros(p), DualTrajectory.zeros(p))
        assert err.value.stage == stage, field
        assert str(err.value) == f"non-finite {what} at stage {stage}"


def test_check_remark1_full_problem_definite():
    nd = remark1_data()
    assert check_reduced_hessian(nd, c=1000.0)
    assert dense_reduced_hessian_eigmin(nd.Q, nd.S, nd.R, nd.A, nd.B) > 0


def test_check_negated_hessian_fails():
    nd = remark1_data()
    from dataclasses import replace
    neg = replace(nd, Q=-nd.Q, R=-nd.R)
    assert not check_reduced_hessian(neg, c=1000.0)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="definiteness constant must be positive"):
            check_reduced_hessian(nd, c)


def test_check_toy_iterates_consistent_with_margin():
    # C1 - 2 > 4|C2| keeps the reduced Hessian bounded below by
    # (C1 - 2 - 4|C2|)/4, so the test must pass at any iterate.
    p = toy(N=12, C1=8.0, C2=1.0)
    bound = (8.0 - 2.0 - 4.0) / 4.0
    for seed in range(6):
        z, lam = random_point(p, seed=seed, scale=3.0)
        nd = assemble_newton_data(p, z, lam)
        assert check_reduced_hessian(nd, default_definiteness_constant(nd.lq))
        eig = dense_reduced_hessian_eigmin(nd.Q, nd.S, nd.R, nd.A, nd.B)
        assert eig >= bound - 1e-8


def test_modify_is_noop_on_definite_data():
    p = toy(N=10)
    for seed in range(4):
        z, lam = random_point(p, seed=seed, scale=2.0)
        nd = assemble_newton_data(p, z, lam)
        out = modify_hessian(nd)
        assert out is nd
        assert out.gamma_applied == 0.0


def test_modify_restores_definiteness():
    nd = NewtonData(
        N=2, n_x=1, n_u=1,
        Q=-np.ones((3, 1, 1)), S=np.zeros((2, 1, 1)), R=-np.ones((2, 1, 1)),
        A=np.ones((2, 1, 1)), B=np.ones((2, 1, 1)),
        gx=np.zeros((3, 1)), gu=np.zeros((2, 1)), glam=np.zeros((3, 1)),
    )
    out = modify_hessian(nd)
    assert out.gamma_applied >= 1.0
    assert dense_reduced_hessian_eigmin(out.Q, out.S, out.R, out.A, out.B) > 0
    # idempotence: a second pass keeps the shift
    again = modify_hessian(out)
    assert again is out
    assert again.gamma_applied == out.gamma_applied


def test_solve_zero_rhs_gives_zero_direction():
    nd = remark1_data()
    d = solve_full_newton(nd)
    assert np.all(d.dz == 0.0)
    assert np.all(d.dlam == 0.0)


def test_remark1_qp_has_zero_solution():
    # stated as a QP from the origin with zero linear terms, the unique
    # global solution is the zero vector
    d = solve_full_newton(remark1_data())
    np.testing.assert_array_equal(d.dz, np.zeros(5))


@pytest.mark.parametrize("seed", range(4))
def test_solve_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    N, nx, nu = int(rng.integers(3, 11)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
    p, _ = make_random_lq(N, nx, nu, seed=seed + 100)
    z, lam = random_point(p, seed=seed + 200)
    nd = assemble_newton_data(p, z, lam)
    assert check_reduced_hessian(nd, default_definiteness_constant(nd.lq))
    got = solve_full_newton(nd)
    pd, qd, zd = dense_full_newton(nd)
    expect = np.concatenate([stack_primal(pd, qd), zd.ravel()])
    have = np.concatenate([got.dz, got.dlam])
    assert np.linalg.norm(have - expect) <= 1e-10 * (1.0 + np.linalg.norm(expect))


def test_direction_residual_invariant():
    p = toy(N=15, d=lambda k: math.sin(k))
    z, lam = random_point(p, seed=5, scale=2.0)
    nd = assemble_newton_data(p, z, lam)
    d = solve_full_newton(nd)
    assert direction_kkt_residual(nd, d) <= 1e-9 * (1.0 + newton_rhs_norm(nd))


def test_constraint_jacobian_full_row_rank():
    p, _ = make_random_lq(6, 2, 1, seed=6)
    z, lam = random_point(p, seed=7)
    nd = assemble_newton_data(p, z, lam)
    N, nx, nu = nd.N, nd.n_x, nd.n_u
    m = nx + nu
    G = np.zeros(((N + 1) * nx, N * m + nx))
    G[:nx, :nx] = np.eye(nx)
    for k in range(N):
        row = (k + 1) * nx
        G[row:row + nx, k * m:k * m + nx] = -nd.A[k]
        G[row:row + nx, k * m + nx:k * m + m] = -nd.B[k]
        G[row:row + nx, (k + 1) * m:(k + 1) * m + nx] = np.eye(nx)
    scipy.linalg.cho_factor(G @ G.T)  # raises if G G^T is not PD


# ---------------------------------------------------------------------------
# The exact direction on wide blocks: the Riccati sweep as a batch of one
# ---------------------------------------------------------------------------

def newton_data(d) -> NewtonData:
    """NewtonData whose Newton system is the canonical LQ problem ``d``."""
    T, nx, nu = d.B.shape
    return NewtonData(T, nx, nu, d.Q, d.S, d.R, d.A, d.B, d.gx, d.gu,
                      glam=-np.vstack([d.c0, d.cdyn]))


def relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("T", [1, 7, 60])
@pytest.mark.parametrize("n", [FULL_RICCATI_MIN_NX - 1, FULL_RICCATI_MIN_NX, 16])
def test_wide_exact_direction_matches_the_dense_and_band_solves(n, T):
    d = lq_data(T, n, n, seed=T + n)
    got = solve_full_newton(newton_data(d))
    have = np.concatenate([got.dz, got.dlam])
    lq = (d.Q, d.S, d.R, d.A, d.B, d.gx, d.gu, d.c0, d.cdyn)
    for solver, tol in ((dense_lq_solve, 1e-10), (banded.solve_lq_kkt, 1e-12)):
        p, q, zeta = solver(*lq)
        want = np.concatenate([stack_primal(p, q), zeta.ravel()])
        assert relative_gap(have, want) <= tol, solver.__name__


@pytest.mark.parametrize("n", [FULL_RICCATI_MIN_NX - 1, FULL_RICCATI_MIN_NX])
def test_exact_direction_takes_one_kernel_by_block_width(monkeypatch, n):
    calls = []

    def counted(name):
        kernel = getattr(banded, name)
        return lambda *args: calls.append(name) or kernel(*args)

    for name in ("solve_lq_kkt", "solve_lq_riccati"):
        monkeypatch.setattr(banded, name, counted(name))
    solve_full_newton(newton_data(lq_data(7, n, n, seed=n)))
    wide = n >= FULL_RICCATI_MIN_NX
    assert calls == ["solve_lq_riccati" if wide else "solve_lq_kkt"]


def test_stage_norms_are_computed_once_per_linearization(monkeypatch):
    # modify_hessian's constant and the decomposed direction's per-subproblem
    # constants read one norm pass; a Levenberg-shifted copy makes its own.
    p = toy(N=40)
    z, lam = random_point(p, seed=3, scale=2.0)
    passes = []
    norms = fotd_newton.stage_norms_fro
    monkeypatch.setattr(fotd_newton, "stage_norms_fro",
                        lambda *a: passes.append(None) or norms(*a))
    nd = assemble_newton_data(p, z, lam)
    assert modify_hessian(nd) is nd
    approximate_direction(nd, make_plan(40, 4, 2), 25.0)
    assert len(passes) == 1
    assert nd.stage_norms.tobytes() == norms(nd.Q, nd.S, nd.R).tobytes()
    shifted = fotd_newton._shift(nd, 0.5)
    assert shifted.stage_norms.tobytes() == norms(
        shifted.Q, shifted.S, shifted.R).tobytes()
    assert not np.array_equal(shifted.stage_norms, nd.stage_norms)
    # The shifted copy's LQ data is its own, not the one nd cached.
    assert shifted.lq is not nd.lq
    assert np.array_equal(shifted.lq.Q, nd.Q + 0.5 * np.eye(nd.n_x))
    assert np.array_equal(shifted.lq.R, nd.R + 0.5 * np.eye(nd.n_u))
    assert np.array_equal(shifted.lq.cdyn, -nd.glam[1:])
    assert definiteness_constant(nd.stage_norms, nd.Q[-1]) == (
        default_definiteness_constant(nd.lq))


def test_one_junction_scan_serves_every_ladder_rung_and_the_solve(monkeypatch):
    # the Levenberg shift keeps S, A and B, so a wide horizon is scanned for
    # junctions once per linearization, however many rungs its ladder climbs
    n = FULL_RICCATI_MIN_NX
    p, data = make_random_lq(30, n, n, seed=7)
    data["R"][10] = -10.0 * np.eye(n)
    scans, rungs = [], []
    scan, check = banded.junction_stages, fotd_newton.check_reduced_hessian
    monkeypatch.setattr(banded, "junction_stages",
                        lambda *a: scans.append(None) or scan(*a))
    monkeypatch.setattr(fotd_newton, "check_reduced_hessian",
                        lambda *a: rungs.append(None) or check(*a))
    nd = modify_hessian(assemble_newton_data(p, *random_point(p, seed=8)))
    solve_full_newton(nd)
    assert nd.gamma_applied > 0 and len(rungs) >= 3
    assert len(scans) == 1


def test_wide_indefinite_stage_raises_with_horizon_stage_and_margin():
    n = FULL_RICCATI_MIN_NX
    d = lq_data(60, n, n, seed=3)
    d.R[30] = -10.0 * np.eye(n)
    with pytest.raises(IndefiniteHorizonError) as err:
        solve_full_newton(newton_data(d))
    assert isinstance(err.value, LinearSolverError)
    assert err.value.stage == 30
    # The margin is the pivot the Cholesky of R_30 + B_30^T P_31 B_30
    # stopped at, less the pivot tolerance.
    assert err.value.margin == pytest.approx(riccati_stage_pivot(
        d.Q, d.S, d.R, d.A, d.B, 30) - PIVOT_TOL, rel=1e-9)
    assert f"stage 30 failed (pivot margin {err.value.margin:.3e})" in str(err.value)
    assert "batch member" not in str(err.value)
    # One stage: R + B^T Q_T B = I + diag(-1 + 1e-12, 0, ...) leaves a
    # pivot of 1e-12.
    d = lq_data(1, n, n, seed=4)
    d.S[:] = 0.0
    d.R[:] = np.eye(n)
    d.B[:] = np.eye(n)
    d.Q[1] = 0.0
    d.Q[1, 0, 0] = -1.0 + 1e-12
    with pytest.raises(IndefiniteHorizonError) as err:
        solve_full_newton(newton_data(d))
    assert err.value.stage == 0
    assert err.value.margin == pytest.approx(1e-12 - PIVOT_TOL, rel=1e-3)
    assert f"stage 0 failed (pivot margin {err.value.margin:.3e})" in str(err.value)


def test_centralized_solve_reports_an_indefinite_wide_stage(monkeypatch):
    # The band test and its Levenberg shift would repair the stage first,
    # so they are bypassed to reach the sweep's own test.
    n = FULL_RICCATI_MIN_NX
    p, data = make_random_lq(20, n, n, seed=5)
    data["R"][12] = -10.0 * np.eye(n)
    monkeypatch.setattr(driver, "modify_hessian", lambda nd: nd)
    report = solve(p, SolverConfig(M=2, b=1), random_point(p, seed=6),
                   mode="centralized")
    assert report.status == "error"
    assert report.iterations == 0
    assert ("stage 12 failed (pivot margin -2.000e+02) (iteration 0)"
            in report.error)


def test_theory_gamma_g_values():
    assert theory_gamma_G(1.0, 1, 2.0) == pytest.approx(1.0 / 225.0, rel=1e-14)
    assert theory_gamma_G(0.5, 2, 2.0) == pytest.approx(
        (0.5 / 8.5) ** 2 * 0.5 / 81.0, rel=1e-14)
    # increasing in gamma_C: the leading factor saturates at 1
    vals = [theory_gamma_G(g, 1, 2.0) for g in (0.5, 1.0, 4.0, 1e6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        theory_gamma_G(1.0, 1, 1.0)
    with pytest.raises(ValueError, match="t must be at least 1, got 0.5"):
        theory_gamma_G(1.0, 0.5, 2.0)


def test_theory_mu_bar_values():
    assert theory_mu_bar(1.0, 1, 2.0) == 1024.0
    assert theory_mu_bar(2.0, 1, 2.0) == 512.0
    assert theory_mu_bar(1.0, 2, 2.0) == 16384.0
    with pytest.raises(ValueError):
        theory_mu_bar(0.0, 1, 2.0)


def test_newton_direction_on_toy_matches_oracle_step():
    p = toy(N=8, d=lambda k: 0.5)
    z, lam = random_point(p, seed=8)
    nd = assemble_newton_data(p, z, lam)
    got = solve_full_newton(nd)
    pd, qd, zd = dense_full_newton(nd)
    np.testing.assert_allclose(got.dz, stack_primal(pd, qd), atol=1e-10)
    np.testing.assert_allclose(got.dlam, zd.ravel(), atol=1e-10)
