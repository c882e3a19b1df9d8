import functools
import math
import re

import numpy as np
import pytest

from fotd.benchmarks import (PlateSpec, ToySpec, _interior_laplacian,
                             make_initializations, make_plate_problem,
                             make_toy_problem, plate_targets, toy_case_d,
                             toy_case_params, toy_reference)
from fotd.driver import SolverConfig, solve
from fotd.newton import assemble_newton_data
from fotd.problem import DualTrajectory, Trajectory, kkt_residual
from fotd.schwarz import schwarz_solve

from oracles import dense_reduced_hessian_eigmin, random_point


def test_case_table_parameters():
    spec1, M1 = toy_case_params(1)
    assert (spec1.N, M1, spec1.C1, spec1.C2) == (5000, 50, 8.0, 1.0)
    assert spec1.d(7) == 1.0
    spec2, M2 = toy_case_params(2)
    assert (spec2.N, M2, spec2.C1, spec2.C2) == (5000, 100, 15.0, 3.0)
    assert spec2.d(3) == pytest.approx(100.0 * math.sin(3) ** 2)
    spec3, M3 = toy_case_params(3)
    assert (spec3.N, M3, spec3.C1, spec3.C2) == (10000, 100, 12.0, 2.0)
    assert spec3.d(3) == pytest.approx(5.0 * math.sin(3))
    with pytest.raises(ValueError):
        toy_case_params(4)
    with pytest.raises(ValueError, match="unknown toy case 4"):
        toy_case_d(4)


@pytest.mark.parametrize("make, names", [
    (lambda: ToySpec(N=1, C1=8.0, C2=1.0, d=lambda k: 1.0),
     "toy horizon must be at least 2, got 1"),
    (lambda: PlateSpec(m=4, N=1), "plate horizon must be at least 2, got 1"),
    (lambda: PlateSpec(m=4, N=10, kappa_c=-1.0), "kappa_c must be nonnegative"),
], ids=["toy-N", "plate-N", "plate-constant"])
def test_specs_refuse_what_no_problem_can_be_built_from(make, names):
    with pytest.raises(ValueError, match=names):
        make()


def test_case_rescaling_overrides():
    spec, M = toy_case_params(2, N=500, M=20)
    assert spec.N == 500 and M == 20
    assert (spec.C1, spec.C2) == (15.0, 3.0)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_target_tables_equal_the_list_built_ones(case):
    spec, _ = toy_case_params(case, N=257)
    want = np.array([float(spec.d(k)) for k in range(spec.N)])
    np.testing.assert_array_equal(toy_reference(spec), want)
    plate = PlateSpec(m=case + 3, N=257,
                      desired=lambda i, t: (i + 1) * math.sin(t + i))
    want = np.array([[plate.desired(i, k * plate.dt)
                      for i in range(plate.n_interior)]
                     for k in range(plate.N)])
    got = plate_targets(plate)
    assert got.shape == (plate.N, plate.n_interior)
    np.testing.assert_array_equal(got, want)


def test_toy_reduced_hessian_lower_bound():
    # margin (C1 - 2 - 4|C2|)/4 = 0.5 for case-1 coefficients
    spec, _ = toy_case_params(1, N=25)
    p = make_toy_problem(spec)
    for seed in range(20):
        z, lam = random_point(p, seed=seed, scale=4.0)
        nd = assemble_newton_data(p, z, lam)
        eig = dense_reduced_hessian_eigmin(nd.Q, nd.S, nd.R, nd.A, nd.B)
        assert eig >= 0.5 - 1e-8


def test_convexity_margin_warning():
    with pytest.warns(UserWarning):
        ToySpec(N=10, C1=4.0, C2=1.0, d=lambda k: 0.0)


def test_plate_paper_dimensions():
    spec = PlateSpec(m=4, N=5000)
    assert spec.n_interior == 4
    p = make_plate_problem(spec)
    assert p.n_x == p.n_u == 4
    assert p.N == 5000
    np.testing.assert_array_equal(p.x0, np.zeros(4))


def test_interior_laplacian_is_the_five_point_stencil():
    # m=4: a 2x2 interior grid, nodes numbered row by row
    stencil = np.array([[-4.0, 1.0, 1.0, 0.0],
                        [1.0, -4.0, 0.0, 1.0],
                        [1.0, 0.0, -4.0, 1.0],
                        [0.0, 1.0, 1.0, -4.0]])
    np.testing.assert_array_equal(_interior_laplacian(4, 0.5), 4.0 * stencil)
    np.testing.assert_array_equal(_interior_laplacian(3, 1.0), [[-4.0]])


def test_plate_zero_target_without_exchange_terms_is_optimal():
    spec = PlateSpec(m=4, N=40, h_c=0.0, eps_c=0.0,
                     desired=lambda node, t: 0.0)
    p = make_plate_problem(spec)
    init = (Trajectory.zeros(p), DualTrajectory.zeros(p))
    assert kkt_residual(p, *init) == 0.0
    report = solve(p, SolverConfig(mu=25.0, M=4, b=2), init, mode="fotd")
    assert report.status == "converged_kkt"
    assert report.iterations == 0


def test_plate_fotd_matches_centralized_small():
    p = make_plate_problem(PlateSpec(m=4, N=50))
    init = (Trajectory.zeros(p), DualTrajectory.zeros(p))
    cfg = SolverConfig(mu=25.0, M=5, b=3, kkt_tol=1e-8, step_tol=1e-14)
    rep_f = solve(p, cfg, init, mode="fotd")
    rep_c = solve(p, cfg, init, mode="centralized")
    assert rep_f.status == rep_c.status == "converged_kkt"
    diff = max(float(np.max(np.abs(rep_f.z.x - rep_c.z.x))),
               float(np.max(np.abs(rep_f.z.u - rep_c.z.u))))
    assert diff <= 1e-6


def test_plate_exchange_terms_vanish_at_ambient_temperature():
    # with the interior held at the ambient temperature, convection and
    # radiation cancel exactly and only the pure diffusion step remains
    spec = PlateSpec(m=4, N=100)
    p = make_plate_problem(spec)
    x = np.full(4, spec.T_c)
    u = np.zeros(4)
    step = np.asarray(p.dynamics(0, x, u)) - u
    from fotd.benchmarks import _interior_laplacian
    L = _interior_laplacian(spec.m, spec.dw)
    np.testing.assert_array_equal(step, x + spec.dt * (L @ x))


def test_plate_stability_warning():
    with pytest.warns(UserWarning):
        make_plate_problem(PlateSpec(m=10, N=10))


def test_initializations_protocol():
    spec, _ = toy_case_params(1, N=30)
    p = make_toy_problem(spec)
    inits = make_initializations(p, 5, seed=42)
    assert len(inits) == 5
    z0, lam0 = inits[0]
    assert np.all(z0.x == 0.0) and np.all(z0.u == 0.0) and np.all(lam0.lam == 0.0)
    for z, lam in inits[1:]:
        np.testing.assert_array_equal(z.x[0], p.x0)
        assert np.max(np.abs(z.x)) <= 1e5 and np.max(np.abs(z.u)) <= 1e5
        assert np.max(np.abs(lam.lam)) <= 1e5
        assert np.max(np.abs(z.u)) > 1e3   # actually spread over the range
    again = make_initializations(p, 5, seed=42)
    for (za, la), (zb, lb) in zip(inits, again):
        np.testing.assert_array_equal(za.x, zb.x)
        np.testing.assert_array_equal(za.u, zb.u)
        np.testing.assert_array_equal(la.lam, lb.lam)
    other = make_initializations(p, 5, seed=43)
    assert not np.array_equal(other[1][0].x, inits[1][0].x)


@functools.lru_cache(maxsize=None)
def _plate_protocol_reports(m, mode):
    """The paper's random-init protocol on the plate at ``m``: N=100, M=10,
    b=5, five inits of seed 0, one solve each in ``mode`` (``schwarz`` runs
    :func:`fotd.schwarz.schwarz_solve`).  m=3 has one state per stage and so
    runs the band kernel; m=4 runs the Riccati kernel."""
    p = make_plate_problem(PlateSpec(m=m, N=100))
    cfg = SolverConfig(M=10, b=5)
    return [schwarz_solve(p, cfg, init) if mode == "schwarz"
            else solve(p, cfg, init, mode=mode)
            for init in make_initializations(p, 5, 0)]


_PLATE_RANDOM_INITS_FAIL = pytest.mark.xfail(strict=True, reason=(
    "from a Uniform(-1e5, 1e5) init the plate at m=3 and m=4 fails the "
    "paper's protocol: fotd raises MuTooSmallError at iteration 0, "
    "centralized raises NonDescentError after 19-39 iterations, and "
    "Schwarz's inner SQP raises NonDescentError at outer iteration 0; "
    "Schwarz's convergence theory is local, so its failure is expected"))


@pytest.mark.parametrize("init", [0] + [
    pytest.param(i, marks=_PLATE_RANDOM_INITS_FAIL) for i in range(1, 5)])
@pytest.mark.parametrize("mode", ["fotd", "centralized", "schwarz"])
@pytest.mark.parametrize("m", [3, 4])
def test_plate_random_init_protocol_converges(m, mode, init):
    assert _plate_protocol_reports(m, mode)[init].converged


@pytest.mark.parametrize("mode", ["fotd", "centralized", "schwarz"])
@pytest.mark.parametrize("m", [3, 4])
def test_plate_random_init_protocol_converges_or_names_the_failure(m, mode):
    for report in _plate_protocol_reports(m, mode):
        if report.converged:
            continue
        assert report.status == "error"
        assert report.error.endswith(f" (iteration {report.iterations})")
        if mode == "fotd":
            assert re.search(r"^subproblem \d+ .* stage \d+ failed \(.*"
                             r"margin -?\d\.\d{3}e[+-]\d+\)", report.error)
        if mode == "schwarz":
            # the subproblem, its interval, and the inner solve's error
            # with its slope and inner iteration, at outer iteration 0
            assert report.iterations == 0
            found = re.search(
                r"^nonlinear subproblem \d+ did not converge: interval "
                r"\[\d+, \d+\] stopped with status=error \(inner solve: "
                r"directional derivative (\S+) is not negative \(iteration "
                r"\d+\)\), residual=\S+ \(iteration 0\)$", report.error)
            assert found and float(found.group(1)) > 0


def test_generated_derivatives_pass_fd_suite():
    # cross-check generator callbacks against finite differences of their
    # own scalar outputs, independently of the solver stack
    from oracles import central_diff
    spec, _ = toy_case_params(3, N=10)
    problems = [make_toy_problem(spec), make_plate_problem(PlateSpec(m=4, N=20))]
    for p in problems:
        rng = np.random.default_rng(1)
        for k in (0, p.N // 2):
            x = rng.uniform(-1, 1, p.n_x)
            u = rng.uniform(-1, 1, p.n_u)
            gx, gu = p.cost_gradient(k, x, u)
            fdx = central_diff(lambda v: p.stage_cost(k, v, u), x)
            fdu = central_diff(lambda v: p.stage_cost(k, x, v), u)
            np.testing.assert_allclose(gx, fdx, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(gu, fdu, rtol=1e-4, atol=1e-6)
            A, B = p.dynamics_jacobians(k, x, u)
            for j in range(p.n_x):
                fdA = central_diff(lambda v: float(p.dynamics(k, v, u)[j]), x)
                np.testing.assert_allclose(A[j], fdA, rtol=1e-4, atol=1e-6)
                fdB = central_diff(lambda v: float(p.dynamics(k, x, v)[j]), u)
                np.testing.assert_allclose(B[j], fdB, rtol=1e-4, atol=1e-6)
        gN = p.cost_gradient(p.N, x)
        fdN = central_diff(lambda v: p.stage_cost(p.N, v), x)
        np.testing.assert_allclose(gN, fdN, rtol=1e-4, atol=1e-6)


def test_generated_contractions_match_fd_of_the_jacobians():
    # the contraction blocks are the Jacobian of -(A^T lam, B^T lam) in
    # (x, u).  The toy's dynamics are linear; the plate's radiation term
    # needs temperatures near ambient and large multipliers to stand out of
    # the finite-difference noise.
    from oracles import central_diff_jacobian
    spec, _ = toy_case_params(3, N=10)
    cases = [(make_toy_problem(spec), 0.0, 1.0, 0.0),
             (make_plate_problem(PlateSpec(m=4, N=20)), 300.0, 1e3, 0.1)]
    for p, x_mid, lam_scale, curvature in cases:
        rng = np.random.default_rng(2)
        nx = p.n_x
        for k in (0, p.N // 2):
            x = x_mid + rng.uniform(-20, 20, nx)
            u = rng.uniform(-1, 1, p.n_u)
            lam = lam_scale * rng.uniform(-1, 1, nx)
            Wxx, Wux, Wuu = p.dynamics_hessian_contraction(k, x, u, lam)
            W = np.block([[Wxx, np.transpose(Wux)], [Wux, Wuu]])

            def lagrangian_gradient(v):
                A, B = p.dynamics_jacobians(k, v[:nx], v[nx:])
                return -np.concatenate([A.T @ lam, B.T @ lam])

            fd = central_diff_jacobian(lagrangian_gradient,
                                       np.concatenate([x, u]))
            np.testing.assert_allclose(W, fd, rtol=1e-6,
                                       atol=1e-9 * (1.0 + np.abs(W).max()))
            assert np.abs(Wxx).max() >= curvature
