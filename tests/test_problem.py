import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fotd.benchmarks import (PlateSpec, ToySpec, make_plate_problem,
                             make_toy_problem, toy_case_params)
from fotd.decomposition import make_plan
from fotd.newton import assemble_newton_data
from fotd import problem
from fotd.problem import (DualTrajectory, PenaltyParams, ProblemDef, Trajectory,
                          _merit_terms, atomic_write, eval_constraints,
                          eval_lagrangian_gradient, eval_merit,
                          eval_merit_gradient, eval_objective, kkt_residual,
                          linearize, load_point_csv, save_point_csv,
                          split_primal, stack_primal)
from fotd.schwarz import IntervalChain, truncated_problem

from oracles import (CALLBACKS, central_diff, dense_kkt_system,
                     make_random_lq, newton_solve_to_kkt, random_point,
                     recording, stagewise_linearize, stagewise_merit_terms)


def toy(N=2, C1=8.0, C2=1.0, d=lambda k: 1.0):
    return make_toy_problem(ToySpec(N=N, C1=C1, C2=C2, d=d))


def test_objective_frozen_toy_value():
    p = toy()
    val = eval_objective(p, Trajectory.zeros(p))
    assert val == pytest.approx(2.0 * (2.0 * math.cos(1.0) ** 2 + 7.0), abs=1e-12)


def test_objective_zero_cost_problem():
    p = toy()
    zero = ProblemDef(
        N=2, n_x=1, n_u=1, x0=np.zeros(1),
        stage_cost=lambda k, x, u=None: 0.0,
        cost_gradient=lambda k, x, u=None: (np.zeros(1) if k == 2
                                            else (np.zeros(1), np.zeros(1))),
        cost_hessian=lambda k, x, u=None: (np.zeros((1, 1)) if k == 2 else
                                           (np.zeros((1, 1)), np.zeros((1, 1)),
                                            np.zeros((1, 1)))),
        dynamics=p.dynamics, dynamics_jacobians=p.dynamics_jacobians,
        dynamics_hessian_contraction=p.dynamics_hessian_contraction)
    z, _ = random_point(zero, seed=1)
    assert eval_objective(zero, z) == 0.0


def test_objective_at_dense_oracle_optimum():
    p = toy()
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    direct = sum(p.stage_cost(k, z.x[k], z.u[k]) for k in range(p.N)) \
        + p.stage_cost(p.N, z.x[p.N])
    assert eval_objective(p, z) == pytest.approx(direct, abs=1e-10)


def test_constraints_zero_trajectory():
    p = toy()
    np.testing.assert_allclose(eval_constraints(p, Trajectory.zeros(p)),
                               [0.0, -1.0, -1.0])


def test_constraints_feasible_rollout_is_zero():
    p = toy(N=6)
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, (p.N, 1))
    x = np.zeros((p.N + 1, 1))
    x[0] = p.x0
    for k in range(p.N):
        x[k + 1] = p.dynamics(k, x[k], u[k])
    assert np.all(eval_constraints(p, Trajectory(x, u)) == 0.0)


def test_constraints_match_naive_recomputation():
    p, _ = make_random_lq(5, 2, 1, seed=3)
    z, _ = random_point(p, seed=4, scale=2.0)
    got = eval_constraints(p, z)
    naive = [z.x[0] - p.x0]
    for k in range(p.N):
        naive.append(z.x[k + 1] - p.dynamics(k, z.x[k], z.u[k]))
    np.testing.assert_allclose(got, np.concatenate(naive), atol=1e-12)


def test_lagrangian_gradient_vanishes_at_oracle_kkt_point():
    p = toy(N=5)
    z, lam = newton_solve_to_kkt(p, tol=1e-12)
    gz, gl = eval_lagrangian_gradient(p, z, lam)
    assert np.linalg.norm(gz) <= 1e-8
    assert np.linalg.norm(gl) <= 1e-8


def test_lagrangian_gradient_lq_zero_point():
    p, data = make_random_lq(4, 2, 2, seed=5)
    z, lam = Trajectory.zeros(p), DualTrajectory.zeros(p)
    gz, gl = eval_lagrangian_gradient(p, z, lam)
    np.testing.assert_allclose(gz, stack_primal(data["qx"], data["qu"]), atol=1e-14)
    expect = np.concatenate([-data["x0"], -data["cdyn"].ravel()])
    np.testing.assert_allclose(gl, expect, atol=1e-14)


def test_lagrangian_gradient_matches_finite_differences():
    p = toy(N=3)
    z, lam = random_point(p, seed=6, scale=1.5)

    def lagrangian_of_flat(vec):
        x, u = split_primal(vec, p.N, p.n_x, p.n_u)
        zz = Trajectory(x, u)
        return eval_objective(p, zz) + float(lam.lam.ravel()
                                             @ eval_constraints(p, zz))

    gz, _ = eval_lagrangian_gradient(p, z, lam)
    fd = central_diff(lagrangian_of_flat, stack_primal(z.x, z.u))
    np.testing.assert_allclose(gz, fd, rtol=1e-6, atol=1e-6)


def test_merit_equals_objective_at_kkt_point():
    p = toy(N=5)
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    merit = eval_merit(p, z, lam, PenaltyParams(10.0, 0.1))
    assert merit == pytest.approx(eval_objective(p, z), abs=1e-10)


def test_nonpositive_penalties_rejected():
    with pytest.raises(ValueError):
        PenaltyParams(0.0, 0.0)
    with pytest.raises(ValueError):
        PenaltyParams(1.0, -0.1)


def test_merit_matches_component_recomputation():
    p = toy(N=4)
    z, lam = random_point(p, seed=7, scale=2.0)
    eta = PenaltyParams(10.0, 0.1)
    gz, gl = eval_lagrangian_gradient(p, z, lam)
    expect = (eval_objective(p, z)
              + float(lam.lam.ravel() @ eval_constraints(p, z))
              + 0.5 * eta.eta1 * float(gl @ gl) + 0.5 * eta.eta2 * float(gz @ gz))
    assert eval_merit(p, z, lam, eta) == pytest.approx(expect, abs=1e-12)


def test_merit_gradient_zero_at_kkt_point():
    p = toy(N=5)
    z, lam = newton_solve_to_kkt(p, tol=1e-13)
    mz, ml = eval_merit_gradient(p, z, lam, PenaltyParams(10.0, 0.1))
    assert np.linalg.norm(np.concatenate([mz, ml])) <= 1e-9


def test_merit_gradient_matches_finite_differences():
    p = toy(N=3)
    z, lam = random_point(p, seed=8)
    eta = PenaltyParams(10.0, 0.1)
    n_z = p.n_z

    def merit_of_flat(vec):
        x, u = split_primal(vec[:n_z], p.N, p.n_x, p.n_u)
        return eval_merit(p, Trajectory(x, u),
                          DualTrajectory(vec[n_z:].reshape(p.N + 1, p.n_x)), eta)

    flat = np.concatenate([stack_primal(z.x, z.u), lam.lam.ravel()])
    fd = central_diff(merit_of_flat, flat)
    mz, ml = eval_merit_gradient(p, z, lam, eta)
    got = np.concatenate([mz, ml])
    assert np.linalg.norm(got - fd) <= 1e-5 * (1.0 + np.linalg.norm(got))


def test_merit_gradient_matches_dense_block_product():
    p, _ = make_random_lq(4, 2, 1, seed=9)
    z, lam = random_point(p, seed=10)
    eta = PenaltyParams(3.0, 0.2)
    K, r = dense_kkt_system(p, z, lam)
    nz = p.n_z
    H, G = K[:nz, :nz], K[nz:, :nz]
    gz, gl = r[:nz], r[nz:]
    expect_z = gz + eta.eta2 * H @ gz + eta.eta1 * G.T @ gl
    expect_l = eta.eta2 * G @ gz + gl
    mz, ml = eval_merit_gradient(p, z, lam, eta)
    np.testing.assert_allclose(mz, expect_z, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(ml, expect_l, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("family", ["toy", "plate"])
def test_gradient_consistency_random_points(family):
    if family == "toy":
        p = toy(N=5, C1=8.0, C2=1.0, d=lambda k: math.sin(k))
    else:
        p = make_plate_problem(PlateSpec(m=4, N=20))
    eta = PenaltyParams(10.0, 0.1)
    n_z = p.n_z
    for seed in range(5):
        z, lam = random_point(p, seed=seed, scale=1.0)

        def lagr(vec):
            x, u = split_primal(vec[:n_z], p.N, p.n_x, p.n_u)
            zz = Trajectory(x, u)
            lm = DualTrajectory(vec[n_z:].reshape(p.N + 1, p.n_x))
            return eval_objective(p, zz) + float(lm.lam.ravel()
                                                 @ eval_constraints(p, zz))

        def merit(vec):
            x, u = split_primal(vec[:n_z], p.N, p.n_x, p.n_u)
            return eval_merit(p, Trajectory(x, u),
                              DualTrajectory(vec[n_z:].reshape(p.N + 1, p.n_x)),
                              eta)

        flat = np.concatenate([stack_primal(z.x, z.u), lam.lam.ravel()])
        gz, gl = eval_lagrangian_gradient(p, z, lam)
        got = np.concatenate([gz, gl])
        fd = central_diff(lagr, flat)
        assert np.linalg.norm(got - fd) <= 1e-5 * (1.0 + np.linalg.norm(got))
        mz, ml = eval_merit_gradient(p, z, lam, eta)
        gotm = np.concatenate([mz, ml])
        fdm = central_diff(merit, flat)
        assert np.linalg.norm(gotm - fdm) <= 1e-5 * (1.0 + np.linalg.norm(gotm))


def test_kkt_residual_is_stacked_norm():
    p = toy(N=4)
    z, lam = random_point(p, seed=11)
    gz, gl = eval_lagrangian_gradient(p, z, lam)
    assert kkt_residual(p, z, lam) == pytest.approx(
        np.linalg.norm(np.concatenate([gz, gl])))


@pytest.mark.parametrize("family", ["toy", "plate"])
def test_linearize_matches_dense_kkt_oracle(family):
    if family == "toy":
        p = toy(N=5, d=lambda k: math.sin(k))
    else:
        p = make_plate_problem(PlateSpec(m=4, N=20))
    z, lam = random_point(p, seed=12)
    Q, S, R, A, B, gz, gl = linearize(p, z, lam)
    K, rhs = dense_kkt_system(p, z, lam)
    N, nx, m, nz = p.N, p.n_x, p.n_x + p.n_u, p.n_z
    H = np.zeros((nz, nz))
    G = np.zeros((p.n_c, nz))
    G[:nx, :nx] = np.eye(nx)
    for k in range(N):
        ix, iu = k * m, k * m + nx
        H[ix:ix + m, ix:ix + m] = np.block([[Q[k], S[k].T], [S[k], R[k]]])
        row = (k + 1) * nx
        G[row:row + nx, ix:iu] = -A[k]
        G[row:row + nx, iu:ix + m] = -B[k]
        G[row:row + nx, ix + m:ix + m + nx] = np.eye(nx)
    H[N * m:, N * m:] = Q[N]
    np.testing.assert_array_equal(H, K[:nz, :nz])
    np.testing.assert_array_equal(G, K[nz:, :nz])
    np.testing.assert_array_equal(np.concatenate([gz, gl]), rhs)


def _counting(p: ProblemDef):
    """Copy of ``p`` whose callbacks count their calls into the returned Counter."""
    calls = Counter()

    def counted(name):
        fn = getattr(p, name)

        def callback(*args):
            calls[name] += 1
            return fn(*args)
        return callback

    return replace(p, **{name: counted(name) for name in CALLBACKS}), calls


@pytest.mark.parametrize("evaluate, second_order", [
    (assemble_newton_data, True),
    (lambda p, z, lam: eval_merit_gradient(p, z, lam, PenaltyParams(10.0, 0.1)),
     True),
    (lambda p, z, lam: eval_merit(p, z, lam, PenaltyParams(10.0, 0.1)), False),
], ids=["assemble_newton_data", "eval_merit_gradient", "eval_merit"])
def test_linearization_calls_each_callback_once_per_stage(evaluate,
                                                          second_order):
    p, calls = _counting(toy(N=7))
    z, lam = random_point(p, seed=13)
    evaluate(p, z, lam)
    N = p.N
    first = ({"cost_hessian": N + 1, "dynamics_hessian_contraction": N}
             if second_order else {"stage_cost": N + 1})
    assert calls == {**first, "cost_gradient": N + 1, "dynamics_jacobians": N,
                     "dynamics": N}


@pytest.mark.parametrize("family", ["toy", "plate"])
def test_native_forms_take_one_batched_call_per_callback(family):
    # a silent fallback to the per-stage loop would pass every equality
    # test and lose the batched speed, so count the calls themselves
    if family == "toy":
        p = toy(N=7, d=lambda k: math.sin(k))
    else:
        p = make_plate_problem(PlateSpec(m=4, N=20))
    q, stages, batches = recording(p)
    N, every = p.N, tuple(range(p.N))
    z, lam = random_point(q, seed=13)
    linearize(q, z, lam)
    assert stages == {"cost_hessian": [N], "cost_gradient": [N]}
    assert batches == {name: [every] for name in CALLBACKS if name != "stage_cost"}
    stages.clear()
    batches.clear()
    _merit_terms(q, z, lam)
    assert stages == {"stage_cost": [N], "cost_gradient": [N]}
    assert batches == {name: [every] for name in
                       ("stage_cost", "cost_gradient", "dynamics",
                        "dynamics_jacobians")}
    # replacing one callback drops its batched form and no other
    stages.clear()
    batches.clear()
    swapped = replace(q, dynamics=lambda k, x, u: q.dynamics(k, x, u))
    linearize(swapped, z, lam)
    assert stages == {"cost_hessian": [N], "cost_gradient": [N],
                      "dynamics": list(every)}
    assert "dynamics" not in batches and len(batches) == 4


def _exactness_problems():
    case3 = make_toy_problem(toy_case_params(3, N=30)[0])
    z, lam = random_point(case3, seed=0, scale=3.0)
    one = IntervalChain(case3, make_plan(30, 3, 2), 25.0, z, lam, indices=[1])
    assert one.m1[0] > 0 and one.adjusted[0]
    # a chain whose first junction is adjusted and whose second ends at N
    group = IntervalChain(case3, make_plan(30, 5, 8), 25.0, z, lam,
                          indices=[2, 3, 4])
    return {
        "toy": toy(N=30, d=lambda k: 5.0 * math.sin(k)),
        "toy-c2": make_toy_problem(toy_case_params(2, N=30)[0]),
        "toy-c3": case3,
        "toy-c3-truncated": truncated_problem(one),
        "toy-c3-chained": truncated_problem(group),
        "plate-m4": make_plate_problem(PlateSpec(m=4, N=40)),
        "plate-m6": make_plate_problem(PlateSpec(m=6, N=60)),
        "lq-6-3-2": make_random_lq(6, 3, 2)[0],
    }


@pytest.mark.parametrize("name", list(_exactness_problems()))
@pytest.mark.parametrize("seed", [3, 8])
def test_batched_passes_match_the_stagewise_loops_exactly(name, seed):
    # the horizon-batched arithmetic must reproduce the per-stage loops bit
    # for bit; plate-m6 (n_x = 16) takes BLAS paths that n_x = 1 does not.
    # Toy cases 2 and 3 vary their reference by stage, and the truncated
    # problem offsets its stages, so an index slip shows.  Both the native
    # batched forms and the per-stage loop over the same callbacks (the
    # counting copy has no batched forms) must match.
    native = _exactness_problems()[name]
    z, lam = random_point(native, seed=seed, scale=3.0)
    lin = stagewise_linearize(native, z, lam)
    terms = stagewise_merit_terms(native, z, lam)
    cost = 0.0
    for k in range(native.N):
        cost += float(native.stage_cost(k, z.x[k], z.u[k]))
    cost += float(native.stage_cost(native.N, z.x[native.N]))
    for p in (native, _counting(native)[0]):
        for got, want in zip(linearize(p, z, lam), lin):
            np.testing.assert_array_equal(got, want)
        got = _merit_terms(p, z, lam)
        assert got.lagr == terms.lagr
        np.testing.assert_array_equal(got.gz, terms.gz)
        np.testing.assert_array_equal(got.gl, terms.gl)
        assert eval_objective(p, z) == cost
        np.testing.assert_array_equal(eval_constraints(p, z), terms.gl)


def test_dimension_mismatch_raises():
    p = toy(N=4)
    bad = Trajectory(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        eval_objective(p, bad)
    with pytest.raises(ValueError):
        eval_constraints(p, bad)
    z, lam = Trajectory.zeros(p), DualTrajectory.zeros(p)
    with pytest.raises(ValueError, match=r"controls must have shape \(4, 1\)"):
        eval_objective(p, Trajectory(z.x, np.zeros((3, 1))))
    with pytest.raises(ValueError, match=r"multipliers must have shape \(5, 1\)"):
        kkt_residual(p, z, DualTrajectory(np.zeros((4, 1))))


@pytest.mark.parametrize("change, names", [
    (dict(N=0), "N, n_x, n_u must be positive"),
    (dict(n_x=0), "N, n_x, n_u must be positive"),
    (dict(n_u=-1), "N, n_x, n_u must be positive"),
    (dict(x0=np.zeros(2)), r"x0 must have shape \(1,\), got \(2,\)"),
], ids=["N", "n_x", "n_u", "x0"])
def test_a_problem_definition_checks_its_sizes(change, names):
    with pytest.raises(ValueError, match=names):
        replace(toy(N=4), **change)


def test_primal_stack_split_round_trip():
    rng = np.random.default_rng(12)
    x, u = rng.standard_normal((6, 3)), rng.standard_normal((5, 2))
    vec = stack_primal(x, u)
    x2, u2 = split_primal(vec, 5, 3, 2)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(u, u2)


def test_point_csv_round_trip(tmp_path):
    p, _ = make_random_lq(4, 2, 1, seed=13)
    z, lam = random_point(p, seed=14, scale=3.0)
    path = str(tmp_path / "point.csv")
    save_point_csv(path, p, z, lam)
    header = open(path).readline().strip()
    assert header == "stage,x_0,x_1,u_0,lambda_0,lambda_1"
    z2, lam2 = load_point_csv(path)
    np.testing.assert_array_equal(z.x, z2.x)
    np.testing.assert_array_equal(z.u, z2.u)
    np.testing.assert_array_equal(lam.lam, lam2.lam)


@pytest.mark.parametrize("fault", ["write", "replace"])
def test_a_failed_atomic_write_leaves_the_target_and_no_temporary_file(
        tmp_path, monkeypatch, fault):
    target = tmp_path / "run_0.csv"
    target.write_text("before\n")
    text = "after\n"
    if fault == "write":
        text += "\ud800"  # a lone surrogate, which no codec writes
        error = UnicodeEncodeError
    else:
        def refused(src, dst):
            raise OSError("simulated: replace refused")
        monkeypatch.setattr(problem.os, "replace", refused)
        error = OSError
    with pytest.raises(error):
        atomic_write(str(target), text)
    assert target.read_text() == "before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run_0.csv"]
