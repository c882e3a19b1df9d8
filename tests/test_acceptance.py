"""Acceptance suite: one test per criterion, each printing a PASS line.

The scaled benchmark protocol (three toy cases at N=500, overlap sizes
{1, 5, 25}, terminal penalties {1, 25, 125}, five initializations per cell)
is run once in a module fixture and shared by the criteria that inspect it.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import time

import numpy as np
import pytest

from fotd.benchmarks import (PlateSpec, make_initializations,
                             make_plate_problem, make_toy_problem,
                             toy_case_params)
from fotd.decomposition import (BoundaryVars, approximate_direction,
                                assemble_subproblem, make_plan,
                                solve_subproblem)
from fotd.driver import SolverConfig, solve
from fotd.exceptions import MuTooSmallError
from fotd.newton import (NewtonData, assemble_newton_data,
                         check_reduced_hessian, solve_full_newton)
from fotd.problem import (DualTrajectory, PenaltyParams, Trajectory,
                          eval_lagrangian_gradient, eval_merit,
                          eval_merit_gradient, split_primal, stack_primal)
from fotd.schwarz import one_newton_schwarz_step

from oracles import (central_diff, dense_lq_solve, make_random_lq,
                     random_point)

CASES = {1: 10, 2: 20, 3: 20}           # case -> M at the N=500 scale
OVERLAPS = (1, 5, 25)
PENALTIES = (1.0, 25.0, 125.0)
SEED_BASE = 2023


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def protocol_runs():
    """All solves of the scaled benchmark protocol, keyed by cell and init."""
    t0 = time.perf_counter()
    runs = {}
    for case, M in CASES.items():
        spec, _ = toy_case_params(case, N=500)
        p = make_toy_problem(spec)
        inits = make_initializations(p, 5, seed=SEED_BASE + case)
        for b in OVERLAPS:
            for mu in PENALTIES:
                cfg = SolverConfig(mu=mu, M=M, b=b, workers=1)
                for i, init in enumerate(inits):
                    runs[(case, b, mu, i)] = solve(p, cfg, init, mode="fotd")
    return runs, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        N = int(rng.integers(3, 21))
        nx = int(rng.integers(1, 4))
        nu = int(rng.integers(1, 3))
        p, _ = make_random_lq(N, nx, nu, seed=1000 + trial)
        z, lam = random_point(p, seed=2000 + trial)
        nd = assemble_newton_data(p, z, lam)
        # c = 10 max_k ||H_k||_F + 1 over the stage Hessians and Q_N
        H = [np.block([[nd.Q[k], nd.S[k].T], [nd.S[k], nd.R[k]]])
             for k in range(N)] + [nd.Q[N]]
        c = 10.0 * max(np.linalg.norm(h, "fro") for h in H) + 1.0
        assert check_reduced_hessian(nd, c)

        got = solve_full_newton(nd)
        pd, qd, zd = dense_lq_solve(nd.Q, nd.S, nd.R, nd.A, nd.B, nd.gx,
                                    nd.gu, -nd.glam[0], -nd.glam[1:])
        ref = np.concatenate([stack_primal(pd, qd), zd.ravel()])
        err = np.linalg.norm(np.concatenate([got.dz, got.dlam]) - ref)
        rel = err / (1.0 + np.linalg.norm(ref))
        worst = max(worst, rel)
        assert rel <= 1e-10

        # one random decomposed subproblem with nonzero boundary values;
        # the overlap is kept below N/2 so the first interval stays interior
        if N >= 4 and N % 2 == 0:
            plan = make_plan(N, 2, int(rng.integers(1, max(2, N // 2 - 1))))
            d = BoundaryVars(rng.standard_normal(nx), rng.standard_normal(nx),
                             rng.standard_normal(nu), rng.standard_normal(nx))
            sub = assemble_subproblem(nd, plan, 0, float(rng.uniform(1, 30)), d)
            try:
                sol = solve_subproblem(sub)
            except MuTooSmallError:
                continue
            pd, qd, zd = dense_lq_solve(*sub.lq)
            num = np.sqrt(np.sum((sol.p - pd) ** 2) + np.sum((sol.q - qd) ** 2)
                          + np.sum((sol.zeta - zd) ** 2))
            den = 1.0 + np.sqrt(np.sum(pd ** 2) + np.sum(qd ** 2)
                                + np.sum(zd ** 2))
            rel = num / den
            worst = max(worst, rel)
            assert rel <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"50 instances, worst relative error {worst:.2e} "
               f"(tol 1e-10), {elapsed:.2f}s")


def test_criterion_2_one_newton_step_equivalence():
    t0 = time.perf_counter()
    spec, _ = toy_case_params(1, N=100)
    p = make_toy_problem(spec)
    mu, worst = 25.0, 0.0
    for b in (1, 5):
        plan = make_plan(100, 5, b)
        for seed in range(10):
            z, lam = random_point(p, seed=100 + seed, scale=2.0)
            z.x[0] = p.x0
            nd = assemble_newton_data(p, z, lam)        # no modification
            assert nd.gamma_applied == 0.0
            d = approximate_direction(nd, plan, mu)
            dx, du, dl = d.stage_arrays(100, 1, 1)
            zs, ls = one_newton_schwarz_step(p, z, lam, plan, mu)
            diff = max(float(np.max(np.abs(zs.x - (z.x + dx)))),
                       float(np.max(np.abs(zs.u - (z.u + du)))),
                       float(np.max(np.abs(ls.lam - (lam.lam + dl)))))
            worst = max(worst, diff)
            assert diff <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"20 iterate/overlap pairs, worst inf-norm gap {worst:.2e} "
               f"(tol 1e-9), {elapsed:.2f}s")


def test_criterion_3_direction_error_decay():
    t0 = time.perf_counter()
    spec, _ = toy_case_params(1, N=200)
    p = make_toy_problem(spec)
    z, lam = random_point(p, seed=11, scale=2.0)
    z.x[0] = p.x0
    nd = assemble_newton_data(p, z, lam)
    exact = solve_full_newton(nd)
    overlaps = (1, 2, 4, 8)
    ratios = []
    for b in overlaps:
        approx = approximate_direction(nd, make_plan(200, 10, b), 25.0)
        err = np.linalg.norm(np.concatenate([approx.dz - exact.dz,
                                             approx.dlam - exact.dlam]))
        ratios.append(err / exact.norm())
    assert all(later < earlier for earlier, later in zip(ratios, ratios[1:]))
    slope = float(np.polyfit(overlaps, np.log(ratios), 1)[0])
    assert slope < 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, "ratios " + ", ".join(f"{r:.2e}" for r in ratios)
               + f" strictly decreasing; log-slope {slope:.3f} < 0, "
               f"{elapsed:.2f}s")


def test_criterion_4_descent_inequality_never_violated(protocol_runs):
    runs, _ = protocol_runs
    total = sum(rep.descent_violations for rep in runs.values())
    errors = [key for key, rep in runs.items() if rep.status == "error"]
    assert errors == []
    assert total == 0
    _report(4, f"0 descent-inequality violations across {len(runs)} solves "
               "with eta = (10, 0.1)")


def test_criterion_5_scaled_protocol_converges(protocol_runs):
    runs, elapsed = protocol_runs
    assert len(runs) == 27 * 5
    failed = [key for key, rep in runs.items() if not rep.converged]
    assert failed == []
    max_iters = max(rep.iterations for rep in runs.values())
    assert max_iters <= 40
    assert elapsed < 300.0
    _report(5, f"135/135 runs converged (max {max_iters} iterations), "
               f"single-threaded wall time {elapsed:.0f}s < 300s")


def test_criterion_6_unit_stepsize_tail(protocol_runs):
    runs, _ = protocol_runs
    checked = 0
    for key, rep in runs.items():
        assert rep.converged
        for rec in rep.records:
            if rec.stepsize is not None and rec.kkt_residual < 1e-2:
                checked += 1
                assert rec.stepsize == 1.0, (key, rec.iteration,
                                             rec.kkt_residual, rec.stepsize)
    _report(6, f"unit stepsize at all {checked} tail iterations "
               "(residual below 1e-2)")


def test_criterion_7_linear_rate_ordering(protocol_runs):
    runs, _ = protocol_runs

    def tail_geomean(rep):
        rs = [rec.kkt_residual for rec in rep.records]
        i0 = next(i for i, v in enumerate(rs) if v < 1e-2)
        start = min(i0, len(rs) - 2)
        ratios = [rs[i + 1] / rs[i] for i in range(start, len(rs) - 1)]
        assert all(r < 1.0 for r in ratios)
        return float(np.exp(np.mean(np.log(ratios))))

    lines = []
    for mu in PENALTIES:
        gs = [tail_geomean(runs[(3, b, mu, 0)]) for b in OVERLAPS]
        assert gs[2] <= gs[0]                       # the stated ordering
        assert gs[0] >= gs[1] >= gs[2]              # monotone over the triple
        lines.append(f"mu={mu:g}: " + " >= ".join(f"{g:.2e}" for g in gs))
    _report(7, "case-3 tail contraction decreasing over b in (1, 5, 25) -- "
               + "; ".join(lines))


def test_criterion_8_degenerate_penalty_example():
    ones = np.ones((2, 1, 1))
    nd = NewtonData(
        N=2, n_x=1, n_u=1,
        Q=np.array([[[1.0]], [[-2.0]], [[3.0]]]),
        S=np.zeros((2, 1, 1)),
        R=np.array([[[1.0]], [[2.0]]]),
        A=ones.copy(), B=ones.copy(),
        gx=np.zeros((3, 1)), gu=np.zeros((2, 1)), glam=np.zeros((3, 1)),
    )
    plan = make_plan(2, b=0, knots=[0, 1, 2])
    sol = solve_subproblem(assemble_subproblem(nd, plan, 0, 2.0))
    assert np.all(sol.p == 0.0) and np.all(sol.q == 0.0)
    with pytest.raises(MuTooSmallError):
        solve_subproblem(assemble_subproblem(nd, plan, 0, 0.5))
    _report(8, "truncated indefinite subproblem: definite at mu=2 with the "
               "exact zero solution, rejected at mu=0.5")


def test_criterion_9_thin_plate_desk_scale():
    t0 = time.perf_counter()
    p = make_plate_problem(PlateSpec(m=4, N=500))
    init = (Trajectory.zeros(p), DualTrajectory.zeros(p))
    cfg = SolverConfig(mu=25.0, M=10, b=5, kkt_tol=1e-5, step_tol=1e-12)
    rep = solve(p, cfg, init, mode="fotd")
    rep_c = solve(p, cfg, init, mode="centralized")
    assert rep.status == "converged_kkt"
    assert rep.final_kkt <= 1e-5
    diff = max(float(np.max(np.abs(rep.z.x - rep_c.z.x))),
               float(np.max(np.abs(rep.z.u - rep_c.z.u))),
               float(np.max(np.abs(rep.lam.lam - rep_c.lam.lam))))
    assert diff <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(9, f"plate run reached residual {rep.final_kkt:.2e} <= 1e-5; "
               f"inf-norm gap to the centralized iterate {diff:.2e} <= 1e-4, "
               f"{elapsed:.1f}s")


def test_criterion_10_worker_count_determinism(tmp_path):
    from fotd.cli import main
    cfg_text = """
problem: {type: toy, case: 1, N: 500}
solver: {mode: fotd, mu: 25.0, M: 10, b: 5}
run: {inits: 1, seed: 0, out_dir: '%s'}
"""
    outs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        path = tmp_path / f"w{workers}.yaml"
        path.write_text(cfg_text % out)
        rc = main(["solve", "--config", str(path), "--workers", str(workers),
                   "--no-timing"])
        assert rc == 0
        outs.append((out / "run_0.csv").read_bytes())
    assert outs[0] == outs[1]
    _report(10, f"bit-identical convergence CSV ({len(outs[0])} bytes) with "
                "1 and 4 worker threads")


def test_criterion_11_derivative_suite():
    eta = PenaltyParams(10.0, 0.1)
    spec, _ = toy_case_params(2, N=6)
    problems = [("toy", make_toy_problem(spec)),
                ("plate", make_plate_problem(PlateSpec(m=4, N=20)))]
    worst = 0.0
    for name, p in problems:
        n_z = p.n_z
        for seed in range(3):
            z, lam = random_point(p, seed=seed)

            def lagr(vec):
                x, u = split_primal(vec[:n_z], p.N, p.n_x, p.n_u)
                zz = Trajectory(x, u)
                lm = DualTrajectory(vec[n_z:].reshape(p.N + 1, p.n_x))
                from fotd.problem import eval_constraints, eval_objective
                return eval_objective(p, zz) + float(
                    lm.lam.ravel() @ eval_constraints(p, zz))

            def merit(vec):
                x, u = split_primal(vec[:n_z], p.N, p.n_x, p.n_u)
                return eval_merit(p, Trajectory(x, u),
                                  DualTrajectory(vec[n_z:].reshape(p.N + 1,
                                                                   p.n_x)),
                                  eta)

            flat = np.concatenate([stack_primal(z.x, z.u), lam.lam.ravel()])
            gz, gl = eval_lagrangian_gradient(p, z, lam)
            got = np.concatenate([gz, gl])
            rel = np.linalg.norm(got - central_diff(lagr, flat)) \
                / (1.0 + np.linalg.norm(got))
            worst = max(worst, rel)
            assert rel <= 1e-5
            mz, ml = eval_merit_gradient(p, z, lam, eta)
            gotm = np.concatenate([mz, ml])
            rel = np.linalg.norm(gotm - central_diff(merit, flat)) \
                / (1.0 + np.linalg.norm(gotm))
            worst = max(worst, rel)
            assert rel <= 1e-5

            # Hessian blocks against differentiated stage gradients
            nd = assemble_newton_data(p, z, lam)
            m = p.n_x + p.n_u

            def grad_flat(vec):
                x, u = split_primal(vec, p.N, p.n_x, p.n_u)
                return eval_lagrangian_gradient(p, Trajectory(x, u), lam)[0]

            base = stack_primal(z.x, z.u)
            for k in (0, p.N // 2):
                blk = np.block([[nd.Q[k], nd.S[k].T], [nd.S[k], nd.R[k]]])
                for j in range(m):
                    e = np.zeros_like(base)
                    e[k * m + j] = 1e-5
                    col = (grad_flat(base + e) - grad_flat(base - e)) / 2e-5
                    rel = np.linalg.norm(blk[:, j] - col[k * m:(k + 1) * m]) \
                        / (1.0 + np.linalg.norm(blk[:, j]))
                    worst = max(worst, rel)
                    assert rel <= 1e-4
    _report(11, f"gradients and Hessian blocks match central differences on "
                f"both families, worst relative error {worst:.2e}")
