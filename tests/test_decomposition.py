import numpy as np
import pytest

from fotd.benchmarks import (ToySpec, make_initializations, make_toy_problem,
                             toy_case_params)
from fotd import banded, decomposition
from fotd.banded import stage_windows
from fotd.decomposition import (RICCATI_MIN_NX, BoundaryVars,
                                approximate_direction,
                                assemble_subproblem, compose, decompose,
                                make_plan, solve_subproblem)
from fotd.driver import SolverConfig, solve
from fotd.exceptions import (MuTooSmallError, SingularKKTError,
                             SingularStageError)
from fotd.newton import (NewtonData, assemble_newton_data,
                         default_definiteness_constant, solve_full_newton)
from fotd.problem import DualTrajectory, Trajectory, stack_primal
from oracles import (definiteness_pivot, dense_lq_solve, make_random_lq,
                     random_point, reference_band_direction,
                     riccati_stage_pivot, singular_gain_block,
                     singular_lu_block, subproblem_kkt_residual)


def toy_nd(N=20, seed=0, scale=2.0):
    p = make_toy_problem(ToySpec(N=N, C1=8.0, C2=1.0, d=lambda k: 1.0))
    z, lam = random_point(p, seed=seed, scale=scale)
    z.x[0] = p.x0
    return p, assemble_newton_data(p, z, lam)


def remark1_nd():
    ones = np.ones((2, 1, 1))
    return NewtonData(
        N=2, n_x=1, n_u=1,
        Q=np.array([[[1.0]], [[-2.0]], [[3.0]]]),
        S=np.zeros((2, 1, 1)),
        R=np.array([[[1.0]], [[2.0]]]),
        A=ones.copy(), B=ones.copy(),
        gx=np.zeros((3, 1)), gu=np.zeros((2, 1)), glam=np.zeros((3, 1)),
    )


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def test_plan_standard_long_horizon():
    plan = make_plan(5000, 50, 25)
    assert plan.knots == tuple(100 * i for i in range(51))
    for i in range(50):
        assert plan.m1[i] == max(100 * i - 25, 0)
        assert plan.m2[i] == min(100 * (i + 1) + 25, 5000)


def test_plan_small_even():
    plan = make_plan(4, 2, 1)
    assert plan.knots == (0, 2, 4)
    assert plan.m1 == (0, 1)
    assert plan.m2 == (3, 4)


def test_plan_clipping():
    plan = make_plan(6, 3, 5)
    assert plan.m1 == (0, 0, 0)
    assert plan.m2 == (6, 6, 6)


def test_plan_invalid_arguments():
    with pytest.raises(ValueError):
        make_plan(4, 8, 1)          # M > N
    with pytest.raises(ValueError):
        make_plan(4, 2, 4)          # b >= N
    with pytest.raises(ValueError):
        make_plan(10, 3, 1)         # M does not divide N
    with pytest.raises(ValueError):
        make_plan(4, None, 1)       # neither M nor knots
    with pytest.raises(ValueError):
        make_plan(4, b=1, knots=[0, 3, 5])   # does not end at N
    with pytest.raises(ValueError):
        make_plan(4, b=1, knots=[0, 2, 2, 4])
    with pytest.raises(ValueError, match="overlap b must be at least 1"):
        make_plan(4, 2, 0)          # even knots without overlap
    with pytest.raises(ValueError, match="overlap b must be nonnegative"):
        make_plan(4, b=-1, knots=[0, 2, 4])


def test_a_negative_mu_is_refused():
    p = make_toy_problem(ToySpec(N=8, C1=8.0, C2=1.0, d=lambda k: 1.0))
    nd = assemble_newton_data(p, Trajectory.zeros(p), DualTrajectory.zeros(p))
    with pytest.raises(ValueError, match="mu must be nonnegative, got -1.0"):
        approximate_direction(nd, make_plan(8, 2, 1), mu=-1.0)


def test_plan_explicit_uneven_knots():
    plan = make_plan(10, b=2, knots=[0, 3, 10])
    assert plan.M == 2
    assert plan.m1 == (0, 1)
    assert plan.m2 == (5, 10)


def test_plan_exclusive_intervals_partition():
    plan = make_plan(12, 4, 2)
    covered = []
    for i in range(plan.M):
        covered.extend(range(plan.knots[i], plan.knots[i + 1]))
    assert covered == list(range(12))


# ---------------------------------------------------------------------------
# Decompose / compose
# ---------------------------------------------------------------------------

def test_decompose_slices_and_overlap_membership():
    plan = make_plan(4, 2, 1)
    x = np.arange(5.0).reshape(5, 1)
    u = 10.0 + np.arange(4.0).reshape(4, 1)
    lam = -np.arange(5.0).reshape(5, 1)
    parts = decompose(x, u, lam, plan)
    np.testing.assert_array_equal(parts[0][0].ravel(), [0, 1, 2, 3])
    np.testing.assert_array_equal(parts[1][0].ravel(), [1, 2, 3, 4])
    # the knot stage belongs to both extended intervals
    assert parts[0][0][2, 0] == parts[1][0][1, 0] == 2.0


def test_compose_decompose_round_trip():
    for plan in (make_plan(12, 3, 2), make_plan(12, 4, 5),
                 make_plan(12, b=1, knots=[0, 5, 7, 12])):
        rng = np.random.default_rng(plan.M)
        x, u = rng.standard_normal((13, 2)), rng.standard_normal((12, 1))
        lam = rng.standard_normal((13, 2))
        xc, uc, lc = compose(decompose(x, u, lam, plan), plan)
        np.testing.assert_array_equal(x, xc)
        np.testing.assert_array_equal(u, uc)
        np.testing.assert_array_equal(lam, lc)


def test_compose_takes_exclusive_stages():
    plan = make_plan(4, 2, 1)
    parts = [(np.full((4, 1), 10.0), np.full((3, 1), 10.0), np.full((4, 1), 10.0)),
             (np.full((4, 1), 20.0), np.full((3, 1), 20.0), np.full((4, 1), 20.0))]
    x, u, lam = compose(parts, plan)
    np.testing.assert_array_equal(x.ravel(), [10, 10, 20, 20, 20])
    np.testing.assert_array_equal(u.ravel(), [10, 10, 20, 20])
    np.testing.assert_array_equal(lam.ravel(), [10, 10, 20, 20, 20])


def test_compose_overlap_disagreement_is_discarded():
    plan = make_plan(4, 2, 1)
    rng = np.random.default_rng(3)
    base = decompose(rng.standard_normal((5, 1)), rng.standard_normal((4, 1)),
                     rng.standard_normal((5, 1)), plan)
    x0, u0, l0 = compose(base, plan)
    noisy = [(xi.copy(), ui.copy(), li.copy()) for xi, ui, li in base]
    noisy[0][0][-1] += 99.0   # stage 3 of part 0 is overlap-only
    noisy[1][0][0] += 99.0    # stage 1 of part 1 is overlap-only
    x1, u1, l1 = compose(noisy, plan)
    np.testing.assert_array_equal(x0, x1)


def test_compose_missing_part_raises():
    plan = make_plan(4, 2, 1)
    with pytest.raises(ValueError):
        compose([(np.zeros((4, 1)), np.zeros((3, 1)), np.zeros((4, 1)))], plan)
    # a multiplier part of the wrong length is refused like a state part,
    # not broadcast over the exclusive range or cut to it
    plan = make_plan(12, 3, 2)
    rng = np.random.default_rng(0)
    x, u, lam = (rng.standard_normal((n, 1)) for n in (13, 12, 13))
    parts = decompose(x, u, lam, plan)
    for i, li in ((0, parts[0][2][:1]), (1, parts[1][2][:3]),
                  (2, np.concatenate([parts[2][2]] * 2))):
        bad = list(parts)
        bad[i] = (parts[i][0], parts[i][1], li)
        with pytest.raises(ValueError, match=f"part {i} does not match"):
            compose(bad, plan)
    for got, want in zip(compose(parts, plan), (x, u, lam)):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# Subproblems
# ---------------------------------------------------------------------------

def test_remark1_subproblem_definite_iff_mu_large(monkeypatch):
    nd = remark1_nd()
    plan = make_plan(2, b=0, knots=[0, 1, 2])
    sub2 = assemble_subproblem(nd, plan, 0, 2.0)
    # penalty cancels the indefinite terminal block: diag(1, 1, 0)
    assert sub2.lq.Q[1][0, 0] == 0.0
    sol = solve_subproblem(sub2)
    np.testing.assert_array_equal(sol.p, np.zeros((2, 1)))
    np.testing.assert_array_equal(sol.q, np.zeros((1, 1)))
    np.testing.assert_array_equal(sol.zeta, np.zeros((2, 1)))
    sub = assemble_subproblem(nd, plan, 0, 0.5)
    factor, calls = banded.dpbtrf, []
    monkeypatch.setattr(banded, "dpbtrf",
                        lambda *a, **k: calls.append(1) or factor(*a, **k))
    with pytest.raises(MuTooSmallError) as err:
        solve_subproblem(sub)
    assert err.value.index == 0
    assert len(calls) == 1  # the failed test factors its band once
    # the H + c G^T G Cholesky breaks down in the terminal block's column,
    # at the pivot the dense textbook factorization finds there
    stage, pivot = definiteness_pivot(*sub.lq[:5],
                                      default_definiteness_constant(sub.lq))
    assert err.value.stage == stage == 1
    assert err.value.margin == pytest.approx(pivot - banded.PIVOT_TOL, rel=1e-9)


def test_a_subproblem_constant_must_be_positive_and_finite():
    # c <= 0 once tested H alone; now no value outside (0, inf) is taken.
    nd = remark1_nd()
    plan = make_plan(2, b=0, knots=[0, 1, 2])
    sub = assemble_subproblem(nd, plan, 0, 2.0)
    for c in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            solve_subproblem(sub, c)
    solve_subproblem(sub, default_definiteness_constant(sub.lq))


def wide(nd, width):
    """``nd`` with every block lifted to ``width`` decoupled copies of itself."""
    eye = np.eye(width)

    def lift(blocks):
        return np.stack([np.kron(blk, eye) for blk in blocks])

    return NewtonData(
        N=nd.N, n_x=nd.n_x * width, n_u=nd.n_u * width,
        Q=lift(nd.Q), S=lift(nd.S), R=lift(nd.R), A=lift(nd.A), B=lift(nd.B),
        gx=np.repeat(nd.gx, width, axis=1), gu=np.repeat(nd.gu, width, axis=1),
        glam=np.repeat(nd.glam, width, axis=1))


def test_remark1_on_wide_blocks_takes_the_riccati_path():
    nd = wide(remark1_nd(), RICCATI_MIN_NX)
    assert nd.n_x >= RICCATI_MIN_NX
    plan = make_plan(2, b=0, knots=[0, 1, 2])
    direction = approximate_direction(nd, plan, 2.0)
    assert np.all(direction.dz == 0.0) and np.all(direction.dlam == 0.0)
    with pytest.raises(MuTooSmallError) as err:
        approximate_direction(nd, plan, 0.5)
    # R_0 + B^T (Q_1 + mu) B = 1 - 1.5 breaks the Cholesky of stage 0 at
    # its first pivot, -0.5, which gives the margin.
    assert (err.value.index, err.value.stage, err.value.margin) == (
        0, 0, -0.5 - banded.PIVOT_TOL)
    assert "stage 0 failed (pivot margin -5.000e-01)" in str(err.value)


def test_last_subproblem_restores_terminal_block():
    p, nd = toy_nd(N=8)
    plan = make_plan(8, 2, 2)
    sub = assemble_subproblem(nd, plan, 1, 25.0)
    assert sub.m2 == 8
    np.testing.assert_array_equal(sub.lq.Q[-1], nd.Q[8])      # no mu shift
    np.testing.assert_array_equal(sub.lq.gx[-1], nd.gx[8])
    with pytest.raises(ValueError):
        assemble_subproblem(nd, plan, 1, 25.0,
                            BoundaryVars(*np.zeros((4, 1))))
    # Short of N the terminal values are required, and d1 must be a state.
    assert plan.m2[0] < 8
    with pytest.raises(ValueError, match=r"needs \['d2', 'd3', 'd4'\]"):
        assemble_subproblem(nd, plan, 0, 25.0, BoundaryVars(np.zeros(1)))
    with pytest.raises(ValueError, match=r"needs \['d3'\]"):
        assemble_subproblem(nd, plan, 0, 25.0, BoundaryVars(
            np.zeros(1), np.zeros(1), None, np.zeros(1)))
    with pytest.raises(ValueError, match=r"d1 must have shape \(1,\)"):
        assemble_subproblem(nd, plan, 1, 25.0, BoundaryVars(np.zeros(2)))
    # Every terminal value is checked against its own shape, so none is
    # broadcast into the terminal gradient or fails inside numpy's matmul.
    rand, _ = make_random_lq(20, 2, 1, seed=11)
    nd = assemble_newton_data(rand, *random_point(rand, seed=1))
    plan = make_plan(20, 4, 2)
    good = dict(d1=np.zeros(2), d2=np.zeros(2), d3=np.zeros(1), d4=np.zeros(2))
    assemble_subproblem(nd, plan, 1, 25.0, BoundaryVars(**good))
    for key, bad, shape in (("d2", np.float64(1.0), r"\(2,\), got \(\)"),
                            ("d3", np.zeros(2), r"\(1,\), got \(2,\)"),
                            ("d4", np.zeros(1), r"\(2,\), got \(1,\)"),
                            ("d2", np.zeros(3), r"\(2,\), got \(3,\)")):
        with pytest.raises(ValueError, match=f"{key} must have shape {shape}"):
            assemble_subproblem(nd, plan, 1, 25.0,
                                BoundaryVars(**{**good, key: bad}))


def test_exact_boundaries_reproduce_truncated_direction():
    # The toy's A and S are constant, so only the random problem tells stage
    # m2's blocks, which the terminal boundary terms use, from stage m2 - 1's.
    rand, _ = make_random_lq(20, 2, 1, seed=11)
    z, lam = random_point(rand, seed=12)
    for p, nd in (toy_nd(N=20, seed=4),
                  (rand, assemble_newton_data(rand, z, lam))):
        plan = make_plan(20, 4, 2)
        exact = solve_full_newton(nd)
        dx, du, dl = exact.stage_arrays(20, p.n_x, p.n_u)
        for i in range(plan.M):
            m1, m2 = plan.m1[i], plan.m2[i]
            if m2 == plan.N:
                d = BoundaryVars(dx[m1].copy())
            else:
                d = BoundaryVars(dx[m1].copy(), dx[m2].copy(), du[m2].copy(),
                                 dl[m2 + 1].copy())
            sol = solve_subproblem(assemble_subproblem(nd, plan, i, 25.0, d))
            np.testing.assert_allclose(sol.p, dx[m1:m2 + 1], atol=1e-8)
            np.testing.assert_allclose(sol.q, du[m1:m2], atol=1e-8)
            np.testing.assert_allclose(sol.zeta, dl[m1:m2 + 1], atol=1e-8)


def test_subproblem_solution_matches_dense_and_residual():
    p, _ = make_random_lq(10, 2, 1, seed=5)
    z, lam = random_point(p, seed=6)
    nd = assemble_newton_data(p, z, lam)
    plan = make_plan(10, 2, 2)
    rng = np.random.default_rng(7)
    d = BoundaryVars(rng.standard_normal(2), rng.standard_normal(2),
                     rng.standard_normal(1), rng.standard_normal(2))
    sub = assemble_subproblem(nd, plan, 0, 3.0, d)
    sol = solve_subproblem(sub)
    lq = sub.lq
    rhs = 1.0 + np.sqrt(np.sum(lq.gx ** 2) + np.sum(lq.gu ** 2)
                        + np.sum(lq.c0 ** 2) + np.sum(lq.cdyn ** 2))
    assert subproblem_kkt_residual(sub, sol) <= 1e-9 * rhs
    pd, qd, zd = dense_lq_solve(*lq)
    np.testing.assert_allclose(sol.p, pd, atol=1e-10)
    np.testing.assert_allclose(sol.q, qd, atol=1e-10)
    np.testing.assert_allclose(sol.zeta, zd, atol=1e-10)


def boundary_problems():
    """(name, NewtonData) of toy case 1 and of a random LQ with three states."""
    spec, _ = toy_case_params(1, N=60)
    toy = make_toy_problem(spec)
    rand, _ = make_random_lq(60, 3, 2, seed=23)
    return [("toy1", assemble_newton_data(toy, *make_initializations(toy, 2,
                                                                     seed=1)[1])),
            ("lq3", assemble_newton_data(rand, *random_point(rand, seed=24)))]


@pytest.mark.parametrize("i", [0, 2, 3])  # the last interval reaches N
def test_a_subproblem_with_boundary_values_solves_as_its_own_lq(i):
    rng = np.random.default_rng(25)
    plan = make_plan(60, 4, 3)
    for name, nd in boundary_problems():
        m2, nx = plan.m2[i], nd.n_x
        if m2 < plan.N:
            d = BoundaryVars(*(rng.standard_normal(n)
                               for n in (nx, nx, nd.n_u, nx)))
            want = nd.gx[m2] - nd.A[m2].T @ d.d4 + nd.S[m2].T @ d.d3 - 25.0 * d.d2
        else:
            d, want = BoundaryVars(rng.standard_normal(nx)), nd.gx[m2]
        sub = assemble_subproblem(nd, plan, i, 25.0, d)
        lq = sub.lq
        assert lq.gx[-1].tobytes() == want.tobytes(), name
        bands = sub.bands
        stored = (bands.kkt, bands.gtg, bands.hess, bands.stages)
        before = [a.tobytes() for a in stored]
        c = default_definiteness_constant(lq)
        once, twice = solve_subproblem(sub, c), solve_subproblem(sub, c)
        # The window solves byte for byte as the subproblem's own LQ data,
        # and a solve leaves the bands as it found them.
        for a, b, own in zip((once.p, once.q, once.zeta),
                             (twice.p, twice.q, twice.zeta),
                             banded.solve_lq_kkt(*lq)):
            assert a.tobytes() == b.tobytes() == own.tobytes(), name
        assert [a.tobytes() for a in stored] == before, name


def test_single_interval_equals_full_newton():
    p, nd = toy_nd(N=12, seed=8)
    plan = make_plan(12, 1, 3)
    full = solve_full_newton(nd)
    approx = approximate_direction(nd, plan, 25.0)
    np.testing.assert_array_equal(approx.dz, full.dz)
    np.testing.assert_array_equal(approx.dlam, full.dlam)


def test_full_overlap_clip_equals_full_newton():
    p, nd = toy_nd(N=12, seed=9)
    plan = make_plan(12, 4, 11)   # every interval clips to [0, 12]
    full = solve_full_newton(nd)
    approx = approximate_direction(nd, plan, 25.0)
    num = np.linalg.norm(np.concatenate([approx.dz - full.dz,
                                         approx.dlam - full.dlam]))
    assert num <= 1e-9 * (1.0 + full.norm())


def test_direction_error_strictly_decreasing_in_overlap():
    p, nd = toy_nd(N=200, seed=10)
    full = solve_full_newton(nd)
    denom = full.norm()
    ratios = []
    for b in (1, 2, 4, 8):
        approx = approximate_direction(nd, make_plan(200, 10, b), 25.0)
        ratios.append(np.linalg.norm(np.concatenate(
            [approx.dz - full.dz, approx.dlam - full.dlam])) / denom)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("family", ["case1", "case2", "case3", "plate"])
def test_decay_with_negative_slope_on_every_benchmark(family):
    from fotd.benchmarks import PlateSpec, make_plate_problem, toy_case_params
    if family == "plate":
        p = make_plate_problem(PlateSpec(m=4, N=60))
    else:
        spec, _ = toy_case_params(int(family[-1]), N=60)
        p = make_toy_problem(spec)
    z, lam = random_point(p, seed=len(family), scale=1.0)
    z.x[0] = p.x0
    nd = assemble_newton_data(p, z, lam)
    full = solve_full_newton(nd)
    overlaps = (1, 2, 4)
    ratios = []
    for b in overlaps:
        approx = approximate_direction(nd, make_plan(60, 3, b), 25.0)
        ratios.append(np.linalg.norm(np.concatenate(
            [approx.dz - full.dz, approx.dlam - full.dlam])) / full.norm())
    logs = np.log(ratios)
    assert all(later < earlier for earlier, later in zip(logs, logs[1:]))
    assert np.polyfit(overlaps, logs, 1)[0] < 0.0


def test_initial_stage_of_direction_is_pinned():
    p, nd = toy_nd(N=12, seed=11)   # iterate already has x_0 = x0bar
    approx = approximate_direction(nd, make_plan(12, 3, 2), 25.0)
    assert abs(approx.dz[0]) <= 1e-12 * (1.0 + approx.norm())


def test_riccati_direction_matches_band_subproblems_on_the_plate():
    from fotd.benchmarks import PlateSpec, make_plate_problem
    p = make_plate_problem(PlateSpec(m=6, N=60))
    assert p.n_x >= RICCATI_MIN_NX
    z, lam = random_point(p, seed=3, scale=0.1)
    z.x[0] = p.x0
    nd = assemble_newton_data(p, z, lam)
    plan = make_plan(60, 4, 3)  # subproblems of 18 and 21 stages
    got = approximate_direction(nd, plan, 25.0)
    sols = [solve_subproblem(assemble_subproblem(nd, plan, i, 25.0))
            for i in range(plan.M)]
    dx, du, dlam = compose([(s.p, s.q, s.zeta) for s in sols], plan)
    for a, b in ((got.dz, stack_primal(dx, du)),
                 (got.dlam, dlam.ravel())):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def lengths(plan):
    return [b - a for a, b in zip(plan.m1, plan.m2)]


def zero_boundary_windows(nd, plan, indices, mu=25.0):
    """solve_lq_windows' arguments for subproblems ``indices``, zero boundaries.

    The terminal blocks are those assemble_subproblem gives the subproblems.
    """
    subs = [assemble_subproblem(nd, plan, i, mu) for i in indices]
    return (nd.lq, [s.m1 for s in subs], [s.m2 for s in subs],
            [s.c0 for s in subs], [s.terminal for s in subs])


def test_riccati_batches_are_gathered_as_assemble_subproblem_truncates():
    p, _ = make_random_lq(40, RICCATI_MIN_NX, 2, seed=16)
    z, lam = random_point(p, seed=17)
    nd = assemble_newton_data(p, z, lam)
    plan = make_plan(40, 4, 2)  # lengths 12, 14, 14, 12; the last reaches N
    for group in ([1, 2], [0, 3], [3]):
        subs = [assemble_subproblem(nd, plan, i, 25.0) for i in group]
        want = banded.solve_lq_riccati(
            *[np.stack(f) for f in zip(*(sub.lq for sub in subs))])
        got = banded.solve_lq_windows(*zero_boundary_windows(nd, plan, group))
        # A member solves bit for bit as it does alone.
        for j, i in enumerate(group):
            (alone,) = banded.solve_lq_windows(
                *zero_boundary_windows(nd, plan, [i]))
            for a, b, c in zip(got[j], want, alone):
                assert np.array_equal(a, b[j]) and np.array_equal(a, c)


def test_riccati_batches_split_where_the_spacing_of_starts_changes():
    p, _ = make_random_lq(80, RICCATI_MIN_NX, 2, seed=20)
    z, lam = random_point(p, seed=21)
    nd = assemble_newton_data(p, z, lam)
    # Subproblems 1, 2, 4 and 5 all span 14 stages, from 8, 18, 43 and 53:
    # starts not evenly spaced, so each is solved alone.
    plan = make_plan(80, b=2, knots=(0, 10, 20, 30, 45, 55, 65, 80))
    assert banded.even_batches(plan.m1, lengths(plan)) == [
        [0], [1], [2], [4], [5], [3], [6]]
    # A member solves bit for bit as it does alone, so the batching does
    # not show in the direction.
    alone = [banded.solve_lq_windows(*zero_boundary_windows(nd, plan, [i]))[0]
             for i in range(plan.M)]
    dx, du, dlam = compose(alone, plan)
    got = approximate_direction(nd, plan, 25.0)
    assert np.array_equal(got.dz, stack_primal(dx, du))
    assert np.array_equal(got.dlam, dlam.ravel())


@pytest.mark.parametrize("N, M, batches", [
    (500, 10, [[0, 9], list(range(1, 9))]),  # the plate-m6 workload's plan
    (1000, 2, [[0, 1]]),
    (60, 1, [[0]]),
])
def test_even_knots_give_one_riccati_batch_per_length(monkeypatch, N, M,
                                                      batches):
    plan = make_plan(N, M, 5)
    assert banded.even_batches(plan.m1, lengths(plan)) == batches
    p, _ = make_random_lq(N, RICCATI_MIN_NX, 2, seed=22)
    z, lam = random_point(p, seed=23)
    nd = assemble_newton_data(p, z, lam)
    sweep, seen = banded.solve_lq_riccati, []

    def recorded(*lq):
        # The subproblems whose windows of nd.A the members' A are.
        seen.append([i for a in lq[3] for i in range(M) if np.array_equal(
            a, nd.A[plan.m1[i]:plan.m2[i]])])
        return sweep(*lq)

    monkeypatch.setattr(banded, "solve_lq_riccati", recorded)
    approximate_direction(nd, plan, 25.0)
    assert seen == batches


def test_riccati_windows_past_the_horizon_raise():
    arr = np.arange(20.0).reshape(10, 2)
    got = stage_windows(arr, 0, 3, 3, 4)  # stages 0-3, 3-6 and 6-9
    assert got.shape == (3, 4, 2) and not got.flags.writeable
    for j in range(3):
        assert np.array_equal(got[j], arr[3 * j:3 * j + 4])
    with pytest.raises(ValueError, match="run past"):
        stage_windows(arr, 1, 3, 3, 4)  # the last window would end at stage 10
    one = stage_windows(arr, 6, 3, 1, 4)  # one window: the step is never taken
    assert one.shape == (1, 4, 2)
    assert one[0].ctypes.data == arr[6].ctypes.data
    assert one[0].strides == arr.strides
    assert np.array_equal(one[0], arr[6:10])
    with pytest.raises(ValueError, match="run past"):
        stage_windows(arr, 7, 0, 1, 4)  # it would end at stage 10


def counted_lapack(monkeypatch):
    """Count ``banded``'s dgbsv and dpbtrf calls; refuse the Riccati kernel."""
    calls = {"dgbsv": 0, "dpbtrf": 0}

    def counted(name):
        real = getattr(banded, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    def refused(*args):
        raise AssertionError("band blocks went to the Riccati kernel")

    for name in calls:
        monkeypatch.setattr(banded, name, counted(name))
    monkeypatch.setattr(banded, "solve_lq_riccati", refused)
    return calls


@pytest.mark.parametrize("nx,nu", [(1, 1), (2, 3), (3, 2)])
def test_band_subproblems_are_tested_with_their_own_constant(monkeypatch, nx, nu):
    p, _ = make_random_lq(40, nx, nu, seed=18)
    z, lam = random_point(p, seed=19, scale=3.0)
    nd = assemble_newton_data(p, z, lam)
    plan = make_plan(40, 5, 3)
    for m1 in plan.m1:
        nd.Q[m1] *= 50.0  # each subproblem's largest block is its first
    for m2 in plan.m2[:-1]:
        nd.R[m2] *= 1e3  # and the stage after its last, outside its norms
    seen = []
    solve = decomposition.solve_subproblem
    monkeypatch.setattr(decomposition, "solve_subproblem",
                        lambda sub, c: seen.append(c) or solve(sub, c))
    calls = counted_lapack(monkeypatch)
    approximate_direction(nd, plan, 25.0)
    # The constants come from one norm pass over the horizon, bit for bit
    # the ones each assembled subproblem gives alone; each subproblem is
    # tested by one dpbtrf and solved by one dgbsv.
    assert seen == [default_definiteness_constant(assemble_subproblem(
        nd, plan, i, 25.0).lq) for i in range(plan.M)]
    assert calls == {"dgbsv": plan.M, "dpbtrf": plan.M}


def test_toy_plan_solves_each_subproblem_with_the_band_kernel(monkeypatch):
    p, nd = toy_nd(N=40, seed=13)
    plan = make_plan(40, 5, 3)
    calls = counted_lapack(monkeypatch)
    approximate_direction(nd, plan, 25.0)
    assert calls == {"dgbsv": plan.M, "dpbtrf": plan.M}


def band_grid_problems():
    """(name, NewtonData) of the band path's reference grid."""
    out = []
    for case in (1, 2, 3):
        spec, _ = toy_case_params(case, N=60)
        p = make_toy_problem(spec)
        z, lam = make_initializations(p, 2, seed=case)[1]
        out.append((f"toy{case}", assemble_newton_data(p, z, lam)))
    for nx, nu in [(1, 1), (2, 1), (1, 3), (2, 2), (3, 3)]:
        p, _ = make_random_lq(60, nx, nu, seed=10 * nx + nu)
        out.append((f"lq{nx}{nu}", assemble_newton_data(
            p, *random_point(p, seed=nx + nu))))
    p, _ = make_random_lq(60, 2, 1, seed=7)
    nd = assemble_newton_data(p, *random_point(p, seed=8))
    nd.R[33] = -100.0 * np.eye(1)  # indefinite
    out.append(("indefinite", nd))
    return out


BAND_GRID_PLANS = [
    make_plan(60, 4, 3),                                 # even knots
    make_plan(60, b=2, knots=(0, 7, 19, 30, 41, 60)),    # uneven knots
    make_plan(60, b=0, knots=(0, 13, 27, 60)),           # no overlap
    make_plan(60, 1, 3),                                 # one subproblem
    make_plan(60, b=3, knots=(0, 30, 58, 60)),           # two reach N
]


def test_band_direction_matches_the_per_subproblem_reference_bit_for_bit():
    def outcome(solve):
        try:
            d = solve()
        except Exception as err:  # noqa: BLE001 - the error is compared
            return type(err), str(err)
        return d.dz.tobytes(), d.dlam.tobytes()

    failed = 0
    for name, nd in band_grid_problems():
        assert nd.n_x < RICCATI_MIN_NX
        for plan in BAND_GRID_PLANS:
            want = outcome(lambda: reference_band_direction(nd, plan, 25.0))
            got = outcome(lambda: approximate_direction(nd, plan, 25.0))
            assert got == want, (name, plan)
            failed += want[0] is MuTooSmallError
    assert failed == len(BAND_GRID_PLANS)  # only the indefinite case fails


def test_riccati_path_names_the_first_failing_subproblem_in_plan_order():
    p, _ = make_random_lq(40, RICCATI_MIN_NX, 2, seed=14)
    z, lam = random_point(p, seed=15)
    nd = assemble_newton_data(p, z, lam)
    plan = make_plan(40, 4, 2)  # [0, 12], [8, 22], [18, 32], [28, 40]
    nd.R[35] = -100.0 * np.eye(2)  # only in subproblem 3, batched first
    with pytest.raises(MuTooSmallError) as err:
        approximate_direction(nd, plan, 25.0)
    assert (err.value.index, err.value.stage) == (3, 35)
    nd.R[25] = -100.0 * np.eye(2)  # only in subproblem 2
    with pytest.raises(MuTooSmallError) as err:
        approximate_direction(nd, plan, 25.0)
    assert (err.value.index, err.value.stage) == (2, 25)
    # The Cholesky breaks down; the margin is the pivot it stopped at in
    # R_25 + B_25^T P_26 B_25, minus the pivot tolerance.
    sub = assemble_subproblem(nd, plan, 2, 25.0)
    assert err.value.margin == pytest.approx(riccati_stage_pivot(
        *sub.lq[:5], 25 - sub.m1) - banded.PIVOT_TOL,
        rel=1e-9)
    assert err.value.margin < -1.0


def test_a_singular_gain_solve_names_the_subproblem_and_horizon_stage():
    # Stage 35 is only in subproblem 3, member 1 of the batch [0, 3], where
    # it is the window's stage 7; with S_35 = B_35 = 0 the sweep's Rt there
    # is R_35 itself.
    Rt = singular_gain_block()
    if Rt is None:
        pytest.skip("this LAPACK factors every candidate without a zero pivot")
    p, _ = make_random_lq(40, RICCATI_MIN_NX, 2, seed=14)
    z, lam = random_point(p, seed=15)
    nd = assemble_newton_data(p, z, lam)
    plan = make_plan(40, 4, 2)  # [0, 12], [8, 22], [18, 32], [28, 40]
    nd.R[35], nd.S[35], nd.B[35] = Rt, 0.0, 0.0
    assert banded.even_batches(plan.m1, lengths(plan)) == [[0, 3], [1, 2]]
    with pytest.raises(SingularStageError) as batch:
        banded.solve_lq_windows(*zero_boundary_windows(nd, plan, range(4)))
    assert (batch.value.member, batch.value.stage) == (1, 7)
    with pytest.raises(SingularStageError) as err:
        approximate_direction(nd, plan, 25.0)
    assert (err.value.member, err.value.stage) == (3, 35)
    assert str(err.value).startswith("subproblem 3 at horizon stage 35:")


def test_a_singular_band_lu_names_the_subproblem_and_horizon_stage():
    # Stage 25 is only in subproblem 2.  With S_25 = B_25 = 0 its controls'
    # columns of the KKT band hold R_25 alone, whose LU ends at an exact
    # zero pivot though its Cholesky passes the H + c G^T G test.
    Rt = singular_lu_block()
    if Rt is None:
        pytest.skip("this LAPACK factors every candidate without a zero pivot")
    p, _ = make_random_lq(40, 1, 2, seed=14)
    nd = assemble_newton_data(p, *random_point(p, seed=15))
    plan = make_plan(40, 4, 2)  # [0, 12], [8, 22], [18, 32], [28, 40]
    nd.R[25], nd.S[25], nd.B[25] = Rt, 0.0, 0.0
    with pytest.raises(SingularKKTError) as err:
        approximate_direction(nd, plan, 25.0)
    assert (err.value.subproblem, err.value.stage) == (2, 25)
    # stage 7 of the subproblem, its second control's column
    assert err.value.info == 7 * 4 + 2 + 2
    assert str(err.value) == (
        "banded KKT factorization of subproblem 2 failed at horizon "
        "stage 25: LAPACK dgbsv met a zero pivot (info=32)")
    assert isinstance(err.value.__cause__, SingularKKTError)
    assert err.value.__cause__.stage == 7
    with pytest.raises(SingularKKTError) as alone:
        solve_subproblem(assemble_subproblem(nd, plan, 2, 25.0))
    assert str(alone.value) == str(err.value)
    # In a centralized solve the same block stops the exact direction.
    with pytest.raises(SingularKKTError) as full:
        solve_full_newton(nd)
    assert (full.value.subproblem, full.value.stage) == (None, 25)


def test_a_singular_gain_solve_ends_the_solve_with_a_typed_error():
    # R_5 passes the Cholesky pivot test but its LU is exactly singular;
    # with S_5 = B_5 = 0 the sweep's Rt at stage 5 is R_5 itself.
    Rt = singular_gain_block()
    if Rt is None:
        pytest.skip("this LAPACK factors every candidate without a zero pivot")
    p, data = make_random_lq(20, RICCATI_MIN_NX, 2, seed=3)
    data["R"][5], data["S"][5], data["B"][5] = Rt, 0.0, 0.0
    init = (Trajectory.zeros(p), DualTrajectory.zeros(p))
    report = solve(p, SolverConfig(M=2, b=2), init, mode="fotd")
    assert report.status == "error"
    err = report.exception
    assert isinstance(err, SingularStageError)
    assert (err.member, err.stage, err.iteration) == (0, 5, 0)
    assert report.error == f"{err} (iteration 0)"
