"""Seeded fuzz gate: every solve ends in a report, and every failure is typed.

A solve converges, runs out of iterations, or stops with a
:class:`SolverError` whose message names the iteration it stopped, and the
stage and margin where the error's type carries them.  The draws are small
problems outside the regime the paper's guarantees assume: blocks scaled by
1e-8 to 1e8, indefinite Q and zeroed R blocks, wide blocks that go to the
Riccati kernels, control blocks that pass the definiteness tests but whose
LU is exactly singular, and far initial iterates, each solved in every
mode.  The draws are seeded NumPy draws, so a draw that fails here fails
every run.
"""

import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fotd.driver as driver
from fotd import (DualTrajectory, IndefiniteHorizonError, IndefiniteStageError,
                  MuTooSmallError, SolveReport, SolverConfig, SolverError,
                  SubproblemFailure, Trajectory, schwarz_solve, solve)
from fotd.benchmarks import (PlateSpec, make_initializations,
                             make_plate_problem, make_toy_problem,
                             toy_case_params)
from fotd.driver import STATUS_ERROR, STATUS_KKT, STATUS_MAX_ITERS, STATUS_STEP

import oracles
from oracles import make_random_lq, random_point, report_bytes

MODES = ("fotd", "centralized", "schwarz")
MAX_ITERS = 15
MARGIN_ERRORS = (IndefiniteStageError, IndefiniteHorizonError, MuTooSmallError)


def run(p, cfg, init, mode):
    """One solve in ``mode``; floating-point warnings of far iterates are off."""
    with np.errstate(all="ignore"):
        if mode == "schwarz":
            return schwarz_solve(p, cfg, init)
        return solve(p, cfg, init, mode=mode)


def assert_stops_typed(report):
    """``report`` ends in a known status, and a failure names what stopped it."""
    assert isinstance(report, SolveReport)
    assert report.status in (STATUS_KKT, STATUS_STEP, STATUS_MAX_ITERS,
                             STATUS_ERROR)
    exc = report.exception
    if report.status != STATUS_ERROR:
        assert exc is None and report.error is None
        return
    assert isinstance(exc, SolverError)
    assert exc.iteration == report.iterations
    assert report.error == f"{exc} (iteration {exc.iteration})"
    if getattr(exc, "stage", None) is not None:
        assert f"stage {exc.stage}" in str(exc)
    if isinstance(exc, MARGIN_ERRORS):
        assert f"margin {exc.margin:.3e}" in str(exc)
    if isinstance(exc, SubproblemFailure):
        assert str(exc).startswith(f"nonlinear subproblem {exc.index} ")


def assert_every_mode_stops_typed(p, cfg, init):
    for mode in MODES:
        assert_stops_typed(run(p, cfg, init, mode))


def far(init, scale):
    """The iterate ``init`` with every entry scaled by ``scale``."""
    z, lam = init
    return Trajectory(scale * z.x, scale * z.u), DualTrajectory(scale * lam.lam)


def random_lq_draw(seed, wide=False):
    """A random LQ problem, its config and a random initial iterate.

    Narrow draws have 1-5 states and 1-3 controls, each block type scaled by
    its own factor from 1e-8 to 1e8, one Q block negated and one R block
    zeroed; wide draws have 15 or 16 states (either side of the exact
    direction's Riccati crossover) and unscaled blocks.
    """
    rng = np.random.default_rng(seed)
    M, b = int(rng.integers(2, 4)), int(rng.integers(1, 3))
    N = M * int(rng.integers(3, 8))
    nx = int(rng.integers(15, 17) if wide else rng.integers(1, 6))
    nu = int(rng.integers(1, 3) if wide else rng.integers(1, 4))
    p, data = make_random_lq(N, nx, nu, seed=seed, definite=bool(rng.integers(2)))
    if not wide:
        for name in ("Q", "S", "R", "A", "B", "qx", "qu"):
            data[name] *= 10.0 ** rng.uniform(-8.0, 8.0)
        data["Q"][rng.integers(N + 1)] *= -1.0
        data["R"][rng.integers(N)] = 0.0
    init = random_point(p, seed, 10.0 ** rng.uniform(0.0, 5.0))
    return p, SolverConfig(M=M, b=b, max_iters=MAX_ITERS), init


@pytest.mark.parametrize("first", range(0, 40, 10))
def test_scaled_indefinite_random_lq_draws_stop_typed(first):
    for seed in range(first, first + 10):
        assert_every_mode_stops_typed(*random_lq_draw(seed))


def test_wide_random_lq_draws_stop_typed():
    for seed in range(4):
        assert_every_mode_stops_typed(*random_lq_draw(seed, wide=True))


@pytest.mark.parametrize("block, nx", [
    ("singular_lu_block", 2), ("singular_lu_block", 4),
    ("singular_gain_block", 4)], ids=["lu-band", "lu-riccati", "gain-riccati"])
def test_singular_control_block_draws_stop_typed(block, nx):
    # R_k is a 2x2 block that passes the pivot tests but whose LU (the band
    # KKT's, or the Riccati gain solve's) can end at an exact zero; with
    # S_k = B_k = 0 the sweep's Rt at stage k is R_k itself.  n_x = 2 sends
    # the decomposed direction to the band kernel, n_x = 4 to the batched
    # Riccati sweep.
    Rt = getattr(oracles, block)()
    if Rt is None:
        pytest.skip("this LAPACK factors every candidate without a zero pivot")
    for seed in range(2):
        rng = np.random.default_rng(seed)
        M, b = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        N = M * int(rng.integers(3, 8))
        p, data = make_random_lq(N, nx, 2, seed=seed)
        k = rng.integers(N)
        data["R"][k], data["S"][k], data["B"][k] = Rt, 0.0, 0.0
        assert_every_mode_stops_typed(
            p, SolverConfig(M=M, b=b, max_iters=MAX_ITERS),
            random_point(p, seed))


TOY_SCALES = (1.0, 1e100, 1e300)
PLATE_SCALES = (1.0, 1e3, 1e100)


def toy_far_draw(case, scale):
    """Toy case ``case`` at N=30, its config, and init 1 of seed 0 scaled."""
    p = make_toy_problem(toy_case_params(case, N=30)[0])
    return (p, SolverConfig(M=3, b=2, max_iters=MAX_ITERS),
            far(make_initializations(p, 2, 0)[1], scale))


def plate_far_draw(m, scale):
    """The plate at ``m`` and N=20, its config, and init 1 of seed 0 scaled."""
    p = make_plate_problem(PlateSpec(m=m, N=20))
    return (p, SolverConfig(M=2, b=2, max_iters=MAX_ITERS),
            far(make_initializations(p, 2, 0)[1], scale))


@pytest.mark.parametrize("case", [1, 2, 3])
def test_toy_problems_at_far_inits_stop_typed(case):
    for scale in TOY_SCALES:
        assert_every_mode_stops_typed(*toy_far_draw(case, scale))


@pytest.mark.parametrize("m", [3, 4])
def test_plate_problems_at_far_inits_stop_typed(m):
    for scale in PLATE_SCALES:
        assert_every_mode_stops_typed(*plate_far_draw(m, scale))


def test_a_toy_terminal_cost_past_the_float_range_stops_typed_at_iteration_0():
    # Init 1 of seed 0 scaled by 1e300 puts |x_N| far past 1e154, where the
    # terminal cost C1 x_N^2 leaves the float range.  Its square overflows
    # to inf, so each mode stops with a typed error at iteration 0 instead
    # of an OverflowError escaping the first merit evaluation.
    p, _, init = toy_far_draw(1, 1e300)
    assert abs(init[0].x[-1, 0]) > 1e154
    for mode in MODES:
        report = run(p, SolverConfig(M=3, b=2), init, mode)
        assert isinstance(report.exception, SolverError)
        assert report.exception.iteration == 0
        assert_stops_typed(report)


def test_an_overflow_draw_stops_alike_on_the_helper_thread(monkeypatch):
    # The draw above overflows in iteration 0, which stops typed once its
    # direction is computed: the slope along it is NaN.  With two workers
    # the helper computes that direction, in the error state of the thread
    # that called the solve: floating-point warnings are off in both, and
    # where one is an error the solve stops typed, as with one worker.
    p, cfg, init = toy_far_draw(1, 1e300)
    real, states = driver.approximate_direction, []

    def direction(*args):
        states.append((threading.get_ident(), np.geterr()["over"]))
        return real(*args)

    monkeypatch.setattr(driver, "approximate_direction", direction)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reports = [run(p, replace(cfg, workers=w), init, "fotd")
                   for w in (1, 2)]
    for report in reports:
        assert_stops_typed(report)
        assert report.status == STATUS_ERROR and report.iterations == 0
    assert report_bytes(reports[0]) == report_bytes(reports[1])
    main = threading.get_ident()
    assert [(t == main, over) for t, over in states] == [
        (True, "ignore"), (False, "ignore")]
