"""Benchmark workloads: generated inputs, the timed solves and their gate.

Every workload builds its problem and initial iterate from the seed alone,
then runs the same solver modes through the public API (``fotd.solve`` and
``fotd.schwarz_solve``) with ``SolverConfig`` defaults, overriding only M, b
and workers.  Each solve is checked before its time counts; see
``check_round``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import fotd
from fotd.benchmarks import PlateSpec

B = 5
MODES = ("fotd", "fotd_w2", "centralized", "schwarz")
REFERENCE_MODE = "centralized"
# Final iterates of two converged methods differ by about the KKT residual
# over the smallest curvature of the problem.  Over seeds 0-5 the largest gap
# to the centralized iterate was 1.7e-7 (plate-m6), so 1e-5 relative to the
# iterate's scale leaves a margin of about sixty.
AGREE_TOL = 1e-5


@dataclass(frozen=True)
class Workload:
    """One benchmark instance: ``build(seed)`` returns (problem, init).

    ``round_s`` is about the time one round of every mode takes at the
    baseline on a 2-core x86-64 machine.  It fixes how many rounds a run of
    a given length makes, so that every commit is measured on the same number.
    """

    name: str
    M: int
    round_s: float
    build: Callable[[int], Tuple[fotd.ProblemDef, tuple]]


def _toy(case: int, N: int, seed: int):
    spec, _ = fotd.benchmarks.toy_case_params(case, N=N)
    p = fotd.benchmarks.make_toy_problem(spec)
    return p, fotd.benchmarks.make_initializations(p, 2, seed)[1]


def _plate(N: int, seed: int):
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi, 16)

    def desired(node: int, t: float) -> float:
        return math.sin(t + phase[node])

    p = fotd.benchmarks.make_plate_problem(PlateSpec(m=6, N=N, desired=desired))
    return p, fotd.benchmarks.make_initializations(p, 1, seed)[0]


# Subproblem lengths N/M + 2b follow the paper-scale cells (toy case 1 at
# N=5000, M=50; the plate at N=5000, M=100) on shorter horizons, so that a
# run fits many rounds; README.md gives the reasons for each workload.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("toy-c1", 5, 2.5, lambda seed: _toy(1, 500, seed)),
    Workload("plate-m6", 10, 2.0, lambda seed: _plate(500, seed)),
    Workload("toy-c3-deep", 2, 3.5, lambda seed: _toy(3, 1000, seed)),
)}


@dataclass
class Solve:
    """Outcome of one timed solve plus the reasons it failed its gate."""

    mode: str
    status: str
    iters: int
    final_kkt: float
    solve_s: float
    record_s: Tuple[float, ...]  # wall time of each iteration record
    point: np.ndarray
    descent_violations: int
    errors: List[str]

    @property
    def ok(self) -> bool:
        return not self.errors


def run_mode(p: fotd.ProblemDef, init, M: int, mode: str) -> Solve:
    """Time one solve call of ``mode`` through the public API."""
    cfg = fotd.SolverConfig(M=M, b=B, workers=2 if mode == "fotd_w2" else 1)
    t0 = time.perf_counter()
    if mode == "schwarz":
        report = fotd.schwarz_solve(p, cfg, init)
    else:
        report = fotd.solve(p, cfg, init,
                            mode="centralized" if mode == "centralized" else "fotd")
    solve_s = time.perf_counter() - t0
    point = np.concatenate([report.z.x.ravel(), report.z.u.ravel(),
                            report.lam.lam.ravel()])
    errors = []
    # A "converged_step" stop whose last step also brought the residual under
    # kkt_tol did the same work and reached the same iterate as a
    # "converged_kkt" stop; only the label differs, so both pass.
    if not (report.converged and report.final_kkt <= cfg.kkt_tol):
        errors.append(f"status {report.status}, final KKT {report.final_kkt:.3e}")
    return Solve(mode, report.status, report.iterations, report.final_kkt,
                 solve_s, tuple(1e-3 * r.wall_ms for r in report.records),
                 point, report.descent_violations, errors)


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise gap between two iterates, relative to their scale."""
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


def check_round(solves: Dict[str, Solve],
                first: Optional[Dict[str, Solve]] = None) -> None:
    """Gate one round of solves in place, appending to each solve's errors.

    ``fotd_w2`` must be bit-identical to ``fotd``, every other mode must agree
    with the centralized iterate within AGREE_TOL, and when ``first`` is
    given (an earlier round, or the untraced round of a traced run) every
    solve must repeat it bit for bit.
    """
    ref = solves[REFERENCE_MODE].point
    for mode, s in solves.items():
        if mode == "fotd_w2":
            if not np.array_equal(s.point, solves["fotd"].point):
                s.errors.append("iterate differs from fotd with workers=1")
        elif mode != REFERENCE_MODE:
            gap = relative_gap(s.point, ref)
            if not gap <= AGREE_TOL:
                s.errors.append(f"iterate gap {gap:.3e} to {REFERENCE_MODE}")
        if first is not None and not (
                np.array_equal(s.point, first[mode].point)
                and s.iters == first[mode].iters):
            s.errors.append("iterate differs from the first round")


_PROBE = np.random.default_rng(0).standard_normal((8, 8))


def _probe_s() -> float:
    """Fastest of three runs of a fixed 0.2 ms piece of numpy work."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0.0
        for _ in range(200):
            x += float((_PROBE @ _PROBE)[0, 0])
        best = min(best, time.perf_counter() - t0)
    return best


class CpuPicker:
    """Picks CPUs that run at full speed for the next solve.

    On a shared host a CPU can run at half its speed for seconds at a time,
    independently of the other CPUs.  Before each solve the picker times a
    fixed probe on every CPU and takes the quickest ones; if even those are
    slower than SLACK times the fastest probe it has seen, it waits for them
    to speed up, for at most WAIT_S.  Waiting is never timed.
    """

    SLACK = 1.3
    WAIT_S = 0.5

    def __init__(self, cpus: List[int]):
        self.cpus = cpus
        self.floor = math.inf
        self.waited_s = 0.0

    def probe(self) -> Dict[int, float]:
        times = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu] = _probe_s()
        finally:
            os.sched_setaffinity(0, self.cpus)
        self.floor = min(self.floor, *times.values())
        return times

    def pick(self, count: int) -> List[int]:
        start = time.perf_counter()
        while True:
            times = self.probe()
            chosen = sorted(self.cpus, key=times.get)[:count]
            waited = time.perf_counter() - start
            if times[chosen[-1]] <= self.SLACK * self.floor or waited > self.WAIT_S:
                self.waited_s += waited
                return chosen
            time.sleep(0.02)


def run_round(p: fotd.ProblemDef, init, M: int,
              first: Optional[Dict[str, Solve]] = None,
              picker: Optional[CpuPicker] = None) -> Dict[str, Solve]:
    """Solve ``init`` once in every mode and gate the results.

    Each mode runs pinned to the CPUs that ``picker`` (by default a new
    one) picks just before it: one CPU, or two for ``fotd_w2``.
    """
    cpus = sorted(os.sched_getaffinity(0))
    picker = picker or CpuPicker(cpus)
    solves = {}
    try:
        for mode in MODES:
            os.sched_setaffinity(0, picker.pick(2 if mode == "fotd_w2" else 1))
            solves[mode] = run_mode(p, init, M, mode)
    finally:
        os.sched_setaffinity(0, cpus)
    check_round(solves, first)
    return solves


def warm_up(name: str) -> None:
    """Run every mode once on a small instance of the same family.

    This loads lazily imported LAPACK wrappers and starts the thread pool
    machinery before anything is timed.
    """
    p, init = _plate(100, 0) if name == "plate-m6" else _toy(1, 100, 0)
    for mode in MODES:
        run_mode(p, init, 10, mode)
