"""Tests of the benchmark's span recorder, instrumentation, metrics and gate.

    PYTHONPATH=src python -m pytest perfbench
"""

import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_fotd()

import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Workload("small", 10, 1.0, lambda seed: workloads._toy(1, 200, seed))


@pytest.fixture(scope="module")
def small_inputs():
    return SMALL.build(0)


def traced_solve(p, init, mode):
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        solve = workloads.run_mode(spans.wrap_problem(rec, p), init, SMALL.M, mode)
    return rec, solve


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert spans.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


@pytest.mark.parametrize("mode", workloads.MODES)
def test_self_times_are_nonnegative_and_cover_the_solve(small_inputs, mode):
    p, init = small_inputs
    rec, solve = traced_solve(p, init, mode)
    assert solve.ok, solve.errors
    own = spans.self_times(rec.spans)
    assert min(own.values()) >= 0.0

    main = threading.get_ident()
    roots = [s for s in rec.spans if s.parent is None and s.thread == main]
    assert [r.name for r in roots] == [
        "schwarz.schwarz_solve" if mode == "schwarz" else "driver.solve"]
    main_self = sum(own[id(s)] for s in rec.spans if s.thread == main)
    assert main_self == pytest.approx(roots[0].duration, rel=1e-9)
    assert roots[0].duration <= solve.solve_s
    assert sum(rec.loose.cb_calls) == 0
    if mode == "fotd_w2":
        assert any(s.thread != main for s in rec.spans)


def test_traced_solve_repeats_the_untraced_one(small_inputs):
    p, init = small_inputs
    plain = workloads.run_mode(p, init, SMALL.M, "fotd")
    _, traced = traced_solve(p, init, "fotd")
    assert np.array_equal(plain.point, traced.point)


def test_round_restores_the_affinity(small_inputs):
    p, init = small_inputs
    cpus = os.sched_getaffinity(0)
    solves = workloads.run_round(p, init, SMALL.M)
    assert all(s.ok for s in solves.values())
    assert os.sched_getaffinity(0) == cpus
    picker = workloads.CpuPicker(sorted(cpus))
    assert set(picker.pick(2)) <= cpus
    assert os.sched_getaffinity(0) == cpus
    assert picker.waited_s <= picker.WAIT_S + 0.1


def test_instrument_restores_every_binding(small_inputs):
    p, init = small_inputs
    modules = [sys.modules[m] for m in spans.FOTD_MODULES]
    before = [dict(vars(m)) for m in modules]
    rec, _ = traced_solve(p, init, "fotd")
    with pytest.raises(KeyError):
        with spans.instrument(rec):
            raise KeyError("fails inside the context")
    for m, saved in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in saved.items())

    count = len(rec.spans)
    workloads.run_mode(p, init, SMALL.M, "fotd")
    assert len(rec.spans) == count


def test_recorder_keeps_one_stack_per_thread():
    rec = spans.SpanRecorder()
    n_threads, depth, reps = 8, 3, 200

    def work():
        for _ in range(reps):
            opened = [rec.open(f"level{i}") for i in range(depth)]
            rec.callback(0, 1e-9)
            for span in reversed(opened):
                rec.close(span)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)

    assert len(rec.spans) == n_threads * depth * reps
    for s in rec.spans:
        if s.parent is not None:
            assert s.parent.thread == s.thread
            assert s.parent.name == f"level{int(s.name[-1]) - 1}"
    assert sum(s.cb_calls[0] for s in rec.spans) == n_threads * reps
    assert min(spans.self_times(rec.spans).values()) >= 0.0


def test_per_layer_metrics_on_a_small_traced_round():
    p, init = SMALL.build(0)
    first = workloads.run_round(p, init, SMALL.M)
    traced, recorders, p = run.traced_round(SMALL, 0, first)
    assert all(s.ok for s in traced.values())
    metrics = run.per_layer(recorders, traced, [first], p)
    assert set(metrics) == set(run.LAYER_UNITS)
    assert all(metrics[k] >= 0 for k in metrics
               if k.endswith((".self_s", ".calls", "_computed")))
    # ROADMAP baseline: four gradient and two Hessian sweeps per iteration.
    assert 4.0 <= metrics["problem.grad_sweeps_per_iter"] < 4.2
    assert 2.0 <= metrics["problem.hess_sweeps_per_iter"] < 2.1
    assert metrics["decomposition.subproblems_per_iter"] == SMALL.M
    assert metrics["newton.ladder_rungs"] == 0
    assert metrics["driver.backtracks"] == 0
    assert metrics["schwarz.inner_iters"] > 0


def _solve(mode, point, solve_s=1.0, record_s=(0.3, 0.3, 0.3)):
    return workloads.Solve(mode, "converged_kkt", 3, 0.0, solve_s, record_s,
                           np.asarray(point, dtype=float), 0, [])


def test_solve_time_takes_each_iteration_at_its_fastest():
    rounds = [_solve("fotd", [0.0], 1.0, (0.2, 0.5, 0.2)),
              _solve("fotd", [0.0], 1.2, (0.5, 0.3, 0.3)),
              _solve("fotd", [0.0], 0.9, (0.3, 0.3, 0.25))]
    # 0.05 outside the records (third round) + 0.2 + 0.3 + 0.2.
    assert run.solve_time(rounds) == pytest.approx(0.75)
    # Records that do not split every repeat alike fall back to the fastest solve.
    rounds[1] = _solve("fotd", [0.0], 1.2, (0.5, 0.7))
    assert run.solve_time(rounds) == 0.9
    rounds[1] = _solve("fotd", [0.0], 0.8, (0.5, 0.3, 0.3))
    assert run.solve_time(rounds) == 0.8


def test_end_to_end_metrics_are_the_declared_ones(small_inputs):
    p, init = small_inputs
    rounds = [workloads.run_round(p, init, SMALL.M) for _ in range(2)]
    metrics = run.end_to_end(rounds, 1e-3, workloads.MODES)
    assert set(metrics) == set(run.E2E_UNITS)
    assert all(v > 0 for v in metrics.values())
    for mode in ("fotd", "centralized", "schwarz"):
        assert metrics[f"{mode}.solve_s"] <= min(r[mode].solve_s for r in rounds)


def test_gate_flags_disagreement_and_nondeterminism():
    base = [1.0, 2.0, 3.0]
    ok = {m: _solve(m, base) for m in workloads.MODES}
    workloads.check_round(ok)
    assert all(s.ok for s in ok.values())

    bad = {m: _solve(m, base) for m in workloads.MODES}
    bad["schwarz"].point[0] += 1e-3
    bad["fotd_w2"].point[1] = np.nextafter(2.0, 3.0)
    workloads.check_round(bad, first=ok)
    assert [m for m, s in bad.items() if not s.ok] == ["fotd_w2", "schwarz"]
    assert any("first round" in e for e in bad["schwarz"].errors)


def test_benchmark_json_names_the_workloads():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-c1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
