#!/usr/bin/env python3
"""Benchmark of the fotd solver on three workloads shaped like the paper's cells.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

One run builds the workload's inputs from ``--seed``, warms up, and then
runs a fixed number of rounds of solves -- one per mode: fotd, fotd_w2
(workers=2), centralized and schwarz.  The number of rounds is ``--seconds``
(by default ``run_seconds`` of BENCHMARK.json) over the workload's baseline
round time, so it does not depend on how fast the measured commit is.
Every solve is gated (see ``workloads.check_round``); a solve that misses
its gate counts as failed.

With ``--trace 0`` the run prints the end-to-end metrics named in
BENCHMARK.json; a mode's time is its ``solve_time`` over the rounds.  With
``--trace 1`` it then runs one more round with every layer instrumented from
the outside (see ``spans.py``) and prints the per-layer metrics instead.
``--workload all`` runs each workload in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS and OpenMP
threads are pinned to one, so ``fotd_w2`` is the only parallelism.  The
solver is imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_BATCH_S = 0.1  # each set-up batch repeats the build for this long
SETUP_BATCH_MIN = 3
MIN_ROUNDS = 3


def load_spec() -> dict:
    """BENCHMARK.json: workloads, run length and the declared metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


SPEC = load_spec()
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Every declared ``<layer>.calls`` metric names a span of spans.TARGETS.
SPAN_LAYERS = tuple(name[:-len(".calls")] for name in LAYER_UNITS
                    if name.endswith(".calls"))


def load_fotd():
    """Import fotd from this checkout's ``src/``; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "fotd", "__init__.py")):
        raise SystemExit(f"error: no fotd sources under {SRC}")
    sys.path.insert(0, SRC)
    import fotd
    if not os.path.abspath(fotd.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported fotd from {fotd.__file__}, not {SRC}")
    return fotd


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module) -> str:
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return deps["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_batch(build, seed: int) -> float:
    """Median time to build the workload's inputs over one batch of builds."""
    times = []
    while len(times) < SETUP_BATCH_MIN or sum(times) < SETUP_BATCH_S:
        t0 = time.perf_counter()
        build(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def describe(round_name, solves: dict) -> None:
    for s in solves.values():
        state = "ok" if s.ok else "FAILED: " + "; ".join(s.errors)
        print(f"round {round_name} {s.mode:<12} status={s.status} iters={s.iters} "
              f"kkt={s.final_kkt:.3e} solve_s={s.solve_s:.4f} {state}", flush=True)


def solve_time(solves: list) -> float:
    """Least-disturbed time of one solve from repeats of the same solve.

    Every repeat does the same work iteration by iteration (the gate checks
    that they end bit-identical), so each iteration's fastest repeat is its
    least-disturbed measurement: the result is the sum of those minima plus
    the least time spent outside the iteration records.  A slow phase of the
    machine then has to cover the same iteration in every repeat to show.
    If the records do not split the solve into the same disjoint parts in
    every repeat, the fastest whole solve is used.
    """
    parts = [s.record_s for s in solves]
    if len({len(p) for p in parts}) != 1 or any(
            sum(p) > s.solve_s for p, s in zip(parts, solves)):
        return min(s.solve_s for s in solves)
    outside = min(s.solve_s - sum(p) for p, s in zip(parts, solves))
    return outside + sum(min(column) for column in zip(*parts))


def end_to_end(rounds, setup_s: float, modes) -> dict:
    """End-to-end metrics; a mode's time is its ``solve_time`` over rounds."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}
    for mode in modes:
        solves = [r[mode] for r in rounds]
        times = [s.solve_s for s in solves]
        solve_s = solve_time(solves)
        print(f"{mode}.solve_s {solve_s:.4f} s from {len(times)} rounds, whole "
              f"solves min {min(times):.4f} median {statistics.median(times):.4f} "
              f"max {max(times):.4f} s", flush=True)
        metrics[f"{mode}.solve_s"] = solve_s
        if f"{mode}.iters" in E2E_UNITS:
            iters = rounds[0][mode].iters
            metrics[f"{mode}.iters"] = iters
            metrics[f"{mode}.iter_ms"] = 1e3 * solve_s / iters
    return metrics


def per_layer(recorders: dict, traced: dict, untraced: list, p) -> dict:
    """Per-layer metrics from the traced round's span recorders.

    ``untraced`` holds the run's untraced rounds; the tracing overhead of a
    mode is its traced time minus its fastest untraced round.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counters = defaultdict(float)
    cb_calls = cb_s = 0.0
    ls_trials = 0
    for rec in recorders.values():
        own = spans.self_times(rec.spans)
        for s in rec.spans + [rec.loose]:
            cb_calls += sum(s.cb_calls)
            cb_s += s.cb_s
        for s in rec.spans:
            calls[s.name] += 1
            self_s[s.name] += own[id(s)]
            if (s.name == "problem.eval_merit" and s.parent is not None
                    and s.parent.name == "driver.line_search"):
                ls_trials += 1
        for name, value in rec.counters.items():
            counters[name] += value

    metrics = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for name in ("banded.solve_lq_kkt", "banded.definiteness_pivots_ok"):
        flops = counters[f"{name}.flops_computed"]
        metrics[f"{name}.flops_computed"] = flops
        metrics[f"{name}.band_bytes_computed"] = counters[f"{name}.band_bytes_computed"]
        busy = self_s[name]
        metrics[f"{name}.gflops"] = flops / busy / 1e9 if busy > 0 else 0.0

    fotd_rec = recorders["fotd"]
    fotd_cb = [sum(s.cb_calls[i] for s in fotd_rec.spans + [fotd_rec.loose])
               for i in range(len(spans.CALLBACKS))]
    stage_iters = p.N * traced["fotd"].iters
    metrics.update({
        "problem.callback_calls": cb_calls,
        "problem.callback_s": cb_s,
        "problem.grad_sweeps_per_iter":
            fotd_cb[spans.CALLBACKS.index("cost_gradient")] / stage_iters,
        "problem.hess_sweeps_per_iter":
            fotd_cb[spans.CALLBACKS.index("cost_hessian")] / stage_iters,
        "decomposition.subproblems_per_iter":
            calls["decomposition.solve_subproblem"]
            / max(calls["decomposition.approximate_direction"], 1),
        "newton.ladder_rungs":
            calls["newton.check_reduced_hessian"] - calls["newton.modify_hessian"],
        "newton.gamma_iters": counters["newton.gamma_iters"],
        "driver.ls_trials": ls_trials,
        "driver.backtracks": ls_trials - calls["driver.line_search"],
        "driver.descent_violations": sum(s.descent_violations for s in traced.values()),
        "schwarz.inner_iters": counters["schwarz.inner_iters"],
    })
    for mode, solve in traced.items():
        metrics[f"trace.overhead_s.{mode}"] = solve.solve_s - solve_time(
            [r[mode] for r in untraced])
    return metrics


def traced_round(workload, seed: int, first: dict):
    """One round with every layer instrumented.

    Returns the solves, one span recorder per mode plus one for building the
    inputs, and the problem those solves used.
    """
    import workloads as wl

    recorders = {"setup": spans.SpanRecorder()}
    with spans.instrument(recorders["setup"]):
        p, init = workload.build(seed)
    solves = {}
    for mode in wl.MODES:
        rec = recorders[mode] = spans.SpanRecorder()
        traced_p = spans.wrap_problem(rec, p)
        with spans.instrument(rec):
            solves[mode] = wl.run_mode(traced_p, init, workload.M, mode)
    wl.check_round(solves, first)
    return solves, recorders, p


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_fotd()
    import workloads as wl

    workload = wl.WORKLOADS[name]
    n_rounds = max(MIN_ROUNDS, round(seconds / workload.round_s))
    print("env " + json.dumps(environment()), flush=True)
    print(f"workload {name} seed={seed} seconds={seconds:g} rounds={n_rounds} "
          f"trace={int(trace)} M={workload.M} b={wl.B} modes={','.join(wl.MODES)}",
          flush=True)
    p, init = workload.build(seed)
    print(f"inputs N={p.N} n_x={p.n_x} n_u={p.n_u}", flush=True)
    wl.warm_up(name)

    # One set-up batch before the rounds and one after each, so that set-up
    # is sampled across the whole run like the solves.
    setups = [setup_batch(workload.build, seed)]
    picker = wl.CpuPicker(sorted(os.sched_getaffinity(0)))
    rounds = []
    for _ in range(n_rounds):
        rounds.append(wl.run_round(p, init, workload.M, rounds[0] if rounds else None,
                                   picker))
        describe(len(rounds), rounds[-1])
        setups.append(setup_batch(workload.build, seed))
    print(f"waited {picker.waited_s:.2f} s in total for a CPU at full speed",
          flush=True)
    setup_s = min(setups)
    print(f"setup_s {setup_s:.6f} s: least of {len(setups)} batch medians, "
          f"largest {max(setups):.6f} s", flush=True)
    solves = [s for r in rounds for s in r.values()]

    if trace:
        traced, recorders, p = traced_round(workload, seed, rounds[0])
        describe("traced", traced)
        solves += traced.values()
        metrics = per_layer(recorders, traced, rounds, p)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(rounds, setup_s, wl.MODES)
        units = E2E_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from the declared set: "
                           f"{sorted(set(metrics) ^ set(units))}")

    failed = sum(not s.ok for s in solves)
    print(f"solves {len(solves)} count", flush=True)
    print(f"solves_failed {failed} count", flush=True)
    for key in units:
        print(f"{key} {metrics[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
