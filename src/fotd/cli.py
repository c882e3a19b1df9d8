"""Command-line front end: config parsing, experiment runs, CSV/JSON output.

Subcommands:

* ``solve``  -- one solve per initialization; writes ``run_<i>.csv``
  convergence histories and a ``summary.json``.
* ``sweep``  -- Cartesian product over overlap sizes and terminal penalties;
  per-cell run CSVs plus a ``sweep_summary.csv`` table (per-cell KKT
  residual and time averaged over converged runs).
* ``diag``   -- closed-form diagnostic constants and two self-checks on a
  small instance (one-Newton-step equivalence, direction-error decay in b).

Configs are YAML with three blocks (``problem``, ``solver``, ``run``) and an
optional ``sweep`` block; parsing fills every default so that parse(emit(.))
is the identity on canonical form.  Exit codes: 0 all runs converged,
1 solver failure or non-convergence, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import List, Optional

import numpy as np
import yaml

from .benchmarks import (PlateSpec, ToySpec, make_initializations,
                         make_plate_problem, make_toy_problem,
                         toy_case_params)
from .decomposition import approximate_direction, make_plan
from .driver import SolveReport, SolverConfig, direction_error_ratio, solve
from .newton import (assemble_newton_data, solve_full_newton, theory_gamma_G,
                     theory_mu_bar)
from .problem import (DualTrajectory, PenaltyParams, ProblemDef, Trajectory,
                      atomic_write)
from .schwarz import one_newton_schwarz_step, schwarz_solve

CSV_HEADER = "iter,kkt_residual,merit,stepsize,gamma,dir_err_ratio,wall_ms"
MODES = ("fotd", "schwarz", "centralized")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_PROBLEM_DEFAULTS_TOY = {"type": "toy", "case": None, "N": None,
                         "C1": None, "C2": None, "d": None}
# PlateSpec fields other than ``desired``, which the config names by kind.
_PLATE_FIELDS = [f for f in fields(PlateSpec) if f.name != "desired"]
_PROBLEM_DEFAULTS_PLATE = {"type": "plate",
                           **{f.name: f.default for f in _PLATE_FIELDS},
                           "desired": {"kind": "sin_time"}}
# SolverConfig fields written as solver keys as they are; ``eta`` becomes
# eta1/eta2, and assert_descent/diagnostics live in the run block.
_SOLVER_FIELDS = [f.name for f in fields(SolverConfig)
                  if f.name not in ("eta", "assert_descent", "diagnostics")]


def _solver_block(solver: SolverConfig) -> dict:
    return {**{name: getattr(solver, name) for name in _SOLVER_FIELDS},
            "eta1": solver.eta.eta1, "eta2": solver.eta.eta2}


_SOLVER_DEFAULTS = {"mode": "fotd", **_solver_block(SolverConfig())}
_RUN_DEFAULTS = {"inits": 5, "seed": 0, "out_dir": "out",
                 "diagnostics": False, "assert_level": "on", "timing": True}
_SWEEP_DEFAULTS = {"b": None, "mu": None}
_ON_OFF = ("on", "off")
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
               str: "a string"}


def _kinds(defaults: dict, **kinds) -> dict:
    """Each key's kind: the type of its default unless ``kinds`` names one."""
    return {**{key: type(val) for key, val in defaults.items()}, **kinds}


# A kind is int, float, bool or str; [kind] for a list of that kind;
# _ON_OFF; or a dict of kinds for a nested mapping (see _value).
_TOY_KINDS = {"type": str, "case": int, "N": int, "C1": float, "C2": float,
              "d": {"kind": str, "scale": float}}
_PLATE_KINDS = _kinds(_PROBLEM_DEFAULTS_PLATE, desired={"kind": str})
_SOLVER_KINDS = _kinds(_SOLVER_DEFAULTS)
_RUN_KINDS = _kinds(_RUN_DEFAULTS, assert_level=_ON_OFF)
_SWEEP_KINDS = {"b": [int], "mu": [float]}


def _mapping(name: str, val) -> dict:
    if val is None:
        return {}
    if not isinstance(val, dict):
        raise ConfigError(f"{name} must be a mapping, got {val!r}")
    return val


def _value(key: str, val, kind):
    """``val`` converted to ``kind`` without loss; else :class:`ConfigError`.

    Ints take integral floats and strings, floats take ints and numeric
    strings (YAML 1.1 reads ``1e-6`` as a string), booleans and strings
    take only their own type, and no boolean is read as a number.
    """
    if isinstance(kind, dict):
        return _merge_block(key, val, {}, kind)
    if isinstance(kind, list):
        if not isinstance(val, list):
            raise ConfigError(f"{key} must be a list, got {val!r}")
        return [_value(key, v, kind[0]) for v in val]
    if kind is _ON_OFF:
        # YAML 1.1 reads bare on/off as booleans; accept both spellings
        if isinstance(val, bool):
            val = "on" if val else "off"
        if val not in _ON_OFF:
            raise ConfigError(f"{key} must be 'on' or 'off', got {val!r}")
        return val
    out = val
    if kind in (int, float) and isinstance(val, str):
        for parse in (int, float):
            try:
                out = parse(val)
                break
            except ValueError:
                pass
    if kind is int and isinstance(out, float) and out.is_integer():
        out = int(out)
    elif kind is float and type(out) is int and abs(out) <= sys.float_info.max:
        out = float(out)
    if type(out) is not kind:
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {val!r}")
    return out


def _merge_block(name: str, given, defaults: dict, kinds: dict) -> dict:
    """``defaults`` updated by the ``given`` mapping, each value of its kind.

    A key whose default is None may also be given as None.
    """
    out = dict(defaults)
    for key, val in _mapping(name, given).items():
        if key not in kinds:
            raise ConfigError(f"unknown key '{name}.{key}'")
        if not (val is None and key in defaults and defaults[key] is None):
            out[key] = _value(f"{name}.{key}", val, kinds[key])
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Canonical parsed configuration (all defaults materialized)."""

    problem: dict
    mode: str
    solver: SolverConfig
    inits: int
    seed: int
    out_dir: str
    timing: bool
    sweep_b: Optional[List[int]] = None
    sweep_mu: Optional[List[float]] = None

    def to_dict(self) -> dict:
        solver = {"mode": self.mode, **_solver_block(self.solver)}
        run = {"inits": self.inits, "seed": self.seed, "out_dir": self.out_dir,
               "diagnostics": self.solver.diagnostics,
               "assert_level": "on" if self.solver.assert_descent else "off",
               "timing": self.timing}
        out = {"problem": dict(self.problem), "solver": solver, "run": run}
        if self.sweep_b is not None or self.sweep_mu is not None:
            out["sweep"] = {"b": self.sweep_b, "mu": self.sweep_mu}
        return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for key in raw:
        if key not in ("problem", "solver", "run", "sweep"):
            raise ConfigError(f"unknown key '{key}'")
    ptype = _mapping("problem", raw.get("problem")).get("type")
    if ptype == "toy":
        problem = _merge_block("problem", raw["problem"], _PROBLEM_DEFAULTS_TOY,
                               _TOY_KINDS)
        if problem["case"] is None and any(problem[key] is None
                                           for key in ("N", "C1", "C2", "d")):
            raise ConfigError(
                "problem: a toy problem needs either 'case' or explicit "
                "'N', 'C1', 'C2' and 'd'")
    elif ptype == "plate":
        problem = _merge_block("problem", raw["problem"],
                               _PROBLEM_DEFAULTS_PLATE, _PLATE_KINDS)
    else:
        raise ConfigError(f"problem.type must be 'toy' or 'plate', got {ptype!r}")

    s = _merge_block("solver", raw.get("solver"), _SOLVER_DEFAULTS,
                     _SOLVER_KINDS)
    if s["mode"] not in MODES:
        raise ConfigError(f"solver.mode must be one of {MODES}, got {s['mode']!r}")
    run = _merge_block("run", raw.get("run"), _RUN_DEFAULTS, _RUN_KINDS)
    if run["inits"] < 1:
        raise ConfigError(f"run.inits must be at least 1, got {run['inits']}")
    sweep = _merge_block("sweep", raw.get("sweep"), _SWEEP_DEFAULTS,
                         _SWEEP_KINDS)
    try:
        solver = SolverConfig(
            **{name: s[name] for name in _SOLVER_FIELDS},
            eta=PenaltyParams(s["eta1"], s["eta2"]),
            assert_descent=run["assert_level"] == "on",
            diagnostics=run["diagnostics"],
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    return ExperimentConfig(
        problem=problem, mode=s["mode"], solver=solver, inits=run["inits"],
        seed=run["seed"], out_dir=run["out_dir"], timing=run["timing"],
        sweep_b=sweep["b"], sweep_mu=sweep["mu"],
    )


def _with_flags(raw, flags: dict):
    """``raw`` with each command-line flag in ``flags`` set at its config key.

    ``flags`` maps each flag's argparse destination to its value.  A
    destination ``block.key`` is the config key that the flag sets; a
    value of None is not given, and a destination without a dot sets
    nothing.  ``modes``, the repeatable ``--mode``, sets ``solver.mode`` to
    its first mode.
    """
    if not isinstance(raw, dict):
        return raw  # config_from_dict names the fault
    modes = flags.get("modes") or [None]
    for mode in modes[1:]:
        if mode not in MODES:
            raise ConfigError(f"--mode must be one of {MODES}, got {mode!r}")
    raw = dict(raw)
    for name, val in {**flags, "solver.mode": modes[0]}.items():
        block, dot, key = name.partition(".")
        if dot and val is not None:
            raw[block] = {**_mapping(block, raw.get(block)), key: val}
    return raw


def load_config(path: str, flags: Optional[dict] = None) -> ExperimentConfig:
    """Parse the YAML config at ``path`` with the command-line ``flags`` set."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return config_from_dict(_with_flags(raw, flags or {}))


def dump_config(cfg: ExperimentConfig, path: str):
    atomic_write(path, yaml.safe_dump(cfg.to_dict(), sort_keys=True))


def build_problem(problem: dict) -> ProblemDef:
    """Instantiate the benchmark named by a canonical problem block."""
    if problem["type"] == "toy":
        if problem.get("case") is not None:
            spec, _ = toy_case_params(problem["case"], N=problem.get("N"))
            return make_toy_problem(spec)
        d = problem["d"]
        kind, scale = d.get("kind"), d.get("scale", 1.0)
        fns = {"constant": lambda k: scale, "sin": lambda k: scale * math.sin(k),
               "sin2": lambda k: scale * math.sin(k) ** 2, "zero": lambda k: 0.0}
        if kind not in fns:
            raise ConfigError(f"problem.d.kind must be constant/sin/sin2/zero, "
                              f"got {kind!r}")
        return make_toy_problem(ToySpec(N=problem["N"], C1=problem["C1"],
                                        C2=problem["C2"], d=fns[kind]))
    kind = problem["desired"].get("kind", "sin_time")
    fns = {"sin_time": lambda node, t: math.sin(t), "zero": lambda node, t: 0.0}
    if kind not in fns:
        raise ConfigError(f"problem.desired.kind must be sin_time/zero, got {kind!r}")
    return make_plate_problem(PlateSpec(
        **{f.name: problem[f.name] for f in _PLATE_FIELDS}, desired=fns[kind]))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(v: Optional[float]) -> str:
    return "" if v is None else f"{v:.17g}"


def report_to_csv(report: SolveReport, timing: bool = True) -> str:
    lines = [CSV_HEADER]
    for r in report.records:
        wall = r.wall_ms if timing else 0.0
        lines.append(",".join([
            str(r.iteration), _fmt(r.kkt_residual), _fmt(r.merit),
            _fmt(r.stepsize), _fmt(r.gamma), _fmt(r.dir_err_ratio), _fmt(wall),
        ]))
    return "\n".join(lines) + "\n"


def _sig6(v) -> float:
    return float(f"{float(v):.6g}")


def _run_one(p: ProblemDef, solver: SolverConfig, mode: str,
             init) -> SolveReport:
    if mode == "schwarz":
        return schwarz_solve(p, solver, init)
    return solve(p, solver, init, mode=mode)


def _setup(cfg: ExperimentConfig, modes: List[str], cells):
    """``(p, inits, [(b, mu, solver), ...])`` for the (b, mu) ``cells``.

    Builds every plan the run will use too, so that whatever the config gets
    wrong raises :class:`ConfigError` here, before any solve starts.
    """
    try:
        p = build_problem(cfg.problem)
        inits = make_initializations(p, cfg.inits, cfg.seed)
        runs = [(b, mu, replace(cfg.solver, b=b, mu=mu)) for b, mu in cells]
        if any(mode != "centralized" for mode in modes):
            for _, _, solver in runs:
                make_plan(p.N, solver.M, solver.b)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return p, inits, runs


def _exit_2_on_config_error(cmd):
    """Turn a :class:`ConfigError` from ``cmd`` into a message and exit code 2."""
    @functools.wraps(cmd)
    def run(*args, **kwargs):
        try:
            return cmd(*args, **kwargs)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    return run


def _summarize(report: SolveReport, mode: str, init_idx: int, csv_name: str,
               timing: bool) -> dict:
    return {
        "init": init_idx, "mode": mode, "status": report.status,
        "final_kkt": _sig6(report.final_kkt),
        "iterations": report.iterations,
        "total_ms": _sig6(report.total_ms if timing else 0.0),
        "csv": csv_name,
        **({"error": report.error} if report.error else {}),
    }


@_exit_2_on_config_error
def cmd_solve(config_path: str, overrides: Optional[dict] = None) -> int:
    """Run one solve per initialization; 0 iff every run converged."""
    cfg = load_config(config_path, overrides)
    modes = (overrides or {}).get("modes") or [cfg.mode]
    repeated = sorted({mode for mode in modes if modes.count(mode) > 1})
    if repeated:
        raise ConfigError(f"--mode {', '.join(repeated)} given more than once; "
                          "each mode writes one run CSV per init")
    p, inits, _ = _setup(cfg, modes, [(cfg.solver.b, cfg.solver.mu)])
    os.makedirs(cfg.out_dir, exist_ok=True)
    runs, comparisons = [], []
    all_ok = True
    finals = {}
    for i, init in enumerate(inits):
        for mode in modes:
            name = f"run_{i}.csv" if len(modes) == 1 else f"run_{i}_{mode}.csv"
            report = _run_one(p, cfg.solver, mode, init)
            atomic_write(os.path.join(cfg.out_dir, name),
                         report_to_csv(report, timing=cfg.timing))
            runs.append(_summarize(report, mode, i, name, cfg.timing))
            finals[(i, mode)] = report
            all_ok &= report.converged
        if len(modes) > 1:
            za = finals[(i, modes[0])]
            for mode in modes[1:]:
                zb = finals[(i, mode)]
                diff = max(float(np.max(np.abs(za.z.x - zb.z.x))),
                           float(np.max(np.abs(za.z.u - zb.z.u))))
                comparisons.append({"init": i, "modes": [modes[0], mode],
                                    "final_iterate_max_diff": _sig6(diff)})
    summary = {"runs": runs, "all_converged": all_ok}
    if comparisons:
        summary["comparisons"] = comparisons
    atomic_write(os.path.join(cfg.out_dir, "summary.json"),
                 json.dumps(summary, indent=2) + "\n")
    return 0 if all_ok else 1


@_exit_2_on_config_error
def cmd_sweep(config_path: str, overrides: Optional[dict] = None) -> int:
    """Cartesian (b, mu) sweep; per-cell CSVs plus an averaged summary table."""
    overrides = overrides or {}
    if len(overrides.get("modes") or []) > 1:
        raise ConfigError(f"sweep takes one --mode, got {overrides['modes']}")
    cfg = load_config(config_path, overrides)
    bs = cfg.sweep_b or [cfg.solver.b]
    mus = cfg.sweep_mu or [cfg.solver.mu]
    cell_dirs = {}
    for b in bs:
        for mu in mus:
            name = f"b{b}_mu{mu:g}"
            if name in cell_dirs:
                b0, mu0 = cell_dirs[name]
                raise ConfigError(f"sweep cells (b={b0}, mu={mu0!r}) and "
                                  f"(b={b}, mu={mu!r}) would both write {name}")
            cell_dirs[name] = (b, mu)
    p, inits, cells = _setup(cfg, [cfg.mode], list(cell_dirs.values()))
    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = []
    all_ok = True
    for (b, mu, cell_cfg), name in zip(cells, cell_dirs):
        cell_dir = os.path.join(cfg.out_dir, name)
        os.makedirs(cell_dir, exist_ok=True)
        kkts, times, ratios, n_conv = [], [], [], 0
        for i, init in enumerate(inits):
            report = _run_one(p, cell_cfg, cfg.mode, init)
            atomic_write(os.path.join(cell_dir, f"run_{i}.csv"),
                         report_to_csv(report, timing=cfg.timing))
            if report.converged:
                n_conv += 1
                kkts.append(report.final_kkt)
                times.append(report.total_ms if cfg.timing else 0.0)
                ratios.extend(r.dir_err_ratio for r in report.records
                              if r.dir_err_ratio is not None)
            all_ok &= report.converged
        rows.append({
            "b": b, "mu": mu, "runs": len(inits), "converged": n_conv,
            "mean_kkt_residual": _sig6(float(np.mean(kkts))) if kkts else "",
            "mean_total_ms": _sig6(float(np.mean(times))) if times else "",
            "mean_dir_err_ratio": (_sig6(float(np.mean(ratios)))
                                   if ratios else ""),
        })
    header = ("b,mu,runs,converged,mean_kkt_residual,mean_total_ms,"
              "mean_dir_err_ratio")
    lines = [header] + [",".join(str(row[k]) for k in header.split(","))
                        for row in rows]
    atomic_write(os.path.join(cfg.out_dir, "sweep_summary.csv"),
                 "\n".join(lines) + "\n")
    atomic_write(os.path.join(cfg.out_dir, "sweep_summary.json"),
                 json.dumps({"cells": rows, "all_converged": all_ok},
                            indent=2) + "\n")
    return 0 if all_ok else 1


@_exit_2_on_config_error
def cmd_diag(config_path: str, gamma_c: float = 1.0, t: float = 1.0,
             upsilon: float = 2.0) -> int:
    """Print diagnostic constants and run two small-instance self-checks."""
    load_config(config_path)
    print(f"gamma_G(gamma_C={gamma_c:g}, t={t:g}, upsilon={upsilon:g}) = "
          f"{theory_gamma_G(gamma_c, t, upsilon):.6g}")
    print(f"mu_bar(gamma_C={gamma_c:g}, t={t:g}, upsilon={upsilon:g}) = "
          f"{theory_mu_bar(gamma_c, t, upsilon):.6g}")

    spec, _ = toy_case_params(1, N=120)
    p = make_toy_problem(spec)
    rng = np.random.default_rng(7)
    z = Trajectory(rng.uniform(-2, 2, (p.N + 1, 1)), rng.uniform(-2, 2, (p.N, 1)))
    z.x[0] = p.x0
    lam = DualTrajectory(rng.uniform(-2, 2, (p.N + 1, 1)))
    mu = 25.0

    plan = make_plan(p.N, 6, 2)
    nd = assemble_newton_data(p, z, lam)
    z_s, lam_s = one_newton_schwarz_step(p, z, lam, plan, mu)
    d = approximate_direction(nd, plan, mu)
    dx, du, dl = d.stage_arrays(p.N, p.n_x, p.n_u)
    diff = max(float(np.max(np.abs(z_s.x - (z.x + dx)))),
               float(np.max(np.abs(z_s.u - (z.u + du)))),
               float(np.max(np.abs(lam_s.lam - (lam.lam + dl)))))
    ok7 = diff <= 1e-9
    print(f"one_newton_equivalence: max_diff={diff:.3e} tol=1e-09 "
          f"{'PASS' if ok7 else 'FAIL'}")

    exact = solve_full_newton(nd)
    ratios = []
    for b in (1, 2, 4, 8):
        approx = approximate_direction(nd, make_plan(p.N, 6, b), mu)
        ratios.append(direction_error_ratio(exact, approx))
    logs = np.log(ratios)
    slope = float(np.polyfit([1, 2, 4, 8], logs, 1)[0])
    ok_decay = slope < 0 and all(b > a for a, b in zip(logs[1:], logs[:-1]))
    print("b_decay: ratios=[" + ", ".join(f"{r:.3e}" for r in ratios)
          + f"] slope={slope:.3f} {'PASS' if ok_decay else 'FAIL'}")
    return 0 if (ok7 and ok_decay) else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _comma_list(text: str) -> Optional[List[str]]:
    """The comma list's entries; None, which sets no key, for an empty list."""
    return [v for v in text.split(",") if v] or None


def _add_common(sp):
    sp.add_argument("--config", required=True, help="YAML experiment config")
    sp.add_argument("--out", dest="run.out_dir", metavar="OUT",
                    help="output directory override")
    sp.add_argument("--mode", action="append", dest="modes", metavar="MODE",
                    help="solver mode override; repeat for side-by-side runs")
    sp.add_argument("--seed", dest="run.seed", metavar="SEED",
                    help="initialization seed override")
    sp.add_argument("--workers", dest="solver.workers", metavar="WORKERS",
                    help="above 1, one helper thread computes each fotd or "
                         "centralized direction while the Hessian is tested; "
                         "results do not change, and the Schwarz baseline "
                         "starts no thread (>= 1)")
    sp.add_argument("--assert-level", choices=["off", "on"],
                    dest="run.assert_level")
    sp.add_argument("--diagnostics", action="store_const", const=True,
                    dest="run.diagnostics",
                    help="record per-iteration direction-error ratios")
    sp.add_argument("--no-timing", action="store_const", const=False,
                    dest="run.timing",
                    help="zero wall_ms columns for byte-stable output")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fotd",
        description="Temporal-decomposition SQP solver for long-horizon "
                    "nonlinear dynamic programs")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("solve", help="run configured solves"))
    sp = sub.add_parser("sweep", help="sweep overlap size and penalty")
    _add_common(sp)
    sp.add_argument("--b", type=_comma_list, dest="sweep.b", metavar="B",
                    help="comma list of overlap sizes")
    sp.add_argument("--mu", type=_comma_list, dest="sweep.mu", metavar="MU",
                    help="comma list of penalties")
    sp = sub.add_parser("diag", help="diagnostic constants and self-checks")
    sp.add_argument("--config", required=True)
    sp.add_argument("--gamma-c", type=float, default=1.0, dest="gamma_c")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--upsilon", type=float, default=2.0)
    args = parser.parse_args(argv)

    if args.command == "diag":
        return cmd_diag(args.config, gamma_c=args.gamma_c, t=args.t,
                        upsilon=args.upsilon)
    command = cmd_solve if args.command == "solve" else cmd_sweep
    return command(args.config, vars(args))


if __name__ == "__main__":
    sys.exit(main())
