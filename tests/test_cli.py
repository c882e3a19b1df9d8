import json

import pytest
import yaml

from fotd.cli import (ConfigError, build_problem, cmd_diag, cmd_solve,
                      cmd_sweep, config_from_dict, dump_config, load_config,
                      main)


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TOY_CFG = """
problem: {type: toy, case: 1, N: 60}
solver: {mode: fotd, mu: 25.0, M: 3, b: 2}
run: {inits: 2, seed: 3, out_dir: '%s', assert_level: 'on'}
"""


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, TOY_CFG % (tmp_path / "out"))
    cfg = load_config(path)
    emitted = str(tmp_path / "canon.yaml")
    dump_config(cfg, emitted)
    cfg2 = load_config(emitted)
    assert cfg == cfg2
    # emitting the canonical form again is byte-stable
    emitted2 = str(tmp_path / "canon2.yaml")
    dump_config(cfg2, emitted2)
    assert open(emitted).read() == open(emitted2).read()


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, """
problem: {type: toy, case: 1}
solver: {mode: fotd, typo_key: 1}
run: {}
""")
    with pytest.raises(ConfigError, match="solver.typo_key"):
        load_config(path)


def test_config_requires_problem_fields():
    with pytest.raises(ConfigError, match="problem"):
        config_from_dict({"problem": {"type": "toy"}})
    with pytest.raises(ConfigError, match="type"):
        config_from_dict({"problem": {"type": "heat"}})
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict({"problem": {"type": "toy", "case": 1},
                          "solver": {"mode": "admm"}})


def test_build_problem_variants():
    p = build_problem({"type": "toy", "case": 2, "N": 40})
    assert p.N == 40
    p = build_problem({"type": "toy", "case": None, "N": 30, "C1": 8.0,
                       "C2": 1.0, "d": {"kind": "sin", "scale": 2.0}})
    assert p.N == 30
    plate_cfg = config_from_dict({"problem": {"type": "plate", "N": 50}})
    p = build_problem(plate_cfg.problem)
    assert p.n_x == 4


def test_cmd_solve_end_to_end(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, TOY_CFG % out)
    rc = cmd_solve(path, {})
    assert rc == 0
    for i in range(2):
        lines = (out / f"run_{i}.csv").read_text().splitlines()
        assert lines[0] == "iter,kkt_residual,merit,stepsize,gamma,dir_err_ratio,wall_ms"
        assert len(lines) >= 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_converged"] is True
    assert {r["status"] for r in summary["runs"]} == {"converged_kkt"}


def test_cmd_solve_malformed_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "problem: {type: toy, case: 1}\nsolver: {bogus: 1}\n")
    rc = cmd_solve(path, {})
    assert rc == 2
    assert "solver.bogus" in capsys.readouterr().err


TOY_EXPLICIT = "problem: {type: toy, N: 30, C1: 8.0, C2: 1.0, d: %s}\n"


TOY_SOLVER = "problem: {type: toy, case: 1, N: 60}\nsolver: %s\n"


TOY_RUN = "problem: {type: toy, case: 1, N: 60}\nsolver: {M: 3, b: 2}\nrun: %s\n"


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("text, flags, names", [
    (TOY_EXPLICIT % "{kind: cosine}", [], "problem.d.kind"),  # unknown d kind
    (TOY_EXPLICIT % "1.0", [], "problem.d"),              # d is not a mapping
    ("problem: {type: plate, m: 2, N: 50}\n", [], "m=2"),  # no interior node
    ("problem: {type: plate, m: 4, N: 50, desired: {kind: cos}}\n", [],
     "problem.desired.kind"),
    (TOY_SOLVER % "{M: 7}", [], "M=7"),                   # M does not divide N
    (TOY_SOLVER % "{c: -1.0}", [], "solver.c"),           # not a solver key
    (TOY_SOLVER % "{gamma_step: 0.5}", [], "solver.gamma_step"),
    # Armijo and adaptation constants: valid values, but no longer keys
    (TOY_SOLVER % "{M: 3, b: 2, beta: 0.2}", [], "unknown key 'solver.beta'"),
    (TOY_SOLVER % "{M: 3, b: 2, backtrack_factor: 0.5}", [],
     "unknown key 'solver.backtrack_factor'"),
    (TOY_SOLVER % "{M: 3, b: 2, nu: 3.0}", [], "unknown key 'solver.nu'"),
    (TOY_SOLVER % "{M: 3, b: 2, rho_hat: 0.25}", [],
     "unknown key 'solver.rho_hat'"),
    (TOY_SOLVER % "{workers: 0}", [], "workers"),         # no worker thread
    (TOY_SOLVER % "{M: 3, b: 2}", ["--workers", "0"], "workers"),
    (TOY_SOLVER % "{M: 3, b: 2}\nsweep: {b: 3}", [], "sweep.b"),  # not a list
    (TOY_SOLVER % "{M: 3, b: 2}\nsweep: {mu: [a]}", [], "sweep.mu"),
    (TOY_RUN % "{inits: abc, out_dir: '%s'}", [], "run.inits"),
    (TOY_SOLVER % "5", [], "solver must be a mapping"),
    (TOY_SOLVER % "{M: 3, b: 2}\nrun: [1]", [], "run must be a mapping"),
    ("problem: [1, 2]\n", [], "problem must be a mapping"),
    (TOY_SOLVER % "{M: 3.7}", [], "solver.M"),            # no longer runs M=3
    (TOY_RUN % "{diagnostics: 'no', out_dir: '%s'}", [], "run.diagnostics"),
    (TOY_RUN % "{out_dir: null}", [], "run.out_dir"),     # no longer ./None
    (TOY_RUN % "{inits: 0, out_dir: '%s'}", [], "run.inits"),  # ran nothing
    ("problem: {type: plate, m: 4.7, N: 50}\n", [], "problem.m"),
    ("problem: {type: toy, case: 1.5, N: 60}\n", [], "problem.case"),
    (TOY_EXPLICIT % "{kind: sin, scal: 2}", [], "problem.d.scal"),  # typo
    (TOY_SOLVER % "{M: 3, b: 2, max_iters: -3}", [], "max_iters"),  # ran none
    (TOY_SOLVER % "{M: 3, b: 2, kkt_tol: -1.0}", [], "kkt_tol"),  # never met
    (TOY_SOLVER % "{M: 3, b: 2, step_tol: .nan}", [], "step_tol"),
    # an unknown key: Schwarz stops at solver.max_iters like every mode
    (TOY_SOLVER % "{mode: schwarz, M: 3, b: 2, schwarz_budget: -1}", [],
     "solver.schwarz_budget"),
    ("problem: [\n", [], "config is not valid YAML"),
    # a good config, but as the one item of a list
    ("- problem: {type: toy, case: 1, N: 60}\n"
     "  run: {inits: 1, out_dir: '%s'}\n", [], "config root must be a mapping"),
    (TOY_SOLVER % "{M: 3, b: 2}\nextra: 1", [], "unknown key 'extra'"),
    # solve names the unknown mode; sweep refuses a second one
    (TOY_SOLVER % "{M: 3, b: 2}", ["--mode", "fotd", "--mode", "bogus"],
     "'bogus'"),
    # the last --config given is read
    (TOY_SOLVER % "{M: 3, b: 2}", ["--config", "missing.yaml"],
     "cannot read config: [Errno 2] No such file or directory: "
     "'missing.yaml'"),
], ids=["d-kind", "d-scalar", "plate-m2", "desired-kind", "M-divides-N", "solver-c",
        "solver-gamma-step", "solver-beta", "solver-backtrack-factor",
        "solver-nu", "solver-rho-hat", "solver-workers-0", "flag-workers-0",
        "sweep-b-scalar", "sweep-mu-word", "run-inits-word", "solver-scalar",
        "run-list", "problem-list", "solver-M-fraction", "run-diagnostics-no",
        "run-out-dir-null", "run-inits-0", "plate-m-fraction",
        "toy-case-fraction", "d-key-typo", "max-iters-negative",
        "kkt-tol-negative", "step-tol-nan", "schwarz-budget-negative",
        "yaml-unparsed", "root-list", "top-level-key", "flag-mode-bogus",
        "config-missing"])
def test_config_errors_found_before_solving_exit_2(tmp_path, monkeypatch,
                                                    capsys, command, text,
                                                    flags, names):
    # a mistaken out_dir would land in the working directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    if "run:" not in text:
        text += "run: {inits: 1, out_dir: '%s'}\n"
    path = write_config(tmp_path, text.replace("%s", str(out)))
    assert main([command, "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert names in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


def test_sweep_takes_one_mode_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, TOY_CFG % out)
    assert main(["sweep", "--config", path, "--mode", "fotd",
                 "--mode", "centralized"]) == 2
    assert "--mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, names", [
    ("solve", ["--mode", "fotd", "--mode", "fotd"],
     "--mode fotd given more than once"),
    ("solve", ["--mode", "schwarz", "--mode", "fotd", "--mode", "schwarz"],
     "--mode schwarz given more than once"),
    ("sweep", ["--b", "2,2"],
     "(b=2, mu=25.0) and (b=2, mu=25.0) would both write b2_mu25"),
    ("sweep", ["--b", "2,2", "--mu", "25,25.0000001"],
     "(b=2, mu=25.0) and (b=2, mu=25.0000001) would both write b2_mu25"),
], ids=["solve-mode-twice", "solve-mode-twice-apart", "sweep-b-twice",
        "sweep-mu-same-to-6-digits"])
def test_runs_that_would_write_one_file_exit_2(tmp_path, monkeypatch, capsys,
                                              command, flags, names):
    import fotd.cli as cli
    solved = []
    monkeypatch.setattr(cli, "_run_one", lambda *args: solved.append(args))
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, TOY_CFG % (tmp_path / "out"))
    assert main([command, "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert names in err
    assert solved == []
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


@pytest.mark.parametrize("flag, given, block, key, val", [
    ("run.out_dir", "elsewhere", "run", "out_dir", "elsewhere"),
    ("run.seed", "7", "run", "seed", 7),
    ("solver.workers", "2", "solver", "workers", 2),
    ("modes", ["schwarz", "fotd"], "solver", "mode", "schwarz"),
    ("run.assert_level", "off", "run", "assert_level", "off"),
    ("run.diagnostics", True, "run", "diagnostics", True),
    ("run.timing", False, "run", "timing", False),
    ("sweep.b", ["1", "4"], "sweep", "b", [1, 4]),
    ("sweep.mu", ["1", "2.5"], "sweep", "mu", [1.0, 2.5]),
], ids=["out", "seed", "workers", "modes", "assert_level", "diagnostics",
        "no_timing", "b", "mu"])
def test_each_flag_sets_the_key_it_stands_for(tmp_path, flag, given, block,
                                              key, val):
    text = TOY_CFG % (tmp_path / "out")
    raw = yaml.safe_load(text)
    raw[block] = {**raw.get(block, {}), key: val}
    keyed = write_config(tmp_path, yaml.safe_dump(raw), name="keyed.yaml")
    path = write_config(tmp_path, text)
    canon = {}
    for name, cfg in [("plain", load_config(path)),
                      ("flagged", load_config(path, {flag: given})),
                      ("keyed", load_config(keyed))]:
        dump_config(cfg, str(tmp_path / f"{name}.out.yaml"))
        canon[name] = (tmp_path / f"{name}.out.yaml").read_bytes()
    assert canon["flagged"] == canon["keyed"] != canon["plain"]


def test_config_values_convert_without_loss():
    cfg = config_from_dict({
        "problem": {"type": "toy", "case": "1", "N": 60.0},
        "solver": {"M": "3", "b": 2.0, "mu": 25, "kkt_tol": "1e-7"},
        "run": {"seed": "4", "assert_level": False},
        "sweep": {"b": [1, "2"], "mu": ["1e1", 5]}})
    assert cfg.problem["case"] == 1 and cfg.problem["N"] == 60
    assert type(cfg.problem["N"]) is int
    assert (cfg.solver.M, cfg.solver.b, cfg.seed) == (3, 2, 4)
    assert type(cfg.solver.mu) is float and cfg.solver.kkt_tol == 1e-7
    assert cfg.solver.assert_descent is False
    assert cfg.sweep_b == [1, 2] and cfg.sweep_mu == [10.0, 5.0]
    for block, key, val in [("solver", "workers", True), ("solver", "mu", True),
                            ("solver", "adaptivity", 1), ("run", "timing", 1),
                            ("run", "out_dir", 5), ("run", "seed", "1.5"),
                            ("solver", "mode", None), ("run", "assert_level", 1)]:
        raw = {"problem": {"type": "toy", "case": 1}, block: {key: val}}
        with pytest.raises(ConfigError, match=f"{block}.{key}"):
            config_from_dict(raw)


def test_cmd_solve_comparative_modes(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, TOY_CFG % out)
    rc = main(["solve", "--config", path, "--mode", "centralized",
               "--mode", "fotd", "--mode", "schwarz"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    for mode in ("centralized", "fotd", "schwarz"):
        assert (out / f"run_0_{mode}.csv").exists()
    assert [c["modes"] for c in summary["comparisons"]] == [
        ["centralized", "fotd"], ["centralized", "schwarz"]] * 2
    for cmp_entry in summary["comparisons"]:
        assert cmp_entry["final_iterate_max_diff"] <= 1e-5


def test_cmd_solve_nonconverged_exit_1(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, """
problem: {type: toy, case: 2, N: 60}
solver: {mode: fotd, mu: 25.0, M: 3, b: 2, max_iters: 1}
run: {inits: 2, seed: 3, out_dir: '%s'}
""" % out)
    rc = cmd_solve(path, {})
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_converged"] is False
    assert (out / "run_1.csv").exists()  # partial outputs still written


def test_cmd_sweep_singleton_matches_solve(tmp_path):
    out_solve, out_sweep = tmp_path / "a", tmp_path / "b"
    path1 = write_config(tmp_path, TOY_CFG % out_solve, name="a.yaml")
    path2 = write_config(tmp_path, TOY_CFG % out_sweep, name="b.yaml")
    assert cmd_solve(path1, {"run.timing": False}) == 0
    assert cmd_sweep(path2, {"sweep.b": [2], "sweep.mu": [25.0],
                             "run.timing": False}) == 0
    a = (out_solve / "run_0.csv").read_bytes()
    b = (out_sweep / "b2_mu25" / "run_0.csv").read_bytes()
    assert a == b
    cells = json.loads((out_sweep / "sweep_summary.json").read_text())["cells"]
    assert [c["mean_total_ms"] for c in cells] == [0.0]


def test_cmd_sweep_cells_and_summary(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, TOY_CFG % out)
    rc = main(["sweep", "--config", path, "--b", "1,4", "--mu", "1,25"])
    assert rc == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert rows[0].startswith("b,mu,runs,converged")
    assert len(rows) == 5
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary["cells"]) == 4
    assert summary["all_converged"] is True


def test_cmd_sweep_diagnostics_ratio_decreases(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, """
problem: {type: toy, case: 1, N: 120}
solver: {mode: fotd, mu: 25.0, M: 4, b: 1}
run: {inits: 2, seed: 5, out_dir: '%s', diagnostics: true}
""" % out)
    rc = cmd_sweep(path, {"sweep.b": [1, 8], "sweep.mu": [25.0]})
    assert rc == 0
    cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
    by_b = {c["b"]: c["mean_dir_err_ratio"] for c in cells}
    assert by_b[8] < by_b[1]


def test_cmd_diag_prints_constants_and_passes(tmp_path, capsys):
    path = write_config(tmp_path, TOY_CFG % (tmp_path / "out"))
    rc = cmd_diag(path, gamma_c=1.0, t=1.0, upsilon=2.0)
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.00444444" in out
    assert "1024" in out
    assert out.count("PASS") == 2
    # the console command passes its defaults on
    assert main(["diag", "--config", path]) == 0
    assert capsys.readouterr().out == out


def test_csv_byte_stable_across_repeat_runs(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    path1 = write_config(tmp_path, TOY_CFG % out1, name="r1.yaml")
    path2 = write_config(tmp_path, TOY_CFG % out2, name="r2.yaml")
    assert main(["solve", "--config", path1, "--no-timing"]) == 0
    assert main(["solve", "--config", path2, "--no-timing"]) == 0
    assert (out1 / "run_1.csv").read_bytes() == (out2 / "run_1.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == \
        (out2 / "summary.json").read_bytes()


def test_assert_level_override_threads_through(tmp_path):
    path = write_config(tmp_path, TOY_CFG % (tmp_path / "out"))
    cfg = load_config(path)
    assert cfg.solver.assert_descent is True
    cfg2 = load_config(path, {"run.assert_level": "off",
                              "solver.workers": 4})
    assert cfg2.solver.assert_descent is False
    assert cfg2.solver.workers == 4
