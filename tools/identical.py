"""Check that the working tree's solves are bit-identical to a git revision's.

Runs every cell of :data:`CELLS` under REV's ``src/`` (extracted by
``git archive``) and under the working tree's ``src/``, each side in one
child process with ``OPENBLAS_NUM_THREADS=1``.  A cell's result is every
``IterationRecord`` field but ``wall_ms``, record by record, then the
status, the descent violations, the error's type and string, and the
bytes of the final x, u and lam (by their sha256); an exception that
escapes the solve is its type and string.  Prints each cell whose result
differs, with the first record and field, or the status, error or final
array, that differs and its two values, and exits 1 if any does:

    python tools/identical.py HEAD
    python tools/identical.py f2c998d

The cells, named ``family/index/mode``:

- the benchmark's shapes: toy case 1 at N=500, M=5; the plate at m=6,
  N=500, M=10 with a seeded phase per node; toy case 3 at N=1000, M=2;
  each at seeds 0-3, b=5, in modes fotd, fotd_w2 (two workers),
  centralized and schwarz;
- the plate at m=3 and m=4, N=100, M=10, b=5, inits 0-4 of seed 0, in the
  same four modes (at inits 1-4 fotd shifts the Hessian at iteration 0, so
  fotd_w2 drops its helper thread's direction there);
- toy cases 1-3 at N=120, M=6, b=1 with ``diagnostics``, ``adaptivity``
  and ``assert_descent=False``, inits 0-2 of seed 0, in modes fotd,
  centralized and schwarz;
- every draw that ``tests/test_fuzz.py`` solves, built by its own
  functions and solved in its three modes, fotd, centralized and schwarz,
  and in fotd_w2: the 40 narrow and 4 wide ``random_lq_draw`` seeds
  (``fuzz-narrow``, ``fuzz-wide``), and the toy cases 1-3 and the plate at
  m = 3 and 4 at each of their far scales (``fuzz-toy-c1`` and so on,
  indexed by scale).

That is 351 cells: 48, 40, 27 and 236.

Floating-point warnings are off in every solve, as in the fuzz gate; they
change no result.  It measures no time.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODES = ("fotd", "fotd_w2", "centralized", "schwarz")
SOLO = ("fotd", "centralized", "schwarz")  # the modes without workers
FUZZ = ([("fuzz-narrow", 40), ("fuzz-wide", 4)]  # (family, number of draws)
        + [(f"fuzz-toy-c{case}", 3) for case in (1, 2, 3)]
        + [(f"fuzz-plate-m{m}", 3) for m in (3, 4)])
CELLS = (
    [f"{family}/{seed}/{mode}" for family in ("toy-c1", "plate-m6", "toy-c3-deep")
     for seed in range(4) for mode in MODES]
    + [f"plate-m{m}/{i}/{mode}" for m in (3, 4) for i in range(5) for mode in MODES]
    + [f"toy-c{case}-flags/{i}/{mode}" for case in (1, 2, 3) for i in range(3)
       for mode in SOLO]
    + [f"{family}/{i}/{mode}" for family, count in FUZZ for i in range(count)
       for mode in MODES]
)


def _cell(family: str, index: int):
    """``(problem, init, SolverConfig)`` of one family's cell ``index``."""
    import numpy as np
    from fotd import SolverConfig
    from fotd.benchmarks import (PlateSpec, make_initializations,
                                 make_plate_problem, make_toy_problem,
                                 toy_case_params)

    def toy(case, N):
        return make_toy_problem(toy_case_params(case, N=N)[0])

    if family.startswith("fuzz-"):
        import test_fuzz as fuzz  # from tests/, which the child puts on sys.path
        kind = family[len("fuzz-"):]
        if kind in ("narrow", "wide"):
            p, cfg, init = fuzz.random_lq_draw(index, wide=kind == "wide")
        elif kind.startswith("toy-c"):
            p, cfg, init = fuzz.toy_far_draw(int(kind[len("toy-c"):]),
                                             fuzz.TOY_SCALES[index])
        else:
            p, cfg, init = fuzz.plate_far_draw(int(kind[len("plate-m"):]),
                                               fuzz.PLATE_SCALES[index])
        return p, init, cfg

    if family in ("toy-c1", "toy-c3-deep"):
        p = toy(1, 500) if family == "toy-c1" else toy(3, 1000)
        M = 5 if family == "toy-c1" else 2
        return p, make_initializations(p, 2, index)[1], SolverConfig(M=M, b=5)
    if family == "plate-m6":
        phase = np.random.default_rng(index).uniform(0.0, 2.0 * math.pi, 16)
        p = make_plate_problem(PlateSpec(
            m=6, N=500, desired=lambda node, t: math.sin(t + phase[node])))
        return p, make_initializations(p, 1, index)[0], SolverConfig(M=10, b=5)
    if family.startswith("plate-m"):
        p = make_plate_problem(PlateSpec(m=int(family[len("plate-m"):]), N=100))
        return p, make_initializations(p, 5, 0)[index], SolverConfig(M=10, b=5)
    p = toy(int(family[len("toy-c")]), 120)
    return p, make_initializations(p, 3, 0)[index], SolverConfig(
        M=6, b=1, diagnostics=True, adaptivity=True, assert_descent=False)


def _result(name: str) -> list:
    """Cell ``name``'s result as ``[where, value]`` pairs, in compared order.

    Solved by the ``fotd`` on ``sys.path``.  Floats are written by
    ``float.hex`` and arrays by the sha256 of their bytes.
    """
    from dataclasses import fields, replace

    import numpy as np
    from fotd import schwarz_solve, solve

    family, index, mode = name.split("/")
    p, init, cfg = _cell(family, int(index))
    workers = 2 if mode == "fotd_w2" else 1
    try:
        with np.errstate(all="ignore"):
            if mode == "schwarz":
                report = schwarz_solve(p, cfg, init)
            else:
                report = solve(p, replace(cfg, workers=workers), init,
                               mode="centralized" if mode == "centralized" else "fotd")
    except Exception as exc:  # an escape is a result to compare, too
        return [["raised", f"{type(exc).__name__}: {exc}"]]
    pairs = []
    for i, record in enumerate(report.records):
        for f in fields(record):
            v = getattr(record, f.name)
            if f.name != "wall_ms":
                pairs.append([f"record {i} {f.name}",
                              None if v is None else float(v).hex()])
    error = report.exception
    pairs += [["status", report.status],
              ["descent_violations", report.descent_violations],
              ["error", None if error is None
               else f"{type(error).__name__}: {report.error}"]]
    for key, a in (("x", report.z.x), ("u", report.z.u), ("lam", report.lam.lam)):
        a = np.ascontiguousarray(a, dtype=float)
        pairs.append([key, hashlib.sha256(a.tobytes()).hexdigest()])
    return pairs


def results(src: Path, names) -> dict:
    """Each named cell's result, solved by the ``fotd`` package under ``src``.

    Runs one child process with ``src`` as its only ``PYTHONPATH`` entry and
    checks that the child imported ``fotd`` from there.
    """
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, __file__, "--result", *names], env=env,
                           capture_output=True, text=True)
    if child.returncode:
        raise RuntimeError(f"the child under {src} failed:\n{child.stderr}")
    result = json.loads(child.stdout)
    package = Path(result.pop("fotd")).resolve()
    if package.parent != Path(src).resolve():
        raise RuntimeError(f"the child imported fotd from {package}, not {src}")
    return result


def compare(old: dict, new: dict) -> int:
    """Print each cell whose result differs between two runs; 1 if any does.

    A differing cell's line names the first pair of its results that
    differs, and both values.
    """
    differ = 0
    for name, pairs in old.items():
        end = ["end of results", None]
        for a, b in itertools.zip_longest(pairs, new.get(name, []),
                                          fillvalue=end):
            if a != b:
                where = a[0] if a[0] == b[0] else f"{a[0]} / {b[0]}"
                print(f"differs: {name} at {where}: {a[1]} -> {b[1]}")
                differ += 1
                break
    print(f"{len(old) - differ} of {len(old)} cells identical")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.rev, "src"],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        old = results(Path(tmp) / "src", CELLS)
    return compare(old, results(ROOT / "src", CELLS))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--result"]:
        sys.path.append(str(ROOT / "tests"))
        import fotd
        result = {name: _result(name) for name in sys.argv[2:]}
        print(json.dumps(dict(result, fotd=os.path.dirname(fotd.__file__))))
        raise SystemExit(0)
    raise SystemExit(main())
