"""tools/identical.py tells bit-identical source trees from ones that differ."""

import importlib.util
import re
import shutil
from pathlib import Path

import fotd

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identical.py"
spec = importlib.util.spec_from_file_location("identical", TOOL)
identical = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identical)

# The toy-c1 seed-0 cells, and a wide fuzz draw whose Schwarz chain is
# split at its junctions.
CELLS = [name for name in identical.CELLS
         if name.startswith("toy-c1/0/") or name == "fuzz-wide/0/schwarz"]


def test_copies_agree_and_a_kernel_switch_shows_in_the_toy_cells(tmp_path, capsys):
    sides = []
    for side in ("a", "b"):
        shutil.copytree(Path(fotd.__file__).parent, tmp_path / side / "fotd",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sides.append(tmp_path / side)
    old = identical.results(sides[0], CELLS)
    assert sorted(old) == sorted(CELLS) and len(CELLS) == 5
    assert identical.compare(old, identical.results(sides[1], CELLS)) == 0
    assert capsys.readouterr().out == "5 of 5 cells identical\n"
    # the toy's one-state subproblems go to the Riccati sweep instead of the
    # band, which rounds otherwise: only the decomposed directions move, and
    # each such cell names its first record and field that differ
    with open(sides[1] / "fotd" / "decomposition.py", "a") as fh:
        fh.write("\nRICCATI_MIN_NX = 1\n")
    assert identical.compare(old, identical.results(sides[1], CELLS)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2] == "3 of 5 cells identical"
    for line, mode in zip(lines, ("fotd", "fotd_w2")):
        assert re.fullmatch(rf"differs: toy-c1/0/{mode} at record \d+ \w+: "
                            r"0x\S+ -> 0x\S+", line), line
