"""tools/identical.py tells bit-identical source trees from ones that differ."""

import importlib.util
import shutil
from pathlib import Path

import fotd

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identical.py"
spec = importlib.util.spec_from_file_location("identical", TOOL)
identical = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identical)

CELLS = [name for name in identical.CELLS if name.startswith("toy-c1/0/")]


def test_copies_agree_and_a_kernel_switch_shows_in_the_toy_cells(tmp_path, capsys):
    sides = []
    for side in ("a", "b"):
        shutil.copytree(Path(fotd.__file__).parent, tmp_path / side / "fotd",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sides.append(tmp_path / side)
    old = identical.digests(sides[0], CELLS)
    assert sorted(old) == sorted(CELLS) and len(CELLS) == 4
    assert identical.compare(old, identical.digests(sides[1], CELLS)) == 0
    assert capsys.readouterr().out == "4 of 4 cells identical\n"
    # the toy's one-state subproblems go to the Riccati sweep instead of the
    # band, which rounds otherwise: only the decomposed directions move
    with open(sides[1] / "fotd" / "decomposition.py", "a") as fh:
        fh.write("\nRICCATI_MIN_NX = 1\n")
    assert identical.compare(old, identical.digests(sides[1], CELLS)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: toy-c1/0/fotd", "differs: toy-c1/0/fotd_w2",
        "2 of 4 cells identical"]
