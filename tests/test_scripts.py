"""Smoke test of the scripts under scripts/: each runs to completion in a
fresh interpreter with src on the path, and prints what its docstring
promises."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_bound_table_covers_the_diagonal():
    header, *rows = _run("bound_table.py")
    assert "3a^2" in header
    assert [int(r.split()[0]) for r in rows] == list(range(3, 31))


def test_dim_grid_has_no_defect_in_the_guaranteed_range():
    header, *rows = _run("dim_grid.py")
    assert "guaranteed" in header
    guaranteed = [r for r in rows if r.split()[6] == "yes"]
    assert guaranteed
    assert not [r for r in guaranteed if "<- defect" in r]


def test_ruled_demo_runs():
    lines = _run("ruled_demo.py")
    assert [l.split(":")[0] for l in lines if l.startswith("a=")] == ["a=2", "a=3"]
    # the four sampled fibers of each ruling; each a = 2 fiber carries the
    # two singular points where the double curve meets it
    singular = [l.rsplit(": ", 1)[1] for l in lines if "singular points on the fiber" in l]
    assert singular[:4] == ["gcd degree 2"] * 4
    assert len(singular) == 8
    assert any(l.strip().startswith("census mod") for l in lines)

