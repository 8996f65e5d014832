"""scripts/paper_facts.py, run once in a fresh interpreter with src on the
path, reproduces the committed FACTS.json byte for byte, and its rows say
what the paper claims."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def stdout():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paper_facts.py")],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.fixture(scope="module")
def facts(stdout):
    return json.loads(stdout)


def test_paper_facts_reproduces_facts_json(stdout):
    assert stdout == (ROOT / "FACTS.json").read_bytes()


def test_bounds_cover_the_diagonal_above_three_a_squared(facts):
    rows = facts["bounds"]
    assert [r["a"] for r in rows] == list(range(3, 31))
    assert all(Fraction(r["margin"]) > 0 for r in rows)


def test_dimensions_have_no_defect_in_the_guaranteed_range(facts):
    guaranteed = [r for r in facts["dimensions"] if r["guaranteed"]]
    assert guaranteed
    assert all(r["observed"] == r["expected"] for r in guaranteed)


def test_both_rulings_are_certified_and_singular_on_every_sampled_fiber(facts):
    rulings = [r for r in facts["ruled"] if r["claim"] == "twistor ruling"]
    assert [r["a"] for r in rulings] == [2, 3]
    for r in rulings:
        a = r["a"]
        assert r["certificate"]["passed"] is True
        assert r["certificate"]["degree_bound"] == 3 * a * a
        # each fiber carries the 2a - 2 points where the double curve meets it
        assert [f["singular_gcd_degree"] for f in r["fibers"]] == [2 * a - 2] * 4
    census = [r for r in facts["ruled"] if r["claim"] == "conic census"]
    assert [r["prime"] for r in census] == [5, 7, 11, 13]
    assert all(r["evidence"] == "mod-p" for r in census)
