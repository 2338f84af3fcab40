"""Smoke runs of the standalone experiment scripts as child processes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import IMPORT_ROOT

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin", "PYTHONPATH": IMPORT_ROOT},
    )


def test_run_fixtures_script(tmp_path):
    proc = run_script("run_fixtures.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "jumps-to: pass  walk: pass" in proc.stdout
    counts = [line.strip() for line in proc.stdout.splitlines() if "states=" in line]
    assert counts == [
        "states=4 transitions=3",
        "states=6 transitions=5",
        "states=13 transitions=12",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"{name}.{ext}" for name in ("branch", "linear", "shared") for ext in ("dot", "json")
    ]


def test_soundness_campaign_script():
    proc = run_script("soundness_campaign.py", "--count", "20")
    assert proc.returncode == 0, proc.stderr
    assert "0 failures" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("--count", "0"), id="no-programs"),
        pytest.param(("--count", "-3"), id="negative-count"),
        pytest.param(("--count", "3", "--max-blocks", "0"), id="no-blocks"),
    ],
)
def test_soundness_campaign_rejects_values_below_one(args):
    # A count of 0 once crashed in the summary line, and a block bound
    # below the smallest shape estimate sampled shapes forever.
    proc = run_script("soundness_campaign.py", *args)
    assert proc.returncode == 2
    assert "invalid positive int value" in proc.stderr
    assert proc.stdout == ""


def test_gc_census_script():
    proc = run_script(
        "gc_census.py", "--branches", "10", "--callees", "5", "--sites", "3",
        "--repeat", "2",
    )
    assert proc.returncode == 0, proc.stderr
    assert "tracked objects kept by states and moves:" in proc.stdout
    assert "generation 2:" in proc.stdout
