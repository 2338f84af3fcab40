"""Smoke test of the benchmark itself: every workload at the tiny size.

    python3 -m pytest bench/test_run.py -q

Each run must print every metric BENCHMARK.json declares, by name and with
its unit, end in a result line of the agreed shape, and report the output
checks it ran.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {
    "corpus": ("both verdicts pass", "verify_fixpoint is empty", "naive fixpoint equals worklist"),
    "scaled": ("graph built", "verify_fixpoint is empty", "export_json digest pinned"),
    "fuzz": ("no fail verdict or untyped exception", "README fixture passes"),
}
HANGS = ("5b6000600056", "5b5f600056c091611500575f008091815b81", "600b5b6007600256585b565b")


def run(workload: str, trace: int, seconds: int = 1) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_workload_prints_every_metric_and_runs_its_checks(workload, trace):
    lines, result = run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(re.fullmatch(rf"metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}", line)
                   for line in lines), m["name"]

    ran = {m.group(1): int(m.group(2)) for line in lines
           if (m := re.fullmatch(r"check (.+): ran (\d+) times", line))}
    for check in CHECKS[workload] + ("pinned input digest",):
        assert ran.get(check, 0) >= 1, check
    assert "checks passed" in lines


def test_fuzz_lists_every_failed_or_undecided_fixed_input():
    lines, result = run("fuzz", 0)
    outcomes = {}
    for line in lines:
        if line.startswith("fixed input "):
            outcome, hex_text = line.split()[2:]
            outcomes[hex_text] = outcome
    assert set(HANGS) <= set(outcomes)
    failed = [h for h, outcome in outcomes.items() if outcome in ("timeout", "fail", "other")]
    assert result["failed"] >= len(failed)
    for hex_text, outcome in outcomes.items():
        if outcome in ("timeout", "fail", "other", "inconclusive"):
            assert f"witness {outcome} {hex_text}" in lines


def test_fuzz_counts_repeat_for_a_seed_however_long_it_runs():
    _, short = run("fuzz", 0, seconds=1)
    lines, long = run("fuzz", 0, seconds=3)
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])
    assert short["metrics"]["decided_ratio"] == long["metrics"]["decided_ratio"]
    assert any(line.startswith("replayed: ") for line in lines)
