"""Command line behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from evmcfg.cli import EXIT_ERROR, EXIT_OK, EXIT_UNSOUND, build_parser, main, run

from conftest import BRANCH_HEX, IMPORT_ROOT, LINEAR_HEX, SHARED_HEX, shift_register_hex


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_blocks_listing(capsys):
    code, out, err = run_main(capsys, "--hex", LINEAR_HEX, "--blocks")
    assert code == EXIT_OK
    assert err == ""
    assert out.splitlines() == [
        "block 0x00..0x02  [jump]  PUSH1 0x03; JUMP",
        "block 0x03..0x04  [end]  JUMPDEST; STOP",
    ]


def test_blocks_listing_reports_filler(capsys):
    code, out, _ = run_main(capsys, "--hex", SHARED_HEX, "--blocks")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "unreached: 0xd, 0xe, 0xf"


# Byte-exact --check reports: the report bytes are pinned, not just parsed.
SHARED_REPORT = """\
{
  "jumps_to": {
    "coverage": {
      "states": 13,
      "transitions": 12,
      "truncated": false
    },
    "verdict": "pass",
    "violations": []
  },
  "verdict": "pass",
  "vertices": 5,
  "walk": {
    "coverage": {
      "states": 13,
      "transitions": 12,
      "truncated": false
    },
    "verdict": "pass",
    "violations": []
  }
}
"""

# The loop's closure cut before its JUMPI forks.
CUT_LOOP_REPORT = """\
{
  "jumps_to": {
    "coverage": {
      "states": 4,
      "transitions": 3,
      "truncated": true
    },
    "verdict": "inconclusive",
    "violations": []
  },
  "verdict": "inconclusive",
  "vertices": 2,
  "walk": {
    "coverage": {
      "states": 4,
      "transitions": 3,
      "truncated": true
    },
    "verdict": "inconclusive",
    "violations": []
  }
}
"""


def test_check_pass(capsys):
    code, out, err = run_main(capsys, "--hex", SHARED_HEX, "--check")
    assert (code, out, err) == (EXIT_OK, SHARED_REPORT, "")


def test_inconclusive_check_report(capsys):
    code, out, err = run_main(
        capsys, "--hex", "5b600160005700", "--check", "--max-steps", "3"
    )
    assert (code, out, err) == (EXIT_UNSOUND, CUT_LOOP_REPORT, "")


def test_artifacts_written(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    code, out, _ = run_main(
        capsys, "--hex", BRANCH_HEX, "--dot", str(dot), "--json", str(js)
    )
    assert code == EXIT_OK
    assert out == ""
    assert dot.read_text().startswith("digraph cfg {")
    doc = json.loads(js.read_text())
    assert doc["format_version"] == 1
    assert doc["entry"] == {"block": 0, "id": 1}


def test_file_input(tmp_path, capsys):
    source = tmp_path / "prog.hex"
    source.write_text(LINEAR_HEX + "\n")
    code, out, _ = run_main(capsys, "--file", str(source), "--blocks")
    assert code == EXIT_OK
    assert "block 0x00" in out


def test_non_utf8_file_is_io_error(tmp_path, capsys):
    source = tmp_path / "prog.hex"
    source.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_main(capsys, "--file", str(source), "--blocks")
    assert code == EXIT_ERROR
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "io_error"


def test_missing_file_is_io_error(capsys):
    code, out, err = run_main(capsys, "--file", "/nonexistent/prog.hex", "--blocks")
    assert code == EXIT_ERROR
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "io_error"


def test_decode_error_reported(capsys):
    code, _, err = run_main(capsys, "--hex", "60xz", "--blocks")
    assert code == EXIT_ERROR
    payload = json.loads(err)
    assert payload["error"]["kind"] == "decode_error"
    assert payload["error"]["offset"] == 2
    assert "pc" not in payload["error"]


def test_unresolved_jump_reported(capsys):
    code, _, err = run_main(capsys, "--hex", "600056", "--blocks")
    assert code == EXIT_ERROR
    payload = json.loads(err)
    assert payload["error"]["kind"] == "unresolved_jump"
    assert payload["error"]["pc"] == 2


def test_nothing_requested_is_usage_error(capsys):
    code, _, err = run_main(capsys, "--hex", LINEAR_HEX)
    assert code == EXIT_ERROR
    payload = json.loads(err)
    assert payload["error"]["kind"] == "usage_error"


def test_argparse_usage_errors_remapped(capsys):
    # no input source at all
    assert main([]) == EXIT_ERROR
    capsys.readouterr()
    # unknown flag
    assert main(["--hex", "00", "--frobnicate"]) == EXIT_ERROR
    capsys.readouterr()
    # --hex and --file together
    assert main(["--hex", "00", "--file", "x", "--blocks"]) == EXIT_ERROR
    capsys.readouterr()


def test_budgets_must_be_positive(capsys):
    for argv in (
        ["--hex", "00", "--check", "--max-steps", "0"],
        ["--hex", "6003565b00", "--check", "--max-steps", "-1"],
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert "invalid positive int value" in err


def test_check_error_precedes_artifacts(tmp_path, capsys):
    # ADD on an empty stack at the code end: solve rejects it, and nothing
    # is written for a run that ends in an error.
    js = tmp_path / "g.json"
    code, out, err = run_main(
        capsys, "--hex", "01", "--blocks", "--check", "--json", str(js)
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "stack_arity_error"
    assert not js.exists()


def test_truncated_check_is_unsound_exit(capsys):
    code, out, _ = run_main(
        capsys, "--hex", SHARED_HEX, "--check", "--max-steps", "2"
    )
    assert code == EXIT_UNSOUND
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"
    assert report["jumps_to"]["coverage"]["truncated"] is True


def test_cycle_passes(capsys):
    for hex_text, states in (("5b600160005700", 5), ("5b600056", 3)):
        code, out, _ = run_main(capsys, "--hex", hex_text, "--check")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["walk"]["coverage"] == {
            "states": states,
            "transitions": states,
            "truncated": False,
        }


def test_truncated_push_diagnostic_on_stderr(capsys):
    code, _, err = run_main(capsys, "--hex", "60", "--blocks")
    assert code == EXIT_OK
    assert err.startswith("note:")


def test_verbose_solver_trace(capsys):
    code, _, err = run_main(capsys, "--hex", LINEAR_HEX, "--blocks", "-v")
    assert code == EXIT_OK
    assert "grow" in err


def test_solver_flag_is_gone(capsys):
    # The naive solver is a test reference with no budget, not a CLI choice.
    code, out, err = run_main(
        capsys, "--hex", SHARED_HEX, "--blocks", "--solver", "naive"
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert "unrecognized arguments: --solver naive" in err


def test_repeated_runs_byte_identical(tmp_path, capsys):
    artifacts = []
    for i in range(2):
        js = tmp_path / f"run{i}.json"
        code, _, _ = run_main(capsys, "--hex", SHARED_HEX, "--json", str(js))
        assert code == EXIT_OK
        artifacts.append(js.read_bytes())
    assert artifacts[0] == artifacts[1]


def test_run_config_direct(capsys):
    parser = build_parser()
    assert run(parser.parse_args(["--hex", LINEAR_HEX])) == EXIT_ERROR
    assert run(parser.parse_args(["--hex", LINEAR_HEX, "--check"])) == EXIT_OK
    capsys.readouterr()


def test_unbounded_entry_heights_exit_with_budget_error():
    # JUMPDEST PUSH1 0 PUSH1 0 JUMP: one more stack slot per loop turn. The
    # timeout turns a hang into a failure instead of a stalled suite.
    proc = subprocess.run(
        [sys.executable, "-m", "evmcfg", "--hex", "5b6000600056", "--blocks"],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": IMPORT_ROOT},
    )
    assert proc.returncode == EXIT_ERROR
    assert proc.stdout == ""
    assert '"kind": "budget_exceeded"' in proc.stderr
    assert json.loads(proc.stderr)["error"]["pc"] == 0


def test_growing_stack_exits_with_overflow(capsys):
    # The stack grows by one slot per loop turn until a PUSH at pc 5 would
    # make it 1025 high: the true error, reached within the work budget.
    code, out, err = run_main(capsys, "--hex", "600b5b6007600256585b565b", "--blocks")
    assert code == EXIT_ERROR
    assert out == ""
    report = json.loads(err)["error"]
    assert (report["kind"], report["pc"]) == ("stack_arity_error", 5)


def test_permuted_return_addresses_exit_with_budget_error():
    # 62 bytes whose loop head would be entered with 2^14 - 1 contexts at one
    # stack height; the work budget stops it.
    proc = subprocess.run(
        [sys.executable, "-m", "evmcfg", "--hex", shift_register_hex(13), "--blocks"],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": IMPORT_ROOT},
    )
    assert proc.returncode == EXIT_ERROR
    assert proc.stdout == ""
    assert '"kind": "budget_exceeded"' in proc.stderr
    assert "would pass MAX_WORK" in json.loads(proc.stderr)["error"]["message"]


def test_subprocess_smoke(tmp_path):
    js = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "evmcfg", "--hex", SHARED_HEX, "--check",
         "--json", str(js)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": IMPORT_ROOT},
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"
    assert json.loads(js.read_text())["format_version"] == 1
