"""Command line front end.

Reads bytecode as hex, runs the pipeline (decode, solve over the basic
blocks it scans as it reaches them, build graph), and writes the requested
artifacts. With --check it also runs the executable-semantics checkers and
reports a verdict.

Exit codes: 0 on success, 1 for analysis errors (bad input, unresolved
jumps, an exceeded solver budget) with a JSON report on stderr, 2 when a
soundness check does not pass, with the verdict JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .blocks import Block
from .cfg import export_dot, export_json
from .errors import AnalysisError
from .oracle import DEFAULT_MAX_STEPS
from .pipeline import analyze

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOUND = 2


def positive_int(text: str) -> int:
    """argparse type for a checker budget: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid positive int value: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmcfg",
        description=(
            "Reconstruct a stack-sensitive control-flow graph from EVM"
            " bytecode and optionally validate it against direct execution."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--hex", dest="hex_text", help="bytecode as a hex string")
    source.add_argument("--file", help="path to a file holding the hex string")
    parser.add_argument(
        "--blocks", action="store_true", help="print the basic block listing"
    )
    parser.add_argument("--dot", metavar="PATH", help="write the graph in DOT form")
    parser.add_argument(
        "--json", metavar="PATH", help="write the graph as canonical JSON"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the executable-semantics soundness checks",
    )
    parser.add_argument(
        "--max-steps",
        type=positive_int,
        default=DEFAULT_MAX_STEPS,
        help="transition budget for the checker (default %(default)s)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log solver progress to stderr",
    )
    return parser


def _fail(payload: dict) -> int:
    print(json.dumps({"error": payload}, sort_keys=True), file=sys.stderr)
    return EXIT_ERROR


def _format_block(block: Block) -> str:
    body = "; ".join(ins.render() for ins in block.body)
    return (
        f"block 0x{block.start_pc:02x}..0x{block.end_pc:02x}"
        f"  [{block.terminator.value}]  {body}"
    )


def run(args: argparse.Namespace) -> int:
    """Execute one CLI invocation described by parsed arguments."""
    if not (args.blocks or args.dot or args.json or args.check):
        return _fail(
            {
                "kind": "usage_error",
                "message": "nothing to do: pass --blocks, --dot, --json, or --check",
            }
        )
    try:
        if args.file is not None:
            hex_text = Path(args.file).read_text(encoding="utf-8")
        else:
            hex_text = args.hex_text or ""
    except (OSError, UnicodeDecodeError) as err:
        return _fail({"kind": "io_error", "message": str(err)})

    trace = (lambda line: print(line, file=sys.stderr)) if args.verbose else None
    try:
        analysis = analyze(
            hex_text,
            check=args.check,
            max_steps=args.max_steps,
            trace=trace,
        )
    except AnalysisError as err:
        return _fail(err.report())
    system, cfg = analysis.system, analysis.cfg

    for diagnostic in analysis.program.diagnostics:
        print(f"note: {diagnostic}", file=sys.stderr)

    if args.blocks:
        for block in system.blocks:
            print(_format_block(block))
        if system.unreached:
            rendered = ", ".join(f"0x{pc:x}" for pc in sorted(system.unreached))
            print(f"unreached: {rendered}")

    try:
        if args.dot:
            Path(args.dot).write_text(export_dot(cfg, system))
        if args.json:
            Path(args.json).write_text(export_json(cfg, system))
    except OSError as err:
        return _fail({"kind": "io_error", "message": str(err)})

    if args.check:
        report = {
            "verdict": analysis.verdict,
            "vertices": len(cfg.vertices),
            "jumps_to": analysis.jumps_to.to_json(),
            "walk": analysis.walk.to_json(),
        }
        print(json.dumps(report, sort_keys=True, indent=2))
        if analysis.verdict != "pass":
            return EXIT_UNSOUND

    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors; 2 is reserved for soundness
        # violations here, so remap.
        return EXIT_ERROR if err.code else EXIT_OK
    return run(args)


def entry() -> None:
    sys.exit(main())
