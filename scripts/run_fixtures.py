#!/usr/bin/env python3
"""Walk the three reference programs through the whole pipeline.

Prints blocks, entry contexts, graph edges, and checker verdicts for each
fixture, and optionally drops DOT/JSON artifacts into a directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from evmcfg import analyze, export_dot, export_json

FIXTURES = {
    "linear": "6003565b00",
    "branch": "6001600657005b00",
    "shared": "60056010565b600b6010565b00fefefe5b56",
}


def run_one(name: str, hex_text: str, out_dir: Path | None) -> bool:
    analysis = analyze(hex_text)
    system, cfg, traces = analysis.system, analysis.cfg, analysis.traces

    print(f"== {name} ({hex_text})")
    for block in system.blocks:
        contexts = system.entry_contexts(block.start_pc)
        rendered = ", ".join(c.render() for c in contexts) or "never entered"
        print(
            f"  block 0x{block.start_pc:02x}..0x{block.end_pc:02x}"
            f" [{block.terminator.value}] contexts: {rendered}"
        )
    for a, b in sorted(cfg.jump_edges):
        print(f"  {a.name()} -> {b.name()}")
    for a, b in sorted(cfg.next_edges):
        print(f"  {a.name()} -> {b.name()} (fallthrough)")

    print(f"  states={len(traces.states)} transitions={len(traces.transitions)}")
    print(f"  jumps-to: {analysis.jumps_to.status}  walk: {analysis.walk.status}")

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.dot").write_text(export_dot(cfg, system))
        (out_dir / f"{name}.json").write_text(export_json(cfg, system))
        print(f"  wrote {out_dir}/{name}.dot and .json")

    return analysis.verdict == "pass"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="directory for DOT/JSON artifacts",
    )
    parser.add_argument(
        "--only", choices=sorted(FIXTURES), default=None,
        help="run a single fixture",
    )
    args = parser.parse_args()

    selected = (
        {args.only: FIXTURES[args.only]} if args.only else FIXTURES
    )
    ok = all(run_one(name, hex_text, args.out) for name, hex_text in selected.items())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
