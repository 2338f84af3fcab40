#!/usr/bin/env python3
"""Randomized soundness campaign over generated call/branch programs.

For every seed: generate a program, solve the flow constraints, build the
replica graph, enumerate the concrete state space to closure, and run both
differential checkers. Any violation is printed and fails the run.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter

from evmcfg import analyze, generate_program, random_shape
from evmcfg.cli import positive_int


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--count", type=positive_int, default=1000, help="number of programs"
    )
    parser.add_argument("--start-seed", type=int, default=0)
    parser.add_argument(
        "--max-blocks", type=positive_int, default=30,
        help="upper bound on blocks per program (at least 1)",
    )
    parser.add_argument(
        "--progress-every", type=int, default=200, metavar="N",
        help="print a progress line every N programs",
    )
    args = parser.parse_args()

    started = time.perf_counter()
    failures = 0
    block_counts: Counter[int] = Counter()
    max_replicas = 0
    total_states = 0

    for offset in range(args.count):
        seed = args.start_seed + offset
        shape = random_shape(random.Random(seed), max_blocks=args.max_blocks)
        analysis = analyze(generate_program(seed, shape))

        block_counts[len(analysis.system.blocks)] += 1
        max_replicas = max(
            max_replicas, max((r.id for r in analysis.cfg.vertices), default=0)
        )
        total_states += len(analysis.traces.states)

        if analysis.verdict != "pass":
            failures += 1
            print(f"seed {seed} FAILED")
            for label, verdict in (
                ("jumps-to", analysis.jumps_to),
                ("walk", analysis.walk),
            ):
                if not verdict.passed:
                    print(f"  {label}: {verdict.status}")
                    for violation in verdict.violations:
                        print(f"    {violation.to_json()}")

        done = offset + 1
        if args.progress_every and done % args.progress_every == 0:
            elapsed = time.perf_counter() - started
            print(f"[{elapsed:6.1f}s] {done}/{args.count} programs, {failures} failures")

    elapsed = time.perf_counter() - started
    sizes = sorted(block_counts)
    print(
        f"done: {args.count} programs in {elapsed:.1f}s,"
        f" blocks {sizes[0]}..{sizes[-1]},"
        f" max replicas per block {max_replicas},"
        f" {total_states} concrete states,"
        f" {failures} failures"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
