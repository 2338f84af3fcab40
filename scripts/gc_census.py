#!/usr/bin/env python3
"""What a solve leaves for the cyclic garbage collector, and what that costs.

Solves one generated program (by default the benchmark's scaled program:
generator seed 1, 800 branches, 40 callees x 20 sites) and prints:

  * the objects gc tracks that the solve added, counted by gc.get_objects()
    after gc.collect(): the blocks, and the Instructions the block scan
    builds as it reaches them, are among them; then those reachable from the
    solved system's states and moves, by type;
  * the collections per analysis, by generation, with the time they took,
    over --repeat runs of decode, solve, build_cfg and both exports.
"""

from __future__ import annotations

import argparse
import gc
import time
from collections import Counter

from evmcfg import (
    GeneratorShape,
    build_cfg,
    decode_bytecode,
    export_dot,
    export_json,
    generate_program,
    solve,
)
from evmcfg.cli import positive_int


def tracked_reachable(*roots) -> Counter[str]:
    """Type names of the gc-tracked objects reachable from roots, roots
    excluded. The walk does not enter classes, which every instance of a
    class refers to, nor untracked objects, which hold no tracked one."""
    seen = {id(root) for root in roots}
    found: Counter[str] = Counter()
    todo = list(roots)
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if gc.is_tracked(ref) and not isinstance(ref, type) and id(ref) not in seen:
                seen.add(id(ref))
                found[type(ref).__name__] += 1
                todo.append(ref)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--branches", type=positive_int, default=800)
    parser.add_argument("--callees", type=positive_int, default=40)
    parser.add_argument("--sites", type=positive_int, default=20)
    parser.add_argument("--repeat", type=positive_int, default=10)
    args = parser.parse_args()

    shape = GeneratorShape(
        branch_count=args.branches,
        callee_count=args.callees,
        sites_per_callee=args.sites,
    )
    hex_text = generate_program(1, shape).to_bytes().hex()
    program = decode_bytecode(hex_text)
    gc.collect()
    before = len(gc.get_objects())
    system = solve(program)
    gc.collect()
    added = len(gc.get_objects()) - before
    kept = tracked_reachable(system.states, system.moves)
    print(
        f"{len(program.instructions)} instructions,"
        f" {system.solve_stats.pops} replicas, {len(system.moves)} moves"
    )
    print(f"tracked objects the solve added, blocks and instructions included: {added}")
    print(f"tracked objects kept by states and moves: {sum(kept.values())}")
    for name, count in kept.most_common():
        print(f"  {name}: {count}")
    del program, system

    started: dict[int, float] = {}
    counts, seconds = Counter(), Counter()

    def on_gc(phase: str, info: dict) -> None:
        generation = info["generation"]
        if phase == "start":
            started[generation] = time.perf_counter()
        else:
            counts[generation] += 1
            seconds[generation] += time.perf_counter() - started[generation]

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        for _ in range(args.repeat):
            program = decode_bytecode(hex_text)
            system = solve(program)
            graph = build_cfg(system)
            export_json(graph, system)
            export_dot(graph, system)
            del program, system, graph
    finally:
        gc.callbacks.remove(on_gc)
    print(f"collections per analysis over {args.repeat} runs:")
    for generation in range(3):
        print(
            f"  generation {generation}: {counts[generation] / args.repeat:.1f}"
            f" taking {seconds[generation] * 1e3 / args.repeat:.1f} ms"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
