#!/usr/bin/env python3
"""Record the pinned inputs of every workload in bench/pinned.json.

    python3 bench/pin.py

For each run size and workload this stores the digest, count, instruction
count and code bytes of the first inputs generator seed 1 yields, and for
scaled the sha256 of its export_json document. run.py regenerates the same
inputs on every run and fails when they no longer match, so a change to the
generators cannot shrink a workload unnoticed. Rerun only in a change that
redefines the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import SIZES, WORKLOADS, analyse, json_digest, pin  # noqa: E402

REFERENCE_SEED = 1


def main() -> int:
    pinned: dict = {}
    for size in SIZES.values():
        pinned[size.name] = {}
        for workload in WORKLOADS.values():
            entry = pin(workload, REFERENCE_SEED, size)
            if workload.name == "scaled":
                art: dict = {}
                analyse(next(workload.inputs(REFERENCE_SEED, size)), art, check=False, dot=False)
                entry["export_json_sha256"] = json_digest(art)
            pinned[size.name][workload.name] = entry
            print(size.name, workload.name, entry, flush=True)
    (BENCH / "pinned.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
