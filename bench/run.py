#!/usr/bin/env python3
"""Seeded benchmark of the evmcfg pipeline.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Runs one workload (corpus, scaled or fuzz; see workloads.py) as a closed
loop for --seconds, checks every output, prints each metric by name with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A workload that replays its first inputs (fuzz) counts each of them once in
attempted and failed, so both repeat exactly for a seed.

Per-input times are CPU seconds of the analysing thread (see execute in
workloads.py); setup_s and the per-layer spans are wall times. Every time
reported is scaled to a reference machine speed measured by the yardstick
(yardstick.py) throughout the run, and the raw value is printed beside it.

With --trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json;
with --trace 1 they are the per-layer ones, measured by wrapping evmcfg's
public functions from here (tracer.py). A traced run analyses every input
twice, once traced and once not, so the tracing overhead is measured on the
same inputs. Per-layer counts are totals over the workload's first inputs
(which every run completes, so they repeat exactly for a seed); per-layer
times are mean self time per input over the same inputs. Inputs that hit
the time limit are left out of both and counted under errors.timeout.

evmcfg is imported from src/ next to this directory; nothing is installed.
Spans and scratch files go to bench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_LAUNCHES = 11
CLI_LAUNCHES = 5
# Share of the loop's time spent timing the yardstick, spread over the run.
YARDSTICK_SHARE = 0.1


def launch_seconds(argv: list[str], count: int) -> list[float]:
    """Wall times of count sequential launches, after one untimed warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for launch in range(count + 1):
        started = perf_counter()
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=120)
        elapsed = perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"{argv[1:4]} exited {done.returncode}: {done.stderr.decode()[-400:]}")
        if launch:
            times.append(elapsed)
    return times


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile of
    99.9, 99, 90 and 50 with at least ten samples beyond it; the maximum
    when even the median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(n * pct / 100)  # nearest-rank percentile
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100.0, 0


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "evmcfg").glob("*.py")))


def layer_metrics(tracer, arts: dict, outcomes: dict, cli_ms: float) -> tuple[dict, int, dict]:
    """Per-layer figures over the first inputs, timed-out ones left out."""
    included = {i for i, art in arts.items() if outcomes[i] != "timeout"}
    n = max(len(included), 1)
    self_s, calls = tracer.self_times(included)
    counted = tracer.counted(included)

    def mean_ms(span: str) -> float:
        return self_s.get(span, 0.0) / n * 1e3

    def hot(function: str, scope: str) -> tuple[int, float]:
        count, seconds = counted.get((function, scope), (0, 0.0))
        return count, seconds * 1e3

    kept = [arts[i] for i in sorted(included)]
    systems = [a["system"] for a in kept if "system" in a]
    graphs = [a["cfg"] for a in kept if "cfg" in a]
    traces = [a["traces"] for a in kept if "traces" in a]
    facts = sum(
        len(members) for s in systems for var in s.vars.values() for members in var.value.values()
    )
    pops = sum(s.solve_stats.pops for s in systems)
    update_calls, update_ms = hot("transfer.update_stack", "equations.solve")
    join_calls, join_ms = hot("domain.join", "equations.solve")
    step_calls, _ = hot("oracle.step", "oracle.enumerate")
    naive_calls = calls.get("equations.solve_naive", 0)
    kinds = Counter(outcomes.values())

    metrics = {
        "bytecode.decode_ms": mean_ms("bytecode.decode"),
        "bytecode.instructions": sum(len(a["program"].instructions) for a in kept if "program" in a),
        "blocks.partition_ms": mean_ms("blocks.partition"),
        "blocks.blocks": sum(len(s.blocks) for s in systems),
        "equations.solve_ms": mean_ms("equations.solve"),
        "equations.pops": pops,
        "equations.facts": facts,
        "equations.max_contexts": max(
            (len(var.value) for s in systems for var in s.vars.values()), default=0
        ),
        "equations.pops_per_fact": pops / facts if facts else 0.0,
        "equations.solve_naive_ms": (
            self_s.get("equations.solve_naive", 0.0) / naive_calls * 1e3 if naive_calls else 0.0
        ),
        "equations.naive_rounds": sum(a["naive"].solve_stats.iterations for a in kept if "naive" in a),
        "equations.verify_fixpoint_ms": mean_ms("equations.verify_fixpoint"),
        "transfer.update_stack_calls": update_calls,
        "transfer.update_stack_ms": update_ms / n,
        "transfer.calls_per_fact": update_calls / facts if facts else 0.0,
        "domain.join_calls": join_calls,
        "domain.join_ms": join_ms / n,
        "cfg.build_ms": mean_ms("cfg.build"),
        "cfg.replicas": sum(len(g.vertices) for g in graphs),
        "cfg.edges": sum(len(g.jump_edges) + len(g.next_edges) for g in graphs),
        "cfg.export_json_ms": mean_ms("cfg.export_json"),
        "cfg.export_dot_ms": mean_ms("cfg.export_dot"),
        "cfg.json_bytes": sum(len(a["json"].encode()) for a in kept if "json" in a),
        "oracle.enumerate_ms": mean_ms("oracle.enumerate"),
        "oracle.step_calls": step_calls,
        "oracle.states": sum(len(t.states) for t in traces),
        "oracle.transitions": sum(len(t.transitions) for t in traces),
        "oracle.traces": sum(len(t.traces) for t in traces),
        "oracle.truncated": sum(t.truncated for t in traces),
        "oracle.check_jumps_to_ms": mean_ms("oracle.check_jumps_to"),
        "oracle.check_walk_ms": mean_ms("oracle.check_walk"),
        "cli.process_ms": cli_ms,
        "src.lines": src_lines(),
    }
    # Every outcome kind of the prefix, timeouts included.
    for kind, count in kinds.items():
        if kind not in ("pass", "graph"):
            metrics[f"errors.{kind}"] = count
    return metrics, n, counted


@dataclass
class Run:
    """What one measured loop produced."""

    attempted: int = 0
    failed: int = 0
    decided: int = 0
    code_bytes: int = 0
    seconds: float = 0.0
    peak_rss_mb: float = 0.0
    # CPU seconds per analysis, untraced and traced. Arrays of doubles, so the
    # samples add 8 bytes each to peak_rss_mb rather than a float object's 32.
    times: array = field(default_factory=lambda: array("d"))
    traced_times: array = field(default_factory=lambda: array("d"))
    outcomes: dict[int, str] = field(default_factory=dict)  # traced prefix inputs
    arts: dict[int, dict] = field(default_factory=dict)  # traced prefix inputs
    witnesses: dict[str, str] = field(default_factory=dict)  # failed or undecided: hex -> outcome
    problems: list[str] = field(default_factory=list)
    yardstick_s: list[float] = field(default_factory=list)


def schedule(workload, size, seed: int, outcomes: dict[int, str]):
    """(position, hex) of each input in turn. A replayed workload yields its
    first inputs again and again, leaving out those that timed out on the
    first pass (outcomes holds the first pass's outcome by position)."""
    stream = workload.inputs(seed, size)
    if not workload.replay:
        yield from enumerate(stream)
        return
    batch = list(itertools.islice(stream, workload.prefix(size)))
    yield from enumerate(batch)
    again = [i for i in range(len(batch)) if outcomes[i] != "timeout"]
    while again:
        for position in again:
            yield position, batch[position]


def measure(workload, size, seed: int, seconds: float, ctx: dict, tracer) -> Run:
    """The closed loop: inputs one after another until seconds have passed
    and the workload's first inputs are done, the yardstick in between."""
    import yardstick
    from workloads import FAILED_OUTCOMES, UNDECIDED_OUTCOMES, execute

    run = Run()
    prefix = workload.prefix(size)
    first: dict[int, str] = {}  # outcome of each input's first run, by position
    inputs = schedule(workload, size, seed, first)
    started = perf_counter()
    run.yardstick_s.append(yardstick.run())
    yardstick_wall = perf_counter() - started
    index = 0
    while index < prefix or perf_counter() - started < seconds:
        try:
            position, hex_text = next(inputs)
        except StopIteration:  # every replayed input timed out
            break
        replayed = position in first
        # In a traced run, alternate which of the two passes goes first.
        passes = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in passes if tracer is not None else (False,):
            outcome, elapsed, art, found = execute(
                workload, hex_text, index, ctx, tracer if with_trace else None
            )
            run.problems += [f"input {position} ({hex_text[:80]}): {p}" for p in found]
            if replayed and outcome != first[position]:
                run.problems.append(f"input {position} ({hex_text[:80]}): {outcome} on a"
                                    f" replay, {first[position]} on the first pass")
            if with_trace:
                run.traced_times.append(elapsed)
                if index < prefix:
                    run.outcomes[index] = outcome
                    run.arts[index] = art
                continue
            del art  # so two inputs' results are never alive at once
            run.times.append(elapsed)
            if replayed:
                continue
            first[position] = outcome
            run.attempted += 1
            run.code_bytes += len(hex_text) // 2
            if index < len(workload.fixed):
                print(f"fixed input {outcome} {hex_text}")
            if outcome in FAILED_OUTCOMES or found:
                run.failed += 1
            if outcome not in UNDECIDED_OUTCOMES:
                run.decided += 1
            if outcome in FAILED_OUTCOMES + UNDECIDED_OUTCOMES or found:
                run.witnesses.setdefault(hex_text, outcome)
        index += 1
        while yardstick_wall < YARDSTICK_SHARE * (perf_counter() - started):
            passed = perf_counter()
            run.yardstick_s.append(yardstick.run())
            yardstick_wall += perf_counter() - passed
    run.seconds = perf_counter() - started
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "scaled", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the smoke test",
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (SRC / "evmcfg" / "__init__.py", spec_path):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    spec = json.loads(spec_path.read_text())
    pinned_all = json.loads((BENCH / "pinned.json").read_text())

    import yardstick
    from tracer import Tracer
    from workloads import FIXTURES, SIZES, WORKLOADS, analyse, on_alarm, pin

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    pinned = pinned_all[size.name][workload.name]
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGPROF, on_alarm)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  size {size.name}")
    print(f"env python {platform.python_version()}  nproc {os.cpu_count()}"
          f"  src/evmcfg lines {src_lines()}")
    print("loop closed: one caller, no threads, next input after the previous one ends;"
          f" limit {workload.limit_s:g} CPU s per input")

    # Set-up: fresh interpreters, one after another.
    if traced:
        cli_json = OUT / "cli.json"
        cli_s = launch_seconds(
            [sys.executable, "-m", "evmcfg", "--hex", FIXTURES[2], "--json", str(cli_json), "--check"],
            CLI_LAUNCHES,
        )
        expected: dict = {}
        analyse(FIXTURES[2], expected, check=False, dot=False)
        cli_ok = cli_json.read_text() == expected["json"]
    else:
        setup_s = launch_seconds([sys.executable, "-c", "import evmcfg.cli"], SETUP_LAUNCHES)

    ctx = {"size": size, "pinned": pinned, "ran": Counter()}
    tracer = Tracer() if traced else None
    run = measure(workload, size, args.seed, args.seconds, ctx, tracer)
    prefix = workload.prefix(size)
    # Every reported time is scaled to the yardstick's reference speed. The
    # mean, not the median, because the machine flips between a fast and a
    # slow state every few seconds, and the mean follows the share of time
    # spent in each.
    speed = yardstick.REFERENCE_S / statistics.fmean(run.yardstick_s)
    times, problems = run.times, run.problems

    attempted = run.attempted
    print(f"inputs {attempted} in {run.seconds:.1f} s, {run.code_bytes / attempted:.1f} code bytes"
          f" per input; the first {prefix} are pinned")
    if workload.replay:
        print(f"replayed: {len(times)} analyses of the {attempted} inputs, those that timed out"
              f" run once; attempted, failed and decided count each input once")
    print(f"failed_ratio = {run.failed / attempted:.6f} ratio ({run.failed} of {attempted})")
    print(f"yardstick: mean {statistics.fmean(run.yardstick_s):.4f} s over {len(run.yardstick_s)} passes;"
          f" times below are raw times x {speed:.4f}")

    # Pinned inputs: the reference seed must still generate the recorded ones.
    reference = pin(workload, pinned["seed"], size)
    for key in ("sha256", "inputs", "code_bytes"):
        if reference[key] != pinned[key]:
            problems.append(f"pinned inputs changed: {key} {reference[key]} != {pinned[key]}")
    ctx["ran"]["pinned input digest"] += 1
    own = reference if args.seed == pinned["seed"] else pin(workload, args.seed, size)
    print(f"inputs pinned for seed {pinned['seed']}: sha256 {pinned['sha256'][:16]}"
          f" instructions {reference['instructions']} (recorded {pinned['instructions']})"
          f" code bytes {reference['code_bytes']}; this seed's first {own['inputs']}:"
          f" sha256 {own['sha256'][:16]} instructions {own['instructions']}"
          f" code bytes {own['code_bytes']}")

    if traced:
        ctx["ran"]["CLI JSON equals library JSON"] += 1
        if not cli_ok:
            problems.append("python -m evmcfg --json output differs from export_json")
        metrics, n_layer, counted = layer_metrics(
            tracer, run.arts, run.outcomes, statistics.median(cli_s) * 1e3
        )
        untraced_p50 = statistics.median(times) * 1e3
        traced_p50 = statistics.median(run.traced_times) * 1e3
        metrics["trace.overhead_ms"] = traced_p50 - untraced_p50
        print(f"per-layer figures over the first {n_layer} inputs that did not time out")
        for (function, scope), (count, seconds) in sorted(counted.items()):
            print(f"  counted {function} under {scope}: {count} calls, {seconds * 1e3:.3f} ms")
        print(f"tracing overhead: program_p50_ms {traced_p50:.4f} traced vs"
              f" {untraced_p50:.4f} untraced over {len(times)} analyses, raw CPU ms")
        spans_path = OUT / f"spans-{workload.name}.tsv"
        tracer.write_spans(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        declared = spec["per_layer"]
    else:
        tail_s, tail_pct, beyond = tail(times)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "program_p50_ms": statistics.median(times) * 1e3,
            "program_tail_ms": tail_s * 1e3,
            "programs_per_s": len(times) / sum(times),
            "decided_ratio": run.decided / attempted,
            "peak_rss_mb": run.peak_rss_mb,
        }
        print(f"setup_s is the median of {SETUP_LAUNCHES} launches of `import evmcfg.cli`")
        print(f"program_tail_ms is p{tail_pct:g} of {len(times)} samples, {beyond} beyond it")
        print(f"programs_per_s counts {len(times)} analyses over {sum(times):.2f} CPU s of analysis")
        declared = spec["end_to_end"]

    for kind in sorted(k for k in metrics if k.startswith("errors.")):
        if kind not in {m["name"] for m in declared}:
            print(f"outcome kind {kind} = {metrics.pop(kind)} is not declared in BENCHMARK.json")
    result = {}
    for m in declared:
        name = m["name"]
        # An outcome kind that never occurred counts zero.
        raw = metrics.get(name, 0) if name.startswith("errors.") else metrics[name]
        value = {"s": raw * speed, "ms": raw * speed, "1/s": raw / speed}.get(m["unit"], raw)
        result[name] = {"value": value, "unit": m["unit"]}
        print(f"metric {name} = {value:.6g} {m['unit']}")
        if value != raw:
            print(f"raw {name} = {raw:.6g} {m['unit']}")
    undeclared = set(metrics) - set(result)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")

    for check, count in sorted(ctx["ran"].items()):
        print(f"check {check}: ran {count} times")
    for hex_text, outcome in run.witnesses.items():
        print(f"witness {outcome} {hex_text}")
    for problem in problems[:50]:
        print(f"PROBLEM {problem}")
    correct = not problems
    print(f"checks {'passed' if correct else f'FAILED ({len(problems)} problems)'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
