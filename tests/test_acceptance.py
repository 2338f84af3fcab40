"""End-to-end acceptance suite.

One test per shipping criterion, each printing a single PASS line with its
measured runtime. Budgets are asserted, so a regression that makes a
criterion slow fails loudly instead of rotting quietly.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import evmcfg
from evmcfg import (
    Cfg,
    ReplicaId,
    analyze,
    build_cfg,
    check_jumps_to,
    check_walk,
    decode_bytecode,
    generate_program,
    idmap,
    join,
    leq,
    random_shape,
    solve,
    verify_fixpoint,
)
from evmcfg.blocks import Terminator
from evmcfg.oracle import _stack_covered

from conftest import (
    BRANCH_HEX,
    LINEAR_HEX,
    SHARED_HEX,
    random_abstract,
    ss,
)

FIXTURES = (LINEAR_HEX, BRANCH_HEX, SHARED_HEX)


def report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def rid(block_start: int, id: int) -> ReplicaId:
    return ReplicaId(block_start, id)


def graph_edges(pairs):
    return frozenset((rid(*a), rid(*b)) for a, b in pairs)


def test_acceptance_1_fixture_exactness():
    started = time.perf_counter()
    empty = ss(0)

    expected = {
        LINEAR_HEX: {
            "blocks": [(0x00, 0x02, Terminator.JUMP), (0x03, 0x04, Terminator.END)],
            "entries": {0x00: idmap(empty), 0x03: idmap(empty)},
            "vertices": {rid(0x00, 1), rid(0x03, 1)},
            "jump": graph_edges([((0x00, 1), (0x03, 1))]),
            "next": frozenset(),
        },
        BRANCH_HEX: {
            "blocks": [
                (0x00, 0x04, Terminator.JUMPI),
                (0x05, 0x05, Terminator.END),
                (0x06, 0x07, Terminator.END),
            ],
            "entries": {
                0x00: idmap(empty),
                0x05: idmap(empty),
                0x06: idmap(empty),
            },
            "vertices": {rid(0x00, 1), rid(0x05, 1), rid(0x06, 1)},
            "jump": graph_edges([((0x00, 1), (0x06, 1))]),
            "next": graph_edges([((0x00, 1), (0x05, 1))]),
        },
        SHARED_HEX: {
            "blocks": [
                (0x00, 0x04, Terminator.JUMP),
                (0x05, 0x0A, Terminator.JUMP),
                (0x0B, 0x0C, Terminator.END),
                (0x10, 0x11, Terminator.JUMP),
            ],
            "entries": {
                0x00: idmap(empty),
                0x05: idmap(empty),
                0x0B: idmap(empty),
                0x10: {
                    ss(1, {0: [0x05]}): frozenset({ss(1, {0: [0x05]})}),
                    ss(1, {0: [0x0B]}): frozenset({ss(1, {0: [0x0B]})}),
                },
            },
            "vertices": {
                rid(0x00, 1), rid(0x05, 1), rid(0x0B, 1), rid(0x10, 1), rid(0x10, 2),
            },
            "jump": graph_edges(
                [
                    ((0x00, 1), (0x10, 1)),
                    ((0x10, 1), (0x05, 1)),
                    ((0x05, 1), (0x10, 2)),
                    ((0x10, 2), (0x0B, 1)),
                ]
            ),
            "next": frozenset(),
        },
    }

    for hex_text, want in expected.items():
        system = solve(decode_bytecode(hex_text))
        got_blocks = [(b.start_pc, b.end_pc, b.terminator) for b in system.blocks]
        assert got_blocks == want["blocks"], hex_text
        for start, value in want["entries"].items():
            assert system.state_at(start) == value, (hex_text, hex(start))
        cfg = build_cfg(system)
        assert cfg.vertices.keys() == want["vertices"], hex_text
        assert cfg.jump_edges == want["jump"], hex_text
        assert cfg.next_edges == want["next"], hex_text
        assert cfg.entry == rid(0x00, 1)

    report(1, "fixture-exactness", started, budget=1.0)


def test_acceptance_2_replication_shape():
    started = time.perf_counter()
    system = solve(decode_bytecode(SHARED_HEX))
    cfg = build_cfg(system)

    replicas = sorted(r for r in cfg.vertices if r.block_start == 0x10)
    assert replicas == [rid(0x10, 1), rid(0x10, 2)]

    returns = {
        a.id: b.block_start for a, b in cfg.jump_edges if a.block_start == 0x10
    }
    assert returns == {1: 0x05, 2: 0x0B}

    report(2, "replication-shape", started, budget=1.0)


def test_acceptance_3_lattice_laws():
    started = time.perf_counter()
    rng = random.Random(0xACC3)
    checked = 0
    while checked < 10_000:
        p1, p2, p3 = (random_abstract(rng) for _ in range(3))
        j12 = join(p1, p2)
        assert j12 == join(p2, p1)
        assert join(j12, p3) == join(p1, join(p2, p3))
        assert join(p1, p1) == p1

        # partial order
        assert leq(p1, p1)
        if leq(p1, p2) and leq(p2, p1):
            assert p1 == p2
        assert leq(p1, j12) and leq(p2, j12)
        if leq(p1, p2):
            assert leq(p1, join(p2, p3))

        # least upper bound: any other upper bound dominates the join
        upper = join(j12, p3)
        assert leq(j12, upper)
        checked += 3
    report(3, "lattice-laws", started, budget=30.0)


def test_acceptance_4_monotone_iterates_and_fixpoint():
    started = time.perf_counter()
    programs = [decode_bytecode(h) for h in FIXTURES]
    programs += [
        generate_program(seed, random_shape(random.Random(seed)))
        for seed in range(500)
    ]
    for program in programs:
        recorded = solve(program, mode="naive", record=True)
        snapshots = recorded.solve_stats.snapshots
        for earlier, later in zip(snapshots, snapshots[1:]):
            for pc in earlier:
                assert leq(earlier[pc], later[pc])
        for _pc, before, after in recorded.solve_stats.updates:
            assert leq(before, after) and before != after

        assert verify_fixpoint(recorded) == []

        by_worklist = solve(program, mode="worklist")
        assert {pc: v.value for pc, v in by_worklist.vars.items()} == {
            pc: v.value for pc, v in recorded.vars.items()
        }
    report(4, "monotone-iterates-and-fixpoint", started, budget=120.0)


def test_acceptance_5_soundness_campaign():
    started = time.perf_counter()
    for seed in range(1000, 2000):
        analysis = analyze(generate_program(seed, random_shape(random.Random(seed))))
        assert analysis.verdict == "pass", (
            f"seed {seed}: {analysis.jumps_to}, {analysis.walk}"
        )
    report(5, "soundness-campaign", started, budget=300.0)


def _context_mutation(system, traces):
    """A (pc, context) pair whose removal must break state coverage."""
    block_starts = {b.start_pc for b in system.blocks}
    for state in sorted(traces.states, key=lambda s: (s.pc, (s.stack.n, s.stack.sigma))):
        if state.pc not in block_starts:
            continue
        covering = [
            key
            for key in system.state_at(state.pc)
            if _stack_covered(state.stack, key)
        ]
        if len(covering) == 1:
            return state.pc, covering[0]
    return None


def _essential_edge(cfg: Cfg, system, traces):
    """A walk edge between two singleton levels; removal kills the walk."""
    block_starts = {b.start_pc for b in system.blocks}
    edges = cfg.jump_edges | cfg.next_edges
    successors: dict[ReplicaId, list[ReplicaId]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    for trace in traces.traces:
        sequence = [s.pc for s in trace if s.pc in block_starts]
        levels = [{cfg.entry}]
        for block in sequence[1:]:
            nxt = {
                succ
                for replica in levels[-1]
                for succ in successors.get(replica, ())
                if succ.block_start == block
            }
            levels.append(nxt)
        for here, there in zip(levels, levels[1:]):
            if len(here) == 1 and len(there) == 1:
                (a,), (b,) = here, there
                return a, b
    return None


def test_acceptance_6_mutation_sensitivity():
    started = time.perf_counter()
    context_trials = 0
    edge_trials = 0
    seed = 5000
    # Some seeds halt inside block 0 and leave no trace-used edge to cut,
    # so the two mutation kinds are counted independently.
    while (context_trials < 100 or edge_trials < 100) and seed < 5400:
        program = generate_program(seed, random_shape(random.Random(seed)))
        analysis = analyze(program)
        assert analysis.verdict == "pass"
        baseline, cfg, traces = analysis.system, analysis.cfg, analysis.traces

        if context_trials < 100:
            mutation = _context_mutation(baseline, traces)
            assert mutation is not None, f"seed {seed}: no uniquely covered context"
            pc, context = mutation
            mutated = solve(program)
            doctored = dict(mutated.state_at(pc))
            del doctored[context]
            mutated.states[pc] = doctored
            verdict = check_jumps_to(program, mutated, traces)
            assert verdict.status == "fail", f"seed {seed}: dropped context unnoticed"
            context_trials += 1

        if edge_trials < 100:
            edge = _essential_edge(cfg, baseline, traces)
            if edge is not None:
                cut = Cfg(
                    vertices=cfg.vertices,
                    jump_edges=cfg.jump_edges - {edge},
                    next_edges=cfg.next_edges - {edge},
                    entry=cfg.entry,
                )
                verdict = check_walk(program, cut, baseline, traces)
                assert verdict.status == "fail", f"seed {seed}: cut edge unnoticed"
                edge_trials += 1
        seed += 1

    assert context_trials == 100 and edge_trials == 100
    report(6, "mutation-sensitivity", started, budget=120.0)


def test_acceptance_7_cli_determinism(tmp_path):
    started = time.perf_counter()
    # The child must import the package under test, whether it comes from
    # a checkout (PYTHONPATH=src) or an install (site-packages); the probe
    # fails if another copy, e.g. one in the working directory, shadows it.
    import_root = str(Path(evmcfg.__file__).resolve().parent.parent)

    def child_env(round_no):
        return {"PYTHONHASHSEED": str(round_no), "PATH": "/usr/bin:/bin",
                "PYTHONPATH": import_root}

    probe = subprocess.run(
        [sys.executable, "-c", "import evmcfg; print(evmcfg.__file__)"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(0),
    )
    assert probe.returncode == 0, probe.stderr
    assert Path(probe.stdout.strip()).resolve() == Path(evmcfg.__file__).resolve()
    rounds = []
    for round_no in range(2):
        artifacts = []
        for i, hex_text in enumerate(FIXTURES):
            dot = tmp_path / f"r{round_no}_f{i}.dot"
            js = tmp_path / f"r{round_no}_f{i}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "evmcfg",
                    "--hex", hex_text,
                    "--dot", str(dot),
                    "--json", str(js),
                    "--check",
                ],
                capture_output=True,
                text=True,
                timeout=120,
                env=child_env(round_no),
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["verdict"] == "pass"
            artifacts.append((dot.read_bytes(), js.read_bytes(), proc.stdout))
        rounds.append(artifacts)
    assert rounds[0] == rounds[1]
    report(7, "cli-determinism", started, budget=60.0)
