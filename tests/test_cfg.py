"""Replica expansion, graph shape, and the two export formats."""

from __future__ import annotations

import json
import random

import pytest

from evmcfg import (
    ReplicaId,
    build_cfg,
    cfg_from_json,
    decode_bytecode,
    export_dot,
    export_json,
    generate_program,
    get_id,
    get_stack,
    random_shape,
    solve,
)
from evmcfg.blocks import Terminator
from evmcfg.errors import ReplicaLookupError, UnresolvedJumpError

from conftest import ss


def rid(block_start: int, id: int) -> ReplicaId:
    return ReplicaId(block_start, id)


def edge_set(pairs):
    return frozenset((rid(*a), rid(*b)) for a, b in pairs)


# ------------------------------------------------------------------ vertices

def test_linear_graph(linear):
    cfg = linear.cfg
    assert cfg.vertices == frozenset({rid(0x00, 1), rid(0x03, 1)})
    assert cfg.jump_edges == edge_set([((0x00, 1), (0x03, 1))])
    assert cfg.next_edges == frozenset()
    assert cfg.entry == rid(0x00, 1)


def test_branch_graph(branch):
    cfg = branch.cfg
    assert cfg.vertices == frozenset({rid(0x00, 1), rid(0x05, 1), rid(0x06, 1)})
    assert cfg.jump_edges == edge_set([((0x00, 1), (0x06, 1))])
    assert cfg.next_edges == edge_set([((0x00, 1), (0x05, 1))])


def test_shared_graph_splits_the_target(shared):
    cfg = shared.cfg
    assert cfg.vertices == frozenset(
        {rid(0x00, 1), rid(0x05, 1), rid(0x0B, 1), rid(0x10, 1), rid(0x10, 2)}
    )
    assert cfg.jump_edges == edge_set(
        [
            ((0x00, 1), (0x10, 1)),
            ((0x10, 1), (0x05, 1)),
            ((0x05, 1), (0x10, 2)),
            ((0x10, 2), (0x0B, 1)),
        ]
    )
    assert cfg.next_edges == frozenset()
    assert cfg.entry == rid(0x00, 1)


def test_two_height_graph(two_height):
    cfg = two_height.cfg
    assert cfg.vertices == frozenset(
        {rid(0x00, 1), rid(0x05, 1), rid(0x0D, 1), rid(0x0F, 1), rid(0x0F, 2)}
    )
    assert cfg.jump_edges == edge_set(
        [
            ((0x00, 1), (0x0F, 1)),
            ((0x0F, 1), (0x05, 1)),
            ((0x05, 1), (0x0F, 2)),
            ((0x0F, 2), (0x0D, 1)),
        ]
    )
    assert cfg.next_edges == frozenset()


def test_fall_into_landing_produces_dashed_edge():
    system = solve(decode_bytecode("60005b00"))
    cfg = build_cfg(system)
    assert cfg.jump_edges == frozenset()
    assert cfg.next_edges == edge_set([((0x00, 1), (0x02, 1))])


def test_jumpi_to_its_own_fallthrough_gives_both_edges():
    # PUSH1 1; PUSH1 5; JUMPI; JUMPDEST; STOP: both arms land on 0x05.
    cfg = build_cfg(solve(decode_bytecode("60016005575b00")))
    assert cfg.vertices == frozenset({rid(0x00, 1), rid(0x05, 1)})
    assert cfg.jump_edges == edge_set([((0x00, 1), (0x05, 1))])
    assert cfg.next_edges == edge_set([((0x00, 1), (0x05, 1))])


def test_code_end_has_no_exit():
    # ADD as the last instruction, with two items to add: no move leaves the
    # block.
    cfg = build_cfg(solve(decode_bytecode("6001600101")))
    assert cfg.vertices == frozenset({rid(0x00, 1)})
    assert cfg.jump_edges == frozenset()
    assert cfg.next_edges == frozenset()


# ----------------------------------------------------------------- accessors

def test_get_id_orders_by_height_then_shape(shared, two_height):
    assert get_id(0x10, ss(1, {0: [0x05]}), shared.system) == rid(0x10, 1)
    assert get_id(0x10, ss(1, {0: [0x0B]}), shared.system) == rid(0x10, 2)
    # lower entry height wins the lower id even when added later
    assert get_id(0x0F, ss(1, {0: [0x05]}), two_height.system) == rid(0x0F, 1)
    assert get_id(0x0F, ss(2, {1: [0x0D]}), two_height.system) == rid(0x0F, 2)


def test_get_id_unknown_context(shared):
    with pytest.raises(ReplicaLookupError):
        get_id(0x10, ss(3), shared.system)


def test_get_stack_inverts_get_id(shared, two_height):
    for pipeline in (shared, two_height):
        system = pipeline.system
        for replica in pipeline.cfg.vertices:
            context = get_stack(replica.block_start, replica.id, system)
            assert get_id(replica.block_start, context, system) == replica


def test_get_stack_bounds(shared):
    with pytest.raises(ReplicaLookupError):
        get_stack(0x10, 0, shared.system)
    with pytest.raises(ReplicaLookupError):
        get_stack(0x10, 3, shared.system)
    with pytest.raises(ReplicaLookupError):
        get_stack(0x00, 2, shared.system)


def test_build_cfg_reports_lost_target():
    system = solve(decode_bytecode("6003565b00"))
    system.vars[0x02].value = {ss(0): frozenset({ss(1)})}
    with pytest.raises(UnresolvedJumpError):
        build_cfg(system)


def test_replica_names():
    assert rid(0x10, 2).name() == "B_0x10_2"
    assert rid(0x05, 1).name() == "B_0x05_1"
    assert rid(0x123, 1).name() == "B_0x123_1"


# ------------------------------------------------------------------- exports

EXPECTED_LINEAR_DOT = """digraph cfg {
  B_0x00_1 [label="0x00..0x02\\nPUSH1 0x03\\nJUMP"];
  B_0x03_1 [label="0x03..0x04\\nJUMPDEST\\nSTOP"];
  B_0x00_1 -> B_0x03_1;
}
"""


def test_dot_linear_exact(linear):
    assert export_dot(linear.cfg, linear.system) == EXPECTED_LINEAR_DOT


def test_dot_shared_shape(shared):
    text = export_dot(shared.cfg, shared.system)
    assert text.startswith("digraph cfg {\n")
    assert text.endswith("}\n")
    assert text.count("[label=") == 5
    assert text.count(" -> ") == 4
    assert "[style=dashed]" not in text
    # both replicas of the shared block carry the same label
    assert text.count('label="0x10..0x11\\nJUMPDEST\\nJUMP"') == 2


def test_dot_dashed_next_edges(branch):
    text = export_dot(branch.cfg, branch.system)
    assert "B_0x00_1 -> B_0x05_1 [style=dashed];" in text
    assert "B_0x00_1 -> B_0x06_1;" in text


def test_json_document_shape(shared):
    doc = json.loads(export_json(shared.cfg, shared.system))
    assert doc["format_version"] == 1
    assert doc["program"]["code_len"] == 18
    assert doc["program"]["jumpdests"] == [0x05, 0x0B, 0x10]
    assert doc["program"]["unreached"] == [0x0D, 0x0E, 0x0F]
    assert [b["start"] for b in doc["blocks"]] == [0x00, 0x05, 0x0B, 0x10]
    assert doc["blocks"][0]["instructions"] == ["PUSH1 0x05", "PUSH1 0x10", "JUMP"]
    assert doc["entry"] == {"block": 0, "id": 1}
    assert len(doc["vertices"]) == 5
    assert len(doc["edges"]) == 4
    replicas = {(v["block"], v["id"]): v["entry"] for v in doc["vertices"]}
    assert replicas[(0x10, 1)] == {"n": 1, "sigma": {"0": [0x05]}}
    assert replicas[(0x10, 2)] == {"n": 1, "sigma": {"0": [0x0B]}}
    kinds = {e["kind"] for e in doc["edges"]}
    assert kinds == {"jump"}


def test_json_roundtrip(shared, branch, linear, two_height):
    for pipeline in (shared, branch, linear, two_height):
        text = export_json(pipeline.cfg, pipeline.system)
        assert cfg_from_json(text) == pipeline.cfg


def test_json_rejects_other_versions(shared):
    doc = json.loads(export_json(shared.cfg, shared.system))
    doc["format_version"] = 2
    with pytest.raises(ValueError):
        cfg_from_json(json.dumps(doc))
    doc["format_version"] = 1
    doc["edges"][0]["kind"] = "sideways"
    with pytest.raises(ValueError):
        cfg_from_json(json.dumps(doc))


def test_exports_deterministic(shared):
    # independent pipelines, byte-identical artifacts
    system_a = solve(shared.program)
    system_b = solve(shared.program, mode="naive")
    cfg_a, cfg_b = build_cfg(system_a), build_cfg(system_b)
    assert export_dot(cfg_a, system_a) == export_dot(cfg_b, system_b)
    assert export_json(cfg_a, system_a) == export_json(cfg_b, system_b)


# ------------------------------------------------- generated-program checks

def test_generated_graph_invariants():
    rng = random.Random(0xCF6)
    for _ in range(25):
        seed = rng.getrandbits(32)
        program = generate_program(seed, random_shape(random.Random(seed)))
        system = solve(program)
        cfg = build_cfg(system)

        by_block: dict[int, set[int]] = {}
        for replica in cfg.vertices:
            by_block.setdefault(replica.block_start, set()).add(replica.id)
        for block_start, ids in by_block.items():
            assert ids == set(range(1, len(ids) + 1))
            assert len(system.entry_contexts(block_start)) == len(ids)

        starts = {b.start_pc: b for b in system.blocks}
        assert cfg.entry in cfg.vertices
        assert cfg.entry.block_start == 0
        for a, b in cfg.jump_edges | cfg.next_edges:
            assert a in cfg.vertices and b in cfg.vertices
        for a, b in cfg.jump_edges:
            assert starts[a.block_start].terminator in (
                Terminator.JUMP,
                Terminator.JUMPI,
            )
            target_first = system.program.instruction_at(b.block_start)
            assert target_first.spec.mnemonic == "JUMPDEST"
        for a, b in cfg.next_edges:
            src = starts[a.block_start]
            assert src.terminator in (
                Terminator.JUMPI,
                Terminator.FALL_TO_JUMPDEST,
            )
            assert b.block_start == src.last.next_pc

        text = export_json(cfg, system)
        assert cfg_from_json(text) == cfg
