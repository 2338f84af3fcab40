"""Replica expansion, graph shape, and the two export formats."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcfg import (
    Cfg,
    ReplicaId,
    StackState,
    build_cfg,
    cfg_from_json,
    decode_bytecode,
    export_dot,
    export_json,
    generate_program,
    random_shape,
    solve,
)
from evmcfg.blocks import Terminator
from evmcfg.equations import EquationSystem
from evmcfg.errors import AnalysisError

from conftest import (
    BRANCH_HEX,
    LINEAR_HEX,
    SHARED_HEX,
    TWO_HEIGHT_HEX,
    fuzz_inputs,
    generated_hex,
    jump_biased_hex,
    ss,
)


def rid(block_start: int, id: int) -> ReplicaId:
    return ReplicaId(block_start, id)


def edge_set(pairs):
    return frozenset((rid(*a), rid(*b)) for a, b in pairs)


# ------------------------------------------------------------------ vertices

def test_linear_graph(linear):
    cfg = linear.cfg
    assert cfg.vertices == {rid(0x00, 1): ss(0), rid(0x03, 1): ss(0)}
    assert cfg.jump_edges == edge_set([((0x00, 1), (0x03, 1))])
    assert cfg.next_edges == frozenset()
    assert cfg.entry == rid(0x00, 1)


def test_branch_graph(branch):
    cfg = branch.cfg
    assert cfg.vertices == {
        rid(0x00, 1): ss(0),
        rid(0x05, 1): ss(0),
        rid(0x06, 1): ss(0),
    }
    assert cfg.jump_edges == edge_set([((0x00, 1), (0x06, 1))])
    assert cfg.next_edges == edge_set([((0x00, 1), (0x05, 1))])


def test_shared_graph_splits_the_target(shared):
    cfg = shared.cfg
    assert cfg.vertices == {
        rid(0x00, 1): ss(0),
        rid(0x05, 1): ss(0),
        rid(0x0B, 1): ss(0),
        rid(0x10, 1): ss(1, {0: [0x05]}),
        rid(0x10, 2): ss(1, {0: [0x0B]}),
    }
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
    assert cfg.vertices == {
        rid(0x00, 1): ss(0),
        rid(0x05, 1): ss(0),
        rid(0x0D, 1): ss(1),
        rid(0x0F, 1): ss(1, {0: [0x05]}),
        rid(0x0F, 2): ss(2, {1: [0x0D]}),
    }
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
    assert cfg.vertices.keys() == {rid(0x00, 1), rid(0x05, 1)}
    assert cfg.jump_edges == edge_set([((0x00, 1), (0x05, 1))])
    assert cfg.next_edges == edge_set([((0x00, 1), (0x05, 1))])


def test_code_end_has_no_exit():
    # ADD as the last instruction, with two items to add: no move leaves the
    # block.
    cfg = build_cfg(solve(decode_bytecode("6001600101")))
    assert cfg.vertices.keys() == {rid(0x00, 1)}
    assert cfg.jump_edges == frozenset()
    assert cfg.next_edges == frozenset()


# ---------------------------------------------------------------- numbering

def test_replica_ids_order_by_height_then_shape(shared, two_height):
    assert shared.cfg.vertices[rid(0x10, 1)] == ss(1, {0: [0x05]})
    assert shared.cfg.vertices[rid(0x10, 2)] == ss(1, {0: [0x0B]})
    # lower entry height wins the lower id even when added later
    assert two_height.cfg.vertices[rid(0x0F, 1)] == ss(1, {0: [0x05]})
    assert two_height.cfg.vertices[rid(0x0F, 2)] == ss(2, {1: [0x0D]})


def test_vertices_number_each_blocks_entry_contexts(shared, two_height):
    # Per block, ids are dense from 1 and follow the canonical order (height,
    # then the tracked map), and the contexts are exactly those of the
    # solved state at the block start.
    for pipeline in (shared, two_height):
        system, vertices = pipeline.system, pipeline.cfg.vertices
        for block in system.blocks:
            replicas = sorted(r for r in vertices if r.block_start == block.start_pc)
            contexts = [vertices[r] for r in replicas]
            assert [r.id for r in replicas] == list(range(1, len(replicas) + 1))
            assert contexts == sorted(contexts, key=lambda s: (s.n, s.sigma))
            assert set(contexts) == system.state_at(block.start_pc).keys()


def test_exports_read_contexts_from_the_graph(shared, two_height, monkeypatch):
    # Once the graph is built, neither export numbers entry contexts again.
    expected = [
        (export_json(p.cfg, p.system), export_dot(p.cfg, p.system))
        for p in (shared, two_height)
    ]

    def refuse(self, pc):
        raise AssertionError("export asked the system for its entry contexts")

    monkeypatch.setattr(EquationSystem, "entry_contexts", refuse)
    got = [
        (export_json(p.cfg, p.system), export_dot(p.cfg, p.system))
        for p in (shared, two_height)
    ]
    assert got == expected


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


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[]", id="not-an-object"),
        pytest.param('{"format_version": 1}', id="no-vertices"),
        pytest.param(
            '{"format_version": 1, "vertices": [], "edges":'
            ' [{"kind": "jump", "to": {"block": 0, "id": 1}}]}',
            id="edge-without-from",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 0, "sigma": []}}], "edges": []}',
            id="sigma-not-an-object",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": 5, "edges": []}',
            id="vertices-not-a-list",
        ),
        pytest.param("not json", id="not-json"),
        pytest.param(
            '{"format_version": 1, "vertices": [], "edges": [{"kind": "jump",'
            ' "from": {"block": 0, "id": 1}, "to": {"block": 9, "id": 7}}],'
            ' "entry": {"block": 0, "id": 1}}',
            id="dangling-edge-and-entry",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": "zero", "id": 1,'
            ' "entry": {"n": 0, "sigma": {}}}], "edges": [],'
            ' "entry": {"block": "zero", "id": 1}}',
            id="block-not-an-int",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 0, "sigma": {}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 2}}',
            id="dangling-entry",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": true,'
            ' "entry": {"n": 0, "sigma": {}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="id-not-an-int",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 2.5, "sigma": {}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="height-not-an-int",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": true, "sigma": {}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="height-a-bool",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 2, "sigma": {"1": [3.5]}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="destination-not-an-int",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 2, "sigma": {"1": [-3]}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="negative-destination",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 0, "sigma": {}}}, {"block": 0, "id": 1,'
            ' "entry": {"n": 1, "sigma": {}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="duplicate-replica",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 2, "sigma": {"0": [5], "00": [11]}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="sigma-key-with-a-leading-zero",
        ),
        pytest.param(
            '{"format_version": 1, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 11, "sigma": {"1_0": [5]}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="sigma-key-with-an-underscore",
        ),
        pytest.param(
            '{"format_version": true, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 0, "sigma": {}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="format-version-a-bool",
        ),
        pytest.param(
            '{"format_version": 1.0, "vertices": [{"block": 0, "id": 1,'
            ' "entry": {"n": 0, "sigma": {}}}], "edges": [],'
            ' "entry": {"block": 0, "id": 1}}',
            id="format-version-a-float",
        ),
    ],
)
def test_json_rejects_malformed_documents(text):
    with pytest.raises(ValueError):
        cfg_from_json(text)


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


# ------------------------------------------------------ export byte equality

# The json.dumps-based export_json and the ReplicaId.name-based export_dot
# that the direct writers replaced, kept as the references for the writers'
# bytes; the JSON one also takes its contexts from a graph's vertices.

def _ref_replicas(system):
    return {
        ReplicaId(block.start_pc, i): s
        for block in system.blocks
        for i, s in enumerate(system.entry_contexts(block.start_pc), 1)
    }


def _ref_stack_to_json(s):
    return {
        "n": s.n,
        "sigma": {str(pos): list(dests) for pos, dests in s.sigma},
    }


def _ref_edge_to_json(kind, edge):
    a, b = edge
    return {
        "kind": kind,
        "from": {"block": a.block_start, "id": a.id},
        "to": {"block": b.block_start, "id": b.id},
    }


def reference_export_json(cfg, system, replicas=None):
    """Contexts come from replicas, or else from the system."""
    program = system.program
    blocks_json = [
        {
            "start": b.start_pc,
            "end": b.end_pc,
            "terminator": b.terminator.value,
            "instructions": [ins.render() for ins in b.body],
        }
        for b in sorted(system.blocks, key=lambda b: b.start_pc)
    ]
    replicas = _ref_replicas(system) if replicas is None else replicas
    vertices_json = [
        {
            "block": replica.block_start,
            "id": replica.id,
            "entry": _ref_stack_to_json(replicas[replica]),
        }
        for replica in sorted(cfg.vertices)
    ]
    edges_json = [
        _ref_edge_to_json("jump", e) for e in sorted(cfg.jump_edges)
    ] + [
        _ref_edge_to_json("next", e) for e in sorted(cfg.next_edges)
    ]
    doc = {
        "format_version": 1,
        "program": {
            "code_len": program.code_len,
            "jumpdests": sorted(program.jumpdests),
            "unreached": sorted(system.unreached),
        },
        "blocks": blocks_json,
        "vertices": vertices_json,
        "edges": edges_json,
        "entry": {"block": cfg.entry.block_start, "id": cfg.entry.id},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reference_export_dot(cfg, system):
    lines = ["digraph cfg {"]
    labels = {
        block.start_pc: "\\n".join(
            [f"0x{block.start_pc:02x}..0x{block.end_pc:02x}"]
            + [ins.render() for ins in block.body]
        )
        for block in system.blocks
    }
    for replica in sorted(cfg.vertices):
        lines.append(f'  {replica.name()} [label="{labels[replica.block_start]}"];')
    for a, b in sorted(cfg.jump_edges):
        lines.append(f"  {a.name()} -> {b.name()};")
    for a, b in sorted(cfg.next_edges):
        lines.append(f"  {a.name()} -> {b.name()} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def assert_same_json(system):
    """Both exports equal their references; returns the JSON text."""
    cfg = build_cfg(system)
    text = export_json(cfg, system)
    assert text == reference_export_json(cfg, system)
    assert export_dot(cfg, system) == reference_export_dot(cfg, system)
    return text


# Entry context at 0x19 tracks positions 2 and 10: PUSH1 0 twice, PUSH1 0x19,
# PUSH1 0 seven times, PUSH1 0x19 twice, JUMP, JUMPDEST, STOP.
POSITIONS_2_AND_10_HEX = "600060006019" + "6000" * 7 + "60196019565b00"


@pytest.mark.parametrize(
    "hex_text",
    [
        LINEAR_HEX,
        BRANCH_HEX,
        SHARED_HEX,
        TWO_HEIGHT_HEX,
        "00",  # one block, no edges
        "0c",  # an UNKNOWN byte
        "60015b0c00",  # falls into a JUMPDEST, then an UNKNOWN byte
        POSITIONS_2_AND_10_HEX,
    ],
)
def test_json_writer_matches_json_dumps_on_fixtures(hex_text):
    assert_same_json(solve(decode_bytecode(hex_text)))


def test_json_writer_orders_sigma_keys_as_strings():
    text = assert_same_json(solve(decode_bytecode(POSITIONS_2_AND_10_HEX)))
    entry = json.loads(text)["vertices"][-1]["entry"]
    assert entry == {"n": 11, "sigma": {"2": [0x19], "10": [0x19]}}
    assert text.index('"10": [') < text.index('"2": [')


def test_json_writer_empty_lists_and_maps(linear):
    text = assert_same_json(linear.system)
    assert '"sigma": {}' in text
    assert '"unreached": []' in text
    assert '"edges": []' in assert_same_json(solve(decode_bytecode("00")))


def test_json_writer_matches_json_dumps_on_generated_programs():
    rng = random.Random(0x150)
    for _ in range(200):
        seed = rng.getrandbits(32)
        assert_same_json(solve(generate_program(seed, random_shape(random.Random(seed)))))


def test_json_writer_matches_json_dumps_on_random_inputs():
    rng = random.Random(0x1D)
    accepted = 0
    while accepted < 2000:
        try:
            system = solve(decode_bytecode(jump_biased_hex(rng)))
        except AnalysisError:
            continue
        assert_same_json(system)
        accepted += 1


@st.composite
def wide_contexts(draw) -> StackState:
    """Up to 12 tracked slots anywhere in a full-height stack. Positions 2
    and 10 come often: as strings they sort the other way round."""
    positions = draw(
        st.lists(
            st.sampled_from((2, 10)) | st.integers(0, 1023), unique=True, max_size=12
        )
    )
    n = draw(st.integers(max(positions, default=-1) + 1, 1024))
    dests = st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=3, unique=True)
    sigma = sorted((pos, tuple(sorted(draw(dests)))) for pos in positions)
    return StackState(n, tuple(sigma))


@st.composite
def random_graphs(draw, system) -> Cfg:
    """Replicas with ids 1-12 on the system's blocks, random contexts, and
    random jump and next edges among them."""
    starts = st.sampled_from([block.start_pc for block in system.blocks])
    replica = st.builds(ReplicaId, starts, st.integers(1, 12))
    replicas = draw(st.lists(replica, min_size=1, unique=True))
    vertices = {r: draw(wide_contexts()) for r in replicas}
    ends = st.sampled_from(replicas)
    edges = st.frozensets(st.tuples(ends, ends))
    return Cfg(vertices, draw(edges), draw(edges), draw(ends))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_writers_match_their_references_on_random_graphs(shared, data):
    system = shared.system
    cfg = data.draw(random_graphs(system))
    assert export_json(cfg, system) == reference_export_json(cfg, system, cfg.vertices)
    assert export_dot(cfg, system) == reference_export_dot(cfg, system)


# sha256 of export_json then export_dot of every input below that solve
# accepts, recorded before the writers were last rewritten: the first 200
# corpus programs and the 5,007 fuzz inputs of benchmark seed 1.
PINNED_EXPORTS = (2425, "42f26474b494ecebbd7033c082da65c8f8b3a8083a08e4d9929134ed66654350")


def test_export_bytes_pinned_on_benchmark_inputs():
    corpus = [generated_hex(1_000_000 + i) for i in range(200)]
    digest = hashlib.sha256()
    accepted = 0
    for hex_text in corpus + fuzz_inputs(1, 5007):
        try:
            system = solve(decode_bytecode(hex_text))
        except AnalysisError:
            continue
        cfg = build_cfg(system)
        digest.update(export_json(cfg, system).encode())
        digest.update(export_dot(cfg, system).encode())
        accepted += 1
    assert (accepted, digest.hexdigest()) == PINNED_EXPORTS
