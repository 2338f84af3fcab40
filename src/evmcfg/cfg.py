"""Stack-sensitive control-flow graph built from a solved constraint system.

Each block appears once per entry context that reaches it, so a shared
snippet entered with different return addresses on the stack becomes
several graph vertices, one per caller. Replica ids are dense, start at 1,
and follow the natural order of the entry contexts, which is canonical
(height first, then the tracked map; build_cfg sorts them so, as
EquationSystem.entry_contexts does). That makes ids independent of solver
visit order.

build_cfg numbers the contexts once: Cfg.vertices maps each replica id to
the entry context it stands for, and both exports read contexts from it.
The inverse lives only in build_cfg, which wires the edges with it: one
dict per entered block start, from each context stored there to its id, so
each end of a move is two plain lookups. It reads only the states stored at
block starts, so it derives no state.

Jump edges connect a block ending in JUMP or JUMPI to the replicas of the
destinations tracked on top of the stack. Next edges cover the fall-through
of a JUMPI and falling into a JUMPDEST-led block. build_cfg reads both from
EquationSystem.moves, a flat list with one tuple per move: the solver kept
each result of equations.block_exits, the rule its constraints are built
from, for every replica it moved, and build_cfg maps each tuple to an edge
between the ids of its two ends, in a single loop.

export_json writes the canonical JSON document (format_version 1) directly
as text for its fixed schema. The bytes equal those of
json.dumps(document, sort_keys=True, indent=2) plus a newline, without the
pure-Python encoder that any indent selects. Each part of the layout is an
f-string literal, compiled once with the module, and an entry context that
tracks no slot is written as {} without building its map. Both exports
sort edges as flat (block, id, block, id) int tuples (adding two ReplicaIds
gives one), the order of sorted ReplicaId pairs at less cost. export_json
looks each sorted vertex's context up, with no (id, context) pair to count
against the collector's threshold.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .domain import EMPTY_STACK, StackState
from .equations import EquationSystem


class ReplicaId(NamedTuple):
    """One vertex: a block start pc plus a 1-based entry context index."""

    block_start: int
    id: int

    def name(self) -> str:
        return f"B_0x{self.block_start:02x}_{self.id}"


class Cfg(NamedTuple):
    """The replica graph. vertices maps each replica to its entry context."""

    vertices: dict[ReplicaId, StackState]
    jump_edges: frozenset[tuple[ReplicaId, ReplicaId]]
    next_edges: frozenset[tuple[ReplicaId, ReplicaId]]
    entry: ReplicaId


def build_cfg(system: EquationSystem) -> Cfg:
    """Number each block's entry contexts, then wire the solver's moves."""
    new = tuple.__new__
    states = system.states
    ids: dict[int, dict[StackState, ReplicaId]] = {}
    vertices: dict[ReplicaId, StackState] = {}
    for block in system.blocks:
        start = block.start_pc
        # Both solvers store the state at every block start they enter. A
        # block whose start holds none was never entered: it has no replicas.
        state = states.get(start)
        if state:
            ids[start] = numbered = {}
            for i, s in enumerate(sorted(state), 1):
                numbered[s] = replica = new(ReplicaId, (start, i))
                vertices[replica] = s

    edges: dict[str, list[tuple[ReplicaId, ReplicaId]]] = {"jump": [], "next": []}
    for start, context, kind, target, landed in system.moves:
        edges[kind].append((ids[start][context], ids[target][landed]))

    jump_edges, next_edges = frozenset(edges["jump"]), frozenset(edges["next"])
    return new(Cfg, (vertices, jump_edges, next_edges, ids[0][EMPTY_STACK]))


def export_dot(cfg: Cfg, system: EquationSystem) -> str:
    """Graphviz rendering: solid jump edges, dashed next edges. Vertex
    names are ReplicaId.name, formatted inline."""
    labels = {
        block.start_pc: f"0x{block.start_pc:02x}..0x{block.end_pc:02x}\\n"
        + "\\n".join([ins.render() for ins in block.body])
        for block in system.blocks
    }
    lines = ["digraph cfg {"]
    lines += [
        f'  B_0x{start:02x}_{i} [label="{labels[start]}"];'
        for start, i in sorted(cfg.vertices)
    ]
    lines += [
        f"  B_0x{a:02x}_{i} -> B_0x{b:02x}_{j};"
        for a, i, b, j in sorted([x + y for x, y in cfg.jump_edges])
    ]
    lines += [
        f"  B_0x{a:02x}_{i} -> B_0x{b:02x}_{j} [style=dashed];"
        for a, i, b, j in sorted([x + y for x, y in cfg.next_edges])
    ]
    lines.append("}\n")
    return "\n".join(lines)


# The format_version 1 document below is laid out as
# json.dumps(document, sort_keys=True, indent=2) lays it out.
_INSTRUCTION_SEP = '",\n        "'
_DEST_SEP = ",\n            "


def _list(items: list[str], indent: str) -> str:
    """A JSON list of laid out items, opened on a line indented by indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def _ints(values, indent: str) -> str:
    return _list([f"{indent}  {v}" for v in values], indent)


def _sigma(s: StackState) -> str:
    """The tracked map of an entry context that tracks a slot, opened on a
    vertex's line indented by 8. sort_keys orders the positions as strings:
    "10" before "2". Sorting the slots' texts does so too: they differ
    first in their distinct positions' digits, or where one position ends
    in a quote, which sorts before every digit."""
    items = [
        f'          "{pos}": [\n            {_DEST_SEP.join(map(str, dests))}'
        "\n          ]"
        for pos, dests in s.sigma
    ]
    items.sort()
    return "{\n" + ",\n".join(items) + "\n        }"


def export_json(cfg: Cfg, system: EquationSystem) -> str:
    """Canonical JSON: sorted keys, fixed ordering, stable across runs.

    Every string in the document is an instruction rendering, an edge kind
    or a terminator name, none of which needs escaping.
    """
    program = system.program
    blocks = [
        f"""    {{
      "end": {b.end_pc},
      "instructions": [
        "{_INSTRUCTION_SEP.join([ins.render() for ins in b.body])}"
      ],
      "start": {b.start_pc},
      "terminator": "{b.terminator.value}"
    }}"""
        for b in sorted(system.blocks)
    ]
    vertices = [
        f"""    {{
      "block": {start},
      "entry": {{
        "n": {s.n},
        "sigma": {_sigma(s) if s.sigma else '{}'}
      }},
      "id": {i}
    }}"""
        for start, i in sorted(cfg.vertices)
        for s in [cfg.vertices[start, i]]
    ]
    edges = [
        f"""    {{
      "from": {{
        "block": {a},
        "id": {i}
      }},
      "kind": "{kind}",
      "to": {{
        "block": {b},
        "id": {j}
      }}
    }}"""
        for kind, pairs in (("jump", cfg.jump_edges), ("next", cfg.next_edges))
        for a, i, b, j in sorted([x + y for x, y in pairs])
    ]
    return f"""{{
  "blocks": {_list(blocks, "  ")},
  "edges": {_list(edges, "  ")},
  "entry": {{
    "block": {cfg.entry.block_start},
    "id": {cfg.entry.id}
  }},
  "format_version": 1,
  "program": {{
    "code_len": {program.code_len},
    "jumpdests": {_ints(sorted(program.jumpdests), "    ")},
    "unreached": {_ints(sorted(system.unreached), "    ")}
  }},
  "vertices": {_list(vertices, "  ")}
}}
"""


def cfg_from_json(text: str) -> Cfg:
    """Rebuild the graph of an exported document, entry contexts included.

    Raises ValueError for text without the format_version 1 layout: among
    others, a format_version that is not the int 1, a replica whose block or
    id is not an int, a replica listed twice among the vertices, a sigma key
    that is not the decimal spelling of its position, an entry context
    StackState.make rejects, and an edge or entry naming a replica that is
    not a vertex.
    """

    def replica(ref: dict) -> ReplicaId:
        if type(ref["block"]) is not int or type(ref["id"]) is not int:
            raise ValueError(f"replica block and id must be ints: {ref!r}")
        return ReplicaId(ref["block"], ref["id"])

    def position(key: str) -> int:
        pos = int(key)
        if str(pos) != key:  # "00", "1_0", " 1" and "+1" all read as ints
            raise ValueError(f"sigma key {key!r} is not a decimal position")
        return pos

    doc = json.loads(text)
    try:
        version = doc.get("format_version")
        if type(version) is not int or version != 1:
            raise ValueError(f"unsupported format_version {version!r}")
        vertices = {
            replica(v): StackState.make(
                v["entry"]["n"],
                {position(pos): dests for pos, dests in v["entry"]["sigma"].items()},
            )
            for v in doc["vertices"]
        }
        if len(vertices) != len(doc["vertices"]):
            raise ValueError("a replica is listed twice among the vertices")
        edges = {"jump": set(), "next": set()}
        for e in doc["edges"]:
            if e["kind"] not in edges:
                raise ValueError(f"unknown edge kind {e['kind']!r}")
            edges[e["kind"]].add((replica(e["from"]), replica(e["to"])))
        entry = replica(doc["entry"])
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(f"malformed document: {err!r}") from err
    named = {entry}.union(*edges["jump"], *edges["next"])
    if not named <= vertices.keys():
        raise ValueError(f"no vertex for replicas {sorted(named - vertices.keys())}")
    return Cfg(
        vertices=vertices,
        jump_edges=frozenset(edges["jump"]),
        next_edges=frozenset(edges["next"]),
        entry=entry,
    )
