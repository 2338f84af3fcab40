"""Executable reference semantics and differential soundness checks.

This module runs bytecode directly on a concrete stack: a StackState whose
tracked slots hold the jump destinations a value may be, and whose other
slots hold untracked values.
JUMPI explores both branches, so the reachable state set over-approximates
any single run. enumerate_states closes it breadth-first, loops included,
and the checkers compare that closure against the static results through
one map from each concrete state to its replica: a state at a block start
names its own replica, the block and its stack, and every other state runs
in the replica of its predecessor. Two replicas can reach one state (a
JUMPDEST POP entered with two different targets), so the map is walked as
(state, replica) pairs.

  * check_jumps_to: the member of a state's replica at its pc must cover
    the state's stack; at a block start, the stack must be an entry
    context there. EquationSystem.members_along walks each context through
    its block, so the check keeps no derived state in the system.
  * check_walk: each transition into a block must follow a graph edge from
    its source's replica to its target's, and the initial state must be
    the entry vertex. The paper's soundness claim is exactly this: every
    execution is a walk over the replica graph.

generate_program assembles randomized but well-formed test programs
(straight-line filler, branch diamonds, shared subroutines entered from
several call sites with distinct return addresses) where every jump target
is a pushed JUMPDEST, so the whole pipeline can be exercised end to end.

The stepper here deliberately re-implements the stack effects instead of
reusing the transfer module: the two sides of the differential test must
not share their computation.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .bytecode import OPCODES, JUMPI_BYTE, Program, decode_bytecode
from .cfg import Cfg
from .domain import MAX_STACK, StackState
from .equations import EquationSystem
from .errors import (
    AnalysisError,
    InvalidJumpError,
    StackArityError,
    StuckStateError,
)

DEFAULT_MAX_STEPS = 100_000


class ConcreteState(NamedTuple):
    """Program counter plus concrete stack with singleton tracked sets."""

    pc: int
    stack: StackState

    def render(self) -> str:
        return f"(pc=0x{self.pc:x}, {self.stack.render()})"


@dataclass(frozen=True)
class TraceSet:
    """The concrete states reachable from the start, with their successors.

    successors holds every stepped state; when truncated, the closure was
    cut and some states in states were never stepped.
    """

    states: frozenset[ConcreteState]
    successors: Mapping[ConcreteState, tuple[ConcreteState, ...]]
    truncated: bool

    @property
    def transitions(self) -> frozenset[tuple[ConcreteState, ConcreteState]]:
        return frozenset(
            (source, target)
            for source, targets in self.successors.items()
            for target in targets
        )

    @property
    def traces(self) -> tuple:
        """Always empty: no maximal traces are listed. The benchmark in
        bench/ still reads it."""
        return ()


@dataclass(frozen=True)
class Violation:
    kind: str
    pc: int
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "pc": self.pc, "detail": self.detail}


@dataclass(frozen=True)
class Coverage:
    states: int
    transitions: int
    truncated: bool

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "truncated": self.truncated,
        }


@dataclass(frozen=True)
class Verdict:
    status: str  # pass, fail, or inconclusive
    violations: tuple[Violation, ...]
    coverage: Coverage

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "verdict": self.status,
            "violations": [v.to_json() for v in self.violations],
            "coverage": self.coverage.to_json(),
        }


def _first_at_or_above(sigma: tuple, pos: int) -> int:
    """Index of the lowest tracked slot at position pos or higher."""
    i = len(sigma)
    while i and sigma[i - 1][0] >= pos:
        i -= 1
    return i


def _shared(stacks: dict[StackState, StackState], n: int, sigma: tuple) -> StackState:
    """The stack (n, sigma) from stacks, looked up by its plain tuple."""
    stack = stacks.get((n, sigma))
    if stack is None:
        stack = stacks[stack] = StackState(n, sigma)
    return stack


def step(
    program: Program, state: ConcreteState, stacks: dict | None = None
) -> tuple[ConcreteState, ...]:
    """Successor states of one concrete state, sorted canonically.

    Halting instructions and running off the end of the code produce no
    successors. Jumps with an untracked target raise StuckStateError; a
    tracked target that is not a JUMPDEST raises InvalidJumpError. Passing
    one stacks dict to every step of a closure builds each distinct stack
    once and shares it.
    """
    stacks = {} if stacks is None else stacks
    instr = program.instruction_at(state.pc)
    spec = instr.spec
    if spec.halts:
        return ()

    # The tracked slots, bottom first, so a tracked top slot comes last.
    n, sigma = state.stack

    if spec.is_jump:
        if not sigma or sigma[-1][0] != n - 1:
            raise StuckStateError(
                f"{spec.mnemonic} at pc 0x{instr.pc:x} pops an untracked"
                f" jump target (stack height {n})",
                pc=instr.pc,
            )
        targets = sigma[-1][1]
        if n < spec.delta:
            raise StackArityError(
                f"{spec.mnemonic} at pc 0x{instr.pc:x} needs {spec.delta}"
                f" stack items, found {n}",
                pc=instr.pc,
            )
        floor = n - spec.delta
        landed = _shared(stacks, floor, sigma[: _first_at_or_above(sigma, floor)])
        successors = []
        for dest in targets:
            if dest not in program.jumpdests:
                raise InvalidJumpError(
                    f"jump at pc 0x{instr.pc:x} lands on 0x{dest:x}, which"
                    f" is not a JUMPDEST",
                    pc=instr.pc,
                )
            successors.append(ConcreteState(dest, landed))
        if spec.byte_value == JUMPI_BYTE and program.has_instruction(instr.next_pc):
            successors.append(ConcreteState(instr.next_pc, landed))
        return tuple(sorted(set(successors)))

    if n < spec.delta:
        raise StackArityError(
            f"{spec.mnemonic} at pc 0x{instr.pc:x} needs {spec.delta} stack"
            f" items, found {n}",
            pc=instr.pc,
        )
    n_out = n - spec.delta + spec.alpha
    if n_out > MAX_STACK:
        raise StackArityError(
            f"{spec.mnemonic} at pc 0x{instr.pc:x} overflows the stack",
            pc=instr.pc,
        )
    next_pc = instr.next_pc
    if not program.has_instruction(next_pc):
        return ()

    if spec.is_push:
        value = instr.push_value()
        if value in program.jumpdests:
            sigma += ((n, (value,)),)
    elif spec.is_dup:
        source = n - (spec.byte_value - 0x7F)
        i = _first_at_or_above(sigma, source)
        if i < len(sigma) and sigma[i][0] == source:
            sigma += ((n, sigma[i][1]),)
    elif spec.is_swap:
        top, low = n - 1, n - (spec.byte_value - 0x8F) - 1
        lo, hi = _first_at_or_above(sigma, low), _first_at_or_above(sigma, top)
        mid = lo + (lo < hi and sigma[lo][0] == low)  # past a tracked low slot
        sigma = (
            sigma[:lo] + tuple((low, dests) for _, dests in sigma[hi:])
            + sigma[mid:hi] + tuple((top, dests) for _, dests in sigma[lo:mid])
        )
    else:
        sigma = sigma[: _first_at_or_above(sigma, n - spec.delta)]

    return (tuple.__new__(ConcreteState, (next_pc, _shared(stacks, n_out, sigma))),)


def initial_concrete_state() -> ConcreteState:
    return ConcreteState(0, StackState.make(0))


def enumerate_states(program: Program, max_steps: int = DEFAULT_MAX_STEPS) -> TraceSet:
    """Breadth-first closure of the concrete states reachable from the start.

    Records each stepped state's successors. max_steps bounds the closure's
    transitions, hence its states; truncated says that it cut the closure.
    A step error propagates with a partial_trace attribute, the chain of
    first-found predecessors from the start, for diagnosis.
    """
    if not program.instructions:
        raise AnalysisError("program has no instructions")
    start = initial_concrete_state()
    parents: dict[ConcreteState, ConcreteState | None] = {start: None}
    stacks = {start.stack: start.stack}
    queue = deque([start])
    succ_map: dict[ConcreteState, tuple[ConcreteState, ...]] = {}
    truncated = False
    steps = 0

    while queue:
        current = queue.popleft()
        try:
            successors = step(program, current, stacks)
        except AnalysisError as err:
            chain = [current]
            while parents[chain[-1]] is not None:
                chain.append(parents[chain[-1]])
            err.partial_trace = tuple(reversed(chain))
            raise
        steps += len(successors)
        if steps > max_steps:
            truncated = True
            break
        succ_map[current] = successors
        for nxt in successors:
            if parents.setdefault(nxt, current) is current:  # first reached
                queue.append(nxt)

    return TraceSet(states=frozenset(parents), successors=succ_map, truncated=truncated)


def _replica_steps(system: EquationSystem, traces: TraceSet):
    """Walk (state, entry) pairs over the closure, yielding each step.

    A pair's entry is the block-start state whose replica the state runs
    in: a state at a block start is its own entry, and any other state
    inherits its predecessor's. Two entries can reach one state when two
    contexts merge inside a block, so each entry walks its own chain, which
    only moves to the next pc and never meets itself. Yields (source,
    source entry, target, target entry) once per transition of a pair,
    after (None, None, start, start); an entry's steps inside its block
    come together, in pc order.
    """
    block_starts = {block.start_pc for block in system.blocks}
    successors = traces.successors
    start = initial_concrete_state()
    yield None, None, start, start
    entries = [start]
    seen = {start}
    for entry in entries:  # grows as the walk finds block starts
        chain = [entry]
        for state in chain:  # grows along the block
            for target in successors[state]:
                if target.pc not in block_starts:
                    yield state, entry, target, entry
                    chain.append(target)
                    continue
                yield state, entry, target, target
                if target not in seen:
                    seen.add(target)
                    entries.append(target)


def _stack_covered(concrete: StackState, abstract: StackState) -> bool:
    if concrete.n != abstract.n:
        return False
    for pos, dests in concrete.sigma:
        held = abstract.get(pos)
        if held is None or not set(dests) <= set(held):
            return False
    return True


def _coverage(traces: TraceSet) -> Coverage:
    transitions = sum(map(len, traces.successors.values()))
    return Coverage(len(traces.states), transitions, traces.truncated)


def check_jumps_to(
    program: Program, system: EquationSystem, traces: TraceSet
) -> Verdict:
    """Every reached state must be covered by the member of its replica."""
    coverage = _coverage(traces)
    if traces.truncated:
        return Verdict("inconclusive", (), coverage)

    violations: list[Violation] = []
    for source, source_entry, state, entry in _replica_steps(system, traces):
        if state is entry:
            # A block-start state is its own entry, so its stack must be an
            # entry context there, whose member covers it.
            members = system.state_at(state.pc).get(entry.stack, frozenset())
        else:
            if source is source_entry:  # first step inside: walk the block
                along = system.members_along(entry.pc, entry.stack)
                next(along)
            members = next(along)
        if state.stack in members or any(
            _stack_covered(state.stack, m) for m in members
        ):
            continue
        where = (
            f"initial state {state.render()}" if source is None
            else f"after pc 0x{source.pc:x}, state {state.stack.render()}"
            f" at pc 0x{state.pc:x}"
        )
        violations.append(
            Violation(
                kind="uncovered_state",
                pc=0 if source is None else source.pc,
                detail=(
                    f"{where} is not covered by entry context"
                    f" {entry.stack.render()} of block 0x{entry.pc:x}"
                ),
            )
        )
    status = "pass" if not violations else "fail"
    return Verdict(status, tuple(violations), coverage)


def check_walk(
    program: Program, cfg: Cfg, system: EquationSystem, traces: TraceSet
) -> Verdict:
    """Every transition into a block must follow an edge between replicas."""
    coverage = _coverage(traces)
    if traces.truncated:
        return Verdict("inconclusive", (), coverage)

    replicas = {
        ConcreteState(r.block_start, context): r for r, context in cfg.vertices.items()
    }
    edges = cfg.jump_edges | cfg.next_edges
    violations: list[Violation] = []
    for source, source_entry, target, entry in _replica_steps(system, traces):
        if target is not entry:
            continue  # inside a block
        here = replicas.get(entry)
        if source is None:
            if here == cfg.entry:
                continue
            detail = f"initial state {target.render()} is not the entry vertex"
        else:
            there = replicas.get(source_entry)
            if (there, here) in edges:
                continue
            detail = (
                f"transition 0x{source.pc:x} -> 0x{target.pc:x} follows no edge"
                f" from replica {source_entry.render()} to {target.render()}"
            )
        violations.append(
            Violation(
                kind="missing_edge",
                pc=0 if source is None else source.pc,
                detail=detail,
            )
        )
    status = "pass" if not violations else "fail"
    return Verdict(status, tuple(violations), coverage)


# ---------------------------------------------------------------------------
# Randomized program generation


@dataclass(frozen=True)
class GeneratorShape:
    """Size box for generated programs.

    max_call_depth of 1 keeps subroutines leaf-only; larger values let a
    subroutine call a later one, which bounds chains by callee_count and
    keeps the call structure acyclic.
    """

    max_blocks: int = 30
    max_call_depth: int = 2
    filler_density: int = 2
    branch_count: int = 2
    callee_count: int = 2
    sites_per_callee: int = 2
    junk_depth: int = 2

    def validate(self) -> None:
        if self.max_blocks < 1 or self.max_call_depth < 1:
            raise ValueError("shape bounds must be positive")
        for name in ("filler_density", "branch_count", "callee_count", "junk_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.callee_count and self.sites_per_callee < 1:
            raise ValueError("sites_per_callee must be positive")


def random_shape(rng: random.Random, max_blocks: int = 30) -> GeneratorShape:
    """Sample a shape whose block estimate stays inside max_blocks."""
    while True:
        shape = GeneratorShape(
            max_blocks=max_blocks,
            max_call_depth=rng.choice((1, 1, 2)),
            filler_density=rng.randint(0, 3),
            branch_count=rng.randint(0, 4),
            callee_count=rng.randint(0, 3),
            sites_per_callee=rng.randint(2, 3),
            junk_depth=rng.randint(0, 2),
        )
        estimate = (
            1
            + 3 * shape.branch_count
            + shape.callee_count * (shape.sites_per_callee + 2)
        )
        if estimate <= max_blocks:
            return shape


_BYTE_BY_NAME = {spec.mnemonic: byte for byte, spec in OPCODES.items()}
_ITEM_SIZE = {"label": 0, "op": 1, "push1": 2, "push_label": 3}


class _Assembler:
    """Two-pass assembler with 16-bit label addresses."""

    def __init__(self):
        self.items: list[tuple] = []

    def op(self, mnemonic: str) -> None:
        self.items.append(("op", _BYTE_BY_NAME[mnemonic]))

    def push1(self, value: int) -> None:
        self.items.append(("push1", value & 0xFF))

    def push_label(self, label: str) -> None:
        self.items.append(("push_label", label))

    def mark(self, label: str) -> None:
        self.items.append(("label", label))

    def assemble(self) -> bytes:
        offsets: dict[str, int] = {}
        offset = 0
        for kind, arg in self.items:
            if kind == "label":
                offsets[arg] = offset
            offset += _ITEM_SIZE[kind]
        if offset > 0xFFFF:
            raise ValueError("assembled program exceeds 16-bit addressing")
        out = bytearray()
        for item in self.items:
            kind = item[0]
            if kind == "label":
                continue
            if kind == "op":
                out.append(item[1])
            elif kind == "push1":
                out += bytes((_BYTE_BY_NAME["PUSH1"], item[1]))
            else:
                target = offsets[item[1]]
                out += bytes((_BYTE_BY_NAME["PUSH2"],)) + target.to_bytes(2, "big")
        return bytes(out)


# Stack-neutral filler snippets; "a" and "b" push the two bytes drawn.
_FILLER = (
    ("a", "POP"),
    ("a", "b", "ADD", "POP"),
    ("a", "DUP1", "POP", "POP"),
    ("a", "b", "SWAP1", "POP", "POP"),
    ("CALLDATASIZE", "POP"),
    ("a", "ISZERO", "POP"),
)


def _emit_filler(asm: _Assembler, rng: random.Random, density: int) -> None:
    for _ in range(rng.randint(0, density)):
        pushed = {"a": rng.randrange(256), "b": rng.randrange(256)}
        for item in _FILLER[rng.randrange(len(_FILLER))]:
            if item in pushed:
                asm.push1(pushed[item])
            else:
                asm.op(item)


def generate_program(seed: int, shape: GeneratorShape = GeneratorShape()) -> Program:
    """Assemble a randomized program where every jump target is pushed.

    The same seed and shape always produce the same bytes. Programs are
    loop-free: subroutine calls only go forward in the callee order, so
    exhaustive enumeration terminates without hitting bounds.
    """
    shape.validate()
    rng = random.Random(seed)
    asm = _Assembler()
    ret_ids = itertools.count()
    callees = [f"fn{i}" for i in range(shape.callee_count)]

    def call_site(target: str) -> None:
        junk = rng.randint(0, shape.junk_depth)
        for _ in range(junk):
            asm.push1(rng.randrange(256))
        ret = f"ret{next(ret_ids)}"
        asm.push_label(ret)
        asm.push_label(target)
        asm.op("JUMP")
        asm.mark(ret)
        asm.op("JUMPDEST")
        for _ in range(junk):
            asm.op("POP")

    actions: list[tuple] = [("branch", i) for i in range(shape.branch_count)]
    for name in callees:
        actions += [("call", name)] * shape.sites_per_callee
    rng.shuffle(actions)

    _emit_filler(asm, rng, shape.filler_density)
    for action in actions:
        if action[0] == "branch":
            then_label = f"then{action[1]}"
            join_label = f"join{action[1]}"
            asm.push1(rng.randint(0, 1))
            asm.push_label(then_label)
            asm.op("JUMPI")
            _emit_filler(asm, rng, shape.filler_density)  # fall-through arm
            asm.push_label(join_label)
            asm.op("JUMP")
            asm.mark(then_label)
            asm.op("JUMPDEST")
            _emit_filler(asm, rng, shape.filler_density)
            asm.mark(join_label)
            asm.op("JUMPDEST")
        else:
            call_site(action[1])
        _emit_filler(asm, rng, shape.filler_density)

    ending = rng.randrange(6)
    if ending == 4:
        asm.op("INVALID")
    elif ending == 5:
        asm.push1(0)
        asm.push1(0)
        asm.op("REVERT")
    else:
        asm.op("STOP")

    for index, name in enumerate(callees):
        asm.mark(name)
        asm.op("JUMPDEST")
        _emit_filler(asm, rng, shape.filler_density)
        if rng.random() < 0.5:
            asm.push1(rng.randrange(256))  # shuffle the return address around
            asm.op("SWAP1")
            asm.op("SWAP1")
            asm.op("POP")
        if rng.random() < 0.5:
            asm.op("DUP1")
            asm.op("POP")
        if (
            shape.max_call_depth > 1
            and index + 1 < len(callees)
            and rng.random() < 0.4
        ):
            call_site(callees[rng.randrange(index + 1, len(callees))])
        asm.op("JUMP")

    return decode_bytecode(asm.assemble().hex())
