"""Executable reference semantics and differential soundness checks.

This module runs bytecode directly on a concrete stack: a StackState whose
tracked slots hold the jump destinations a value may be, and whose other
slots hold untracked values.
JUMPI explores both branches, so the reachable state set over-approximates
any single run while staying finite for loop-free code. The two checkers
compare those runs against the static results:

  * check_jumps_to: every reached state must be covered by the solved
    variable at its pc, and every executed jump must be predicted by some
    recorded state there.
  * check_walk: the block sequence of every maximal trace must be
    realizable as a directed walk over graph replicas starting at the
    entry vertex.

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
from typing import NamedTuple

from .bytecode import OPCODES, JUMPI_BYTE, Program, decode_bytecode
from .cfg import Cfg, ReplicaId
from .domain import MAX_STACK, AbstractState, StackState
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
    """Reachable states, transitions, and maximal traces from the start."""

    states: frozenset[ConcreteState]
    transitions: frozenset[tuple[ConcreteState, ConcreteState]]
    traces: tuple[tuple[ConcreteState, ...], ...]
    truncated: bool


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


def step(program: Program, state: ConcreteState) -> tuple[ConcreteState, ...]:
    """Successor states of one concrete state, sorted canonically.

    Halting instructions and running off the end of the code produce no
    successors. Jumps with an untracked target raise StuckStateError; a
    tracked target that is not a JUMPDEST raises InvalidJumpError.
    """
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
        landed = StackState(floor, sigma[: _first_at_or_above(sigma, floor)])
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
    if not program.has_instruction(instr.next_pc):
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

    return (ConcreteState(instr.next_pc, StackState(n_out, sigma)),)


def initial_concrete_state() -> ConcreteState:
    return ConcreteState(0, StackState.make(0))


def enumerate_states(program: Program, max_steps: int = DEFAULT_MAX_STEPS) -> TraceSet:
    """Breadth-first closure from the start state plus maximal traces.

    max_steps bounds the closure's transitions, hence its states, and the
    trace walk's steps. Sets truncated when it cuts either, or when a cycle
    prevents maximal traces from existing. The depth-first walk emits traces
    in canonical order, as step sorts successors. Step errors propagate with
    a partial_trace attribute for diagnosis.
    """
    if not program.instructions:
        raise AnalysisError("program has no instructions")
    start = initial_concrete_state()
    visited = {start}
    parents: dict[ConcreteState, ConcreteState] = {}
    queue = deque([start])
    succ_map: dict[ConcreteState, tuple[ConcreteState, ...]] = {}
    transitions: set[tuple[ConcreteState, ConcreteState]] = set()
    truncated = False
    steps = 0

    while queue:
        current = queue.popleft()
        try:
            successors = step(program, current)
        except AnalysisError as err:
            chain = [current]
            while chain[-1] in parents:
                chain.append(parents[chain[-1]])
            err.partial_trace = tuple(reversed(chain))
            raise
        steps += len(successors)
        if steps > max_steps:
            truncated = True
            break
        succ_map[current] = successors
        for nxt in successors:
            transitions.add((current, nxt))
            if nxt in visited:
                continue
            visited.add(nxt)
            parents[nxt] = current
            queue.append(nxt)

    traces: list[tuple[ConcreteState, ...]] = []
    if not truncated:
        budget = max_steps
        path = [start]
        on_path = {start}
        iters = [iter(succ_map[start])] if succ_map.get(start) else []
        if not succ_map.get(start):
            traces.append((start,))
        while iters:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                iters.pop()
                on_path.discard(path.pop())
                continue
            budget -= 1
            if budget < 0:
                truncated = True
                break
            if nxt in on_path:
                truncated = True  # cycle: no maximal trace through here
                continue
            path.append(nxt)
            on_path.add(nxt)
            following = succ_map.get(nxt, ())
            if following:
                iters.append(iter(following))
            else:
                traces.append(tuple(path))
                on_path.discard(path.pop())
        if truncated:
            traces = []

    return TraceSet(
        states=frozenset(visited),
        transitions=frozenset(transitions),
        traces=tuple(traces),
        truncated=truncated,
    )


def _stack_covered(concrete: StackState, abstract: StackState) -> bool:
    if concrete.n != abstract.n:
        return False
    for pos, dests in concrete.sigma:
        held = abstract.get(pos)
        if held is None or not set(dests) <= set(held):
            return False
    return True


def _covered_by_variable(stack: StackState, variable: AbstractState) -> bool:
    # A recorded member equal to the stack covers it; most stacks have one.
    for members in variable.values():
        if stack in members:
            return True
    for members in variable.values():
        for member in members:
            if _stack_covered(stack, member):
                return True
    return False


def check_jumps_to(
    program: Program, system: EquationSystem, traces: TraceSet
) -> Verdict:
    """Every reached state and executed jump must appear in the solution."""
    coverage = Coverage(len(traces.states), len(traces.transitions), traces.truncated)
    if traces.truncated:
        return Verdict("inconclusive", (), coverage)

    violations: list[Violation] = []
    start = initial_concrete_state()
    if not _covered_by_variable(start.stack, system.state_at(0)):
        violations.append(
            Violation(
                kind="uncovered_state",
                pc=0,
                detail=f"initial state {start.render()} has no covering entry context",
            )
        )

    for source, target in sorted(traces.transitions):
        if not _covered_by_variable(target.stack, system.state_at(target.pc)):
            violations.append(
                Violation(
                    kind="uncovered_state",
                    pc=source.pc,
                    detail=(
                        f"after pc 0x{source.pc:x}, state {target.stack.render()}"
                        f" at pc 0x{target.pc:x} has no covering entry context"
                    ),
                )
            )
        instr = program.instruction_at(source.pc)
        if instr.spec.is_jump:
            claimed = source.stack.top_destinations() or ()
            if target.pc in claimed and not _jump_predicted(
                system, source.pc, target.pc
            ):
                violations.append(
                    Violation(
                        kind="missing_jump_target",
                        pc=source.pc,
                        detail=(
                            f"executed jump 0x{source.pc:x} -> 0x{target.pc:x}"
                            f" is predicted by no recorded state"
                        ),
                    )
                )
    status = "pass" if not violations else "fail"
    return Verdict(status, tuple(violations), coverage)


def _jump_predicted(system: EquationSystem, pc: int, dest: int) -> bool:
    for members in system.state_at(pc).values():
        for member in members:
            if dest in (member.top_destinations() or ()):
                return True
    return False


def check_walk(
    program: Program, cfg: Cfg, system: EquationSystem, traces: TraceSet
) -> Verdict:
    """Each maximal trace must follow some directed walk over replicas."""
    coverage = Coverage(len(traces.states), len(traces.transitions), traces.truncated)
    if traces.truncated:
        return Verdict("inconclusive", (), coverage)

    block_starts = {b.start_pc for b in system.blocks}
    successors: dict[ReplicaId, list[ReplicaId]] = {}
    for a, b in cfg.jump_edges | cfg.next_edges:
        successors.setdefault(a, []).append(b)

    violations: list[Violation] = []
    for trace in traces.traces:
        sequence = [s.pc for s in trace if s.pc in block_starts]
        if not _walk_exists(cfg, successors, sequence):
            rendered = " -> ".join(f"0x{pc:x}" for pc in sequence)
            violations.append(
                Violation(
                    kind="missing_walk",
                    pc=sequence[0] if sequence else 0,
                    detail=f"no directed walk realizes block sequence {rendered}",
                )
            )
    status = "pass" if not violations else "fail"
    return Verdict(status, tuple(violations), coverage)


def _walk_exists(
    cfg: Cfg,
    successors: dict[ReplicaId, list[ReplicaId]],
    sequence: list[int],
) -> bool:
    """Whether some walk from the entry visits the blocks of sequence in order.

    Tracks the set of replicas each prefix can end in; the walk exists iff
    that set never runs empty.
    """
    if not sequence or cfg.entry.block_start != sequence[0]:
        return False
    level = {cfg.entry}
    for block in sequence[1:]:
        level = {
            succ
            for replica in level
            for succ in successors.get(replica, ())
            if succ.block_start == block
        }
        if not level:
            return False
    return True


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
        for item in self.items:
            kind = item[0]
            if kind == "label":
                offsets[item[1]] = offset
            elif kind == "op":
                offset += 1
            elif kind == "push1":
                offset += 2
            else:
                offset += 3
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


def _emit_filler(asm: _Assembler, rng: random.Random, density: int) -> None:
    for _ in range(rng.randint(0, density)):
        a, b = rng.randrange(256), rng.randrange(256)
        snippet = rng.randrange(6)
        if snippet == 0:
            asm.push1(a)
            asm.op("POP")
        elif snippet == 1:
            asm.push1(a)
            asm.push1(b)
            asm.op("ADD")
            asm.op("POP")
        elif snippet == 2:
            asm.push1(a)
            asm.op("DUP1")
            asm.op("POP")
            asm.op("POP")
        elif snippet == 3:
            asm.push1(a)
            asm.push1(b)
            asm.op("SWAP1")
            asm.op("POP")
            asm.op("POP")
        elif snippet == 4:
            asm.op("CALLDATASIZE")
            asm.op("POP")
        else:
            asm.push1(a)
            asm.op("ISZERO")
            asm.op("POP")


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
