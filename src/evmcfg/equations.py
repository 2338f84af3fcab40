"""Flow constraints over per-instruction variables and their least solution.

One variable per instruction pc holds an AbstractState describing every way
execution can arrive at that pc. The variable at pc 0 starts with the empty
stack as its single entry context; all others start at bottom. Instructions
contribute to their successors as follows:

  * JUMP routes each entry member to every destination tracked at the top
    of its stack, opening a fresh entry context there.
  * JUMPI does the same and additionally opens a fresh context at the
    fall-through pc.
  * An instruction whose successor is a JUMPDEST opens a fresh context at
    that successor (a new block begins there).
  * Any other non-halting instruction passes its state forward pointwise,
    keeping entry contexts intact.
  * Halting instructions contribute nothing. An instruction whose successor
    pc falls outside the code also contributes nothing: execution running
    off the end simply stops, after the instruction's stack effect is
    checked.

The moves into a new block (the first three rules) are block_exits, which
build_cfg also turns into the graph's edges.

Solving joins contributions until nothing changes. The worklist solver is
semi-naive: each queued pc holds the facts (entry context, member) it gained
since it was last popped, and a pop transfers only those, so every fact is
transferred once. The naive solver exists to cross-check the worklist
result. Each of its rounds sweeps every constraint in pc order, joining each
contribution into its target at once (Gauss-Seidel), and it stops after a
round that changes nothing. It keeps no deltas.

Both solvers stop an input whose entry contexts grow without bound. A block
may be entered at no more than MAX_ENTRY_HEIGHTS distinct stack heights and
with no more than MAX_ENTRY_CONTEXTS entry contexts; a context that would
pass either raises BudgetExceededError (budget_exceeded) naming the block
and the context. A stack that grows on every loop turn trips the height
budget within milliseconds. Return addresses permuted at one height add no
height, and only the context budget stops them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .blocks import Block, partition_blocks
from .bytecode import Instruction, JUMPI_BYTE, Program
from .domain import AbstractState, StackState, bottom, idmap, join, leq
from .errors import (
    AnalysisError,
    BudgetExceededError,
    InvalidTargetError,
    UnresolvedJumpError,
)
from .transfer import transfer, update_stack

__all__ = [
    "MAX_ENTRY_CONTEXTS",
    "MAX_ENTRY_HEIGHTS",
    "ConstraintVar",
    "EquationSystem",
    "SolveStats",
    "solve",
    "block_exits",
    "contributions",
    "verify_fixpoint",
    "initial_state",
    "idmap",
]

# Distinct stack heights a block may be entered at. Generated, scaled and
# solved fuzz programs stay at 15 or fewer; an input whose entry contexts
# grow by one slot per loop turn reaches it within milliseconds.
MAX_ENTRY_HEIGHTS = 64
# Entry contexts a block may be entered with: the scaled programs of
# generator seeds 1 and 3 reach 100 and 220, solved fuzz inputs 2.
MAX_ENTRY_CONTEXTS = 512


@dataclass
class ConstraintVar:
    """Value accumulated for one instruction pc. Only ever grows."""

    pc: int
    value: AbstractState


@dataclass
class SolveStats:
    mode: str
    iterations: int = 0
    pops: int = 0
    # (pc, before, after) for every applied update, when recording is on.
    updates: list[tuple[int, AbstractState, AbstractState]] = field(default_factory=list)
    # Full variable snapshots per naive round, when recording is on.
    snapshots: list[dict[int, AbstractState]] = field(default_factory=list)


@dataclass
class EquationSystem:
    """Solved (or solving) constraint system for one program."""

    program: Program
    blocks: tuple[Block, ...]
    unreached: frozenset[int]
    vars: dict[int, ConstraintVar]
    solve_stats: SolveStats

    def state_at(self, pc: int) -> AbstractState:
        return self.vars[pc].value

    def entry_contexts(self, pc: int) -> tuple[StackState, ...]:
        """Entry contexts reaching pc, in canonical order."""
        return tuple(sorted(self.state_at(pc), key=StackState.sort_key))


def initial_state() -> AbstractState:
    return idmap(StackState.make(0))


def _jump_members(
    instr: Instruction, pi: AbstractState
) -> list[tuple[StackState, StackState, tuple[int, ...]]]:
    """(entry context, member, destinations) triples for a jump instruction."""
    out = []
    for key, members in pi.items():
        for member in members:
            dests = member.top_destinations()
            if dests is None:
                raise UnresolvedJumpError(
                    f"jump at pc 0x{instr.pc:x} has no tracked destination on"
                    f" top of stack (height {member.n}, entry context"
                    f" {key.render()})",
                    pc=instr.pc,
                )
            out.append((key, member, dests))
    return out


def block_exits(
    program: Program, instr: Instruction, pi: AbstractState
) -> list[tuple[StackState, str, int, StackState]]:
    """(entry context, kind, target pc, landed state) per move into a new block.

    instr ends a block. A jump moves to every destination tracked on top of
    the stack ("jump"); a JUMPI, and an instruction falling into a JUMPDEST,
    also move to the next pc ("next"). A halt, or running off the end of the
    code, moves nowhere. Every member's top of stack is checked before any
    update_stack: UnresolvedJumpError for an untracked target, then
    InvalidTargetError for a tracked destination that is not a jump landing.
    """
    spec = instr.spec
    if spec.halts:
        return []
    jumpdests = program.jumpdests
    falls = program.has_instruction(instr.next_pc)
    if spec.is_jump:
        members = _jump_members(instr, pi)
        falls = falls and spec.byte_value == JUMPI_BYTE
    elif instr.next_pc in jumpdests:
        members = [(key, member, ()) for key, ms in pi.items() for member in ms]
    else:
        return []
    out = []
    for key, member, dests in members:
        landed = update_stack(instr, member, jumpdests)
        for dest in dests:
            if dest not in jumpdests:
                raise InvalidTargetError(
                    f"jump at pc 0x{instr.pc:x} targets 0x{dest:x},"
                    f" which is not a jump landing",
                    pc=instr.pc,
                    target=dest,
                )
            out.append((key, "jump", dest, landed))
        if falls:
            out.append((key, "next", instr.next_pc, landed))
    return out


def contributions(
    program: Program, instr: Instruction, pi: AbstractState
) -> list[tuple[int, AbstractState]]:
    """(target pc, contributed state) pairs for one instruction.

    A move into a new block (see block_exits) opens a fresh entry context
    there; any other fall-through keeps the entry contexts.
    """
    if instr.spec.halts or not pi:
        return []
    if instr.spec.is_jump or instr.next_pc in program.jumpdests:
        return [
            (target, idmap(landed))
            for _key, _kind, target, landed in block_exits(program, instr, pi)
        ]
    if not program.has_instruction(instr.next_pc):
        # Running off the end moves nowhere, but the instruction still runs:
        # each member's stack effect is checked, then dropped.
        for members in pi.values():
            for member in members:
                update_stack(instr, member, program.jumpdests)
        return []
    return [(instr.next_pc, transfer(instr, pi, program.jumpdests))]


def _check_entry_budget(
    pc: int, heights: set[int], held: AbstractState, arriving: AbstractState
) -> None:
    """Check arriving's new entry contexts against the budgets of the block
    at pc, entered with held at the heights in heights (kept up to date);
    raise BudgetExceededError past either budget."""
    contexts = len(held)
    for key in arriving:
        if key in held:
            continue
        if key.n not in heights:
            if len(heights) == MAX_ENTRY_HEIGHTS:
                raise BudgetExceededError(
                    f"block at pc 0x{pc:x} is already entered at"
                    f" {MAX_ENTRY_HEIGHTS} stack heights; entry context"
                    f" {key.render()} would add another",
                    pc=pc,
                )
            heights.add(key.n)
        if contexts == MAX_ENTRY_CONTEXTS:
            raise BudgetExceededError(
                f"block at pc 0x{pc:x} is already entered with"
                f" {MAX_ENTRY_CONTEXTS} entry contexts; entry context"
                f" {key.render()} would add another",
                pc=pc,
            )
        contexts += 1


def _grow(value: AbstractState, contributed: AbstractState) -> AbstractState:
    """Add contributed's unseen members to value in place; return them."""
    gained: AbstractState = {}
    for key, members in contributed.items():
        held = value.get(key)
        if held is None:
            value[key] = gained[key] = members
        elif not members <= held:
            gained[key] = members - held
            value[key] = held | members
    return gained


def _solve_worklist(
    program: Program,
    vars: dict[int, ConstraintVar],
    heights: dict[int, set[int]],
    stats: SolveStats,
    record: bool,
    trace: Callable[[str], None] | None,
) -> None:
    pending = deque([0])
    # Facts each queued pc gained since it was last popped. A pc is queued
    # exactly while it holds a delta.
    deltas: dict[int, AbstractState] = {0: dict(vars[0].value)}
    while pending:
        pc = pending.popleft()
        delta = deltas.pop(pc)
        stats.pops += 1
        instr = program.instruction_at(pc)
        for target, contributed in contributions(program, instr, delta):
            value = vars[target].value
            if target in heights:
                _check_entry_budget(target, heights[target], value, contributed)
            before = dict(value) if record else None
            count = sum(len(v) for v in value.values()) if trace is not None else 0
            gained = _grow(value, contributed)
            if not gained:
                continue
            if record:
                stats.updates.append((target, before, dict(value)))
            if trace is not None:
                trace(
                    f"pop pc=0x{pc:x} -> grow 0x{target:x}: {count} ->"
                    f" {count + sum(len(v) for v in gained.values())} members"
                )
            if target in deltas:
                _grow(deltas[target], gained)
            else:
                deltas[target] = gained
                pending.append(target)
    stats.iterations = stats.pops


def _solve_naive(
    program: Program,
    vars: dict[int, ConstraintVar],
    heights: dict[int, set[int]],
    stats: SolveStats,
    record: bool,
    trace: Callable[[str], None] | None,
) -> None:
    pcs = sorted(vars)
    while True:
        stats.iterations += 1
        changed = False
        for pc in pcs:
            instr = program.instruction_at(pc)
            for target, contributed in contributions(program, instr, vars[pc].value):
                held = vars[target].value
                if leq(contributed, held):
                    continue
                if target in heights:
                    _check_entry_budget(target, heights[target], held, contributed)
                value = join(held, contributed)
                if record:
                    stats.updates.append((target, held, value))
                vars[target].value = value
                changed = True
        if record:
            stats.snapshots.append({pc: var.value for pc, var in vars.items()})
        if trace is not None:
            trace(f"round {stats.iterations}: changed={changed}")
        if not changed:
            return


def solve(
    program: Program,
    mode: str = "worklist",
    record: bool = False,
    trace: Callable[[str], None] | None = None,
) -> EquationSystem:
    """Compute the least solution of the program's flow constraints.

    mode selects the worklist solver or the naive sweeping one; both
    reach the same fixpoint. record keeps per-update history in solve_stats
    for monotonicity checks. Raises BudgetExceededError when a block would be
    entered at more than MAX_ENTRY_HEIGHTS distinct stack heights or with more
    than MAX_ENTRY_CONTEXTS entry contexts.
    """
    if not program.instructions:
        raise AnalysisError("program has no instructions")
    if mode not in ("worklist", "naive"):
        raise ValueError(f"unknown solver mode {mode!r}")

    blocks, unreached = partition_blocks(program)
    vars = {
        ins.pc: ConstraintVar(ins.pc, bottom()) for ins in program.instructions
    }
    vars[0].value = initial_state()
    stats = SolveStats(mode=mode)
    if record and mode == "naive":
        stats.snapshots.append({pc: var.value for pc, var in vars.items()})

    # Stack heights each block is entered at, kept as contexts arrive.
    heights = {b.start_pc: {s.n for s in vars[b.start_pc].value} for b in blocks}
    if mode == "worklist":
        _solve_worklist(program, vars, heights, stats, record, trace)
    else:
        _solve_naive(program, vars, heights, stats, record, trace)

    return EquationSystem(
        program=program,
        blocks=blocks,
        unreached=unreached,
        vars=vars,
        solve_stats=stats,
    )


def verify_fixpoint(system: EquationSystem) -> list[tuple[int, int]]:
    """(source pc, target pc) pairs whose constraint is not satisfied.

    Empty means the stored values are a genuine fixpoint: re-evaluating
    every contribution and joining changes nothing, and the pc 0 variable
    still covers the initial empty-stack context.
    """
    failures: list[tuple[int, int]] = []
    if not leq(initial_state(), system.vars[0].value):
        failures.append((0, 0))
    for pc, var in system.vars.items():
        instr = system.program.instruction_at(pc)
        for target, contributed in contributions(system.program, instr, var.value):
            if not leq(contributed, system.vars[target].value):
                failures.append((pc, target))
    return failures
