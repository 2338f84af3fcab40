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

Every block start receives only fresh entry contexts, and a block body is
straight-line code, so each entry context has exactly one member at every
pc of its block. The worklist solver therefore moves entry contexts
between block starts, one pop per (block, context) pair. Each popped
context is stepped once through its block body but the last instruction,
by update_stack; the last instruction then leaves the block through
block_exits. An arity error names its pc and the entry context, as one
raised through transfer does.

The worklist solver stores states only at block starts and last
instructions. EquationSystem.state_at derives a block's interior states on
first request, by transfer from the block start, and keeps them;
members_along derives one context's members the same way and keeps
nothing. The naive solver fills every pc: each round sweeps every
per-instruction constraint in pc order, joining each contribution into its
target at once (Gauss-Seidel), and it stops after a round that changes
nothing. Its per-pc sweep shares none of the worklist's block-level
stepping, which keeps it an independent reference. verify_fixpoint
likewise re-evaluates every per-instruction constraint over state_at, so it
checks every derived interior state.

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
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .blocks import Block, Terminator, partition_blocks
from .bytecode import Instruction, JUMPI_BYTE, Program
from .domain import AbstractState, StackState, bottom, idmap, join, leq
from .errors import (
    AnalysisError,
    BudgetExceededError,
    InvalidTargetError,
    StackArityError,
    UnresolvedJumpError,
)
from .transfer import transfer, update_stack, with_entry_context

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


class ConstraintVar(NamedTuple):
    """The state at one instruction pc, as EquationSystem.vars shows it."""

    pc: int
    value: AbstractState


@dataclass
class SolveStats:
    mode: str
    iterations: int = 0
    # Worklist: (block, entry context) pairs moved. Naive: unused.
    pops: int = 0
    # (pc, before, after) for every applied update, when recording is on.
    updates: list[tuple[int, AbstractState, AbstractState]] = field(default_factory=list)
    # Full variable snapshots per naive round, when recording is on.
    snapshots: list[dict[int, AbstractState]] = field(default_factory=list)


@dataclass
class EquationSystem:
    """Solved (or solving) constraint system for one program.

    states holds the computed states: every pc under the naive solver,
    block starts and last instructions under the worklist solver. state_at
    derives the rest by transfer from their block start, and adds them.
    """

    program: Program
    blocks: tuple[Block, ...]
    unreached: frozenset[int]
    states: dict[int, AbstractState]
    solve_stats: SolveStats
    # pc -> its block (None for an unreached pc), built on first derivation.
    _block_at: dict[int, Block | None] | None = field(
        default=None, repr=False, compare=False
    )

    def state_at(self, pc: int) -> AbstractState:
        """State at pc; KeyError for a pc that holds no instruction."""
        state = self.states.get(pc)
        return self._derive(pc) if state is None else state

    def _block_of(self, pc: int) -> Block | None:
        """pc's block, None for an unreached pc; KeyError for no instruction."""
        if self._block_at is None:
            self._block_at = dict.fromkeys(self.unreached)
            for block in self.blocks:
                for ins in block.body:
                    self._block_at[ins.pc] = block
        if pc not in self._block_at:
            raise KeyError(f"no instruction at pc 0x{pc:x}")
        return self._block_at[pc]

    def _derive(self, pc: int) -> AbstractState:
        """Fill in the states of pc's block from its entry states."""
        block = self._block_of(pc)
        if block is None:
            return self.states.setdefault(pc, bottom())
        state = self.states.setdefault(block.start_pc, bottom())
        # Each interior state is its predecessor's, transferred; a block the
        # solver never entered stays at bottom throughout.
        for prev, ins in zip(block.body, block.body[1:-1]):
            state = self.states.setdefault(
                ins.pc, transfer(prev, state, self.program.jumpdests)
            )
        self.states.setdefault(block.end_pc, bottom())
        return self.states[pc]

    def members_along(
        self, start_pc: int, key: StackState
    ) -> Iterator[frozenset[StackState]]:
        """state_at(pc).get(key, frozenset()) at each pc of the block that
        starts at start_pc, in order, keeping none of the states it derives."""
        block, states = self._block_of(start_pc), self.states
        jumpdests = self.program.jumpdests
        for prev, ins in zip((None,) + block.body, block.body):
            stored = states.get(ins.pc)
            if stored is not None or prev is None or ins.pc == block.end_pc:
                members = (stored or {}).get(key, frozenset())
            else:
                try:
                    members = frozenset(
                        [update_stack(prev, m, jumpdests) for m in members]
                    )
                except StackArityError as err:
                    raise with_entry_context(err, key) from None
            yield members

    @property
    def vars(self) -> Mapping[int, ConstraintVar]:
        """Read-only view of state_at at every instruction pc; the
        benchmark in bench/ still reads it, the library uses state_at."""
        return MappingProxyType(
            {
                ins.pc: ConstraintVar(ins.pc, self.state_at(ins.pc))
                for ins in self.program.instructions
            }
        )

    def entry_contexts(self, pc: int) -> tuple[StackState, ...]:
        """Entry contexts reaching pc, in canonical order."""
        return tuple(sorted(self.state_at(pc)))


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
        try:
            landed = update_stack(instr, member, jumpdests)
        except StackArityError as err:
            raise with_entry_context(err, key) from None
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
        transfer(instr, pi, program.jumpdests)
        return []
    return [(instr.next_pc, transfer(instr, pi, program.jumpdests))]


def _check_entry_budget(
    pc: int, heights: set[int], held: AbstractState, arriving: Iterable[StackState]
) -> None:
    """Check the arriving entry contexts against the budgets of the block
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


def _solve_worklist(
    program: Program,
    blocks: tuple[Block, ...],
    states: dict[int, AbstractState],
    heights: dict[int, set[int]],
    stats: SolveStats,
    record: bool,
    trace: Callable[[str], None] | None,
) -> None:
    jumpdests = program.jumpdests
    by_start = {block.start_pc: block for block in blocks}
    # (block start, entry context) pairs not yet moved through their block.
    pending = deque((0, key) for key in states[0])
    while pending:
        start, key = pending.popleft()
        stats.pops += 1
        block = by_start[start]
        code_end = block.terminator is Terminator.CODE_END
        end = key
        try:
            for ins in block.body[:-1]:
                end = update_stack(ins, end, jumpdests)
            if code_end:
                # Running off the end moves nowhere, but the last
                # instruction still runs.
                update_stack(block.last, end, jumpdests)
        except StackArityError as err:
            raise with_entry_context(err, key) from None
        ended = {key: frozenset((end,))}
        if len(block.body) > 1:
            states.setdefault(block.end_pc, {}).update(ended)
        if code_end:
            continue
        for _key, _kind, target, landed in block_exits(program, block.last, ended):
            held = states.setdefault(target, {})
            if landed in held:
                continue
            _check_entry_budget(target, heights[target], held, (landed,))
            before = dict(held) if record else None
            held[landed] = frozenset((landed,))
            if record:
                stats.updates.append((target, before, dict(held)))
            if trace is not None:
                trace(
                    f"pop 0x{start:x} {key.render()} -> grow 0x{target:x}:"
                    f" {len(held) - 1} -> {len(held)} entry contexts"
                )
            pending.append((target, landed))
    stats.iterations = stats.pops


def _solve_naive(
    program: Program,
    states: dict[int, AbstractState],
    heights: dict[int, set[int]],
    stats: SolveStats,
    record: bool,
    trace: Callable[[str], None] | None,
) -> None:
    pcs = sorted(states)
    while True:
        stats.iterations += 1
        changed = False
        for pc in pcs:
            instr = program.instruction_at(pc)
            for target, contributed in contributions(program, instr, states[pc]):
                held = states[target]
                if leq(contributed, held):
                    continue
                if target in heights:
                    _check_entry_budget(target, heights[target], held, contributed)
                value = join(held, contributed)
                if record:
                    stats.updates.append((target, held, value))
                states[target] = value
                changed = True
        if record:
            stats.snapshots.append(dict(states))
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

    mode selects the block worklist solver or the naive per-instruction
    one; both reach the same fixpoint. record keeps per-update history in
    solve_stats for monotonicity checks. Raises BudgetExceededError when a
    block would be entered at more than MAX_ENTRY_HEIGHTS distinct stack
    heights or with more than MAX_ENTRY_CONTEXTS entry contexts.
    """
    if not program.instructions:
        raise AnalysisError("program has no instructions")
    if mode not in ("worklist", "naive"):
        raise ValueError(f"unknown solver mode {mode!r}")

    blocks, unreached = partition_blocks(program)
    stats = SolveStats(mode=mode)
    # Stack heights each block is entered at, kept as contexts arrive.
    heights = {block.start_pc: set() for block in blocks}
    heights[0].add(0)
    if mode == "worklist":
        states = {0: initial_state()}
        _solve_worklist(program, blocks, states, heights, stats, record, trace)
    else:
        states = {ins.pc: bottom() for ins in program.instructions}
        states[0] = initial_state()
        if record:
            stats.snapshots.append(dict(states))
        _solve_naive(program, states, heights, stats, record, trace)

    return EquationSystem(
        program=program,
        blocks=blocks,
        unreached=unreached,
        states=states,
        solve_stats=stats,
    )


def verify_fixpoint(system: EquationSystem) -> list[tuple[int, int]]:
    """(source pc, target pc) pairs whose constraint is not satisfied.

    Empty means the states are a genuine fixpoint: re-evaluating every
    per-instruction contribution and joining changes nothing, and pc 0
    still covers the initial empty-stack context.
    """
    failures: list[tuple[int, int]] = []
    if not leq(initial_state(), system.state_at(0)):
        failures.append((0, 0))
    for instr in system.program.instructions:
        pi = system.state_at(instr.pc)
        for target, contributed in contributions(system.program, instr, pi):
            if not leq(contributed, system.state_at(target)):
                failures.append((instr.pc, target))
    return failures
