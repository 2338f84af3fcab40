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
takes one member under one entry context. contributions loops it over the
contexts of a state. Both solvers keep every move in EquationSystem.moves,
a flat list of Move tuples, which build_cfg turns into the graph's edges.

Two layers sit here: transfer, contributions, join, leq, the naive solver,
verify_fixpoint and state_at work per pc on whole AbstractStates, as the
equations are written; block_exits and the worklist solver work on one
(entry context, member) pair at a time.

Every block start receives only fresh entry contexts, and a block body is
straight-line code, so each entry context has exactly one member at every
pc of its block. The worklist solver therefore moves entry contexts
between block starts, one pop per (block, context) pair. Each popped
context is stepped once through its block body but the last instruction,
by one run_stack call (none for an empty interior); its member at the last
instruction goes straight to block_exits, each of whose results is kept as
one Move. An arity error names its pc and the entry context, as transfer's.

The worklist solver finds block bodies as it enters them: it pulls blocks
from scan_blocks, in pc order, only until the popped start is among them.
An input that fails in the solve therefore never scans the code after the
failing block. A solve that succeeds scans the rest, so the system's
blocks and unreached hold the whole partition. The naive solver partitions
the whole program up front.

The worklist solver stores states only at block starts.
EquationSystem.state_at derives every later pc of a block on first
request, by transfer from the block start, and keeps it. The naive solver
fills every pc: each round sweeps every per-instruction constraint in pc
order, joining each contribution into its target at once (Gauss-Seidel),
and it stops after a round that changes nothing; then it takes its moves
from block_exits at each block's last pc. Its sweep shares none of the
worklist's stepping, which keeps it an independent reference.
verify_fixpoint likewise re-evaluates every per-instruction constraint over
state_at, so it checks every derived state.

The worklist solver stops an input whose entry contexts grow without
bound. Each (block, entry context) pair it admits costs 1 + the context's
tracked slots, which is what the pair's copies and hashes grow with; once
the sum would pass MAX_WORK, BudgetExceededError (budget_exceeded) names
the block and the context. Every stack is bounded by MAX_STACK, so a
budget stop is a finite computation cut short: a stack that grows by one
slot per loop turn, whose cost grows with the square of its height, or
return addresses permuted at one height. A growing stack the budget
admits ends in the true stack_arity_error. The naive solver has no
budget: it is the reference, run only on programs the worklist solved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

from .blocks import Block, partition_blocks, scan_blocks
from .bytecode import Instruction, JUMPI_BYTE, Program
from .domain import EMPTY_STACK, AbstractState, StackState, bottom, idmap, join, leq
from .errors import (
    AnalysisError,
    BudgetExceededError,
    InvalidTargetError,
    StackArityError,
    UnresolvedJumpError,
)
from .transfer import run_stack, transfer, update_stack, with_entry_context

__all__ = [
    "MAX_WORK",
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

# Work the worklist may spend: 1 + tracked slots per admitted (block,
# context) pair. The scaled programs of generator seeds 1-3 need 7,344 to
# 10,336; a stack that grows by one slot per turn spends it within a few
# milliseconds.
MAX_WORK = 2**15
# One move of a replica into a new block: (block start, entry context,
# kind, target pc, landed state), one block_exits result of the context's
# member at the last pc. A replica whose block halts or runs off the end
# of the code has none.
Move = tuple[int, StackState, str, int, StackState]


class ConstraintVar(NamedTuple):
    """The state at one instruction pc, as EquationSystem.vars shows it."""

    pc: int
    value: AbstractState


# SolveStats and EquationSystem stay mutable dataclasses: the solvers fill
# both in as they run, and state_at adds each state it derives.
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
    block starts only under the worklist solver. state_at derives the rest
    by transfer from their block start, and adds them. moves holds a Move
    for every move of every replica the solver entered, in no set order.
    """

    program: Program
    blocks: tuple[Block, ...]
    unreached: frozenset[int]
    states: dict[int, AbstractState]
    solve_stats: SolveStats
    moves: list[Move]
    # pc -> its block (None for an unreached pc), built on first derivation.
    _block_at: dict[int, Block | None] | None = field(
        default=None, repr=False, compare=False
    )

    def state_at(self, pc: int) -> AbstractState:
        """State at pc; KeyError for a pc that holds no instruction."""
        state = self.states.get(pc)
        return self._derive(pc) if state is None else state

    def _derive(self, pc: int) -> AbstractState:
        """Fill in the states of pc's block from its entry states."""
        if self._block_at is None:
            self._block_at = dict.fromkeys(self.unreached)
            self._block_at.update((i.pc, b) for b in self.blocks for i in b.body)
        if pc not in self._block_at:
            raise KeyError(f"no instruction at pc 0x{pc:x}")
        block = self._block_at[pc]
        if block is None:
            return self.states.setdefault(pc, bottom())
        state = self.states.setdefault(block.start_pc, bottom())
        # Each later state is its predecessor's, transferred; a block the
        # solver never entered stays at bottom throughout.
        for prev, ins in zip(block.body, block.body[1:]):
            state = self.states.setdefault(
                ins.pc, transfer(prev, state, self.program.jumpdests)
            )
        return self.states[pc]

    @property
    def vars(self) -> Mapping[int, ConstraintVar]:
        """Read-only view of state_at at every instruction pc; the
        benchmark in bench/ still reads it, the library uses state_at."""
        pcs = [ins.pc for ins in self.program.instructions]
        return MappingProxyType({p: ConstraintVar(p, self.state_at(p)) for p in pcs})

    def entry_contexts(self, pc: int) -> tuple[StackState, ...]:
        """Entry contexts reaching pc, in canonical order."""
        return tuple(sorted(self.state_at(pc)))


def initial_state() -> AbstractState:
    """A new map on every call: the worklist writes into the state at pc 0."""
    return idmap(EMPTY_STACK)


def block_exits(
    program: Program, instr: Instruction, key: StackState, member: StackState
) -> list[tuple[str, int, StackState]]:
    """(kind, target pc, landed state) per move of member, entered under key,
    into a new block.

    instr ends a block. A jump moves to every destination tracked on top of
    the stack ("jump"); a JUMPI, and an instruction falling into a JUMPDEST,
    also move to the next pc ("next"). A halt moves nowhere and does not
    run; an instruction running off the end of the code runs, then moves
    nowhere. The checks come in this order: UnresolvedJumpError for an
    untracked target, the stack effect (its StackArityError names key), then
    InvalidTargetError for a tracked destination that is not a jump landing.
    """
    spec = instr.spec
    if spec.halts:
        return []
    jumpdests = program.jumpdests
    dests: tuple[int, ...] = ()
    if spec.is_jump:
        dests = member.top_destinations()
        if dests is None:
            raise UnresolvedJumpError(
                f"jump at pc 0x{instr.pc:x} has no tracked destination on"
                f" top of stack (height {member.n}, entry context"
                f" {key.render()})",
                pc=instr.pc,
            )
        falls = spec.byte_value == JUMPI_BYTE and program.has_instruction(instr.next_pc)
    else:
        falls = instr.next_pc in jumpdests
    try:
        landed = update_stack(instr, member, jumpdests)
    except StackArityError as err:
        raise with_entry_context(err, key) from None
    out = []
    for dest in dests:
        if dest not in jumpdests:
            raise InvalidTargetError(
                f"jump at pc 0x{instr.pc:x} targets 0x{dest:x},"
                f" which is not a jump landing",
                pc=instr.pc,
                target=dest,
            )
        out.append(("jump", dest, landed))
    if falls:
        out.append(("next", instr.next_pc, landed))
    return out


def contributions(
    program: Program, instr: Instruction, pi: AbstractState
) -> list[tuple[int, AbstractState]]:
    """(target pc, contributed state) pairs for one instruction.

    An instruction that ends a block contributes a fresh entry context per
    move into a new block (see block_exits); any other fall-through keeps
    the entry contexts.
    """
    if instr.spec.halts or not pi:
        return []
    next_pc = instr.next_pc
    if (
        instr.spec.is_jump
        or next_pc in program.jumpdests
        or not program.has_instruction(next_pc)
    ):
        return [
            (target, idmap(landed))
            for key, members in pi.items()
            for member in members
            for _kind, target, landed in block_exits(program, instr, key, member)
        ]
    return [(next_pc, transfer(instr, pi, program.jumpdests))]


def _solve_worklist(
    program: Program,
    scan: Iterator[Block],
    states: dict[int, AbstractState],
    stats: SolveStats,
    moves: list[Move],
    record: bool,
    trace: Callable[[str], None] | None,
) -> dict[int, Block]:
    """Solve from the initial state, pulling blocks from scan as the pops
    reach them; returns the blocks found, by start pc, in pc order."""
    jumpdests = program.jumpdests
    found: dict[int, Block] = {}
    # (block start, entry context) pairs not yet moved through their block;
    # the initial state at pc 0 holds the empty stack alone.
    pending = deque([(0, EMPTY_STACK)])
    work = 0
    while pending:
        start, key = pending.popleft()
        stats.pops += 1
        block = found.get(start)
        # Every pushed start is a block start: pc 0, a jump target (which
        # block_exits checks is a JUMPDEST) or a fall-through pc (the pc
        # after a JUMPI, or a JUMPDEST). scan yields every block start in pc
        # order, so pulling until start is found reaches it.
        while block is None:
            pulled = next(scan)
            found[pulled.start_pc] = pulled
            if pulled.start_pc == start:
                block = pulled
        body = block.body
        try:
            end = run_stack(body[:-1], key, jumpdests)[1] if len(body) > 1 else key
        except StackArityError as err:
            raise with_entry_context(err, key) from None
        for kind, target, landed in block_exits(program, body[-1], key, end):
            moves.append((start, key, kind, target, landed))
            held = states.setdefault(target, {})
            if landed in held:
                continue
            work += 1 + len(landed.sigma)
            if work > MAX_WORK:
                raise BudgetExceededError(
                    f"solver work would pass MAX_WORK = {MAX_WORK}: block at"
                    f" pc 0x{target:x} would be entered with context"
                    f" {landed.render()}",
                    pc=target,
                )
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
    return found


def _solve_naive(
    program: Program,
    states: dict[int, AbstractState],
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
    solve_stats for monotonicity checks. The worklist raises
    BudgetExceededError when its work would pass MAX_WORK; the naive
    solver has no budget.
    """
    if not program.instructions:
        raise AnalysisError("program has no instructions")
    if mode not in ("worklist", "naive"):
        raise ValueError(f"unknown solver mode {mode!r}")

    stats = SolveStats(mode=mode)
    if mode == "worklist":
        states = {0: initial_state()}
        moves: list[Move] = []
        unreached_pcs: list[int] = []
        scan = scan_blocks(program, unreached_pcs)
        found = _solve_worklist(program, scan, states, stats, moves, record, trace)
        # Solved: the blocks after the last one pulled and the pcs
        # between them complete the partition.
        blocks = (*found.values(), *scan)
        unreached = frozenset(unreached_pcs)
    else:
        blocks, unreached = partition_blocks(program)
        states = {ins.pc: bottom() for ins in program.instructions}
        states[0] = initial_state()
        if record:
            stats.snapshots.append(dict(states))
        _solve_naive(program, states, stats, record, trace)
        # Moves out of each block's last-pc members; an unentered block has none.
        moves = [
            (block.start_pc, key, kind, target, landed)
            for block in blocks
            for key, members in states[block.end_pc].items()
            for member in members
            for kind, target, landed in block_exits(program, block.last, key, member)
        ]

    return EquationSystem(
        program=program,
        blocks=blocks,
        unreached=unreached,
        states=states,
        solve_stats=stats,
        moves=moves,
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
