"""Executable reference semantics and differential soundness checks.

This module runs bytecode directly on a concrete stack: a StackState whose
tracked slots hold the jump destinations a value may be, and whose other
slots hold untracked values.
JUMPI explores both branches, so the reachable state set over-approximates
any single run. enumerate_states closes it breadth-first, loops included,
over entry states: the initial state and the target of each crossing, a
step from a jump or onto a JUMPDEST, told by the stepper's own rules and
not read from the system's blocks. Each entry's run is one fold through its
block, in one frame, with the height and tracked tuple kept in locals: each
interior instruction, one falling through to an instruction other than a
JUMPDEST, adds a state, and the run's last (a jump, a halt, the end of the
code or a fall into a JUMPDEST) gives the crossings. step is the fold's
one-instruction case, so the concrete stack effect is written once. A run
stands for one replica, its entry's block and stack; two entries can reach
one state (a JUMPDEST POP entered with two different targets), each in its
own run.

  * check_jumps_to: the initial stack and each crossing's target must be an
    entry context among the block-start states the system stores, and each
    run, walked beside its equally long block, must be covered by its
    context's member at every pc: the stored one, else update_stack of the
    member before. Both solvers give each context one member at every pc,
    which is stepped and compared alone; a stored state whose context holds
    several is walked as a set. Where only block starts are stored,
    run_stack folds a lone member along the run while the two are equal;
    the walk goes on from the first change, and is skipped where the fold
    matched the whole run. The checker reads the system and never adds to
    it.
  * check_walk: each crossing must follow a graph edge from its run's
    replica to its target's, and the initial state must be the entry
    vertex. The paper's soundness claim is exactly this: every execution is
    a walk over the replica graph.

generate_program assembles randomized but well-formed test programs
(straight-line filler, branch diamonds, shared subroutines entered from
several call sites with distinct return addresses) where every jump target
is a pushed JUMPDEST, so the whole pipeline can be exercised end to end.

The stepper here deliberately re-implements the stack effects instead of
reusing the transfer module: the two sides of the differential test must
not share their computation; only check_jumps_to, on the abstract side,
calls run_stack and update_stack.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from collections import deque
from typing import Collection, Mapping, NamedTuple

from .bytecode import OPCODES, JUMPI_BYTE, Program, decode_bytecode
from .cfg import Cfg
from .domain import EMPTY_STACK, MAX_STACK, StackState
from .equations import EquationSystem
from .errors import (
    AnalysisError,
    InvalidJumpError,
    StackArityError,
    StuckStateError,
)
from .transfer import run_stack, update_stack, with_entry_context

DEFAULT_MAX_STEPS = 100_000


class ConcreteState(NamedTuple):
    """Program counter plus concrete stack with singleton tracked sets."""

    pc: int
    stack: StackState

    def render(self) -> str:
        return f"(pc=0x{self.pc:x}, {self.stack.render()})"


class Run(NamedTuple):
    """One entry's run: its states from the entry on, and the sorted successors
    of its last state, each an entry; None where the closure was cut."""

    states: tuple[ConcreteState, ...]
    crossings: tuple[ConcreteState, ...] | None


class TraceSet(NamedTuple):
    """The closure: runs maps each entry to its Run, in the order found.

    When truncated, the closure was cut: the run being stepped stops short
    and each entry still queued has a one-state run. coverage counts the
    runs once, as enumerate_states builds the closure; states, successors
    and transitions are derived from the runs on each read."""

    runs: Mapping[ConcreteState, Run]
    truncated: bool
    coverage: Coverage

    @property
    def states(self) -> frozenset[ConcreteState]:
        return frozenset().union(*(run.states for run in self.runs.values()))

    @property
    def successors(self) -> dict[ConcreteState, tuple[ConcreteState, ...]]:
        """Each stepped state's successors."""
        out = {}
        for states, crossings in self.runs.values():
            out.update(zip(states, [(s,) for s in states[1:]]))
            if crossings is not None:
                out[states[-1]] = crossings
        return out

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


class Violation(NamedTuple):
    kind: str
    pc: int
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "pc": self.pc, "detail": self.detail}


class Coverage(NamedTuple):
    states: int
    transitions: int
    truncated: bool

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "truncated": self.truncated,
        }


class Verdict(NamedTuple):
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


def step(
    program: Program, state: ConcreteState, stacks: dict | None = None
) -> tuple[ConcreteState, ...]:
    """Successor states of one concrete state, sorted canonically: the run
    fold's one-instruction case.

    Halting instructions, even on too short a stack, and running off the
    end of the code produce no successors. Jumps with an untracked target
    raise StuckStateError; a tracked target that is not a JUMPDEST raises
    InvalidJumpError. Passing one stacks dict to every step of a closure
    builds each distinct stack once and shares it.
    """
    run = [state]
    crossings = _fold(program, run, {} if stacks is None else stacks, 1)
    return (run[1],) if crossings is None else crossings


def _fold(
    program: Program, run: list[ConcreteState], stacks: dict, limit: int
) -> tuple[ConcreteState, ...] | None:
    """Run the block from run's last state on, appending each later state to
    run: the crossings, or None once limit states are appended.

    An instruction falling through to one other than a JUMPDEST appends its
    successor; any other ends the run, and its successors are the crossings.
    A PUSH of a JUMPDEST pc tracks it, DUP copies a tracked slot and SWAP
    moves two; every other instruction, a jump too, only consumes. The
    height and tracked tuple stay locals, and each changed stack is shared
    through stacks. Raises at the first instruction that fails.
    """
    instruction_at, jumpdests = program._by_pc.get, program.jumpdests
    pc, stack = run[-1]
    n, sigma = stack
    instr = instruction_at(pc) or program.instruction_at(pc)  # KeyError off the code
    while True:
        spec = instr.spec
        if spec.halts:
            return ()
        delta, before = spec.delta, sigma
        if spec.is_jump:  # its target is the tracked top slot
            if not sigma or sigma[-1][0] != n - 1:
                raise StuckStateError(
                    f"{spec.mnemonic} at pc 0x{instr.pc:x} pops an untracked"
                    f" jump target (stack height {n})",
                    pc=instr.pc,
                )
            targets = sigma[-1][1]
        if n < delta:
            raise StackArityError(
                f"{spec.mnemonic} at pc 0x{instr.pc:x} needs {delta} stack"
                f" items, found {n}",
                pc=instr.pc,
            )
        n_out = n - delta + spec.alpha
        if n_out > MAX_STACK:
            raise StackArityError(
                f"{spec.mnemonic} at pc 0x{instr.pc:x} overflows the stack",
                pc=instr.pc,
            )
        if spec.is_push:
            value = instr.immediate or 0  # PUSH0 has no immediate
            if value in jumpdests:
                sigma += ((n, (value,)),)
        elif spec.is_dup:
            source = n - (spec.byte_value - 0x7F)
            i = bisect_left(sigma, (source,))
            if i < len(sigma) and sigma[i][0] == source:
                sigma += ((n, sigma[i][1]),)
        elif spec.is_swap:
            top, low = n - 1, n - (spec.byte_value - 0x8F) - 1
            lo, hi = bisect_left(sigma, (low,)), bisect_left(sigma, (top,))
            mid = lo + (lo < hi and sigma[lo][0] == low)  # past a tracked low slot
            if mid > lo or hi < len(sigma):  # a tracked slot moves
                down = ((low, sigma[hi][1]),) if hi < len(sigma) else ()
                up = ((top, sigma[lo][1]),) if mid > lo else ()
                sigma = sigma[:lo] + down + sigma[mid:hi] + up
        elif sigma and sigma[-1][0] >= n - delta:
            sigma = sigma[: bisect_left(sigma, (n - delta,))]
        if n_out != n or sigma is not before:
            # Looked up by its plain tuple, so each distinct stack is built
            # once. The height is checked above and sigma stays sorted as
            # built, so the stack skips StackState's check. The fold goes on
            # from the shared stack's own slots, so later equal stacks share
            # theirs and compare by identity.
            stack = stacks.get((n_out, sigma))
            if stack is None:
                stack = stacks[stack] = tuple.__new__(StackState, (n_out, sigma))
            n, sigma = stack
        pc = instr.pc + 1 + spec.immediate_len
        if spec.is_jump:  # popped its operands and pushes nothing
            successors = []  # in pc order, as the tracked targets are
            for dest in targets:
                if dest not in jumpdests:
                    raise InvalidJumpError(
                        f"jump at pc 0x{instr.pc:x} lands on 0x{dest:x}, which"
                        f" is not a JUMPDEST",
                        pc=instr.pc,
                    )
                successors.append(tuple.__new__(ConcreteState, (dest, stack)))
            falls = spec.byte_value == JUMPI_BYTE and pc in program._by_pc
            if falls and pc not in targets:
                successors.append(tuple.__new__(ConcreteState, (pc, stack)))
                successors.sort()
            return tuple(successors)
        instr = instruction_at(pc)
        if instr is None:
            return ()
        state = tuple.__new__(ConcreteState, (pc, stack))
        if pc in jumpdests:
            return (state,)
        run.append(state)
        limit -= 1
        if not limit:
            return None


_START = ConcreteState(0, EMPTY_STACK)


def initial_concrete_state() -> ConcreteState:
    return _START


def _coverage(runs: Mapping[ConcreteState, Run], truncated: bool) -> Coverage:
    """(entry, pc) steps and their transitions; a cut run's last has none."""
    states = transitions = 0
    for run, crossings in runs.values():
        states += len(run)
        transitions += len(run) - 1 + len(crossings or ())
    return tuple.__new__(Coverage, (states, transitions, truncated))


def enumerate_states(program: Program, max_steps: int = DEFAULT_MAX_STEPS) -> TraceSet:
    """Breadth-first closure of the entries reachable from the start.

    Folds each entry's run through its block with one _fold call. max_steps
    bounds the transitions, counted step by step; truncated says that it cut
    the closure. A step error propagates with a partial_trace attribute for
    diagnosis: the runs of first-found entries from the start to the failing
    state.
    """
    if not program.instructions:
        raise AnalysisError("program has no instructions")
    start = _START
    parents: dict[ConcreteState, ConcreteState | None] = {start: None}
    runs: dict[ConcreteState, Run] = {}
    stacks = {start.stack: start.stack}
    queue = deque([start])
    steps = 0

    while queue:
        entry = queue.popleft()
        run = [entry]
        try:
            # One state past the steps left: the step past max_steps still
            # runs, so its error is raised, and its state is dropped below.
            crossings = _fold(program, run, stacks, max_steps - steps + 1)
        except AnalysisError as err:
            runs[entry] = Run(tuple(run), None)
            chain = []
            while entry is not None:
                chain.append(runs[entry].states)
                entry = parents[entry]
            err.partial_trace = tuple(itertools.chain.from_iterable(reversed(chain)))
            raise
        steps += len(run) - 1 + len(crossings or ())
        if steps > max_steps:
            if crossings is None:
                run.pop()  # the state past the last step allowed
            runs[entry] = Run(tuple(run), None)
            runs.update((rest, Run((rest,), None)) for rest in queue)
            return tuple.__new__(TraceSet, (runs, True, _coverage(runs, True)))
        runs[entry] = tuple.__new__(Run, (tuple(run), crossings))
        for target in crossings:
            if parents.setdefault(target, entry) is entry:  # first reached
                queue.append(target)

    return tuple.__new__(TraceSet, (runs, False, _coverage(runs, False)))


def _stack_covered(concrete: StackState, abstract: StackState) -> bool:
    if concrete.n != abstract.n:
        return False
    for pos, dests in concrete.sigma:
        held = abstract.get(pos)
        if held is None or not set(dests) <= set(held):
            return False
    return True


def _covered(stack: StackState, members: Collection[StackState]) -> bool:
    return stack in members or any(_stack_covered(stack, m) for m in members)


def _uncovered(
    source: ConcreteState | None, state: ConcreteState, entry: ConcreteState
) -> Violation:
    where = (
        f"initial state {state.render()}" if source is None
        else f"after pc 0x{source.pc:x}, state {state.stack.render()}"
        f" at pc 0x{state.pc:x}"
    )
    return Violation(
        kind="uncovered_state",
        pc=0 if source is None else source.pc,
        detail=(
            f"{where} is not covered by entry context {entry.stack.render()} of"
            f" block 0x{entry.pc:x}"
        ),
    )


def check_jumps_to(
    program: Program, system: EquationSystem, traces: TraceSet
) -> Verdict:
    """Every reached state must be covered by its run's member at its pc."""
    if traces.truncated:
        return Verdict("inconclusive", (), traces.coverage)

    bodies = {block.start_pc: block.body for block in system.blocks}
    stored, jumpdests = system.states, program.jumpdests
    folds = stored.keys() <= bodies.keys()  # no interior state stored
    violations: list[Violation] = []
    # Block-start contexts are read as stored: a missing entry holds none.
    start = _START
    if not _covered(start.stack, (stored.get(0) or {}).get(start.stack, ())):
        violations.append(_uncovered(None, start, start))
    for entry, (states, crossings) in traces.runs.items():
        body = bodies.get(entry.pc, ())  # a block is never empty
        if len(body) != len(states):
            detail = (
                f"the run from {entry.render()} passes {len(states)} instructions,"
                f" but the system's block there holds {len(body) or 'none'}"
            )
            violations.append(
                Violation(kind="block_mismatch", pc=entry.pc, detail=detail)
            )
        elif len(states) > 1:
            key = entry.stack  # its own context, checked where it was found
            members = (stored.get(entry.pc) or {}).get(key, ())
            # The context's one member, stepped alone; None while it holds
            # none or several, whose set is walked instead.
            member = next(iter(members)) if len(members) == 1 else None
            k = -1  # the walk starts after the k-th interior result
            try:
                if folds and member is not None:
                    # The fold stops at the k-th result if it is the first to differ.
                    stacks = [state.stack for state in states[1:]]
                    k, member = run_stack(body[:-1], member, jumpdests, stacks)
                    if k < len(stacks) and not _stack_covered(stacks[k], member):
                        violations.append(_uncovered(states[k], states[k + 1], entry))
                if k + 2 < len(states):  # else the fold reached the run's end
                    for prev, ins, source, state in zip(
                        body[k + 1 :], body[k + 2 :], states[k + 1 :], states[k + 2 :]
                    ):
                        here = stored.get(ins.pc)
                        if here is not None:
                            members = here.get(key, ())
                            member = next(iter(members)) if len(members) == 1 else None
                        elif member is not None:
                            member = update_stack(prev, member, jumpdests)
                        else:
                            members = [update_stack(prev, m, jumpdests) for m in members]
                        stack = state.stack
                        if member is not None:
                            covered = stack == member or _stack_covered(stack, member)
                        else:
                            covered = _covered(stack, members)
                        if not covered:
                            violations.append(_uncovered(source, state, entry))
            except StackArityError as err:
                raise with_entry_context(err, key) from None
        # A block-start stack is its own entry context, whose member covers it.
        for target in crossings:
            members = (stored.get(target.pc) or {}).get(target.stack, ())
            if not _covered(target.stack, members):
                violations.append(_uncovered(states[-1], target, target))
    status = "pass" if not violations else "fail"
    return tuple.__new__(Verdict, (status, tuple(violations), traces.coverage))


def check_walk(
    program: Program, cfg: Cfg, system: EquationSystem, traces: TraceSet
) -> Verdict:
    """Every crossing must follow an edge between replicas."""
    if traces.truncated:
        return Verdict("inconclusive", (), traces.coverage)

    replicas = {(r.block_start, context): r for r, context in cfg.vertices.items()}
    edges = cfg.jump_edges | cfg.next_edges
    violations: list[Violation] = []
    start = _START
    if replicas.get(start) != cfg.entry:
        detail = f"initial state {start.render()} is not the entry vertex"
        violations.append(Violation(kind="missing_edge", pc=0, detail=detail))
    for entry, (states, crossings) in traces.runs.items():
        there, source = replicas.get(entry), states[-1]
        for target in crossings:
            if (there, replicas.get(target)) in edges:
                continue
            detail = (
                f"transition 0x{source.pc:x} -> 0x{target.pc:x} follows no edge"
                f" from replica {entry.render()} to {target.render()}"
            )
            violations.append(
                Violation(kind="missing_edge", pc=source.pc, detail=detail)
            )
    status = "pass" if not violations else "fail"
    return tuple.__new__(Verdict, (status, tuple(violations), traces.coverage))


# ---------------------------------------------------------------------------
# Randomized program generation


class GeneratorShape(NamedTuple):
    """Size box for generated programs.

    max_call_depth of 1 keeps subroutines leaf-only; larger values let a
    subroutine call a later one, which bounds chains by callee_count and
    keeps the call structure acyclic.
    """

    max_call_depth: int = 2
    filler_density: int = 2
    branch_count: int = 2
    callee_count: int = 2
    sites_per_callee: int = 2
    junk_depth: int = 2

    def validate(self) -> None:
        if self.max_call_depth < 1:
            raise ValueError("max_call_depth must be positive")
        for name in ("filler_density", "branch_count", "callee_count", "junk_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.callee_count and self.sites_per_callee < 1:
            raise ValueError("sites_per_callee must be positive")


def random_shape(rng: random.Random, max_blocks: int = 30) -> GeneratorShape:
    """Sample a shape whose block estimate stays inside max_blocks (>= 1)."""
    if max_blocks < 1:
        raise ValueError(f"max_blocks must be at least 1, got {max_blocks}")
    while True:
        shape = GeneratorShape(
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
