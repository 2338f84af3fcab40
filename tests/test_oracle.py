"""Concrete reference stepper, differential checkers, program generator.

The stepper keeps its own stack effects on purpose: agreement with the
transfer module's per-instruction effect is one of the things under test
here, so only one side may delegate to the other.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcfg import (
    Cfg,
    ConcreteState,
    ReplicaId,
    analyze,
    build_cfg,
    check_jumps_to,
    check_walk,
    decode_bytecode,
    enumerate_states,
    generate_program,
    partition_blocks,
    random_shape,
    solve,
    step,
    update_stack,
)
from evmcfg.errors import (
    AnalysisError,
    InvalidJumpError,
    StackArityError,
    StuckStateError,
)
from evmcfg.bytecode import JUMPI_BYTE
from evmcfg.domain import MAX_STACK, StackState
from evmcfg.oracle import (
    DEFAULT_MAX_STEPS,
    GeneratorShape,
    _replica_steps,
    _stack_covered,
    initial_concrete_state,
)

from conftest import LINEAR_HEX, kernel_stacks, ss, stack_states


def cs(pc: int, n: int, tracked=None) -> ConcreteState:
    return ConcreteState(pc, ss(n, tracked))


def old_sort_key(state: ConcreteState):
    """ConcreteState's sort key when it was a frozen dataclass."""
    return (state.pc, (state.stack.n, state.stack.sigma))


# ---------------------------------------------------------------- stepping

def test_step_push_and_jump():
    program = decode_bytecode(LINEAR_HEX)
    assert step(program, cs(0, 0)) == (cs(2, 1, {0: [0x03]}),)
    assert step(program, cs(2, 1, {0: [0x03]})) == (cs(3, 0),)
    assert step(program, cs(3, 0)) == (cs(4, 0),)
    assert step(program, cs(4, 0)) == ()  # STOP


def test_step_jumpi_forks_sorted():
    program = decode_bytecode("6001600657005b00")
    got = step(program, cs(4, 2, {1: [0x06]}))
    assert got == (cs(5, 0), cs(6, 0))


def test_step_multi_destination_target():
    program = decode_bytecode("5b5b56")
    got = step(program, ConcreteState(2, ss(1, {0: [0x00, 0x01]})))
    assert got == (cs(0, 0), cs(1, 0))


def test_step_runs_off_code_end():
    program = decode_bytecode("6000")
    assert step(program, cs(0, 0)) == ()


def test_step_dup_swap_stay_concrete():
    program = decode_bytecode("80905000")
    assert step(program, cs(0, 2, {1: [0x05]})) == (
        cs(1, 3, {1: [0x05], 2: [0x05]}),
    )
    assert step(program, cs(1, 2, {0: [0x05]})) == (cs(2, 2, {1: [0x05]}),)


def test_step_untracked_jump_target_is_stuck():
    program = decode_bytecode("600056")
    with pytest.raises(StuckStateError) as exc:
        step(program, cs(2, 1))
    assert exc.value.pc == 2
    with pytest.raises(StuckStateError):
        step(decode_bytecode("56"), cs(0, 0))  # empty stack counts too


def test_step_tracked_non_landing_target():
    program = decode_bytecode("5600")
    with pytest.raises(InvalidJumpError) as exc:
        step(program, ConcreteState(0, ss(1, {0: [0x01]})))
    assert exc.value.pc == 0


def test_step_underflow():
    program = decode_bytecode("0100")
    with pytest.raises(StackArityError):
        step(program, cs(0, 0))
    # JUMPI with a tracked target but no condition beneath it
    program = decode_bytecode("5b600057")
    with pytest.raises(StackArityError):
        step(program, cs(3, 1, {0: [0x00]}))


# The stepper as it was, over a list with one slot per stack position; the
# reference for the one that works on the sorted tracked tuple.
def _stack_to_slots(stack):
    slots = [None] * stack.n
    for pos, dests in stack.sigma:
        slots[pos] = dests
    return slots


def _slots_to_stack(slots):
    return StackState.make(
        len(slots), {i: v for i, v in enumerate(slots) if v is not None}
    )


def old_step(program, state):
    instr = program.instruction_at(state.pc)
    spec = instr.spec
    if spec.halts:
        return ()
    slots = _stack_to_slots(state.stack)
    if spec.is_jump:
        if not slots or slots[-1] is None:
            raise StuckStateError(
                f"{spec.mnemonic} at pc 0x{instr.pc:x} pops an untracked"
                f" jump target (stack height {len(slots)})",
                pc=instr.pc,
            )
        targets = slots[-1]
        if len(slots) < spec.delta:
            raise StackArityError(
                f"{spec.mnemonic} at pc 0x{instr.pc:x} needs {spec.delta}"
                f" stack items, found {len(slots)}",
                pc=instr.pc,
            )
        del slots[len(slots) - spec.delta :]
        landed = _slots_to_stack(slots)
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
    if len(slots) < spec.delta:
        raise StackArityError(
            f"{spec.mnemonic} at pc 0x{instr.pc:x} needs {spec.delta} stack"
            f" items, found {len(slots)}",
            pc=instr.pc,
        )
    if len(slots) - spec.delta + spec.alpha > MAX_STACK:
        raise StackArityError(
            f"{spec.mnemonic} at pc 0x{instr.pc:x} overflows the stack",
            pc=instr.pc,
        )
    if spec.is_push:
        value = instr.push_value()
        slots.append((value,) if value in program.jumpdests else None)
    elif spec.is_dup:
        slots.append(slots[-(spec.byte_value - 0x7F)])
    elif spec.is_swap:
        k = spec.byte_value - 0x8F
        slots[-1], slots[-k - 1] = slots[-k - 1], slots[-1]
    else:
        if spec.delta:
            del slots[len(slots) - spec.delta :]
        slots.extend([None] * spec.alpha)
    if not program.has_instruction(instr.next_pc):
        return ()
    return (ConcreteState(instr.next_pc, _slots_to_stack(slots)),)


def step_outcome(stepper, program, state):
    """The successors, or the type, pc and message of the step's error."""
    try:
        return stepper(program, state)
    except AnalysisError as err:
        return (type(err), err.pc, err.message)


@given(
    kernel_stacks(st.frozensets(st.integers(0, 12), min_size=1, max_size=3)),
    st.lists(st.sampled_from((0x5B, 0x5B, 0x00, 0x50)), max_size=6),
    st.integers(0, 2**256 - 1),
)
@settings(max_examples=150)
def test_step_matches_the_old_stepper(stack, tail, value):
    # Each opcode byte runs at pc 0 of its own program: the byte, an
    # immediate holding value cut to its width, then tail, whose JUMPDESTs
    # are the only landings; value and the stack's targets may miss them.
    for byte in range(256):
        width = max(0, byte - 0x5F) if 0x60 <= byte <= 0x7F else 0
        immediate = (value % 256**width).to_bytes(width, "big")
        program = decode_bytecode((bytes((byte,)) + immediate + bytes(tail)).hex())
        state = ConcreteState(0, stack)
        assert step_outcome(step, program, state) == step_outcome(
            old_step, program, state
        )


# -------------------------------------------------------------- enumeration

def single_run(traces):
    """The one run of a closure without forks, from the start to its halt."""
    state, run = initial_concrete_state(), []
    while True:
        run.append(state)
        following = traces.successors[state]
        if not following:
            return run
        (state,) = following


def test_enumerate_single_halt():
    traces = enumerate_states(decode_bytecode("00"))
    assert traces.states == {cs(0, 0)}
    assert traces.transitions == frozenset()
    assert traces.successors == {cs(0, 0): ()}
    assert not traces.truncated


def test_enumerate_shares_equal_stacks():
    # States whose stacks are equal hold one StackState, and every recorded
    # successor tuple is what step gives on its own.
    program = generate_program(3, random_shape(random.Random(3)))
    traces = enumerate_states(program)
    shared: dict[StackState, StackState] = {}
    for state in traces.states:
        assert shared.setdefault(state.stack, state.stack) is state.stack
    assert len(shared) < len(traces.states)
    for state, successors in traces.successors.items():
        assert step(program, state) == successors
        for target in successors:
            assert shared[target.stack] is target.stack


def test_enumerate_linear_exact(linear):
    traces = linear.traces
    assert len(traces.states) == 4
    assert len(traces.transitions) == 3
    run = single_run(traces)
    assert [s.pc for s in run] == [0, 2, 3, 4]
    assert [s.stack.n for s in run] == [0, 1, 0, 0]
    assert not traces.truncated


def test_enumerate_branch_two_traces(branch):
    traces = branch.traces
    assert len(traces.states) == 6
    assert len(traces.transitions) == 5
    assert sorted(s.pc for s in traces.states) == [0, 2, 4, 5, 6, 7]
    fork = cs(4, 2, {1: [0x06]})
    assert [s.pc for s in traces.successors[fork]] == [5, 6]
    assert [s for s, following in traces.successors.items() if not following] == [
        cs(5, 0),
        cs(7, 0),
    ]


def test_enumerate_shared_exact(shared):
    traces = shared.traces
    assert len(traces.states) == 13
    assert len(traces.transitions) == 12
    assert [s.pc for s in single_run(traces)] == [
        0x00, 0x02, 0x04, 0x10, 0x11, 0x05, 0x06,
        0x08, 0x0A, 0x10, 0x11, 0x0B, 0x0C,
    ]
    assert not traces.truncated


def test_enumerate_two_height(two_height):
    traces = two_height.traces
    assert len(traces.states) == 14
    heights = [s.stack.n for s in single_run(traces)]
    assert heights == [0, 1, 2, 1, 1, 0, 0, 1, 2, 3, 2, 2, 1, 1]


def test_enumerate_cycle_completes():
    traces = enumerate_states(decode_bytecode("5b600056"))
    assert len(traces.states) == 3
    assert len(traces.transitions) == 3
    assert not traces.truncated
    assert traces.successors[cs(3, 1, {0: [0x00]})] == (cs(0, 0),)


def test_enumerate_budget_truncates(linear):
    traces = enumerate_states(linear.program, max_steps=2)
    assert traces.truncated


concrete_states = st.builds(ConcreteState, st.integers(0, 6), stack_states(max_height=3))


@given(st.lists(concrete_states, max_size=8))
def test_natural_order_is_the_old_sort_key(states):
    assert sorted(states) == sorted(states, key=old_sort_key)


@given(st.lists(st.tuples(concrete_states, concrete_states), max_size=8))
def test_transitions_sort_by_the_old_keys(transitions):
    # check_jumps_to walks transitions in this order.
    assert sorted(transitions) == sorted(
        transitions, key=lambda t: (old_sort_key(t[0]), old_sort_key(t[1]))
    )


@given(concrete_states)
def test_concrete_states_are_immutable(state):
    for name, value in (("pc", 0), ("stack", ss(0)), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(state, name, value)


def test_step_budget_counts_transitions(linear):
    # 4 states, 3 transitions: a halting state costs nothing.
    traces = enumerate_states(linear.program, max_steps=3)
    assert not traces.truncated
    assert len(traces.transitions) == 3
    assert not enumerate_states(decode_bytecode("00"), max_steps=1).truncated


def test_enumerate_stuck_carries_partial_trace():
    with pytest.raises(StuckStateError) as exc:
        enumerate_states(decode_bytecode("600056"))
    partial = exc.value.partial_trace
    assert [s.pc for s in partial] == [0, 2]


def test_enumerate_empty_program():
    with pytest.raises(AnalysisError):
        enumerate_states(decode_bytecode(""))


# ---------------------------------------------------------------- checkers

def test_checkers_pass_on_fixtures(linear, branch, shared, two_height):
    for pipeline in (linear, branch, shared, two_height):
        state_check = check_jumps_to(pipeline.program, pipeline.system, pipeline.traces)
        assert state_check.passed
        assert state_check.violations == ()
        walk_check = check_walk(
            pipeline.program, pipeline.cfg, pipeline.system, pipeline.traces
        )
        assert walk_check.passed


def test_verdict_json_shape(shared):
    verdict = check_jumps_to(shared.program, shared.system, shared.traces)
    doc = verdict.to_json()
    assert doc == {
        "verdict": "pass",
        "violations": [],
        "coverage": {"states": 13, "transitions": 12, "truncated": False},
    }


def test_truncated_closure_is_inconclusive(linear):
    traces = enumerate_states(linear.program, max_steps=2)
    verdict = check_jumps_to(linear.program, linear.system, traces)
    assert verdict.status == "inconclusive"
    assert not verdict.passed
    walk_verdict = check_walk(linear.program, linear.cfg, linear.system, traces)
    assert walk_verdict.status == "inconclusive"


def test_check_jumps_to_keeps_no_derived_state(shared, two_height):
    # Interior members are walked, not derived into the system.
    for analysis in (shared, two_height):
        system = solve(analysis.program)
        before = dict(system.states)
        verdict = check_jumps_to(analysis.program, system, analysis.traces)
        assert verdict.passed
        assert system.states == before


def test_dropped_context_is_caught(shared):
    # Forget one caller's context at the shared block: the checker must
    # attribute the gap to the jump that produced the uncovered state.
    system = solve(shared.program)
    doctored = dict(system.state_at(0x10))
    del doctored[ss(1, {0: [0x0B]})]
    system.states[0x10] = doctored
    verdict = check_jumps_to(shared.program, system, shared.traces)
    assert verdict.status == "fail"
    (violation,) = verdict.violations
    assert violation.kind == "uncovered_state"
    assert violation.pc == 0x0A
    assert "0x10" in violation.detail


def test_dropped_initial_context_is_caught(linear):
    system = solve(linear.program)
    system.states[0x00] = {}
    verdict = check_jumps_to(linear.program, system, linear.traces)
    assert verdict.status == "fail"
    assert verdict.violations[0].kind == "uncovered_state"
    assert verdict.violations[0].pc == 0


def test_narrowed_member_is_caught(shared):
    # Keep the context but forget what its tracked slot may hold.
    system = solve(shared.program)
    ret_a = ss(1, {0: [0x05]})
    doctored = dict(system.state_at(0x10))
    doctored[ret_a] = frozenset({ss(1)})
    system.states[0x10] = doctored
    verdict = check_jumps_to(shared.program, system, shared.traces)
    assert verdict.status == "fail"
    kinds = {v.kind for v in verdict.violations}
    assert "uncovered_state" in kinds


def _without_edge(cfg: Cfg, edge) -> Cfg:
    return Cfg(
        vertices=cfg.vertices,
        jump_edges=cfg.jump_edges - {edge},
        next_edges=cfg.next_edges - {edge},
        entry=cfg.entry,
    )


def test_missing_edge_breaks_the_walk(shared):
    # The second call into the shared block: the violation names the jump
    # at its source pc and the block it lands on.
    doctored = _without_edge(shared.cfg, (ReplicaId(0x05, 1), ReplicaId(0x10, 2)))
    verdict = check_walk(shared.program, doctored, shared.system, shared.traces)
    assert verdict.status == "fail"
    (violation,) = verdict.violations
    assert violation.kind == "missing_edge"
    assert violation.pc == 0x0A
    assert "0x10" in violation.detail


def test_missing_jump_target_detected(shared):
    # Claim the shared block's second replica never returns to its caller.
    doctored = _without_edge(shared.cfg, (ReplicaId(0x10, 2), ReplicaId(0x0B, 1)))
    verdict = check_walk(shared.program, doctored, shared.system, shared.traces)
    assert verdict.status == "fail"
    (violation,) = verdict.violations
    assert violation.kind == "missing_edge"
    assert violation.pc == 0x11
    assert "-> 0xb " in violation.detail


def test_entry_vertex_is_checked(shared):
    doctored = Cfg(
        vertices=shared.cfg.vertices,
        jump_edges=shared.cfg.jump_edges,
        next_edges=shared.cfg.next_edges,
        entry=ReplicaId(0x05, 1),
    )
    verdict = check_walk(shared.program, doctored, shared.system, shared.traces)
    assert verdict.status == "fail"
    (violation,) = verdict.violations
    assert (violation.kind, violation.pc) == ("missing_edge", 0)


def test_two_entries_reach_one_state():
    # JUMPDEST POP entered with two different targets in slot 0: both
    # contexts step to the same empty stack after the POP, so the map is a
    # relation, and each context's member must cover the states after it.
    program = decode_bytecode("6001600a57600a6010565b60106010565b50365000")
    analysis = analyze(program)
    assert analysis.verdict == "pass"
    contexts = analysis.system.entry_contexts(0x10)
    assert contexts == (ss(1, {0: [0x0A]}), ss(1, {0: [0x10]}))
    merged_state = cs(0x12, 0)
    entries = {
        entry.stack
        for _, _, state, entry in _replica_steps(analysis.system, analysis.traces)
        if state == merged_state
    }
    assert entries == set(contexts)
    for context in contexts:
        mutated = solve(program)
        doctored = dict(mutated.state_at(0x13))
        doctored[context] = frozenset({ss(2)})
        mutated.states[0x13] = doctored
        verdict = check_jumps_to(program, mutated, analysis.traces)
        assert verdict.status == "fail"
        (violation,) = verdict.violations
        assert violation.kind == "uncovered_state"
        assert violation.pc == 0x12
        assert f"entry context {context.render()}" in violation.detail


# ------------------------------------------------ the trace-walk reference
# The checkers as they were before the replica map: maximal traces listed
# depth-first over the closure, each walked over the replica graph, and
# every transition's target covered by some member at its pc. They are the
# reference for the map's verdicts on loop-free programs, where they decide.


def old_enumerate(program, max_steps=DEFAULT_MAX_STEPS):
    """(states, transitions, traces, truncated): the closure, then the walk."""
    start = initial_concrete_state()
    visited = {start}
    queue = deque([start])
    succ_map = {}
    transitions = set()
    truncated = False
    steps = 0
    while queue:
        current = queue.popleft()
        successors = step(program, current)
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
            queue.append(nxt)

    traces = []
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
    return visited, transitions, traces, truncated


def _old_covered_by_variable(stack, variable):
    for members in variable.values():
        if stack in members:
            return True
    return any(
        _stack_covered(stack, member)
        for members in variable.values()
        for member in members
    )


def _old_jump_predicted(system, pc, dest):
    return any(
        dest in (member.top_destinations() or ())
        for members in system.state_at(pc).values()
        for member in members
    )


def old_check_jumps_to(program, system, closure):
    _, transitions, _, truncated = closure
    if truncated:
        return "inconclusive"
    start = initial_concrete_state()
    if not _old_covered_by_variable(start.stack, system.state_at(0)):
        return "fail"
    for source, target in sorted(transitions):
        if not _old_covered_by_variable(target.stack, system.state_at(target.pc)):
            return "fail"
        if program.instruction_at(source.pc).spec.is_jump:
            claimed = source.stack.top_destinations() or ()
            if target.pc in claimed and not _old_jump_predicted(
                system, source.pc, target.pc
            ):
                return "fail"
    return "pass"


def _old_walk_exists(cfg, successors, sequence):
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


def old_check_walk(cfg, system, closure):
    _, _, traces, truncated = closure
    if truncated:
        return "inconclusive"
    block_starts = {b.start_pc for b in system.blocks}
    successors = {}
    for a, b in cfg.jump_edges | cfg.next_edges:
        successors.setdefault(a, []).append(b)
    for trace in traces:
        sequence = [s.pc for s in trace if s.pc in block_starts]
        if not _old_walk_exists(cfg, successors, sequence):
            return "fail"
    return "pass"


def merged(statuses):
    return next(s for s in ("fail", "inconclusive", "pass") if s in statuses)


def test_verdicts_match_the_trace_walk(linear, branch, shared, two_height):
    analyses = [linear, branch, shared, two_height]
    rng = random.Random(0x7A)
    for _ in range(200):
        seed = rng.getrandbits(32)
        analyses.append(analyze(generate_program(seed, random_shape(random.Random(seed)))))
    for analysis in analyses:
        closure = old_enumerate(analysis.program)
        reference = merged(
            {
                old_check_jumps_to(analysis.program, analysis.system, closure),
                old_check_walk(analysis.cfg, analysis.system, closure),
            }
        )
        assert analysis.verdict == reference == "pass"
        assert analysis.traces.states == closure[0]
        assert analysis.traces.transitions == closure[1]


def _narrowed(members):
    return frozenset(StackState.make(m.n) for m in members)


def test_mutations_fail_under_both_checkers(linear, branch, shared, two_height):
    # Every reached entry context dropped, every member at a pc where a
    # reached stack tracks a slot narrowed to untracked slots, and every
    # edge cut, one at a time: both checkers must fail each mutation.
    for analysis in (linear, branch, shared, two_height):
        program, traces = analysis.program, analysis.traces
        closure = old_enumerate(program)
        block_starts = {b.start_pc for b in analysis.system.blocks}
        system_mutations = []
        for state in sorted(traces.states):
            if state.pc in block_starts:
                mutated = solve(program)
                doctored = dict(mutated.state_at(state.pc))
                del doctored[state.stack]
                mutated.states[state.pc] = doctored
                system_mutations.append(mutated)
        for pc in sorted({s.pc for s in traces.states if s.stack.sigma}):
            mutated = solve(program)
            mutated.states[pc] = {
                key: _narrowed(members)
                for key, members in mutated.state_at(pc).items()
            }
            system_mutations.append(mutated)
        assert len(system_mutations) >= 3
        for mutated in system_mutations:
            assert old_check_jumps_to(program, mutated, closure) == "fail"
            verdict = check_jumps_to(program, mutated, traces)
            assert verdict.status == "fail"
            assert {v.kind for v in verdict.violations} == {"uncovered_state"}

        cfg = analysis.cfg
        edges = sorted(cfg.jump_edges | cfg.next_edges)
        assert edges
        for edge in edges:
            cut = _without_edge(cfg, edge)
            assert old_check_walk(cut, analysis.system, closure) == "fail"
            verdict = check_walk(program, cut, analysis.system, traces)
            assert verdict.status == "fail"
            assert [v.kind for v in verdict.violations] == ["missing_edge"]


# ------------------------------------------------ stepper vs. static effect

def test_transitions_agree_with_static_effect():
    # Differential check: replay every observed transition through the
    # dict-based per-instruction effect and demand the identical stack.
    rng = random.Random(0x0D1F)
    checked = 0
    for _ in range(30):
        seed = rng.getrandbits(32)
        program = generate_program(seed, random_shape(random.Random(seed)))
        traces = enumerate_states(program)
        assert not traces.truncated
        for source, target in traces.transitions:
            expected = update_stack(
                program.instruction_at(source.pc), source.stack, program.jumpdests
            )
            assert target.stack == expected, (
                f"seed {seed}: transition 0x{source.pc:x} -> 0x{target.pc:x}"
            )
            checked += 1
    assert checked > 100


# ----------------------------------------------------------------- generator

def test_shape_validation():
    GeneratorShape().validate()
    with pytest.raises(ValueError):
        GeneratorShape(max_blocks=0).validate()
    with pytest.raises(ValueError):
        GeneratorShape(filler_density=-1).validate()
    with pytest.raises(ValueError):
        GeneratorShape(sites_per_callee=0).validate()


def test_random_shape_deterministic_and_bounded():
    shapes = [random_shape(random.Random(7)) for _ in range(3)]
    assert shapes[0] == shapes[1] == shapes[2]
    for seed in range(40):
        shape = random_shape(random.Random(seed))
        shape.validate()
        assert shape.max_blocks <= 30


def test_generate_program_deterministic():
    shape = random_shape(random.Random(3))
    a = generate_program(3, shape)
    b = generate_program(3, shape)
    assert a.to_bytes() == b.to_bytes()
    c = generate_program(4, shape)
    assert a.to_bytes() != c.to_bytes()


def test_generated_programs_decode_cleanly():
    for seed in range(10):
        program = generate_program(seed, random_shape(random.Random(seed)))
        again = decode_bytecode(program.to_bytes().hex())
        assert again.to_bytes() == program.to_bytes()
        assert program.diagnostics == ()
        blocks, _ = partition_blocks(program)
        assert len(blocks) <= 30
        assert program.instructions[-1].pc in {b.last.pc for b in blocks}


def test_generated_corpus_exercises_replication():
    found_split = False
    found_next_edge = False
    for seed in range(40):
        program = generate_program(seed, random_shape(random.Random(seed)))
        system = solve(program)
        cfg = build_cfg(system)
        if any(r.id >= 2 for r in cfg.vertices):
            found_split = True
        if cfg.next_edges:
            found_next_edge = True
        if found_split and found_next_edge:
            break
    assert found_split, "no seed produced a block with two entry contexts"
    assert found_next_edge, "no seed produced a fallthrough edge"


def test_generated_programs_stay_sound():
    for seed in range(10):
        program = generate_program(seed, random_shape(random.Random(seed)))
        assert analyze(program).verdict == "pass"


def test_initial_concrete_state():
    start = initial_concrete_state()
    assert start.pc == 0
    assert start.stack == ss(0)
    assert start.render() == "(pc=0x0, <0, {}>)"
