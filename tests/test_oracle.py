"""Concrete reference stepper, differential checkers, program generator.

The stepper keeps its own stack effects on purpose: agreement with the
transfer module's per-instruction effect is one of the things under test
here, so only one side may delegate to the other.
"""

from __future__ import annotations

import random

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
from evmcfg.oracle import GeneratorShape, initial_concrete_state

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

def test_enumerate_single_halt():
    traces = enumerate_states(decode_bytecode("00"))
    assert len(traces.states) == 1
    assert traces.transitions == frozenset()
    assert traces.traces == ((cs(0, 0),),)
    assert not traces.truncated


def test_enumerate_linear_exact(linear):
    traces = linear.traces
    assert len(traces.states) == 4
    assert len(traces.transitions) == 3
    assert len(traces.traces) == 1
    assert [s.pc for s in traces.traces[0]] == [0, 2, 3, 4]
    assert [s.stack.n for s in traces.traces[0]] == [0, 1, 0, 0]
    assert not traces.truncated


def test_enumerate_branch_two_traces(branch):
    traces = branch.traces
    assert len(traces.states) == 6
    assert len(traces.transitions) == 5
    assert [[s.pc for s in t] for t in traces.traces] == [
        [0, 2, 4, 5],
        [0, 2, 4, 6, 7],
    ]


def test_enumerate_shared_exact(shared):
    traces = shared.traces
    assert len(traces.states) == 13
    assert len(traces.transitions) == 12
    assert len(traces.traces) == 1
    assert [s.pc for s in traces.traces[0]] == [
        0x00, 0x02, 0x04, 0x10, 0x11, 0x05, 0x06,
        0x08, 0x0A, 0x10, 0x11, 0x0B, 0x0C,
    ]
    assert not traces.truncated


def test_enumerate_two_height(two_height):
    traces = two_height.traces
    assert len(traces.states) == 14
    assert len(traces.traces) == 1
    heights = [s.stack.n for s in traces.traces[0]]
    assert heights == [0, 1, 2, 1, 1, 0, 0, 1, 2, 3, 2, 2, 1, 1]


def test_enumerate_cycle_truncates():
    traces = enumerate_states(decode_bytecode("5b600056"))
    assert len(traces.states) == 3
    assert len(traces.transitions) == 3
    assert traces.truncated
    assert traces.traces == ()


def test_enumerate_budget_truncates(linear):
    traces = enumerate_states(linear.program, max_steps=2)
    assert traces.truncated


def test_traces_come_out_in_canonical_order(linear, branch, shared, two_height):
    # The depth-first walk needs no sort: the sort stays here as the reference.
    def check(traces):
        assert not traces.truncated
        assert traces.traces == tuple(
            sorted(traces.traces, key=lambda t: [old_sort_key(s) for s in t])
        )

    for fixture in (linear, branch, shared, two_height):
        check(fixture.traces)
    rng = random.Random(0x7A)
    for _ in range(200):
        seed = rng.getrandbits(32)
        program = generate_program(seed, random_shape(random.Random(seed)))
        check(enumerate_states(program))


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


def test_missing_edge_breaks_the_walk(shared):
    removed = (ReplicaId(0x05, 1), ReplicaId(0x10, 2))
    doctored = Cfg(
        vertices=shared.cfg.vertices,
        jump_edges=shared.cfg.jump_edges - {removed},
        next_edges=shared.cfg.next_edges,
        entry=shared.cfg.entry,
    )
    verdict = check_walk(shared.program, doctored, shared.system, shared.traces)
    assert verdict.status == "fail"
    (violation,) = verdict.violations
    assert violation.kind == "missing_walk"
    assert "0x10" in violation.detail


def test_missing_jump_target_detected(shared):
    # Claim the second call site never returns to the shared block.
    system = solve(shared.program)
    narrowed = ss(1)
    system.states[0x0A] = {ss(0): frozenset({ss(2, {0: [0x0B]})})}
    verdict = check_jumps_to(shared.program, system, shared.traces)
    assert verdict.status == "fail"
    kinds = {v.kind for v in verdict.violations}
    assert "missing_jump_target" in kinds
    pcs = {v.pc for v in verdict.violations if v.kind == "missing_jump_target"}
    assert pcs == {0x0A}
    assert narrowed not in system.state_at(0x10)  # sanity: untouched var


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
