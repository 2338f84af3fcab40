"""Per-instruction stack effect and its pointwise lift."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcfg import decode_bytecode, join, leq, transfer, update_stack
from evmcfg.bytecode import Instruction
from evmcfg.domain import MAX_STACK, StackState
from evmcfg.errors import StackArityError
from evmcfg.transfer import run_stack

from conftest import DEST_POOL, kernel_stacks, ss, stack_states


def instr(hex_text: str, pc: int = 0):
    return decode_bytecode(hex_text).instruction_at(pc)


J = frozenset({0x03, 0x05, 0x0B, 0x10})


# ---------------------------------------------------------------------- push

def test_push_tracked_destination():
    push3 = instr("6003")
    assert update_stack(push3, ss(0), J) == ss(1, {0: [0x03]})
    assert update_stack(push3, ss(2, {0: [0x05]}), J) == ss(
        3, {0: [0x05], 2: [0x03]}
    )


def test_push_untracked_value():
    push_junk = instr("6042")
    assert update_stack(push_junk, ss(0), J) == ss(1)
    assert update_stack(push_junk, ss(1, {0: [0x10]}), J) == ss(2, {0: [0x10]})


def test_push_zero_variants():
    # PUSH0 and PUSH1 0x00 agree, and 0 only counts when it is a landing pad.
    push0 = instr("5f")
    push1_zero = instr("6000")
    assert update_stack(push0, ss(0), J) == ss(1)
    assert update_stack(push1_zero, ss(0), J) == ss(1)
    with_zero = frozenset({0x00})
    assert update_stack(push0, ss(0), with_zero) == ss(1, {0: [0]})
    assert update_stack(push1_zero, ss(0), with_zero) == ss(1, {0: [0]})


def test_wide_push():
    push2 = instr("610010")
    assert update_stack(push2, ss(0), J) == ss(1, {0: [0x10]})


# ----------------------------------------------------------------- dup, swap

def test_dup1_copies_top():
    dup1 = instr("80")
    assert update_stack(dup1, ss(1, {0: [0x05]}), J) == ss(
        2, {0: [0x05], 1: [0x05]}
    )
    assert update_stack(dup1, ss(1), J) == ss(2)


def test_dup2_reaches_below():
    dup2 = instr("81")
    got = update_stack(dup2, ss(2, {0: [0x05]}), J)
    assert got == ss(3, {0: [0x05], 2: [0x05]})
    # untracked source stays untracked up top
    assert update_stack(dup2, ss(2, {1: [0x0B]}), J) == ss(3, {1: [0x0B]})


def test_dup16():
    dup16 = instr("8f")
    base = ss(16, {0: [0x03]})
    assert update_stack(dup16, base, J) == ss(17, {0: [0x03], 16: [0x03]})


def test_swap1_all_four_cases():
    swap1 = instr("90")
    both = ss(2, {0: [0x03], 1: [0x05]})
    assert update_stack(swap1, both, J) == ss(2, {0: [0x05], 1: [0x03]})
    only_top = ss(2, {1: [0x05]})
    assert update_stack(swap1, only_top, J) == ss(2, {0: [0x05]})
    only_low = ss(2, {0: [0x03]})
    assert update_stack(swap1, only_low, J) == ss(2, {1: [0x03]})
    neither = ss(2)
    assert update_stack(swap1, neither, J) == ss(2)


def test_swap2_skips_middle():
    swap2 = instr("91")
    state = ss(3, {0: [0x03], 1: [0x0B], 2: [0x05]})
    assert update_stack(swap2, state, J) == ss(
        3, {0: [0x05], 1: [0x0B], 2: [0x03]}
    )


def test_swap_untouched_positions_survive():
    swap1 = instr("90")
    state = ss(4, {0: [0x10], 1: [0x0B], 3: [0x05]})
    assert update_stack(swap1, state, J) == ss(
        4, {0: [0x10], 1: [0x0B], 2: [0x05]}
    )


# --------------------------------------------------------- generic consumers

def test_pop_drops_tracked_top():
    pop = instr("50")
    assert update_stack(pop, ss(1, {0: [0x03]}), J) == ss(0)
    assert update_stack(pop, ss(2, {0: [0x03], 1: [0x05]}), J) == ss(
        1, {0: [0x03]}
    )


def test_add_consumes_two_produces_untracked():
    add = instr("01")
    assert update_stack(add, ss(2, {0: [0x03], 1: [0x05]}), J) == ss(1)
    assert update_stack(add, ss(3, {0: [0x03], 2: [0x05]}), J) == ss(
        2, {0: [0x03]}
    )


def test_jump_consumes_its_target():
    jump = instr("56")
    assert update_stack(jump, ss(1, {0: [0x03]}), J) == ss(0)
    assert update_stack(jump, ss(2, {0: [0x05], 1: [0x03]}), J) == ss(
        1, {0: [0x05]}
    )


def test_jumpi_consumes_target_and_condition():
    jumpi = instr("57")
    assert update_stack(jumpi, ss(2, {0: [0x03], 1: [0x05]}), J) == ss(0)
    assert update_stack(jumpi, ss(3, {0: [0x10], 1: [0x03]}), J) == ss(
        1, {0: [0x10]}
    )


def test_stop_is_identity_on_shape():
    stop = instr("00")
    state = ss(2, {1: [0x05]})
    assert update_stack(stop, state, J) == state


def test_calldatasize_produces_one():
    cds = instr("36")
    assert update_stack(cds, ss(1, {0: [0x03]}), J) == ss(2, {0: [0x03]})


# -------------------------------------------------------------------- errors

def test_underflow_names_pc():
    jump = instr("6003565b00", pc=2)
    with pytest.raises(StackArityError) as exc:
        update_stack(jump, ss(0), J)
    assert exc.value.pc == 2
    assert "0x2" in exc.value.message
    assert "JUMP" in exc.value.message


def test_underflow_add():
    add = instr("01")
    with pytest.raises(StackArityError):
        update_stack(add, ss(1), J)


def test_overflow():
    push = instr("6001")
    with pytest.raises(StackArityError) as exc:
        update_stack(push, ss(MAX_STACK), J)
    assert "overflow" in exc.value.message

    dup1 = instr("80")
    with pytest.raises(StackArityError):
        update_stack(dup1, ss(MAX_STACK), J)


# ------------------------------------------------------------- lifted effect

def test_transfer_keeps_keys_and_maps_members():
    push3 = instr("6003")
    a, b = ss(0), ss(1, {0: [0x05]})
    pi = {a: frozenset({a}), b: frozenset({b, a})}
    out = transfer(push3, pi, J)
    assert set(out) == {a, b}
    assert out[a] == frozenset({ss(1, {0: [0x03]})})
    assert out[b] == frozenset(
        {ss(2, {0: [0x05], 1: [0x03]}), ss(1, {0: [0x03]})}
    )


def test_transfer_on_empty_is_empty():
    assert transfer(instr("6003"), {}, J) == {}


def test_transfer_arity_error_names_entry_context():
    pop = instr("50")
    key = ss(2, {0: [0x03]})
    pi = {key: frozenset({ss(0)})}
    with pytest.raises(StackArityError) as exc:
        transfer(pop, pi, J)
    assert key.render() in exc.value.message


def test_transfer_can_merge_members():
    # Two members that differ only in a consumed slot collapse to one.
    pop = instr("50")
    key = ss(2)
    pi = {key: frozenset({ss(2, {1: [0x03]}), ss(2, {1: [0x05]})})}
    out = transfer(pop, pi, J)
    assert out == {key: frozenset({ss(1)})}


# ------------------------------------------------------- randomized behavior

OPS_FOR_PROPS = ("6003", "6000", "5f", "80", "81", "90", "91", "50", "01", "56", "57", "16", "00", "36")


@given(st.sampled_from(OPS_FOR_PROPS), stack_states(max_height=8))
def test_height_conservation(op_hex: str, state: StackState):
    ins = instr(op_hex)
    try:
        out = update_stack(ins, state, J)
    except StackArityError:
        assert state.n < ins.spec.delta
        return
    assert out.n == state.n - ins.spec.delta + ins.spec.alpha
    # Tracked destinations never appear from nowhere.
    known = {d for dests in state.tracked().values() for d in dests}
    known |= {ins.push_value()} if ins.spec.is_push else set()
    for dests in out.tracked().values():
        assert set(dests) <= known


@given(st.sampled_from(OPS_FOR_PROPS), stack_states(max_height=8))
def test_positions_stay_in_range(op_hex: str, state: StackState):
    ins = instr(op_hex)
    try:
        out = update_stack(ins, state, J)
    except StackArityError:
        return
    for pos in out.tracked():
        assert 0 <= pos < out.n


@given(
    st.sampled_from(OPS_FOR_PROPS),
    st.lists(stack_states(max_height=8), min_size=1, max_size=4),
    st.lists(stack_states(max_height=8), min_size=0, max_size=4),
)
@settings(max_examples=150)
def test_transfer_monotone(op_hex, members_small, members_extra):
    ins = instr(op_hex)
    key = ss(0)
    small = {key: frozenset(members_small)}
    big = join(small, {key: frozenset(members_extra)})
    try:
        out_big = transfer(ins, big, J)
    except StackArityError:
        return
    out_small = transfer(ins, small, J)
    assert leq(out_small, out_big)


@given(stack_states(max_height=8))
def test_dup_then_consume_roundtrip(state: StackState):
    # DUP1 then POP restores the exact shape.
    if state.n == 0 or state.n >= MAX_STACK:
        return
    dup1, pop = instr("80"), instr("50")
    assert update_stack(pop, update_stack(dup1, state, J), J) == state


@given(stack_states(max_height=8))
def test_swap_involution(state: StackState):
    if state.n < 2:
        return
    swap1 = instr("90")
    assert update_stack(swap1, update_stack(swap1, state, J), J) == state


# ------------------------------------------------- the old kernel, reference

def old_update_stack(instr, state, jumpdests):
    """update_stack as it was, through a dict and StackState.make."""
    spec = instr.spec
    n = state.n
    if n < spec.delta:
        raise StackArityError(
            f"{spec.mnemonic} at pc 0x{instr.pc:x} needs {spec.delta} stack"
            f" items, found {n}",
            pc=instr.pc,
        )
    n_out = n - spec.delta + spec.alpha
    if n_out > MAX_STACK:
        raise StackArityError(
            f"{spec.mnemonic} at pc 0x{instr.pc:x} overflows the stack"
            f" ({n_out} > {MAX_STACK})",
            pc=instr.pc,
        )
    sigma = state.tracked()
    if spec.is_push:
        value = instr.push_value()
        if value in jumpdests:
            sigma[n] = (value,)
        return StackState.make(n_out, sigma)
    if spec.is_dup:
        source = n - (spec.byte_value - 0x7F)
        if source in sigma:
            sigma[n] = sigma[source]
        return StackState.make(n_out, sigma)
    if spec.is_swap:
        top = n - 1
        low = n - (spec.byte_value - 0x8F) - 1
        top_val = sigma.pop(top, None)
        low_val = sigma.pop(low, None)
        if top_val is not None:
            sigma[low] = top_val
        if low_val is not None:
            sigma[top] = low_val
        return StackState.make(n_out, sigma)
    floor = n - spec.delta
    sigma = {pos: dests for pos, dests in sigma.items() if pos < floor}
    return StackState.make(n_out, sigma)


SPECS = [decode_bytecode(f"{byte:02x}").instructions[0].spec for byte in range(256)]


def outcome(kernel, *args):
    """The kernel's result, or the type, pc and message of its error."""
    try:
        return kernel(*args)
    except StackArityError as err:
        return (type(err), err.pc, err.message)


@given(
    kernel_stacks(),
    st.frozensets(st.sampled_from(DEST_POOL + (0x00,)), max_size=4),
    st.integers(0, 0xFFFF),
    st.one_of(st.sampled_from(DEST_POOL + (0x00,)), st.integers(0, 2**256 - 1)),
)
@settings(max_examples=300)
def test_update_stack_matches_the_old_kernel(state, jumpdests, pc, value):
    # Every opcode byte on the same state; a PUSH pushes value cut to its width.
    for spec in SPECS:
        width = spec.immediate_len
        ins = Instruction(pc, spec, value % 256**width if width else None)
        got = outcome(update_stack, ins, state, jumpdests)
        assert got == outcome(old_update_stack, ins, state, jumpdests)
        if isinstance(got, StackState):  # built unchecked, so check it here
            assert StackState(*got) == got


# ------------------------------------------------------- the one-frame fold

def reference_fold(instrs, state, jumpdests):
    """Each result of old_update_stack along instrs, and the outcome of the
    first error (None if there is none)."""
    results = []
    for ins in instrs:
        got = outcome(old_update_stack, ins, state, jumpdests)
        if not isinstance(got, StackState):
            return results, got
        results.append(state := got)
    return results, None


def straight_line(ops) -> list[Instruction]:
    """One Instruction per (opcode byte, value), at consecutive pcs; a PUSH
    pushes value cut to its width."""
    instrs, pc = [], 0
    for byte, value in ops:
        spec = SPECS[byte]
        width = spec.immediate_len
        instrs.append(Instruction(pc, spec, value % 256**width if width else None))
        pc += 1 + width
    return instrs


def folded(instrs, state, jumpdests, along=None):
    try:
        return run_stack(instrs, state, jumpdests, along)
    except StackArityError as err:
        return (type(err), err.pc, err.message)


@given(
    kernel_stacks(),
    st.frozensets(st.sampled_from(DEST_POOL + (0x00,)), max_size=4),
    st.lists(
        st.tuples(
            st.integers(0, 255),
            st.one_of(st.sampled_from(DEST_POOL + (0x00,)), st.integers(0, 2**256 - 1)),
        ),
        max_size=12,
    ),
    st.data(),
)
@settings(max_examples=300)
def test_run_stack_folds_the_old_kernel(state, jumpdests, ops, data):
    # Any opcode bytes, near an empty and near a full stack: the fold is the
    # old kernel stepped one instruction at a time, up to its first error.
    instrs = straight_line(ops)
    results, error = reference_fold(instrs, state, jumpdests)
    last = results[-1] if results else state
    expected = error or (len(instrs), last)
    got = folded(instrs, state, jumpdests)
    assert got == expected
    if error is None:
        assert StackState(*got[1]) == got[1]  # built unchecked, so check it here
    # With along, the fold stops at the first result that differs from it,
    # unless an error comes first.
    along = results + [StackState(0)] * (len(instrs) - len(results))
    i = data.draw(st.integers(0, len(instrs)), label="first difference")
    if i < len(instrs):
        n = along[i].n
        along[i] = StackState(n + 1 if n < MAX_STACK else n - 1)
    if i < len(results):
        expected = (i, results[i])
    assert folded(instrs, state, jumpdests, along) == expected


def test_run_stack_returns_an_unchanged_input():
    state = ss(2, {1: [0x03]})
    jumpdest, push_junk, pop = instr("5b"), instr("6001"), instr("50")
    assert run_stack((), state, J)[1] is state
    assert run_stack((jumpdest, push_junk, pop), state, J) == (3, state)
    assert run_stack((jumpdest, push_junk, pop), state, J)[1] is state
    # Compared along the run, it stops at the PUSH, whose result differs.
    along = [state, ss(3, {1: [0x03]}), state]
    assert run_stack((jumpdest, instr("6003"), pop), state, J, along) == (
        1, ss(3, {1: [0x03], 2: [0x03]})
    )
