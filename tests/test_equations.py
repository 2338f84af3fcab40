"""Constraint generation and the two fixpoint solvers.

The expected per-pc values below were worked out by hand from the
instruction semantics and are frozen: the solvers must reproduce them
exactly, not approximately.
"""

from __future__ import annotations

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcfg import (
    GeneratorShape,
    decode_bytecode,
    generate_program,
    idmap,
    initial_state,
    leq,
    solve,
    verify_fixpoint,
)
from evmcfg.equations import (
    MAX_ENTRY_CONTEXTS,
    MAX_ENTRY_HEIGHTS,
    _check_entry_budget,
    contributions,
)
from evmcfg.errors import (
    AnalysisError,
    BudgetExceededError,
    InvalidTargetError,
    StackArityError,
    UnresolvedJumpError,
)

from conftest import shift_register_hex, ss


def full_solution(system):
    return {pc: var.value for pc, var in system.vars.items()}


def test_initial_state():
    assert initial_state() == {ss(0): frozenset({ss(0)})}


def test_linear_full_solution(linear):
    empty = ss(0)
    assert full_solution(linear.system) == {
        0x00: idmap(empty),
        0x02: {empty: frozenset({ss(1, {0: [0x03]})})},
        0x03: idmap(empty),
        0x04: idmap(empty),
    }


def test_branch_full_solution(branch):
    empty = ss(0)
    assert full_solution(branch.system) == {
        0x00: idmap(empty),
        0x02: {empty: frozenset({ss(1)})},
        0x04: {empty: frozenset({ss(2, {1: [0x06]})})},
        0x05: idmap(empty),
        0x06: idmap(empty),
        0x07: idmap(empty),
    }


def test_shared_full_solution(shared):
    empty = ss(0)
    ret_a = ss(1, {0: [0x05]})
    ret_b = ss(1, {0: [0x0B]})
    expected = {
        0x00: idmap(empty),
        0x02: {empty: frozenset({ret_a})},
        0x04: {empty: frozenset({ss(2, {0: [0x05], 1: [0x10]})})},
        0x05: idmap(empty),
        0x06: idmap(empty),
        0x08: {empty: frozenset({ret_b})},
        0x0A: {empty: frozenset({ss(2, {0: [0x0B], 1: [0x10]})})},
        0x0B: idmap(empty),
        0x0C: idmap(empty),
        # filler bytes never reached by any flow
        0x0D: {},
        0x0E: {},
        0x0F: {},
        # the shared target keeps both callers' contexts apart
        0x10: {ret_a: frozenset({ret_a}), ret_b: frozenset({ret_b})},
        0x11: {ret_a: frozenset({ret_a}), ret_b: frozenset({ret_b})},
    }
    assert full_solution(shared.system) == expected


def test_two_height_full_solution(two_height):
    empty = ss(0)
    low = ss(1, {0: [0x05]})
    high = ss(2, {1: [0x0D]})
    expected = {
        0x00: idmap(empty),
        0x02: {empty: frozenset({low})},
        0x04: {empty: frozenset({ss(2, {0: [0x05], 1: [0x0F]})})},
        0x05: idmap(empty),
        0x06: idmap(empty),
        0x08: {empty: frozenset({ss(1)})},
        0x0A: {empty: frozenset({high})},
        0x0C: {empty: frozenset({ss(3, {1: [0x0D], 2: [0x0F]})})},
        0x0D: idmap(ss(1)),
        0x0E: idmap(ss(1)),
        0x0F: {low: frozenset({low}), high: frozenset({high})},
        0x10: {low: frozenset({low}), high: frozenset({high})},
    }
    assert full_solution(two_height.system) == expected


def test_entry_contexts_sorted_by_height_then_shape(two_height):
    contexts = two_height.system.entry_contexts(0x0F)
    assert contexts == (ss(1, {0: [0x05]}), ss(2, {1: [0x0D]}))
    assert two_height.system.entry_contexts(0x00) == (ss(0),)


def test_state_at(shared):
    assert shared.system.state_at(0x0D) == {}
    with pytest.raises(KeyError):
        shared.system.state_at(0x01)  # immediate byte, no variable


def test_members_along_matches_state_at(shared, two_height):
    # Walking each entry context through its block gives state_at's members
    # pc by pc, and leaves states as it found them.
    for pipeline in (shared, two_height):
        system = solve(pipeline.program)
        before = dict(system.states)
        for block in system.blocks:
            for key in system.states.get(block.start_pc, {}):
                walked = list(system.members_along(block.start_pc, key))
                assert system.states == before
                assert walked == [
                    pipeline.system.state_at(ins.pc).get(key, frozenset())
                    for ins in block.body
                ]


def test_members_along_follows_stored_interior_states():
    # A state stored at an interior pc takes precedence, and the members
    # after it derive from it, exactly as state_at derives them.
    program = generate_program(7, GeneratorShape())
    reference = solve(program)
    block = next(
        b for b in reference.blocks
        if len(b.body) >= 4 and reference.states.get(b.start_pc)
    )
    key = next(iter(reference.states[block.start_pc]))
    mid = block.body[1].pc
    doctored = {key: frozenset(ss(m.n + 1) for m in reference.state_at(mid)[key])}
    walked_system, derived_system = solve(program), solve(program)
    walked_system.states[mid] = dict(doctored)
    derived_system.states[mid] = dict(doctored)
    walked = list(walked_system.members_along(block.start_pc, key))
    assert walked == [
        derived_system.state_at(ins.pc).get(key, frozenset()) for ins in block.body
    ]
    assert walked[2] != reference.state_at(block.body[2].pc)[key]


def test_block_entry_images_are_identity(shared, two_height, linear, branch):
    # Fixpoints built from landing contributions map each block-entry key
    # to exactly itself: contexts arrive through fresh identity maps.
    for pipeline in (shared, two_height, linear, branch):
        for block in pipeline.system.blocks:
            pi = pipeline.system.state_at(block.start_pc)
            for key, members in pi.items():
                assert members == frozenset({key})


# ------------------------------------------------------------- contributions

def test_jump_contribution_is_identity_of_landed_state():
    program = decode_bytecode("6003565b00")
    jump = program.instruction_at(2)
    pi = {ss(0): frozenset({ss(1, {0: [0x03]})})}
    assert contributions(program, jump, pi) == [(0x03, idmap(ss(0)))]


def test_jumpi_contributes_both_arms(branch):
    program = branch.program
    jumpi = program.instruction_at(4)
    pi = branch.system.state_at(4)
    got = sorted(contributions(program, jumpi, pi))
    assert got == [(0x05, idmap(ss(0))), (0x06, idmap(ss(0)))]


def test_multi_destination_jump_forks():
    # Hand-built context where the top could land on either pad.
    program = decode_bytecode("5b5b56")
    jump = program.instruction_at(2)
    pi = {ss(0): frozenset({ss(1, {0: [0x00, 0x01]})})}
    got = sorted(contributions(program, jump, pi))
    assert got == [(0x00, idmap(ss(0))), (0x01, idmap(ss(0)))]


def test_fall_into_landing_pad_gets_fresh_context():
    program = decode_bytecode("60005b00")
    push = program.instruction_at(0)
    pi = {ss(0): frozenset({ss(0)})}
    assert contributions(program, push, pi) == [(0x02, idmap(ss(1)))]


def test_plain_fallthrough_keeps_entry_key():
    program = decode_bytecode("600000")
    push = program.instruction_at(0)
    pi = {ss(0): frozenset({ss(0)})}
    assert contributions(program, push, pi) == [
        (0x02, {ss(0): frozenset({ss(1)})})
    ]


def test_halting_and_empty_contribute_nothing(shared):
    program = shared.program
    stop = program.instruction_at(0x0C)
    assert contributions(program, stop, idmap(ss(0))) == []
    push = program.instruction_at(0x00)
    assert contributions(program, push, {}) == []


def test_running_off_code_end_contributes_nothing():
    program = decode_bytecode("6000")
    push = program.instruction_at(0)
    assert contributions(program, push, idmap(ss(0))) == []


def test_jumpi_as_last_instruction_skips_fallthrough():
    program = decode_bytecode("5b600160005700"[:12])  # JUMPDEST PUSH PUSH JUMPI
    assert program.instructions[-1].spec.mnemonic == "JUMPI"
    jumpi = program.instructions[-1]
    pi = {ss(0): frozenset({ss(2, {1: [0x00]})})}
    got = contributions(program, jumpi, pi)
    assert got == [(0x00, idmap(ss(0)))]


# ------------------------------------------------------------ solver failure

def test_unresolved_jump_empty_stack():
    with pytest.raises(UnresolvedJumpError) as exc:
        solve(decode_bytecode("56"))
    assert exc.value.pc == 0


def test_unresolved_jump_untracked_top():
    # PC pushes a runtime-only value; the JUMPI target cannot be recovered.
    with pytest.raises(UnresolvedJumpError) as exc:
        solve(decode_bytecode("60015857"))
    assert exc.value.pc == 3
    assert "0x3" in exc.value.message


def test_unresolved_jump_reports_entry_context():
    with pytest.raises(UnresolvedJumpError) as exc:
        solve(decode_bytecode("600056"))
    assert exc.value.pc == 2
    assert "<0, {}>" in exc.value.message


def test_arity_underflow_surfaces():
    # "01" is ADD as the last byte: running off the end still applies it.
    for hex_text in ("0100", "01"):
        with pytest.raises(StackArityError) as exc:
            solve(decode_bytecode(hex_text))
        assert exc.value.pc == 0


def test_invalid_target_whitebox():
    program = decode_bytecode("5600")
    jump = program.instruction_at(0)
    pi = {ss(0): frozenset({ss(1, {0: [0x01]})})}
    with pytest.raises(InvalidTargetError) as exc:
        contributions(program, jump, pi)
    assert exc.value.target == 0x01
    assert exc.value.pc == 0


# Each loop turn enters the block at one stack height more.
UNBOUNDED_SOURCES = [
    "5b6000600056",
    "5b5f600056c091611500575f008091815b81",
    "600b5b6007600256585b565b",
    "5b600a60005657296756a0c42e6afa",
]


@pytest.mark.parametrize("mode", ["worklist", "naive"])
@pytest.mark.parametrize("hex_text", UNBOUNDED_SOURCES)
def test_unbounded_entry_heights_exceed_budget(hex_text, mode):
    program = decode_bytecode(hex_text)
    with pytest.raises(BudgetExceededError) as exc:
        solve(program, mode=mode)
    assert exc.value.kind == "budget_exceeded"
    assert exc.value.pc is not None
    assert f"block at pc 0x{exc.value.pc:x}" in exc.value.message


def test_entry_height_budget_counts_distinct_heights():
    # more contexts than the budget, at exactly MAX_ENTRY_HEIGHTS heights
    entered = {ss(n): frozenset({ss(n)}) for n in range(MAX_ENTRY_HEIGHTS)}
    for n in range(1, 30):
        entered[ss(n, {0: [0x10]})] = frozenset({ss(n, {0: [0x10]})})
    heights = {key.n for key in entered}
    # a new shape at a height already entered fits the budget
    _check_entry_budget(0x10, heights, entered, idmap(ss(3, {1: [0x10]})))
    with pytest.raises(BudgetExceededError) as exc:
        _check_entry_budget(0x10, heights, entered, idmap(ss(MAX_ENTRY_HEIGHTS)))
    assert exc.value.pc == 0x10
    assert ss(MAX_ENTRY_HEIGHTS).render() in exc.value.message


def test_entry_context_budget_counts_new_contexts():
    # MAX_ENTRY_CONTEXTS contexts at one height: one more raises, one already
    # held does not
    entered = {
        ss(2, {0: [i], 1: [j]}): frozenset({ss(2, {0: [i], 1: [j]})})
        for i in range(32)
        for j in range(MAX_ENTRY_CONTEXTS // 32)
    }
    assert len(entered) == MAX_ENTRY_CONTEXTS
    heights = {2}
    _check_entry_budget(0x10, heights, entered, idmap(ss(2, {0: [0], 1: [0]})))
    new = ss(2, {0: [0, 1]})
    with pytest.raises(BudgetExceededError) as exc:
        _check_entry_budget(0x10, heights, entered, idmap(new))
    assert exc.value.pc == 0x10
    assert f"{MAX_ENTRY_CONTEXTS} entry contexts" in exc.value.message
    assert new.render() in exc.value.message
    assert heights == {2}


@pytest.mark.parametrize("mode", ["worklist", "naive"])
@pytest.mark.parametrize("k", [10, 13, 16])
def test_permuted_return_addresses_exceed_context_budget(k, mode):
    # All contexts share one height, so only the context budget stops them,
    # and it must do so within the 1 s bound held for unbounded shapes.
    program = decode_bytecode(shift_register_hex(k))
    started = time.process_time()
    with pytest.raises(BudgetExceededError) as exc:
        solve(program, mode=mode)
    assert time.process_time() - started < 1.0
    assert exc.value.pc is not None
    assert f"block at pc 0x{exc.value.pc:x}" in exc.value.message
    assert f"{MAX_ENTRY_CONTEXTS} entry contexts" in exc.value.message


def test_shift_register_below_the_budget_solves():
    # width 7 enters its busiest block with 510 contexts, all at height 7
    system = solve(decode_bytecode(shift_register_hex(7)))
    busiest = max(len(system.state_at(b.start_pc)) for b in system.blocks)
    assert busiest == 510
    assert {key.n for key in system.state_at(14)} == {7}


def test_empty_program_rejected():
    with pytest.raises(AnalysisError):
        solve(decode_bytecode(""))


def test_unknown_mode_rejected(linear):
    with pytest.raises(ValueError):
        solve(linear.program, mode="chaotic")


# ------------------------------------------------------------- solver modes

FIXTURE_SOURCES = [
    "6003565b00",
    "6001600657005b00",
    "60056010565b600b6010565b00fefefe5b56",
    "6005600f565b6000600d600f565b005b56",
]


@pytest.mark.parametrize("hex_text", FIXTURE_SOURCES)
def test_worklist_and_naive_agree(hex_text):
    program = decode_bytecode(hex_text)
    by_worklist = solve(program, mode="worklist")
    by_naive = solve(program, mode="naive")
    assert full_solution(by_worklist) == full_solution(by_naive)
    assert by_worklist.solve_stats.mode == "worklist"
    assert by_naive.solve_stats.mode == "naive"


@pytest.mark.parametrize("hex_text", FIXTURE_SOURCES)
def test_solution_is_verified_fixpoint(hex_text):
    system = solve(decode_bytecode(hex_text))
    assert verify_fixpoint(system) == []


@pytest.mark.parametrize("mode", ["worklist", "naive"])
def test_recorded_updates_only_grow(mode):
    system = solve(
        decode_bytecode("60056010565b600b6010565b00fefefe5b56"),
        mode=mode,
        record=True,
    )
    updates = system.solve_stats.updates
    assert updates
    for _pc, before, after in updates:
        assert leq(before, after)
        assert before != after


def test_naive_snapshots_form_ascending_chain():
    system = solve(
        decode_bytecode("60056010565b600b6010565b00fefefe5b56"),
        mode="naive",
        record=True,
    )
    snaps = system.solve_stats.snapshots
    assert len(snaps) >= 3
    for earlier, later in zip(snaps, snaps[1:]):
        for pc in earlier:
            assert leq(earlier[pc], later[pc])
    # last two rounds agree: the final round only confirms stability
    assert snaps[-1] == snaps[-2]


def test_trace_callback_fires():
    lines: list[str] = []
    solve(decode_bytecode("6003565b00"), trace=lines.append)
    assert lines
    assert any("0x3" in line for line in lines)
    lines.clear()
    solve(decode_bytecode("6003565b00"), mode="naive", trace=lines.append)
    assert any("round" in line for line in lines)


def test_worklist_steps_each_instruction_once_per_block(monkeypatch):
    # update_stack is bound in transfer (used by transfer()) and in
    # equations (used by the worklist and block_exits); count calls
    # through both. The modules come from sys.modules because
    # evmcfg.transfer names the function. Every (replica, instruction)
    # pair is stepped exactly once, except a halting last instruction,
    # which is not stepped at all.
    original = sys.modules["evmcfg.transfer"].update_stack
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    for module in ("evmcfg.transfer", "evmcfg.equations"):
        monkeypatch.setattr(sys.modules[module], "update_stack", counted)
    shape = GeneratorShape(branch_count=50, callee_count=10, sites_per_callee=5)
    program = generate_program(1, shape)
    system = solve(program)
    expected = 0
    for b in system.blocks:
        steps = len(b.body) - (1 if b.last.spec.halts else 0)
        expected += len(system.state_at(b.start_pc)) * steps
    assert calls == expected == 2121


def test_worklist_pops_counted(shared, two_height):
    for pipeline in (shared, two_height):
        stats = pipeline.system.solve_stats
        assert stats.pops == len(pipeline.cfg.vertices)
        assert stats.iterations == stats.pops


# ------------------------------------------------------- straight-line bodies

# ADD SUB ADDMOD ISZERO NOT CALLDATASIZE PC PUSH0 POP MSTORE CALL
OTHER_OPS = (0x01, 0x03, 0x08, 0x15, 0x19, 0x36, 0x58, 0x5F, 0x50, 0x52, 0xF1)
LANDINGS = 4  # JUMPDESTs after the body


@st.composite
def straight_line_bodies(draw):
    """A program of 1 to 40 straight-line instructions followed by LANDINGS
    JUMPDESTs. PUSH2s push a landing or any value up to 0x1ff."""
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("landing"), st.integers(0, LANDINGS - 1)),
                st.tuples(st.just("value"), st.integers(0, 0x1FF)),
                st.integers(0x80, 0x9F).map(lambda b: ("op", b)),  # DUPk, SWAPk
                st.sampled_from(OTHER_OPS).map(lambda b: ("op", b)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    size = sum(1 if kind == "op" else 3 for kind, _ in ops)
    code = bytearray()
    for kind, arg in ops:
        if kind == "op":
            code.append(arg)
        else:
            code.append(0x61)
            code += (size + arg if kind == "landing" else arg).to_bytes(2, "big")
    return decode_bytecode((code + bytes([0x5B]) * LANDINGS).hex())


def _outcome(program, mode):
    """state_at at every pc, or the StackArityError's pc and message."""
    try:
        system = solve(program, mode=mode)
    except StackArityError as err:
        return err.pc, err.message
    return {ins.pc: system.state_at(ins.pc) for ins in program.instructions}


@given(straight_line_bodies())
@settings(max_examples=400)
def test_worklist_equals_naive_on_straight_line_bodies(program):
    # The worklist steps the body once per context and derives its interior
    # states; the naive solver steps every pc. Both give the same states,
    # or the same arity error, entry context included.
    assert _outcome(program, "worklist") == _outcome(program, "naive")


@pytest.mark.parametrize("mode", ["worklist", "naive"])
@pytest.mark.parametrize(
    "hex_text, pc",
    [
        pytest.param("01", 0x0, id="add-off-the-end"),
        pytest.param("0100", 0x0, id="add-in-its-block"),
        pytest.param("6003575b00", 0x2, id="jumpi-ending-its-block"),
        pytest.param("5f" * 1025, 0x400, id="push0-off-the-end"),
        pytest.param("5f" * 1025 + "00", 0x400, id="push0-in-its-block"),
    ],
)
def test_arity_errors_name_the_entry_context(hex_text, pc, mode):
    with pytest.raises(StackArityError) as exc:
        solve(decode_bytecode(hex_text), mode=mode)
    assert exc.value.pc == pc
    assert exc.value.message.endswith("(entry context <0, {}>)")


def test_block_worklist_reports_its_first_arity_error():
    # Two real arity errors. The block worklist steps the second context of
    # the block at 0x2 (height 0, from its own JUMPI) before the fall-through
    # block at 0x6; the naive solver's pc-order sweep reaches SSTORE at 0x6
    # first.
    program = decode_bytecode(
        "602f5b600257551b57b85bb54157601b5b563b5723600957fa925b56acd4aa4e57"
        "603e516017601c602757145b600c60025b5bf3097355575b3c7beb4c6003"
    )
    with pytest.raises(StackArityError) as exc:
        solve(program)
    assert exc.value.pc == 0x5
    assert exc.value.message == (
        "JUMPI at pc 0x5 needs 2 stack items, found 1 (entry context <0, {}>)"
    )
    with pytest.raises(StackArityError) as exc:
        solve(program, mode="naive")
    assert exc.value.kind == "stack_arity_error"


# ----------------------------------------------------------- tamper checking

def test_verify_detects_removed_context(shared):
    system = solve(shared.program)
    doctored = dict(system.state_at(0x10))
    del doctored[ss(1, {0: [0x0B]})]
    system.states[0x10] = doctored
    failures = verify_fixpoint(system)
    assert (0x0A, 0x10) in failures


def test_verify_detects_lost_initial_context(linear):
    system = solve(linear.program)
    system.states[0x00] = {}
    failures = verify_fixpoint(system)
    assert (0, 0) in failures


def test_verify_detects_truncated_member(branch):
    system = solve(branch.program)
    system.states[0x04] = {ss(0): frozenset({ss(2)})}
    # now pc 4 claims an untracked JUMPI target
    with pytest.raises(UnresolvedJumpError):
        verify_fixpoint(system)
