"""Constraint generation and the two fixpoint solvers.

The expected per-pc values below were worked out by hand from the
instruction semantics and are frozen: the solvers must reproduce them
exactly, not approximately.
"""

from __future__ import annotations

import gc
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcfg import (
    ConcreteState,
    GeneratorShape,
    build_cfg,
    decode_bytecode,
    enumerate_states,
    generate_program,
    idmap,
    initial_state,
    leq,
    random_shape,
    solve,
    verify_fixpoint,
)
from evmcfg import equations
from evmcfg.equations import block_exits, contributions
from evmcfg.oracle import initial_concrete_state
from evmcfg.errors import (
    AnalysisError,
    BudgetExceededError,
    InvalidTargetError,
    StackArityError,
    UnresolvedJumpError,
)

from conftest import fuzz_inputs, shift_register_hex, ss


def full_solution(system):
    return {pc: var.value for pc, var in system.vars.items()}


def test_initial_state():
    assert initial_state() == {ss(0): frozenset({ss(0)})}


def test_start_state_shares_no_mutable_map():
    # A jump back to pc 0 writes its context into the state there, so
    # initial_state builds a new map on every call. Only the empty stack and
    # the start ConcreteState, both immutable, are shared.
    with pytest.raises(BudgetExceededError) as exc:
        solve(decode_bytecode("5b6000600056"))  # grows the stack at pc 0
    assert exc.value.pc == 0
    assert initial_state() == {ss(0): frozenset({ss(0)})}
    assert initial_state() is not initial_state()
    assert initial_concrete_state() == ConcreteState(0, ss(0))
    empty = ss(0)
    assert full_solution(solve(decode_bytecode("6003565b00"))) == {
        0x00: idmap(empty),
        0x02: {empty: frozenset({ss(1, {0: [0x03]})})},
        0x03: idmap(empty),
        0x04: idmap(empty),
    }


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


# ---------------------------------------------------------------- block_exits

# Every case moves one member entered under KEY, which differs from every
# member, so an error message that names the entry context names KEY.
KEY = ss(5)


@pytest.mark.parametrize(
    "hex_text, pc, member, expected",
    [
        pytest.param(
            "6003565b00", 0x2, ss(1, {0: [0x03]}), [("jump", 0x03, ss(0))],
            id="jump-one-destination",
        ),
        pytest.param(
            "5b5b56", 0x2, ss(1, {0: [0x00, 0x01]}),
            [("jump", 0x00, ss(0)), ("jump", 0x01, ss(0))],
            id="jump-two-destinations",
        ),
        pytest.param(
            "6001600657005b00", 0x4, ss(2, {1: [0x06]}),
            [("jump", 0x06, ss(0)), ("next", 0x05, ss(0))],
            id="jumpi-mid-code",
        ),
        pytest.param(
            "5b6001600057", 0x5, ss(2, {1: [0x00]}), [("jump", 0x00, ss(0))],
            id="jumpi-last-instruction",
        ),
        pytest.param(
            "60005b00", 0x0, ss(0), [("next", 0x02, ss(1))],
            id="fall-into-jumpdest",
        ),
        # RETURN needs two items: a halt is not stepped at all.
        pytest.param("f3", 0x0, ss(0), [], id="halt-on-empty-stack"),
        pytest.param("6000", 0x0, ss(0), [], id="off-the-end"),
    ],
)
def test_block_exits(hex_text, pc, member, expected):
    program = decode_bytecode(hex_text)
    assert block_exits(program, program.instruction_at(pc), KEY, member) == expected


@pytest.mark.parametrize(
    "hex_text, member, error",
    [
        # ADD as the last byte still runs, so its underflow raises.
        pytest.param("01", ss(1), StackArityError, id="off-the-end-is-stepped"),
        # "5700" is JUMPI at 0x0, then STOP at 0x1, which is no jump landing.
        pytest.param("5700", ss(1), UnresolvedJumpError, id="unresolved-before-arity"),
        pytest.param(
            "5700", ss(1, {0: [0x01]}), StackArityError,
            id="arity-before-invalid-target",
        ),
        pytest.param("5700", ss(2, {1: [0x01]}), InvalidTargetError, id="invalid-target"),
    ],
)
def test_block_exits_checks_in_order(hex_text, member, error):
    program = decode_bytecode(hex_text)
    with pytest.raises(error) as exc:
        block_exits(program, program.instruction_at(0), KEY, member)
    assert type(exc.value) is error
    assert exc.value.pc == 0
    if error is not InvalidTargetError:
        assert f"entry context {KEY.render()})" in exc.value.message


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
    assert exc.value.report() == {
        "kind": "invalid_target",
        "message": exc.value.message,
        "pc": 0,
        "target": 0x01,
    }


# Each loop turn enters the block at one stack height more.
UNBOUNDED_SOURCES = [
    "5b6000600056",
    "5b5f600056c091611500575f008091815b81",
    "600b5b6007600256585b565b",
    "5b600a60005657296756a0c42e6afa",
]
# In these two every slot pushed holds a tracked destination, so the work to
# reach the overflow grows with the square of the height: the budget stops
# them first.
QUADRATIC_SOURCES = UNBOUNDED_SOURCES[:2]


# The naive reference has no budget, so only the worklist runs the
# unbounded inputs below.
@pytest.mark.parametrize("mode", ["worklist"])
@pytest.mark.parametrize("hex_text", UNBOUNDED_SOURCES)
def test_unbounded_entry_heights_exceed_budget(hex_text, mode):
    # A growing stack ends in the closure's overflow at the same pc, or,
    # for a quadratic source, in budget_exceeded within 0.1 s.
    program = decode_bytecode(hex_text)
    with pytest.raises(AnalysisError) as concrete:
        enumerate_states(program, max_steps=20_000)
    started = time.process_time()
    with pytest.raises(AnalysisError) as exc:
        solve(program, mode=mode)
    if exc.value.kind == "budget_exceeded":
        assert hex_text in QUADRATIC_SOURCES
        assert time.process_time() - started < 0.1
        assert f"block at pc 0x{exc.value.pc:x}" in exc.value.message
    else:
        assert exc.value.kind == concrete.value.kind
        assert exc.value.pc == concrete.value.pc


def test_entry_height_budget_counts_distinct_heights(monkeypatch):
    # Each loop turn enters pc 0 at one height more with every slot tracked,
    # so each distinct height h is admitted once at a cost of 1 + h. The
    # solve stops at the first height whose running cost passes MAX_WORK.
    program = decode_bytecode("5b6000600056")
    for budget in (5, 20, 50, 100):
        height, spent = 1, 2
        while spent <= budget:
            height += 1
            spent += 1 + height
        monkeypatch.setattr(equations, "MAX_WORK", budget)
        with pytest.raises(BudgetExceededError) as exc:
            solve(program)
        assert exc.value.pc == 0
        assert exc.value.message.startswith(
            f"solver work would pass MAX_WORK = {budget}: block at pc 0x0"
            f" would be entered with context <{height}, "
        )
        assert exc.value.message.endswith(f"s{height - 1}:{{0x0}}}}>")


def test_entry_context_budget_counts_new_contexts(monkeypatch):
    # Every stored context but the initial one at pc 0 was admitted, at a
    # cost of 1 + its tracked slots; contexts a block already holds cost
    # nothing. That total fits the budget exactly; one less stops the solve
    # at the last context admitted.
    program = decode_bytecode(shift_register_hex(7))
    system = solve(program, record=True)
    states = system.states.values()
    work = sum(1 + len(key.sigma) for state in states for key in state) - 1
    assert work == 9_475
    pc, before, after = system.solve_stats.updates[-1]
    (last,) = after.keys() - before.keys()
    monkeypatch.setattr(equations, "MAX_WORK", work)
    assert len(build_cfg(solve(program)).vertices) == 1_276
    monkeypatch.setattr(equations, "MAX_WORK", work - 1)
    with pytest.raises(BudgetExceededError) as exc:
        solve(program)
    assert exc.value.kind == "budget_exceeded"
    assert exc.value.pc == pc
    assert exc.value.message == (
        f"solver work would pass MAX_WORK = {work - 1}: block at pc 0x{pc:x}"
        f" would be entered with context {last.render()}"
    )


@pytest.mark.parametrize("mode", ["worklist"])
@pytest.mark.parametrize("k", [10, 13, 16])
def test_permuted_return_addresses_exceed_context_budget(k, mode):
    # Return addresses permuted at one height: the work budget stops them
    # within the 1 s bound held for unbounded shapes.
    program = decode_bytecode(shift_register_hex(k))
    started = time.process_time()
    with pytest.raises(BudgetExceededError) as exc:
        solve(program, mode=mode)
    assert time.process_time() - started < 1.0
    assert exc.value.pc is not None
    assert exc.value.message.startswith(
        f"solver work would pass MAX_WORK = {equations.MAX_WORK}: block at"
        f" pc 0x{exc.value.pc:x} would be entered with context <{k},"
    )


def test_program_above_eip170_solves():
    # 57,987 bytes, past the 24,576-byte code limit; 720 contexts enter one
    # block, which a per-block context cap would refuse.
    program = generate_program(
        2, GeneratorShape(branch_count=800, callee_count=40, sites_per_callee=60)
    )
    assert program.code_len == 57_987
    assert len(build_cfg(solve(program)).vertices) == 11_641


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
    # run_stack is bound in transfer (used by update_stack) and in
    # equations (used by the worklist for a block's interior); count the
    # instructions folded through both. The modules come from sys.modules
    # because evmcfg.transfer names the function. Every (replica,
    # instruction) pair is stepped exactly once, except a halting last
    # instruction, which is not stepped at all.
    original = sys.modules["evmcfg.transfer"].run_stack
    calls = 0

    def counted(instrs, *args):
        nonlocal calls
        calls += len(instrs)
        return original(instrs, *args)

    for module in ("evmcfg.transfer", "evmcfg.equations"):
        monkeypatch.setattr(sys.modules[module], "run_stack", counted)
    shape = GeneratorShape(branch_count=50, callee_count=10, sites_per_callee=5)
    program = generate_program(1, shape)
    system = solve(program)
    expected = 0
    for b in system.blocks:
        steps = len(b.body) - (1 if b.last.spec.halts else 0)
        expected += len(system.state_at(b.start_pc)) * steps
    assert calls == expected == 2121


def _tracked_reachable(*roots) -> int:
    """gc-tracked objects reachable from roots, roots excluded. Classes,
    which every instance refers to, are not entered."""
    seen = {id(root) for root in roots}
    todo = list(roots)
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if gc.is_tracked(ref) and not isinstance(ref, type) and id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)
    return len(seen) - len(roots)


def test_worklist_stores_little_per_replica():
    # The cyclic collector walks what the solver keeps on each full pass,
    # so the worklist stores states at block starts only and one flat
    # tuple per move. Storing last-pc states too, and each replica's exits
    # in a tuple and a list, kept 8.3-9.3 tracked objects per replica on
    # this program under Python 3.10 to 3.13; block starts and flat moves
    # keep 3.8-4.2.
    shape = GeneratorShape(branch_count=50, callee_count=10, sites_per_callee=5)
    program = generate_program(1, shape)
    system = solve(program)
    naive = solve(program, mode="naive")
    entered = {b.start_pc for b in naive.blocks if naive.states[b.start_pc]}
    assert system.states.keys() == entered
    replicas = sum(len(system.states[pc]) for pc in entered)
    assert replicas == 301
    gc.collect()
    assert _tracked_reachable(system.states, system.moves) < 6 * replicas


def test_naive_moves_equal_worklist_moves():
    # The naive solver derives its moves after converging, from its per-pc
    # states; the worklist keeps the block_exits of each pop. Both make the
    # same moves, each as often, and the worklist moves every replica once.
    rng = random.Random(0x40E5)
    programs = [
        generate_program(seed, random_shape(random.Random(seed)))
        for seed in (rng.getrandbits(32) for _ in range(200))
    ]
    checked = 0
    for program in programs + [decode_bytecode(h) for h in fuzz_inputs(1, 5007)]:
        try:
            worklist = solve(program)
        except AnalysisError:
            continue
        naive = solve(program, mode="naive")
        assert sorted(naive.moves) == sorted(worklist.moves)
        replicas = sum(len(naive.states[b.start_pc]) for b in naive.blocks)
        assert worklist.solve_stats.pops == replicas
        checked += 1
    assert checked == 200 + 2225


def test_solve_reports_lost_target():
    # PUSH1 6 tracks the landing at 0x6, ADD consumes it, and the JUMP at
    # 0x5 has nothing tracked to go to. build_cfg derives no exit, so the
    # solver is where a lost target shows.
    for mode in ("worklist", "naive"):
        with pytest.raises(UnresolvedJumpError) as exc:
            solve(decode_bytecode("6006600101565b00"), mode=mode)
        assert exc.value.pc == 0x5


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
