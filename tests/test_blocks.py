"""Basic-block partitioning, and the front end against its reference."""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcfg import Instruction, Program, decode_bytecode, partition_blocks, solve
from evmcfg.blocks import Block, Terminator, scan_blocks
from evmcfg.bytecode import (
    _NON_HEX,
    _SPECS,
    JUMPDEST_BYTE,
    JUMPI_BYTE,
    JUMP_BYTE,
    _clean_hex,
)
from evmcfg.errors import AnalysisError, DecodeError

from conftest import (
    BRANCH_HEX,
    LINEAR_HEX,
    SHARED_HEX,
    front_end_bytes,
    fuzz_inputs,
    generated_hex,
)


def blocks_of(hex_text):
    program = decode_bytecode(hex_text)
    blocks, unreached = partition_blocks(program)
    return program, blocks, unreached


def test_linear_blocks():
    _, blocks, unreached = blocks_of(LINEAR_HEX)
    assert [(b.start_pc, b.end_pc, b.terminator) for b in blocks] == [
        (0x00, 0x02, Terminator.JUMP),
        (0x03, 0x04, Terminator.END),
    ]
    assert unreached == frozenset()


def test_branch_blocks():
    _, blocks, unreached = blocks_of(BRANCH_HEX)
    assert [(b.start_pc, b.end_pc, b.terminator) for b in blocks] == [
        (0x00, 0x04, Terminator.JUMPI),
        (0x05, 0x05, Terminator.END),
        (0x06, 0x07, Terminator.END),
    ]
    assert unreached == frozenset()


def test_shared_blocks_and_filler():
    _, blocks, unreached = blocks_of(SHARED_HEX)
    assert [(b.start_pc, b.end_pc, b.terminator) for b in blocks] == [
        (0x00, 0x04, Terminator.JUMP),
        (0x05, 0x0A, Terminator.JUMP),
        (0x0B, 0x0C, Terminator.END),
        (0x10, 0x11, Terminator.JUMP),
    ]
    # The 0xfe bytes after STOP that no block claims.
    assert unreached == frozenset({0x0D, 0x0E, 0x0F})


def test_fallthrough_into_landing():
    # PUSH1 0; JUMPDEST; STOP: block 0 falls into the landing pad.
    _, blocks, _ = blocks_of("60005b00")
    assert blocks[0].terminator is Terminator.FALL_TO_JUMPDEST
    assert blocks[0].end_pc == 0
    assert blocks[1].start_pc == 2


def test_code_end_without_halt():
    _, blocks, _ = blocks_of("6000")
    (only,) = blocks
    assert only.terminator is Terminator.CODE_END
    assert (only.start_pc, only.end_pc) == (0, 0)


def test_jumpi_splits_even_without_landing():
    _, blocks, _ = blocks_of("600060045700")
    assert [(b.start_pc, b.terminator) for b in blocks] == [
        (0, Terminator.JUMPI),
        (5, Terminator.END),
    ]


def test_empty_program():
    program = decode_bytecode("")
    blocks, unreached = partition_blocks(program)
    assert blocks == ()
    assert unreached == frozenset()


def test_block_body_and_last():
    program, blocks, _ = blocks_of(LINEAR_HEX)
    first = blocks[0]
    assert [i.pc for i in first.body] == [0, 2]
    assert first.last.spec.mnemonic == "JUMP"


def test_unreached_requires_closed_predecessor():
    # After JUMP everything until the next landing pad is unreachable filler.
    # Filler pcs are instruction starts only, not immediate bytes.
    _, blocks, unreached = blocks_of("600356600000005b00")
    assert [b.start_pc for b in blocks] == [0x00, 0x07]
    assert unreached == frozenset({0x03, 0x05, 0x06})


@given(st.binary(min_size=0, max_size=96))
def test_partition_is_a_partition(raw: bytes):
    program = decode_bytecode(raw.hex())
    blocks, unreached = partition_blocks(program)
    seen: set[int] = set()
    for block in blocks:
        assert block.start_pc <= block.end_pc
        body_pcs = [i.pc for i in block.body]
        assert body_pcs[0] == block.start_pc
        assert body_pcs[-1] == block.end_pc
        for pc in body_pcs:
            assert pc not in seen
            seen.add(pc)
    assert seen.isdisjoint(unreached)
    all_pcs = {i.pc for i in program.instructions}
    assert seen | unreached == all_pcs
    # Block starts strictly increase.
    starts = [b.start_pc for b in blocks]
    assert starts == sorted(starts)


@given(st.binary(min_size=1, max_size=96))
def test_terminator_classification(raw: bytes):
    program = decode_bytecode(raw.hex())
    blocks, _ = partition_blocks(program)
    for block in blocks:
        last = block.last
        if block.terminator is Terminator.JUMP:
            assert last.spec.mnemonic == "JUMP"
        elif block.terminator is Terminator.JUMPI:
            assert last.spec.mnemonic == "JUMPI"
        elif block.terminator is Terminator.END:
            assert last.spec.halts
        elif block.terminator is Terminator.FALL_TO_JUMPDEST:
            assert program.has_instruction(last.next_pc)
            nxt = program.instruction_at(last.next_pc)
            assert nxt.spec.mnemonic == "JUMPDEST"
        else:
            assert block.terminator is Terminator.CODE_END
            assert not program.has_instruction(last.next_pc)


def test_block_bounds_and_coverage_on_generated_and_fuzz_inputs():
    # start_pc and end_pc are the pcs of a block's first and last
    # instruction, and blocks plus unreached pcs hold every instruction once.
    inputs = [generated_hex(seed) for seed in range(40)] + fuzz_inputs(1, 1000)
    for hex_text in inputs:
        program = decode_bytecode(hex_text)
        blocks, unreached = partition_blocks(program)
        pcs = [ins.pc for block in blocks for ins in block.body]
        for block in blocks:
            assert block.start_pc == block.body[0].pc
            assert block.end_pc == block.body[-1].pc
        assert sorted(pcs + list(unreached)) == [i.pc for i in program.instructions]


# ------------------------------------------------- reference front end

# decode_bytecode and partition_blocks as they were before each became one
# scan building plain tuples, kept verbatim (Block built by keyword) as the
# references for the instructions, diagnostics, errors and blocks. A Program
# now builds its instructions itself, from its code, so the reference
# decoder returns its own record of the same fields.

class ReferenceProgram(NamedTuple):
    instructions: tuple[Instruction, ...]
    code_len: int
    jumpdests: frozenset[int]
    diagnostics: tuple[str, ...]


def reference_decode_bytecode(hex_text: str) -> ReferenceProgram:
    digits = _clean_hex(hex_text)
    bad = _NON_HEX.search(digits)
    if bad is not None:
        raise DecodeError(
            f"invalid hex digit {bad.group()!r} at offset {bad.start()}",
            offset=bad.start(),
        )
    if len(digits) % 2 != 0:
        raise DecodeError(
            f"odd number of hex digits, dangling nibble at offset {len(digits) - 1}",
            offset=len(digits) - 1,
        )
    code = bytes.fromhex(digits)

    instructions: list[Instruction] = []
    diagnostics: list[str] = []
    jumpdests: set[int] = set()
    pc = 0
    while pc < len(code):
        byte = code[pc]
        spec = _SPECS[byte]
        immediate = None
        if spec.immediate_len:
            raw = code[pc + 1 : pc + 1 + spec.immediate_len]
            if len(raw) < spec.immediate_len:
                diagnostics.append(
                    f"{spec.mnemonic} at pc 0x{pc:x} runs past end of code;"
                    f" immediate zero padded"
                )
                raw = raw + bytes(spec.immediate_len - len(raw))
            immediate = int.from_bytes(raw, "big")
        if byte == JUMPDEST_BYTE:
            jumpdests.add(pc)
        instructions.append(Instruction(pc, spec, immediate))
        pc += 1 + spec.immediate_len

    return ReferenceProgram(
        instructions=tuple(instructions),
        code_len=len(code),
        jumpdests=frozenset(jumpdests),
        diagnostics=tuple(diagnostics),
    )


def _reference_terminator(last: Instruction, next_is_jumpdest: bool) -> Terminator:
    if last.spec.byte_value == JUMP_BYTE:
        return Terminator.JUMP
    if last.spec.byte_value == JUMPI_BYTE:
        return Terminator.JUMPI
    if last.spec.halts:
        return Terminator.END
    if next_is_jumpdest:
        return Terminator.FALL_TO_JUMPDEST
    return Terminator.CODE_END


def reference_partition_blocks(program: Program | ReferenceProgram):
    instructions = program.instructions
    blocks: list[Block] = []
    unreached: list[int] = []
    current: list[Instruction] = []

    def close(next_is_jumpdest: bool):
        if not current:
            return
        last = current[-1]
        blocks.append(
            Block(
                start_pc=current[0].pc,
                end_pc=last.pc,
                body=tuple(current),
                terminator=_reference_terminator(last, next_is_jumpdest),
            )
        )
        current.clear()

    prev_byte: int | None = None
    for idx, ins in enumerate(instructions):
        byte = ins.spec.byte_value
        starts = ins.pc == 0 or byte == JUMPDEST_BYTE or prev_byte == JUMPI_BYTE
        if current and byte == JUMPDEST_BYTE:
            close(next_is_jumpdest=True)
        if not current and not starts:
            unreached.append(ins.pc)
            prev_byte = byte
            continue
        current.append(ins)
        nxt = instructions[idx + 1] if idx + 1 < len(instructions) else None
        if ins.spec.is_jump or ins.spec.halts or nxt is None:
            close(next_is_jumpdest=nxt is not None and nxt.spec.byte_value == JUMPDEST_BYTE)
        prev_byte = byte

    return tuple(blocks), frozenset(unreached)


def assert_front_end_matches_reference(hex_text: str) -> None:
    try:
        expected = reference_decode_bytecode(hex_text)
    except DecodeError as err:
        with pytest.raises(DecodeError) as got:
            decode_bytecode(hex_text)
        assert (got.value.offset, got.value.message) == (err.offset, err.message)
        return
    program = decode_bytecode(hex_text)
    # A solve that fails builds the instructions only up to its failing
    # block; everything read after it must still be whole.
    try:
        solve(program)
    except AnalysisError:
        pass
    built = len(program.built)
    assert program.built == list(expected.instructions[:built])
    assert program.instructions == expected.instructions
    assert all(type(ins) is Instruction for ins in program.instructions)
    assert program.code_len == expected.code_len
    assert program.jumpdests == expected.jumpdests
    assert program.diagnostics == expected.diagnostics
    blocks, unreached = partition_blocks(program)
    expected_blocks, expected_unreached = reference_partition_blocks(expected)
    assert [tuple(b) for b in blocks] == [tuple(b) for b in expected_blocks]
    assert all(type(b) is Block for b in blocks)
    assert unreached == expected_unreached
    # No instruction is built twice: block bodies and the pc map hold the
    # very objects of the instruction tuple.
    by_pc = {ins.pc: ins for ins in program.instructions}
    assert all(ins is by_pc[ins.pc] for b in blocks for ins in b.body)
    assert all(program.instruction_at(pc) is ins for pc, ins in by_pc.items())


@settings(max_examples=300)
@given(front_end_bytes())
def test_front_end_matches_reference_on_biased_bytes(raw: bytes):
    assert_front_end_matches_reference(raw.hex())


@given(st.text(alphabet="0123456789abcdefABCDEFxXgz \n", max_size=24))
def test_front_end_matches_reference_on_hex_text(text: str):
    assert_front_end_matches_reference(text)


def test_front_end_matches_reference_on_generated_programs():
    rng = random.Random(0xB10C)
    for _ in range(200):
        assert_front_end_matches_reference(generated_hex(rng.getrandbits(32)))


# ------------------------------------------- instructions built on demand

# Each Instruction is built by the first scan to reach it and kept on the
# Program, so what a solve or a scan sees must not depend on what was read
# or scanned before.

def solve_outcome(program: Program):
    try:
        system = solve(program)
    except AnalysisError as err:
        return type(err), err.kind, err.pc, err.message
    return system.blocks, system.unreached, system.states, system.moves


@settings(max_examples=300)
@given(front_end_bytes())
def test_solve_does_not_depend_on_reading_instructions_first(raw: bytes):
    fresh, read = decode_bytecode(raw.hex()), decode_bytecode(raw.hex())
    read.instructions
    assert solve_outcome(fresh) == solve_outcome(read)


@settings(max_examples=300)
@given(front_end_bytes(), st.lists(st.booleans(), max_size=80))
def test_interleaved_scans_share_their_instructions(raw: bytes, turns: list[bool]):
    program = decode_bytecode(raw.hex())
    scans = [scan_blocks(program, []), scan_blocks(program, [])]
    seen: list[list[Block]] = [[], []]
    for turn in turns:
        block = next(scans[turn], None)
        if block is not None:
            seen[turn].append(block)
    for scan, blocks in zip(scans, seen):
        blocks.extend(scan)
    assert seen[0] == seen[1]
    assert all(a.body[k] is b.body[k] for a, b in zip(*seen) for k in range(len(a.body)))
    assert program.built == list(program.instructions)


@settings(max_examples=300)
@given(front_end_bytes(), st.booleans(), st.booleans())
def test_programs_of_the_same_bytes_are_equal(raw: bytes, scan_a: bool, scan_b: bool):
    a, b = decode_bytecode(raw.hex()), decode_bytecode(raw.hex())
    for program, scan in ((a, scan_a), (b, scan_b)):
        if scan:
            next(scan_blocks(program, []), None)
    assert a == b
    assert hash(a) == hash(b)
    assert a != decode_bytecode((raw + b"\x00").hex())


# ------------------------------------------- the solver's on-demand scan

# The worklist solver pulls blocks from scan_blocks only as far as it
# enters them, then finishes the scan once it has solved; the naive solver
# partitions up front. Either way a solved system holds the whole partition.

def assert_solved_partition_is_whole(hex_text: str) -> None:
    program = decode_bytecode(hex_text)
    blocks, unreached = partition_blocks(program)
    expected_blocks, expected_unreached = reference_partition_blocks(program)
    expected = [tuple(b) for b in expected_blocks]
    assert [tuple(b) for b in blocks] == expected
    assert unreached == expected_unreached
    try:
        worklist = solve(program)
    except AnalysisError:
        return  # the naive solver has no budget: run it only where this solved
    for system in (worklist, solve(program, mode="naive")):
        assert [tuple(b) for b in system.blocks] == expected
        assert all(type(b) is Block for b in system.blocks)
        starts = [b.start_pc for b in system.blocks]
        assert starts == sorted(starts)
        assert system.unreached == expected_unreached


@settings(max_examples=300)
@given(front_end_bytes())
def test_solved_partition_is_whole_on_biased_bytes(raw: bytes):
    assert_solved_partition_is_whole(raw.hex())


def test_solved_partition_is_whole_on_generated_and_fuzz_inputs():
    rng = random.Random(0x5CA7)
    inputs = [generated_hex(rng.getrandbits(32)) for _ in range(200)]
    for hex_text in inputs + fuzz_inputs(1, 1000):
        assert_solved_partition_is_whole(hex_text)
