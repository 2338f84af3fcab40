"""Basic-block partitioning."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from evmcfg import decode_bytecode, partition_blocks
from evmcfg.blocks import Terminator

from conftest import BRANCH_HEX, LINEAR_HEX, SHARED_HEX


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
