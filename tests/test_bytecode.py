"""Decoder behaviour: sizing, jump landings, diagnostics, round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evmcfg import decode_bytecode
from evmcfg.bytecode import OPCODES
from evmcfg.errors import DecodeError

from conftest import BRANCH_HEX, LINEAR_HEX, SHARED_HEX


def test_single_stop():
    program = decode_bytecode("00")
    assert len(program.instructions) == 1
    ins = program.instructions[0]
    assert ins.pc == 0
    assert ins.spec.mnemonic == "STOP"
    assert ins.spec.halts
    assert program.code_len == 1
    assert program.jumpdests == frozenset()


def test_push_sizes():
    program = decode_bytecode("6005")
    (push,) = program.instructions
    assert push.spec.mnemonic == "PUSH1"
    assert push.immediate == 0x05
    assert push.size == 2
    assert push.next_pc == 2

    pop = decode_bytecode("50").instructions[0]
    assert pop.size == 1

    push3 = decode_bytecode("62010203").instructions[0]
    assert push3.spec.mnemonic == "PUSH3"
    assert push3.size == 4
    assert push3.immediate == 0x010203


def test_linear_decode():
    program = decode_bytecode(LINEAR_HEX)
    got = [(i.pc, i.spec.mnemonic) for i in program.instructions]
    assert got == [(0, "PUSH1"), (2, "JUMP"), (3, "JUMPDEST"), (4, "STOP")]
    assert program.jumpdests == frozenset({0x03})


def test_branch_decode():
    program = decode_bytecode(BRANCH_HEX)
    got = [(i.pc, i.spec.mnemonic) for i in program.instructions]
    assert got == [
        (0, "PUSH1"),
        (2, "PUSH1"),
        (4, "JUMPI"),
        (5, "STOP"),
        (6, "JUMPDEST"),
        (7, "STOP"),
    ]
    assert program.jumpdests == frozenset({0x06})


def test_shared_decode():
    program = decode_bytecode(SHARED_HEX)
    mnemonics = {i.pc: i.spec.mnemonic for i in program.instructions}
    assert mnemonics[0x04] == "JUMP"
    assert mnemonics[0x0B] == "JUMPDEST"
    assert mnemonics[0x0D] == "INVALID"
    assert mnemonics[0x10] == "JUMPDEST"
    assert mnemonics[0x11] == "JUMP"
    assert program.jumpdests == frozenset({0x05, 0x0B, 0x10})


def test_jumpdest_byte_inside_immediate_is_not_a_landing():
    # 0x5b bytes consumed as PUSH immediates must not count.
    program = decode_bytecode("615b5b00")
    assert program.jumpdests == frozenset()
    assert [i.spec.mnemonic for i in program.instructions] == ["PUSH2", "STOP"]


def test_unknown_bytes_halt():
    program = decode_bytecode("0c")
    (ins,) = program.instructions
    assert ins.spec.mnemonic == "UNKNOWN_0C"
    assert ins.spec.halts
    assert ins.spec.delta == 0 and ins.spec.alpha == 0


def test_truncated_push_padded_with_diagnostic():
    program = decode_bytecode("60")
    (push,) = program.instructions
    assert push.immediate == 0
    assert program.code_len == 1
    assert len(program.diagnostics) == 1
    assert "zero padded" in program.diagnostics[0]
    assert program.to_bytes() == bytes.fromhex("60")


def test_truncated_wide_push():
    program = decode_bytecode("7f11")
    (push,) = program.instructions
    assert push.spec.mnemonic == "PUSH32"
    assert push.immediate == 0x11 << (31 * 8)
    assert program.to_bytes() == bytes.fromhex("7f11")


def test_whitespace_and_prefix_tolerated():
    program = decode_bytecode(" 0x60 03\n565b00 ")
    assert program.to_bytes().hex() == LINEAR_HEX


def test_bad_hex_digit_offset():
    with pytest.raises(DecodeError) as exc:
        decode_bytecode("60zz")
    assert exc.value.offset == 2

    with pytest.raises(DecodeError):
        decode_bytecode("0xfg")


def test_odd_length_rejected():
    with pytest.raises(DecodeError) as exc:
        decode_bytecode("600")
    assert exc.value.offset == 2
    assert "odd" in exc.value.message


def test_empty_input_decodes_to_nothing():
    program = decode_bytecode("")
    assert program.instructions == ()
    assert program.code_len == 0


def test_opcode_table_immediates_only_on_pushes():
    for spec in OPCODES.values():
        if spec.immediate_len:
            assert spec.is_push and spec.mnemonic != "PUSH0"
            assert spec.immediate_len == spec.byte_value - 0x5F
        assert 0 <= spec.delta <= 17
        assert 0 <= spec.alpha <= 17


def test_dup_swap_arities():
    for k in range(1, 17):
        dup = OPCODES[0x7F + k]
        assert (dup.delta, dup.alpha) == (k, k + 1)
        swap = OPCODES[0x8F + k]
        assert (swap.delta, swap.alpha) == (k + 1, k + 1)


def test_instruction_lookup():
    program = decode_bytecode(LINEAR_HEX)
    assert program.instruction_at(2).spec.mnemonic == "JUMP"
    assert not program.has_instruction(1)  # inside the PUSH immediate
    with pytest.raises(KeyError):
        program.instruction_at(1)


def test_render():
    program = decode_bytecode("610954")
    assert program.instructions[0].render() == "PUSH2 0x0954"
    assert decode_bytecode("00").instructions[0].render() == "STOP"


@given(st.binary(min_size=0, max_size=64))
def test_roundtrip_arbitrary_bytes(raw: bytes):
    program = decode_bytecode(raw.hex())
    assert program.to_bytes() == raw
    # Instruction pcs strictly increase and tile the code.
    pcs = [ins.pc for ins in program.instructions]
    assert pcs == sorted(set(pcs))
    covered = sum(ins.size for ins in program.instructions)
    assert covered >= program.code_len
    if not program.diagnostics:
        assert covered == program.code_len


@given(st.binary(min_size=1, max_size=64))
def test_jumpdests_match_decoded_stream(raw: bytes):
    program = decode_bytecode(raw.hex())
    from_stream = {
        ins.pc for ins in program.instructions if ins.spec.mnemonic == "JUMPDEST"
    }
    assert program.jumpdests == frozenset(from_stream)
