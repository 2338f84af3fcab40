"""Decoder behaviour: sizing, jump landings, diagnostics, round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evmcfg import decode_bytecode
from evmcfg.bytecode import _SPECS, OPCODES
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


def test_render_every_byte_value():
    # Written out here, apart from OpSpec.render_format: the mnemonic, then
    # for PUSHk the immediate as 2k hex digits, its bytes zero padded on the
    # right to width k when the code ends early.
    for byte, spec in enumerate(_SPECS):
        k = spec.immediate_len
        full = bytes((i * 0x35) & 0xFF for i in range(k))  # 00 35 6a 9f d4 09 ...
        for raw in [full[:cut] for cut in range(k)] + [full]:
            ins = decode_bytecode(bytes([byte]).hex() + raw.hex()).instructions[0]
            padded = raw + bytes(k - len(raw))
            expected = spec.mnemonic + " 0x" + padded.hex() if k else spec.mnemonic
            assert ins.render() == expected, (byte, raw)
        if 0x60 <= byte <= 0x7F:
            assert spec.render_format.count("%") == 1
        else:
            assert spec.render_format == spec.mnemonic


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


# Every defined opcode as (byte, mnemonic, items popped δ, items pushed α),
# typed from the Yellow Paper (Wood), Appendix H, and the EIPs that added
# SHL/SHR/SAR (145), EXTCODEHASH (1052), CHAINID and SELFBALANCE (1344,
# 1884), BASEFEE (3198), PREVRANDAO (4399), PUSH0 (3855), and for Cancun
# TLOAD/TSTORE (1153), MCOPY (5656), BLOBHASH (4844) and BLOBBASEFEE (7516).
# The analysis and the reference stepper both read arities from OPCODES, so
# only an independent copy can catch a wrong one.
ARITIES = [
    (0x00, "STOP", 0, 0),
    (0x01, "ADD", 2, 1),
    (0x02, "MUL", 2, 1),
    (0x03, "SUB", 2, 1),
    (0x04, "DIV", 2, 1),
    (0x05, "SDIV", 2, 1),
    (0x06, "MOD", 2, 1),
    (0x07, "SMOD", 2, 1),
    (0x08, "ADDMOD", 3, 1),
    (0x09, "MULMOD", 3, 1),
    (0x0A, "EXP", 2, 1),
    (0x0B, "SIGNEXTEND", 2, 1),
    (0x10, "LT", 2, 1),
    (0x11, "GT", 2, 1),
    (0x12, "SLT", 2, 1),
    (0x13, "SGT", 2, 1),
    (0x14, "EQ", 2, 1),
    (0x15, "ISZERO", 1, 1),
    (0x16, "AND", 2, 1),
    (0x17, "OR", 2, 1),
    (0x18, "XOR", 2, 1),
    (0x19, "NOT", 1, 1),
    (0x1A, "BYTE", 2, 1),
    (0x1B, "SHL", 2, 1),
    (0x1C, "SHR", 2, 1),
    (0x1D, "SAR", 2, 1),
    (0x20, "KECCAK256", 2, 1),
    (0x30, "ADDRESS", 0, 1),
    (0x31, "BALANCE", 1, 1),
    (0x32, "ORIGIN", 0, 1),
    (0x33, "CALLER", 0, 1),
    (0x34, "CALLVALUE", 0, 1),
    (0x35, "CALLDATALOAD", 1, 1),
    (0x36, "CALLDATASIZE", 0, 1),
    (0x37, "CALLDATACOPY", 3, 0),
    (0x38, "CODESIZE", 0, 1),
    (0x39, "CODECOPY", 3, 0),
    (0x3A, "GASPRICE", 0, 1),
    (0x3B, "EXTCODESIZE", 1, 1),
    (0x3C, "EXTCODECOPY", 4, 0),
    (0x3D, "RETURNDATASIZE", 0, 1),
    (0x3E, "RETURNDATACOPY", 3, 0),
    (0x3F, "EXTCODEHASH", 1, 1),
    (0x40, "BLOCKHASH", 1, 1),
    (0x41, "COINBASE", 0, 1),
    (0x42, "TIMESTAMP", 0, 1),
    (0x43, "NUMBER", 0, 1),
    (0x44, "PREVRANDAO", 0, 1),
    (0x45, "GASLIMIT", 0, 1),
    (0x46, "CHAINID", 0, 1),
    (0x47, "SELFBALANCE", 0, 1),
    (0x48, "BASEFEE", 0, 1),
    (0x49, "BLOBHASH", 1, 1),
    (0x4A, "BLOBBASEFEE", 0, 1),
    (0x50, "POP", 1, 0),
    (0x51, "MLOAD", 1, 1),
    (0x52, "MSTORE", 2, 0),
    (0x53, "MSTORE8", 2, 0),
    (0x54, "SLOAD", 1, 1),
    (0x55, "SSTORE", 2, 0),
    (0x56, "JUMP", 1, 0),
    (0x57, "JUMPI", 2, 0),
    (0x58, "PC", 0, 1),
    (0x59, "MSIZE", 0, 1),
    (0x5A, "GAS", 0, 1),
    (0x5B, "JUMPDEST", 0, 0),
    (0x5C, "TLOAD", 1, 1),
    (0x5D, "TSTORE", 2, 0),
    (0x5E, "MCOPY", 3, 0),
    (0x5F, "PUSH0", 0, 1),
    (0x60, "PUSH1", 0, 1),
    (0x61, "PUSH2", 0, 1),
    (0x62, "PUSH3", 0, 1),
    (0x63, "PUSH4", 0, 1),
    (0x64, "PUSH5", 0, 1),
    (0x65, "PUSH6", 0, 1),
    (0x66, "PUSH7", 0, 1),
    (0x67, "PUSH8", 0, 1),
    (0x68, "PUSH9", 0, 1),
    (0x69, "PUSH10", 0, 1),
    (0x6A, "PUSH11", 0, 1),
    (0x6B, "PUSH12", 0, 1),
    (0x6C, "PUSH13", 0, 1),
    (0x6D, "PUSH14", 0, 1),
    (0x6E, "PUSH15", 0, 1),
    (0x6F, "PUSH16", 0, 1),
    (0x70, "PUSH17", 0, 1),
    (0x71, "PUSH18", 0, 1),
    (0x72, "PUSH19", 0, 1),
    (0x73, "PUSH20", 0, 1),
    (0x74, "PUSH21", 0, 1),
    (0x75, "PUSH22", 0, 1),
    (0x76, "PUSH23", 0, 1),
    (0x77, "PUSH24", 0, 1),
    (0x78, "PUSH25", 0, 1),
    (0x79, "PUSH26", 0, 1),
    (0x7A, "PUSH27", 0, 1),
    (0x7B, "PUSH28", 0, 1),
    (0x7C, "PUSH29", 0, 1),
    (0x7D, "PUSH30", 0, 1),
    (0x7E, "PUSH31", 0, 1),
    (0x7F, "PUSH32", 0, 1),
    (0x80, "DUP1", 1, 2),
    (0x81, "DUP2", 2, 3),
    (0x82, "DUP3", 3, 4),
    (0x83, "DUP4", 4, 5),
    (0x84, "DUP5", 5, 6),
    (0x85, "DUP6", 6, 7),
    (0x86, "DUP7", 7, 8),
    (0x87, "DUP8", 8, 9),
    (0x88, "DUP9", 9, 10),
    (0x89, "DUP10", 10, 11),
    (0x8A, "DUP11", 11, 12),
    (0x8B, "DUP12", 12, 13),
    (0x8C, "DUP13", 13, 14),
    (0x8D, "DUP14", 14, 15),
    (0x8E, "DUP15", 15, 16),
    (0x8F, "DUP16", 16, 17),
    (0x90, "SWAP1", 2, 2),
    (0x91, "SWAP2", 3, 3),
    (0x92, "SWAP3", 4, 4),
    (0x93, "SWAP4", 5, 5),
    (0x94, "SWAP5", 6, 6),
    (0x95, "SWAP6", 7, 7),
    (0x96, "SWAP7", 8, 8),
    (0x97, "SWAP8", 9, 9),
    (0x98, "SWAP9", 10, 10),
    (0x99, "SWAP10", 11, 11),
    (0x9A, "SWAP11", 12, 12),
    (0x9B, "SWAP12", 13, 13),
    (0x9C, "SWAP13", 14, 14),
    (0x9D, "SWAP14", 15, 15),
    (0x9E, "SWAP15", 16, 16),
    (0x9F, "SWAP16", 17, 17),
    (0xA0, "LOG0", 2, 0),
    (0xA1, "LOG1", 3, 0),
    (0xA2, "LOG2", 4, 0),
    (0xA3, "LOG3", 5, 0),
    (0xA4, "LOG4", 6, 0),
    (0xF0, "CREATE", 3, 1),
    (0xF1, "CALL", 7, 1),
    (0xF2, "CALLCODE", 7, 1),
    (0xF3, "RETURN", 2, 0),
    (0xF4, "DELEGATECALL", 6, 1),
    (0xF5, "CREATE2", 4, 1),
    (0xFA, "STATICCALL", 6, 1),
    (0xFD, "REVERT", 2, 0),
    (0xFE, "INVALID", 0, 0),
    (0xFF, "SELFDESTRUCT", 1, 0),
]


def test_opcode_arities_match_the_specification():
    table = {
        byte: (spec.mnemonic, spec.delta, spec.alpha) for byte, spec in OPCODES.items()
    }
    assert table == {byte: (name, d, a) for byte, name, d, a in ARITIES}
