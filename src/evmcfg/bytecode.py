"""EVM bytecode decoding.

Turns a hex string into a sequence of sized instructions plus the set of
valid jump landing pcs (the pcs holding a JUMPDEST opcode). Bytes that do
not correspond to a known opcode decode as halting UNKNOWN instructions.
A PUSH whose immediate runs past the end of the code is zero padded and
recorded as a diagnostic rather than rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DecodeError

JUMP_BYTE = 0x56
JUMPI_BYTE = 0x57
JUMPDEST_BYTE = 0x5B

# Opcodes that terminate execution. RETURN and SELFDESTRUCT halt the current
# call frame just like STOP/REVERT/INVALID do, so they end blocks as well.
_HALTING = {0x00, 0xF3, 0xFD, 0xFE, 0xFF}


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode: stack arity and immediate width."""

    mnemonic: str
    byte_value: int
    delta: int  # stack items consumed
    alpha: int  # stack items produced
    immediate_len: int = 0
    halts: bool = False
    # Opcode classes, fixed by byte_value and set once by __post_init__.
    is_push: bool = field(init=False, repr=False, compare=False)
    is_dup: bool = field(init=False, repr=False, compare=False)
    is_swap: bool = field(init=False, repr=False, compare=False)
    is_jump: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = self.byte_value
        object.__setattr__(self, "is_push", 0x5F <= b <= 0x7F)
        object.__setattr__(self, "is_dup", 0x80 <= b <= 0x8F)
        object.__setattr__(self, "is_swap", 0x90 <= b <= 0x9F)
        object.__setattr__(self, "is_jump", b in (JUMP_BYTE, JUMPI_BYTE))


def _base_table() -> dict[int, OpSpec]:
    rows: list[tuple[int, str, int, int]] = [
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
    table = {
        b: OpSpec(name, b, d, a, halts=b in _HALTING) for b, name, d, a in rows
    }
    for k in range(1, 33):
        b = 0x5F + k
        table[b] = OpSpec(f"PUSH{k}", b, 0, 1, immediate_len=k)
    for k in range(1, 17):
        b = 0x7F + k
        table[b] = OpSpec(f"DUP{k}", b, k, k + 1)
    for k in range(1, 17):
        b = 0x8F + k
        table[b] = OpSpec(f"SWAP{k}", b, k + 1, k + 1)
    for k in range(5):
        b = 0xA0 + k
        table[b] = OpSpec(f"LOG{k}", b, k + 2, 0)
    return table

OPCODES: dict[int, OpSpec] = _base_table()

# The spec of every byte value. Undefined bytes behave like INVALID: they
# halt and consume nothing.
_SPECS: tuple[OpSpec, ...] = tuple(
    OPCODES.get(b) or OpSpec(f"UNKNOWN_{b:02X}", b, 0, 0, halts=True)
    for b in range(256)
)
_NON_HEX = re.compile("[^0-9a-fA-F]")


class Instruction(NamedTuple):
    """One decoded instruction at a fixed pc."""

    pc: int
    spec: OpSpec
    immediate: int | None = None

    @property
    def size(self) -> int:
        return 1 + self.spec.immediate_len

    @property
    def next_pc(self) -> int:
        return self.pc + 1 + self.spec.immediate_len

    def push_value(self) -> int:
        """Value placed on the stack by a PUSH instruction."""
        if not self.spec.is_push:
            raise ValueError(f"{self.spec.mnemonic} has no push value")
        return self.immediate if self.immediate is not None else 0

    def render(self) -> str:
        if self.spec.immediate_len:
            return f"{self.spec.mnemonic} 0x{self.immediate:0{2 * self.spec.immediate_len}x}"
        return self.spec.mnemonic


@dataclass(frozen=True)
class Program:
    """Decoded bytecode: ordered instructions plus jump landing set."""

    instructions: tuple[Instruction, ...]
    code_len: int
    jumpdests: frozenset[int]
    diagnostics: tuple[str, ...] = ()
    _by_pc: dict[int, Instruction] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_by_pc", {ins.pc: ins for ins in self.instructions}
        )

    def instruction_at(self, pc: int) -> Instruction:
        try:
            return self._by_pc[pc]
        except KeyError:
            raise KeyError(f"no instruction at pc 0x{pc:x}") from None

    def has_instruction(self, pc: int) -> bool:
        return pc in self._by_pc

    def to_bytes(self) -> bytes:
        out = bytearray()
        for ins in self.instructions:
            out.append(ins.spec.byte_value)
            if ins.spec.immediate_len:
                out += ins.immediate.to_bytes(ins.spec.immediate_len, "big")
        # A zero-padded trailing PUSH emits more bytes than the input held.
        return bytes(out[: self.code_len])


def _clean_hex(hex_text: str) -> str:
    cleaned = "".join(hex_text.split())
    if cleaned[:2].lower() == "0x":
        cleaned = cleaned[2:]
    return cleaned


def decode_bytecode(hex_text: str) -> Program:
    """Decode a hex string into a Program.

    Whitespace is ignored and a single leading 0x is allowed. Raises
    DecodeError naming the first offending digit offset for malformed hex.
    """
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

    return Program(
        instructions=tuple(instructions),
        code_len=len(code),
        jumpdests=frozenset(jumpdests),
        diagnostics=tuple(diagnostics),
    )
