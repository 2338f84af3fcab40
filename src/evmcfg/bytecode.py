"""EVM bytecode decoding.

Turns a hex string into a Program: the code, the set of valid jump landing
pcs (the pcs holding a JUMPDEST opcode) and its sized instructions. Decoding
walks the bytes once for the landings; each Instruction is built later,
when a block scan first reaches it, so an input whose analysis fails in a
block never decodes the code after it. Bytes that do not correspond to a
known opcode decode as halting UNKNOWN instructions. A PUSH whose immediate
runs past the end of the code is zero padded and recorded as a diagnostic
rather than rejected."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .errors import DecodeError

JUMP_BYTE = 0x56
JUMPI_BYTE = 0x57
JUMPDEST_BYTE = 0x5B

# Opcodes that terminate execution. RETURN and SELFDESTRUCT halt the current
# call frame just like STOP/REVERT/INVALID do, so they end blocks as well.
_HALTING = {0x00, 0xF3, 0xFD, 0xFE, 0xFF}


# A dataclass: hot loops read its fields, faster than a NamedTuple's.
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
    # Instruction.render's text: the mnemonic, or for PUSH1-PUSH32 the
    # mnemonic and a %-field writing the immediate as 2k zero-padded digits.
    render_format: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = self.byte_value
        k = self.immediate_len
        object.__setattr__(self, "is_push", 0x5F <= b <= 0x7F)
        object.__setattr__(self, "is_dup", 0x80 <= b <= 0x8F)
        object.__setattr__(self, "is_swap", 0x90 <= b <= 0x9F)
        object.__setattr__(self, "is_jump", b in (JUMP_BYTE, JUMPI_BYTE))
        fmt = f"{self.mnemonic} 0x%0{2 * k}x" if k else self.mnemonic
        object.__setattr__(self, "render_format", fmt)


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
# Each byte value's instruction size: 1, plus the immediate of a PUSH.
_STEPS = bytes(1 + spec.immediate_len for spec in _SPECS)
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
        spec = self.spec
        if spec.immediate_len:
            return spec.render_format % self.immediate
        return spec.render_format


# A dataclass compared and hashed by its code, which fixes every other field.
@dataclass(frozen=True)
class Program:
    """Decoded bytecode: the code, its jump landing set, and the
    instructions the block scans built so far (see blocks.scan_blocks).
    instructions and the pc map behind instruction_at finish the scan on
    first read, and share those objects."""

    code: bytes
    code_len: int = field(compare=False)
    jumpdests: frozenset[int] = field(compare=False)
    diagnostics: tuple[str, ...] = field(default=(), compare=False)
    built: list[Instruction] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __getattr__(self, name: str):
        if name not in ("instructions", "_by_pc"):
            raise AttributeError(f"'Program' object has no attribute {name!r}")
        built = self.built
        if not built or built[-1].next_pc < self.code_len:
            from .blocks import partition_blocks  # blocks imports this module
            partition_blocks(self)
        instructions = tuple(built)
        by_pc = dict(zip(map(itemgetter(0), instructions), instructions))
        object.__setattr__(self, "instructions", instructions)
        object.__setattr__(self, "_by_pc", by_pc)
        return by_pc if name == "_by_pc" else instructions

    def instruction_at(self, pc: int) -> Instruction:
        try:
            return self._by_pc[pc]
        except KeyError:
            raise KeyError(f"no instruction at pc 0x{pc:x}") from None

    def has_instruction(self, pc: int) -> bool:
        return pc in self._by_pc

    def to_bytes(self) -> bytes:
        return self.code


def _clean_hex(hex_text: str) -> str:
    cleaned = "".join(hex_text.split())
    if cleaned[:2].lower() == "0x":
        cleaned = cleaned[2:]
    return cleaned


def _code_of(hex_text: str) -> bytes:
    """The bytes of hex text that bytes.fromhex rejects, or DecodeError."""
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
    return bytes.fromhex(digits)


def decode_bytecode(hex_text: str) -> Program:
    """Decode a hex string into a Program.

    Whitespace is ignored and a single leading 0x is allowed. Raises
    DecodeError naming the first offending digit offset for malformed hex.
    Builds no instruction: one walk over the bytes finds the jump landings
    and a PUSH cut short by the end of the code.
    """
    try:
        code = bytes.fromhex(hex_text)
    except ValueError:  # a 0x prefix, odd whitespace, or a bad digit
        code = _code_of(hex_text)
    code_len = len(code)
    jumpdests: list[int] = []
    pc = start = 0
    while pc < code_len:
        byte = code[pc]
        if byte == JUMPDEST_BYTE:
            jumpdests.append(pc)
        start, pc = pc, pc + _STEPS[byte]
    diagnostics = ()
    if pc > code_len:  # the last instruction is a PUSH cut short
        diagnostics = (
            f"{_SPECS[code[start]].mnemonic} at pc 0x{start:x} runs past end"
            f" of code; immediate zero padded",
        )
    return Program(code, code_len, frozenset(jumpdests), diagnostics)
