"""Basic block partitioning.

A block starts at pc 0, at every JUMPDEST, and at every instruction that
follows a JUMPI. It ends at a JUMP or JUMPI, at a halting instruction, when
the next instruction is a JUMPDEST, or at the end of the code. Instructions
that satisfy no start condition and follow a closed block (dead filler
between a halt and the next JUMPDEST) belong to no block at all and are
reported separately as unreached.

scan_blocks holds the boundary rules. It walks the code once, in pc order,
and yields each block as the walk closes it, so blocks are scanned on
demand: the worklist solver pulls them only as far as the blocks it
enters, and partition_blocks runs the scan to the end. The scan also builds
each instruction as it first reaches it, so an input that fails in a block
neither scans nor decodes the code after it. A Block is a tuple built from
a slice of the instructions, so start_pc and end_pc are the pcs of its
first and last instruction by construction.
"""

from __future__ import annotations

import enum
from itertools import count
from typing import Iterator, NamedTuple

from .bytecode import _SPECS, Instruction, Program, JUMPDEST_BYTE, JUMPI_BYTE, JUMP_BYTE


class Terminator(enum.Enum):
    """Why a block ended."""

    JUMP = "jump"
    JUMPI = "jumpi"
    END = "end"
    FALL_TO_JUMPDEST = "fall_to_jumpdest"
    CODE_END = "code_end"


class Block(NamedTuple):
    """Maximal straight-line instruction run."""

    start_pc: int
    end_pc: int  # pc of the last instruction, not one past it
    body: tuple[Instruction, ...]
    terminator: Terminator

    @property
    def last(self) -> Instruction:
        return self.body[-1]


def scan_blocks(program: Program, unreached: list[int]) -> Iterator[Block]:
    """Yield the program's blocks in pc order, in one pass, appending each
    unreached pc to unreached as the pass goes by it. Each instruction is
    built once, by the first scan to reach it, and kept in program.built."""
    code, code_len, built = program.code, program.code_len, program.built
    # Every field is well formed by construction, so each tuple is built
    # without its NamedTuple constructor's frame.
    new = tuple.__new__
    append = built.append
    first = 0  # index of the open block's first instruction; None when closed
    pc = 0  # of the next instruction
    known = len(built)  # only a yield lets another scan append to built
    for i in count():
        if i < known:
            ins = built[i]
            spec = ins.spec
            pc = ins.pc + 1 + spec.immediate_len
        elif pc < code_len:
            spec = _SPECS[code[pc]]
            width = spec.immediate_len
            if width:
                end = pc + 1 + width
                immediate = int.from_bytes(code[pc + 1 : end], "big")
                if end > code_len:  # zeros for the missing bytes
                    immediate <<= 8 * (end - code_len)
                ins = new(Instruction, (pc, spec, immediate))
                pc = end
            else:
                ins = new(Instruction, (pc, spec, None))
                pc += 1
            append(ins)
        else:
            break
        byte = spec.byte_value
        if byte == JUMPDEST_BYTE:
            if first is not None and first < i:
                body = tuple(built[first:i])
                yield new(
                    Block, (body[0].pc, body[-1].pc, body, Terminator.FALL_TO_JUMPDEST)
                )
                known = len(built)
            first = i
        elif first is None:
            unreached.append(ins.pc)
            if byte == JUMPI_BYTE:  # even an unreached JUMPI opens a block
                first = i + 1
            continue
        if spec.is_jump or spec.halts:
            body = tuple(built[first : i + 1])
            if byte == JUMP_BYTE:
                terminator = Terminator.JUMP
                first = None
            elif byte == JUMPI_BYTE:
                terminator = Terminator.JUMPI
                first = i + 1
            else:
                terminator = Terminator.END
                first = None
            yield new(Block, (body[0].pc, ins.pc, body, terminator))
            known = len(built)
    if first is not None and first < len(built):
        body = tuple(built[first:])
        yield new(Block, (body[0].pc, body[-1].pc, body, Terminator.CODE_END))


def partition_blocks(program: Program) -> tuple[tuple[Block, ...], frozenset[int]]:
    """Split a program into blocks plus the set of unreached pcs."""
    unreached: list[int] = []
    blocks = tuple(scan_blocks(program, unreached))
    return blocks, frozenset(unreached)
