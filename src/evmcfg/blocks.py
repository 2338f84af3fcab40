"""Basic block partitioning.

A block starts at pc 0, at every JUMPDEST, and at every instruction that
follows a JUMPI. It ends at a JUMP or JUMPI, at a halting instruction, when
the next instruction is a JUMPDEST, or at the end of the code. Instructions
that satisfy no start condition and follow a closed block (dead filler
between a halt and the next JUMPDEST) belong to no block at all and are
reported separately as unreached.

scan_blocks holds the boundary rules. It walks the instructions once, in pc
order, and yields each block as the walk closes it, so blocks are scanned
on demand: the worklist solver pulls them only as far as the blocks it
enters, and partition_blocks runs the scan to the end. Each block's body is
sliced out of the program's instruction tuple. A Block is a tuple built
from that slice, so start_pc and end_pc are the pcs of its first and last
instruction by construction.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from .bytecode import Instruction, Program, JUMPDEST_BYTE, JUMPI_BYTE, JUMP_BYTE


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
    unreached pc to unreached as the pass goes by it."""
    instructions = program.instructions
    new = tuple.__new__
    first = 0  # index of the open block's first instruction; None when closed
    for i, ins in enumerate(instructions):
        spec = ins.spec
        byte = spec.byte_value
        if byte == JUMPDEST_BYTE:
            if first is not None and first < i:
                body = instructions[first:i]
                yield new(
                    Block, (body[0].pc, body[-1].pc, body, Terminator.FALL_TO_JUMPDEST)
                )
            first = i
        elif first is None:
            unreached.append(ins.pc)
            if byte == JUMPI_BYTE:  # even an unreached JUMPI opens a block
                first = i + 1
            continue
        if spec.is_jump or spec.halts:
            body = instructions[first : i + 1]
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
    if first is not None and first < len(instructions):
        body = instructions[first:]
        yield new(Block, (body[0].pc, body[-1].pc, body, Terminator.CODE_END))


def partition_blocks(program: Program) -> tuple[tuple[Block, ...], frozenset[int]]:
    """Split a program into blocks plus the set of unreached pcs."""
    unreached: list[int] = []
    blocks = tuple(scan_blocks(program, unreached))
    return blocks, frozenset(unreached)
