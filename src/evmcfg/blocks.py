"""Basic block partitioning.

A block starts at pc 0, at every JUMPDEST, and at every instruction that
follows a JUMPI. It ends at a JUMP or JUMPI, at a halting instruction, when
the next instruction is a JUMPDEST, or at the end of the code. Instructions
that satisfy no start condition and follow a closed block (dead filler
between a halt and the next JUMPDEST) belong to no block at all and are
reported separately as unreached.

partition_blocks finds the boundaries in one scan over the instructions and
slices each block's body out of the program's instruction tuple. A Block is
a tuple built from that slice, so start_pc and end_pc are the pcs of its
first and last instruction by construction.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

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


def partition_blocks(program: Program) -> tuple[tuple[Block, ...], frozenset[int]]:
    """Split a program into blocks plus the set of unreached pcs."""
    instructions = program.instructions
    # (first index, index past the last, terminator) of each block.
    cuts: list[tuple[int, int, Terminator]] = []
    unreached: list[int] = []
    first = 0  # index of the open block's first instruction; None when closed
    for i, ins in enumerate(instructions):
        spec = ins.spec
        byte = spec.byte_value
        if byte == JUMPDEST_BYTE:
            if first is not None and first < i:
                cuts.append((first, i, Terminator.FALL_TO_JUMPDEST))
            first = i
        elif first is None:
            unreached.append(ins.pc)
            if byte == JUMPI_BYTE:  # even an unreached JUMPI opens a block
                first = i + 1
            continue
        if spec.is_jump or spec.halts:
            if byte == JUMP_BYTE:
                cuts.append((first, i + 1, Terminator.JUMP))
                first = None
            elif byte == JUMPI_BYTE:
                cuts.append((first, i + 1, Terminator.JUMPI))
                first = i + 1
            else:
                cuts.append((first, i + 1, Terminator.END))
                first = None
    if first is not None and first < len(instructions):
        cuts.append((first, len(instructions), Terminator.CODE_END))

    new = tuple.__new__
    blocks = []
    for start, stop, terminator in cuts:
        body = instructions[start:stop]
        blocks.append(new(Block, (body[0].pc, body[-1].pc, body, terminator)))
    return tuple(blocks), frozenset(unreached)
