"""Basic block partitioning.

A block starts at pc 0, at every JUMPDEST, and at every instruction that
follows a JUMPI. It ends at a JUMP or JUMPI, at a halting instruction, when
the next instruction is a JUMPDEST, or at the end of the code. Instructions
that satisfy no start condition and follow a closed block (dead filler
between a halt and the next JUMPDEST) belong to no block at all and are
reported separately as unreached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bytecode import Instruction, Program, JUMPDEST_BYTE, JUMPI_BYTE, JUMP_BYTE


class Terminator(enum.Enum):
    """Why a block ended."""

    JUMP = "jump"
    JUMPI = "jumpi"
    END = "end"
    FALL_TO_JUMPDEST = "fall_to_jumpdest"
    CODE_END = "code_end"


@dataclass(frozen=True)
class Block:
    """Maximal straight-line instruction run."""

    start_pc: int
    end_pc: int  # pc of the last instruction, not one past it
    body: tuple[Instruction, ...]
    terminator: Terminator

    def __post_init__(self):
        assert self.body and self.body[0].pc == self.start_pc
        assert self.body[-1].pc == self.end_pc

    @property
    def last(self) -> Instruction:
        return self.body[-1]


def _terminator_for(last: Instruction, next_is_jumpdest: bool) -> Terminator:
    if last.spec.byte_value == JUMP_BYTE:
        return Terminator.JUMP
    if last.spec.byte_value == JUMPI_BYTE:
        return Terminator.JUMPI
    if last.spec.halts:
        return Terminator.END
    if next_is_jumpdest:
        return Terminator.FALL_TO_JUMPDEST
    return Terminator.CODE_END


def partition_blocks(program: Program) -> tuple[tuple[Block, ...], frozenset[int]]:
    """Split a program into blocks plus the set of unreached pcs."""
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
                terminator=_terminator_for(last, next_is_jumpdest),
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
