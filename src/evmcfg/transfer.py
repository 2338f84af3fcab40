"""Stack effect of instructions on tracked stack states.

run_stack folds what a straight-line run of instructions does to the stack,
restricted to what the analysis models: heights always move by each
instruction's arity, and tracked destination sets are created by PUSHes of
jump landing pcs, copied by DUP, repositioned by SWAP, and dropped when the
positions holding them are consumed. update_stack is its one-instruction
case, and transfer lifts that over every entry context of an AbstractState.

The fold keeps the height and tracked tuple in locals and builds one
StackState at the end. The tuple is sorted by position and stays so: PUSH and
DUP append at position n, above every tracked one; SWAP moves only its two
slots; every other instruction keeps the prefix below its consumed slots.
Destination sets are shared, never rebuilt, so they stay canonical. With the
height checked too, the result skips StackState's check, a tenth of the
analysis's time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .bytecode import Instruction
from .domain import MAX_STACK, AbstractState, StackState
from .errors import StackArityError


def run_stack(
    instrs: Sequence[Instruction],
    state: StackState,
    jumpdests: frozenset[int],
    along: Sequence[StackState] | None = None,
) -> tuple[int, StackState]:
    """(k, member): state after each of instrs in turn, folded in one frame.

    Without along, k is len(instrs) and member the last result. With along,
    the fold stops at the first i whose result differs from along[i]: k is
    i and member that result, or k is len(instrs) if none differs. A fold
    that changes nothing returns state itself. Raises StackArityError at
    the first underflow or overflow, naming its pc.
    """
    n, sigma = state
    k = 0
    for ins in instrs:
        spec = ins.spec
        delta = spec.delta
        if n < delta:
            raise StackArityError(
                f"{spec.mnemonic} at pc 0x{ins.pc:x} needs {delta} stack"
                f" items, found {n}",
                pc=ins.pc,
            )
        n_out = n - delta + spec.alpha
        if n_out > MAX_STACK:
            raise StackArityError(
                f"{spec.mnemonic} at pc 0x{ins.pc:x} overflows the stack"
                f" ({n_out} > {MAX_STACK})",
                pc=ins.pc,
            )
        if spec.is_push:
            value = ins.immediate or 0  # PUSH0 has no immediate
            if value in jumpdests:
                sigma += ((n, (value,)),)
        elif spec.is_dup:
            source = n - (spec.byte_value - 0x7F)  # DUPk copies slot n - k
            i = bisect_left(sigma, (source,))
            if i < len(sigma) and sigma[i][0] == source:
                sigma += ((n, sigma[i][1]),)
        elif spec.is_swap:
            top = n - 1
            low = n - (spec.byte_value - 0x8F) - 1  # SWAPk swaps with slot n - k - 1
            i = bisect_left(sigma, (low,))
            below, rest = sigma[:i], sigma[i:]
            low_slot = ()
            if rest and rest[0][0] == low:
                low_slot = ((top, rest[0][1]),)
                rest = rest[1:]
            top_slot = ()
            if rest and rest[-1][0] == top:
                top_slot = ((low, rest[-1][1]),)
                rest = rest[:-1]
            sigma = below + top_slot + rest + low_slot
        elif sigma and sigma[-1][0] >= n - delta:
            # Everything else, jumps included, only consumes tracked positions:
            # entries at the delta consumed slots disappear, produced slots are
            # untracked, and entries below the consumed region keep their indices.
            sigma = sigma[: bisect_left(sigma, (n - delta,))]
        n = n_out
        if along is not None and along[k] != (n, sigma):
            break
        k += 1
    if n == state[0] and sigma is state[1]:
        return k, state
    return k, tuple.__new__(StackState, (n, sigma))


def update_stack(
    instr: Instruction, state: StackState, jumpdests: frozenset[int]
) -> StackState:
    """Apply one instruction to one stack state: run_stack of instr alone."""
    return run_stack((instr,), state, jumpdests)[1]


def with_entry_context(err: StackArityError, key: StackState) -> StackArityError:
    """err, raised under entry context key, with that context named."""
    return StackArityError(f"{err.message} (entry context {key.render()})", pc=err.pc)


def transfer(
    instr: Instruction, pi: AbstractState, jumpdests: frozenset[int]
) -> AbstractState:
    """Apply update_stack to every member of every entry context."""
    out: AbstractState = {}
    for key, members in pi.items():
        updated = []
        for member in members:
            try:
                updated.append(update_stack(instr, member, jumpdests))
            except StackArityError as err:
                raise with_entry_context(err, key) from None
        out[key] = frozenset(updated)
    return out
