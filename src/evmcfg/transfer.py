"""Per-instruction effect on tracked stack states.

update_stack mirrors what one instruction does to the stack, restricted to
what the analysis models: heights always move by the instruction's arity,
and tracked destination sets are created by PUSHes of jump landing pcs,
copied by DUP, repositioned by SWAP, and dropped when the positions holding
them are consumed. transfer lifts update_stack over every entry context of
an AbstractState, keeping the context keys fixed.

update_stack builds the successor's tracked tuple from the input's, which is
sorted by position, so it comes out sorted: PUSH and DUP append at position
n, above every tracked one; SWAP moves only its two slots; every other
instruction keeps the prefix below its consumed slots. Destination sets are
shared, never rebuilt, so they stay canonical. With the height checked too,
the result skips StackState's check, a tenth of the analysis's time.
"""

from __future__ import annotations

from bisect import bisect_left

from .bytecode import Instruction
from .domain import MAX_STACK, AbstractState, StackState
from .errors import StackArityError


def update_stack(
    instr: Instruction, state: StackState, jumpdests: frozenset[int]
) -> StackState:
    """Apply one instruction to one stack state.

    Raises StackArityError on underflow or overflow, naming the pc.
    """
    spec = instr.spec
    n = state.n
    if n < spec.delta:
        raise StackArityError(
            f"{spec.mnemonic} at pc 0x{instr.pc:x} needs {spec.delta} stack"
            f" items, found {n}",
            pc=instr.pc,
        )
    n_out = n - spec.delta + spec.alpha
    if n_out > MAX_STACK:
        raise StackArityError(
            f"{spec.mnemonic} at pc 0x{instr.pc:x} overflows the stack"
            f" ({n_out} > {MAX_STACK})",
            pc=instr.pc,
        )

    sigma = state.sigma
    if spec.is_push:
        value = instr.push_value()
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
    else:
        # Everything else, jumps included, only consumes tracked positions:
        # entries at the delta consumed slots disappear, produced slots are
        # untracked, and entries below the consumed region keep their indices.
        sigma = sigma[: bisect_left(sigma, (n - spec.delta,))]
    return tuple.__new__(StackState, (n_out, sigma))


def with_entry_context(err: StackArityError, key: StackState) -> StackArityError:
    """err, raised under entry context key, with that context named."""
    return StackArityError(
        f"{err.message} (entry context {key.render()})", pc=err.pc
    )


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
