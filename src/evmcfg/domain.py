"""Stack abstraction and its lattice.

A StackState records a stack height together with a partial map from stack
positions to sets of possible jump destinations. Position 0 is the bottom of
the stack; with height n the top of the stack is position n - 1. Positions
absent from the map hold values the analysis does not track.

A StackState is a validated tuple (n, sigma): its constructor rejects a
malformed one, and hashing, equality and ordering are the tuple's own. Its
natural order is the canonical one: height first, then the tracked map.
The constructor checks, in one pass and without sorting, that the height,
positions and destinations are ints and not bools, that positions strictly
increase, and that each destination set is a tuple of non-negative ints that
strictly increases.
Only transfer.update_stack skips it; its steps keep a stack canonical.

An AbstractState is a partial map from entry StackStates (the stack shapes a
block can be entered with) to the sets of StackStates those entries have
evolved into at the current instruction. Joining two AbstractStates unions
their domains and, for shared keys, unions the image sets pointwise. The
empty map is the least element.
"""

from __future__ import annotations

from operator import lt
from typing import Iterable, Mapping, NamedTuple

MAX_STACK = 1024


class _Stack(NamedTuple):
    """The fields of StackState, which checks them on construction."""

    n: int
    sigma: tuple[tuple[int, tuple[int, ...]], ...] = ()


class StackState(_Stack):
    """Stack height plus tracked destination sets, in canonical sorted form."""

    __slots__ = ()

    def __new__(cls, n: int, sigma: tuple[tuple[int, tuple[int, ...]], ...] = ()):
        if type(n) is not int:
            raise ValueError(f"stack height {n!r} is not an int")
        if not 0 <= n <= MAX_STACK:
            raise ValueError(f"stack height {n} out of range")
        last = -1
        for pos, dests in sigma:
            if type(pos) is not int:
                raise ValueError(f"tracked position {pos!r} is not an int")
            if not 0 <= pos < n:
                raise ValueError(f"tracked position {pos} outside stack of height {n}")
            if pos <= last:
                raise ValueError("tracked positions must be strictly increasing")
            if not dests:
                raise ValueError(f"empty destination set at position {pos}")
            if not isinstance(dests, tuple):
                raise ValueError(f"destination set at position {pos} not canonical")
            for d in dests:
                if type(d) is not int:
                    raise ValueError(f"destination {d!r} at position {pos} is not an int")
            if len(dests) > 1 and not all(map(lt, dests, dests[1:])):
                raise ValueError(f"destination set at position {pos} not canonical")
            if dests[0] < 0:
                raise ValueError(f"negative destination {dests[0]} at position {pos}")
            last = pos
        return tuple.__new__(cls, (n, sigma))

    @classmethod
    def _make(cls, iterable) -> "StackState":
        return cls(*iterable)  # so _replace validates too

    @staticmethod
    def make(n: int, tracked: Mapping[int, Iterable[int]] | None = None) -> "StackState":
        """Height n tracking tracked[pos] at each pos. ValueError for a bool or
        non-int height, position or destination, or a negative destination."""
        tracked = {pos: list(dests) for pos, dests in (tracked or {}).items()}
        dests = [d for ds in tracked.values() for d in ds]
        for value in (n, *tracked, *dests):
            if type(value) is not int:
                raise ValueError(f"{value!r} is not an int")
        if min(dests, default=0) < 0:
            raise ValueError(f"negative destination {min(dests)}")
        items = sorted((p, tuple(sorted(set(ds)))) for p, ds in tracked.items() if ds)
        return StackState(n, tuple(items))

    def tracked(self) -> dict[int, tuple[int, ...]]:
        return dict(self.sigma)

    def get(self, pos: int) -> tuple[int, ...] | None:
        for p, dests in self.sigma:
            if p == pos:
                return dests
        return None

    def top_destinations(self) -> tuple[int, ...] | None:
        """Destination set at the top of the stack, if tracked. sigma is
        sorted by position, so only its last slot can be the top."""
        sigma = self.sigma
        if sigma and sigma[-1][0] == self.n - 1:
            return sigma[-1][1]
        return None

    def render(self) -> str:
        inner = ", ".join(
            f"s{pos}:{{{', '.join(f'0x{d:x}' for d in dests)}}}"
            for pos, dests in self.sigma
        )
        return f"<{self.n}, {{{inner}}}>"

    def __str__(self) -> str:
        return self.render()


# The stack at pc 0, built and checked once: every analysis shares it.
EMPTY_STACK = StackState(0)


# Partial map from entry stack shapes to the states they have become.
AbstractState = dict[StackState, frozenset[StackState]]


def bottom() -> AbstractState:
    return {}


def join(p1: AbstractState, p2: AbstractState) -> AbstractState:
    out: AbstractState = dict(p1)
    for key, states in p2.items():
        existing = out.get(key)
        out[key] = states if existing is None else existing | states
    return out


def leq(p1: AbstractState, p2: AbstractState) -> bool:
    for key, states in p1.items():
        if not states <= p2.get(key, frozenset()):
            return False
    return True


def idmap(s: StackState) -> AbstractState:
    """Abstract state opening a fresh entry context for s."""
    return {s: frozenset((s,))}
