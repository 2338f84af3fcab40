"""A fixed computation that measures how fast the machine runs Python right now.

On a shared machine the speed of the same code drifts. Measured on a 2-core
VM with under 0.5 % CPU steal: the machine flips between a fast and a slow
state, about 1.5 times apart, every few seconds, and the median per-input
time of one workload ranged from 3.0 to 4.8 ms between runs minutes apart.
run.py times this yardstick, in CPU seconds of its thread, at intervals
throughout each run and scales every time it reports by REFERENCE_S /
(mean yardstick time), so a reported time reads as if the machine ran at
the speed where the yardstick takes REFERENCE_S. Raw times are printed
beside the scaled ones.

The yardstick uses only the standard library, never evmcfg, so a change to
evmcfg cannot move it. It does the kinds of work the analysis does: a
worklist fixpoint over maps of frozensets of small frozen records, and a
breadth-first closure over stack-machine states. The collector is off while
it runs, so its time does not depend on how much the benchmark holds alive.
"""

from __future__ import annotations

import gc
import random
from collections import deque
from dataclasses import dataclass
from time import thread_time

REFERENCE_S = 0.1


@dataclass(frozen=True)
class _Shape:
    n: int
    tags: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or tuple(sorted(self.tags)) != self.tags:
            raise ValueError("malformed shape")


@dataclass(frozen=True)
class _State:
    pc: int
    stack: tuple[int, ...]

    def key(self):
        return (self.pc, self.stack)


def _fixpoint(size: int = 100) -> int:
    rng = random.Random(12345)
    succ = {i: (rng.randrange(size), rng.randrange(size)) for i in range(size)}
    facts: dict[int, dict] = {i: {} for i in range(size)}
    facts[0] = {_Shape(0, ()): frozenset((_Shape(0, ()),))}
    work = deque([0])
    queued = {0}
    while work:
        node = work.popleft()
        queued.discard(node)
        for key, members in list(facts[node].items()):
            for target in succ[node]:
                grown = frozenset(
                    _Shape((m.n + 1) % 7, tuple(sorted(set(m.tags + (target % 5,)))))
                    for m in members
                )
                joined = dict(facts[target])
                held = joined.get(key, frozenset())
                if not grown <= held:
                    joined[key] = held | grown
                    facts[target] = joined
                    if target not in queued:
                        work.append(target)
                        queued.add(target)
    return sum(len(v) for v in facts.values())


def _closure(limit: int = 9000) -> int:
    code = [(i * 7919) % 5 for i in range(64)]
    start = _State(0, ())
    seen = {start}
    queue = deque([start])
    edges = set()
    while queue and len(edges) < limit:
        state = queue.popleft()
        op = code[state.pc % 64]
        stack = list(state.stack)
        if op == 0:
            stack.append(state.pc % 13)
        elif op == 1 and stack:
            stack.pop()
        elif op == 2 and stack:
            stack.append(stack[-1])
        elif op == 3 and len(stack) > 1:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        successors = [_State((state.pc + 1) % 97, tuple(stack[-6:]))]
        if op == 4:
            successors.append(_State((state.pc * 3 + 1) % 97, tuple(stack[-6:])))
        for nxt in successors:
            edges.add((state, nxt))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(sorted(seen, key=_State.key))


def run() -> float:
    """CPU seconds of this thread one pass of the yardstick takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = thread_time()
        _fixpoint()
        _closure()
        return thread_time() - started
    finally:
        if enabled:
            gc.enable()
