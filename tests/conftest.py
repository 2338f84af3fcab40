"""Shared fixtures: the three reference programs and strategy builders."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import evmcfg
from evmcfg import Analysis, StackState, analyze, generate_program, random_shape
from evmcfg.domain import MAX_STACK

LINEAR_HEX = "6003565b00"
BRANCH_HEX = "6001600657005b00"
SHARED_HEX = "60056010565b600b6010565b00fefefe5b56"

# Handcrafted two-site call program where the shared target is entered with
# two different stack heights: site one pushes only a return address, site
# two pushes one junk byte underneath.
TWO_HEIGHT_HEX = "6005600f565b6000600d600f565b005b56"


def shift_register_hex(k: int) -> str:
    """A loop whose head is entered with 2^(k+1) - 1 contexts, all at height
    k, for 2 <= k <= 16.

    PUSH1 0 k times; L: JUMPDEST CALLDATASIZE PUSH2 A JUMPI PUSH2 L PUSH2 B
    JUMP; A: JUMPDEST PUSH2 A; B: JUMPDEST SWAPk POP SWAP1 ... SWAP(k-1)
    PUSH2 L JUMP. Each turn pushes one of two return addresses, drops the
    bottom slot and rotates the rest.
    """
    loop = 2 * k
    a, b = loop + 13, loop + 17
    swaps = bytes([0x8F + k, 0x50] + [0x8F + i for i in range(1, k)])
    code = (
        bytes.fromhex("6000") * k
        + bytes.fromhex("5b3661") + a.to_bytes(2, "big")
        + bytes.fromhex("5761") + loop.to_bytes(2, "big")
        + bytes.fromhex("61") + b.to_bytes(2, "big")
        + bytes.fromhex("565b61") + a.to_bytes(2, "big")
        + bytes.fromhex("5b") + swaps
        + bytes.fromhex("61") + loop.to_bytes(2, "big")
        + bytes.fromhex("56")
    )
    return code.hex()


# The inputs the fuzz workload of bench/workloads.py starts with: the README
# fixtures, a loop, and three loops whose stack grows by one slot per turn.
# The solver's work budget stops the first two of them; the third reaches
# the true stack overflow at pc 5 first.
FUZZ_FIXED = (
    LINEAR_HEX,
    BRANCH_HEX,
    SHARED_HEX,
    "5b600160005700",
    "5b6000600056",
    "5b5f600056c091611500575f008091815b81",
    "600b5b6007600256585b565b",
)


def jump_biased_hex(rng: random.Random) -> str:
    """1-64 random bytes, biased to JUMPDEST, JUMP, JUMPI and PUSH1 of an
    in-range pc."""
    length = rng.randint(1, 64)
    out = bytearray()
    while len(out) < length:
        draw = rng.random()
        if draw < 0.12:
            out.append(0x5B)
        elif draw < 0.20:
            out.append(0x56)
        elif draw < 0.28:
            out.append(0x57)
        elif draw < 0.45:
            out += bytes((0x60, rng.randrange(length)))
        else:
            out.append(rng.randrange(256))
    return bytes(out[:length]).hex()


def fuzz_inputs(seed: int, count: int) -> list[str]:
    """The first count inputs of the fuzz benchmark workload for seed."""
    rng = random.Random(seed)
    drawn = [jump_biased_hex(rng) for _ in range(count - len(FUZZ_FIXED))]
    return list(FUZZ_FIXED[:count]) + drawn


@st.composite
def front_end_bytes(draw) -> bytes:
    """0-64 bytes biased to JUMPDEST, JUMP, JUMPI and PUSH1 of an in-range
    pc, often ending in a PUSH whose immediate runs past the end."""
    length = draw(st.integers(0, 64))
    piece = st.one_of(
        st.sampled_from([b"\x5b", b"\x56", b"\x57"]),
        st.integers(0, max(length - 1, 0)).map(lambda pc: bytes((0x60, pc))),
        st.binary(min_size=1, max_size=1),
    )
    tail = st.one_of(
        st.just(b""),
        st.integers(1, 32).flatmap(
            lambda k: st.binary(max_size=k - 1).map(lambda imm: bytes((0x5F + k,)) + imm)
        ),
    )
    end = draw(tail)
    return b"".join(draw(st.lists(piece, max_size=length)))[: max(length - len(end), 0)] + end


def generated_hex(seed: int) -> str:
    """The program of generator seed seed under random_shape, as hex; the
    corpus workload's input i for run seed s is generated_hex(s * 10**6 + i)."""
    return generate_program(seed, random_shape(random.Random(seed))).to_bytes().hex()


# Import root of the package under test (src in a checkout, site-packages in
# an install), for child processes that must import the same copy.
IMPORT_ROOT = str(Path(evmcfg.__file__).resolve().parent.parent)

DEST_POOL = (0x03, 0x05, 0x0B, 0x10, 0x40, 0x7F)


def ss(n: int, tracked: dict[int, list[int]] | None = None) -> StackState:
    return StackState.make(n, tracked or {})


@pytest.fixture(scope="session")
def linear() -> Analysis:
    return analyze(LINEAR_HEX)


@pytest.fixture(scope="session")
def branch() -> Analysis:
    return analyze(BRANCH_HEX)


@pytest.fixture(scope="session")
def shared() -> Analysis:
    return analyze(SHARED_HEX)


@pytest.fixture(scope="session")
def two_height() -> Analysis:
    return analyze(TWO_HEIGHT_HEX)


def dest_sets() -> st.SearchStrategy:
    return st.frozensets(st.sampled_from(DEST_POOL), min_size=1, max_size=3)


@st.composite
def stack_states(draw, max_height: int = 6) -> StackState:
    n = draw(st.integers(min_value=0, max_value=max_height))
    if n == 0:
        return StackState.make(0)
    positions = draw(
        st.lists(st.integers(0, n - 1), unique=True, min_size=0, max_size=n)
    )
    return StackState.make(n, {pos: draw(dest_sets()) for pos in positions})


@st.composite
def kernel_stacks(draw, dests: st.SearchStrategy | None = None) -> StackState:
    """Stacks at heights 0-24 or 1000-1024 whose tracked slots gather near the
    top, where DUP, SWAP and the consumers act, with 1-3 destinations each."""
    n = draw(st.one_of(st.integers(0, 24), st.integers(MAX_STACK - 24, MAX_STACK)))
    if n == 0:
        return StackState.make(0)
    near_top = st.integers(max(0, n - 19), n - 1)
    positions = draw(
        st.lists(st.one_of(near_top, st.integers(0, n - 1)), unique=True, max_size=10)
    )
    dests = dest_sets() if dests is None else dests
    return StackState.make(n, {pos: draw(dests) for pos in positions})


@st.composite
def abstract_states(draw) -> dict:
    keys = draw(st.lists(stack_states(), min_size=0, max_size=3, unique=True))
    return {
        key: frozenset(draw(st.lists(stack_states(), min_size=1, max_size=3)))
        for key in keys
    }


def random_stack(rng: random.Random, max_height: int = 5) -> StackState:
    n = rng.randint(0, max_height)
    tracked = {}
    for pos in range(n):
        if rng.random() < 0.4:
            tracked[pos] = rng.sample(DEST_POOL, rng.randint(1, 2))
    return StackState.make(n, tracked)


def random_abstract(rng: random.Random) -> dict:
    out = {}
    for _ in range(rng.randint(0, 3)):
        key = random_stack(rng)
        out[key] = frozenset(random_stack(rng) for _ in range(rng.randint(1, 3)))
    return out
