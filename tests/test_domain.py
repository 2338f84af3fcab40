"""Stack-shape values and the map lattice they live in."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcfg import StackState, bottom, idmap, join, leq
from evmcfg.domain import MAX_STACK

from conftest import abstract_states, ss, stack_states


# ---------------------------------------------------------------- StackState

def test_make_normalizes():
    a = StackState.make(3, {1: [0x10, 0x05], 0: [0x03]})
    assert a.n == 3
    assert a.sigma == ((0, (0x03,)), (1, (0x05, 0x10)))
    assert a.tracked() == {0: (0x03,), 1: (0x05, 0x10)}


def test_positions_must_fit_height():
    with pytest.raises(ValueError):
        StackState.make(1, {1: [0x03]})
    with pytest.raises(ValueError):
        StackState.make(0, {0: [0x03]})
    with pytest.raises(ValueError):
        StackState.make(-1)
    with pytest.raises(ValueError):
        StackState.make(MAX_STACK + 1)
    # make() drops empty destination sets; the raw constructor rejects them.
    assert StackState.make(2, {1: []}) == StackState.make(2)
    with pytest.raises(ValueError):
        StackState(2, ((1, ()),))
    with pytest.raises(ValueError):
        StackState(2, ((1, (5,)), (0, (3,))))  # positions out of order
    with pytest.raises(ValueError):
        StackState(2, ((0, (5, 3)),))  # dests not sorted


NOT_INTS = [
    pytest.param(2.5, {}, id="float-height"),
    pytest.param(True, {}, id="bool-height"),
    pytest.param(3, {1.0: [3]}, id="float-position"),
    pytest.param(3, {True: [3]}, id="bool-position"),
    pytest.param(3, {1: [3.0]}, id="float-destination"),
    pytest.param(3, {1: [3, False]}, id="bool-destination"),
    pytest.param(3, {1: ["3"]}, id="str-destination"),
    pytest.param(3, {1: [-3]}, id="negative-destination"),
]


def construct(n, tracked) -> StackState:
    """The raw constructor, given what make is given."""
    return StackState(n, tuple((pos, tuple(dests)) for pos, dests in tracked.items()))


@pytest.mark.parametrize(
    "build, n, tracked",
    [pytest.param(StackState.make, *case.values, id=case.id) for case in NOT_INTS]
    + [
        pytest.param(construct, *case.values, id=f"constructor-{case.id}")
        for case in NOT_INTS
    ],
)
def test_make_rejects_values_that_are_not_ints(build, n, tracked):
    # Such a stack could not even render: its destinations print as hex.
    # make and the raw constructor reject it alike.
    with pytest.raises(ValueError):
        build(n, tracked)


def test_boundary_heights_allowed():
    assert StackState.make(0).n == 0
    assert StackState.make(MAX_STACK).n == MAX_STACK


def test_get_and_top():
    a = ss(3, {0: [0x03], 2: [0x10]})
    assert a.get(0) == (0x03,)
    assert a.get(1) is None
    assert a.top_destinations() == (0x10,)
    assert ss(3, {0: [0x03]}).top_destinations() is None
    assert ss(0).top_destinations() is None


def test_equality_ignores_input_order():
    left = StackState.make(2, {0: [5, 3], 1: [7]})
    right = StackState.make(2, {1: [7], 0: [3, 5]})
    assert left == right
    assert hash(left) == hash(right)


def test_render():
    assert ss(0).render() == "<0, {}>"
    assert ss(2, {0: [0x05]}).render() == "<2, {s0:{0x5}}>"
    two = ss(2, {0: [0x05], 1: [0x0B, 0x10]})
    assert two.render() == "<2, {s0:{0x5}, s1:{0xb, 0x10}}>"
    assert str(two) == two.render()


def test_sort_key_orders_height_first():
    low = ss(1, {0: [0xFF]})
    high = ss(2, {0: [0x03]})
    assert sorted([high, low], key=old_sort_key) == [low, high]
    assert sorted([high, low]) == [low, high]


# The checks and the sort key of StackState as a frozen dataclass, kept as
# the reference for the tuple-backed class.
def old_checks(n, sigma) -> None:
    if not 0 <= n <= MAX_STACK:
        raise ValueError(f"stack height {n} out of range")
    last = -1
    for pos, dests in sigma:
        if not 0 <= pos < n:
            raise ValueError(f"tracked position {pos} outside stack of height {n}")
        if pos <= last:
            raise ValueError("tracked positions must be strictly increasing")
        if not dests:
            raise ValueError(f"empty destination set at position {pos}")
        if tuple(sorted(set(dests))) != dests:
            raise ValueError(f"destination set at position {pos} not canonical")
        last = pos


def old_sort_key(s: StackState):
    return (s.n, s.sigma)


def _rejection(make) -> str | None:
    try:
        make()
    except ValueError as err:
        return str(err)
    return None


@st.composite
def raw_stacks(draw):
    """(n, sigma) pairs near every check's boundary, valid and invalid."""
    n = draw(st.one_of(st.integers(-2, 8), st.integers(MAX_STACK - 2, MAX_STACK + 2)))
    dests = st.one_of(
        st.lists(st.integers(0, 6), max_size=3).map(tuple),
        st.lists(st.integers(0, 6), max_size=3),  # a list is never canonical
        st.frozensets(st.integers(0, 6), min_size=1, max_size=3).map(
            lambda d: tuple(sorted(d))
        ),
    )
    pos = st.one_of(st.integers(-1, 9), st.integers(MAX_STACK - 3, MAX_STACK + 1))
    return n, tuple(draw(st.lists(st.tuples(pos, dests), max_size=4)))


@given(raw_stacks())
@settings(max_examples=500)
def test_constructor_checks_match_the_reference(raw):
    n, sigma = raw
    expected = _rejection(lambda: old_checks(n, sigma))
    assert _rejection(lambda: StackState(n, sigma)) == expected
    assert _rejection(lambda: StackState(n=n, sigma=sigma)) == expected
    assert _rejection(lambda: StackState._make((n, sigma))) == expected
    assert _rejection(lambda: StackState.make(0)._replace(n=n, sigma=sigma)) == expected
    if expected is None:
        s = StackState(n, sigma)
        assert (s.n, s.sigma) == tuple(s) == (n, sigma)


@given(st.lists(stack_states(), max_size=8))
def test_natural_order_is_the_old_sort_key(states):
    assert sorted(states) == sorted(states, key=old_sort_key)


@given(stack_states())
def test_stack_states_are_immutable(s: StackState):
    for name, value in (("n", 0), ("sigma", ()), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(s, name, value)


# ------------------------------------------------------------------- lattice

def test_bottom_is_empty():
    assert bottom() == {}
    assert leq(bottom(), bottom())
    assert join(bottom(), bottom()) == {}


def test_idmap():
    a = ss(1, {0: [0x03]})
    assert idmap(a) == {a: frozenset({a})}


def test_join_merges_pointwise():
    a, b, c = ss(0), ss(1, {0: [0x03]}), ss(1, {0: [0x10]})
    left = {a: frozenset({b})}
    right = {a: frozenset({c}), b: frozenset({b})}
    merged = join(left, right)
    assert merged == {a: frozenset({b, c}), b: frozenset({b})}
    # inputs untouched
    assert left == {a: frozenset({b})}


def test_leq_examples():
    a, b, c = ss(0), ss(1, {0: [0x03]}), ss(1, {0: [0x10]})
    assert leq({a: frozenset({b})}, {a: frozenset({b, c})})
    assert not leq({a: frozenset({b, c})}, {a: frozenset({b})})
    assert not leq({b: frozenset({b})}, {a: frozenset({b})})
    assert leq(bottom(), {a: frozenset({b})})


# --------------------------------------------------- randomized lattice laws

@given(stack_states())
def test_top_destinations_reads_the_slot_at_the_top(s: StackState):
    assert s.top_destinations() == (s.get(s.n - 1) if s.n > 0 else None)


@given(stack_states())
def test_states_hash_consistently(s: StackState):
    assert StackState.make(s.n, s.tracked()) == s
    for pos in s.tracked():
        assert 0 <= pos < s.n


@given(abstract_states(), abstract_states())
def test_join_commutes(p1, p2):
    assert join(p1, p2) == join(p2, p1)


@given(abstract_states(), abstract_states(), abstract_states())
@settings(max_examples=60)
def test_join_associates(p1, p2, p3):
    assert join(join(p1, p2), p3) == join(p1, join(p2, p3))


@given(abstract_states())
def test_join_idempotent_and_bottom_neutral(p):
    assert join(p, p) == p
    assert join(p, bottom()) == p
    assert join(bottom(), p) == p


@given(abstract_states(), abstract_states())
def test_join_is_least_upper_bound(p1, p2):
    merged = join(p1, p2)
    assert leq(p1, merged)
    assert leq(p2, merged)


@given(abstract_states(), abstract_states())
def test_leq_agrees_with_join(p1, p2):
    # p1 <= p2 exactly when joining adds nothing.
    assert leq(p1, p2) == (join(p1, p2) == p2)


@given(abstract_states(), abstract_states(), abstract_states())
@settings(max_examples=60)
def test_leq_transitive(p1, p2, p3):
    a = join(p1, p2)
    b = join(a, p3)
    assert leq(p1, a) and leq(a, b)
    assert leq(p1, b)


@given(abstract_states())
def test_leq_reflexive_and_antisymmetric(p):
    assert leq(p, p)
    q = {k: frozenset(v) for k, v in p.items()}
    assert leq(p, q) and leq(q, p)
    assert p == q
