import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberwalk import jsonio
from fiberwalk.engine import are_connected, connected_component, pack_table, verify_markov_basis
from fiberwalk.errors import (
    InvalidInputError,
    InvalidMoveError,
    InvalidStateError,
    MoveNotApplicableError,
    TooLargeError,
)
from fiberwalk.graphs import global_markov_moves, margin_map, margins
from fiberwalk.tables import (
    MAX_CELLS,
    Move,
    StateSpace,
    Table,
    apply_move,
    state_index,
)

from reference import dedup_moves


def test_state_index_corners():
    s = StateSpace((2, 2, 2, 2))
    assert state_index((1, 1, 1, 1), s) == 0
    assert state_index((2, 2, 2, 2), s) == 15


def test_state_index_mixed_radix():
    # independent oracle: explicit mixed-radix formula, last coordinate fastest
    s = StateSpace((2, 3, 2))
    x = (1, 2, 1)
    expected = ((x[0] - 1) * 3 + (x[1] - 1)) * 2 + (x[2] - 1)
    assert expected == 2
    assert state_index(x, s) == 2


@pytest.mark.parametrize(
    "levels", [(2, 2), (2, 3, 2), (3, 3, 3), (4, 4, 4), (2,) * 12, (5, 7)]
)
def test_state_index_bijection_and_monotone(levels):
    s = StateSpace(levels)
    seen = []
    for x in s.states():
        seen.append(state_index(x, s))
        assert s.states_by_index[seen[-1]] == x
    assert seen == list(range(s.total_cells))
    states = sorted(s.states())
    assert [state_index(x, s) for x in states] == sorted(seen)


def test_state_index_rejects_bad_coordinates():
    s = StateSpace((2, 3, 2))
    with pytest.raises(InvalidStateError):
        state_index((1, 4, 1), s)
    with pytest.raises(InvalidStateError):
        state_index((1, 2), s)


def test_space_validation():
    with pytest.raises(InvalidStateError):
        StateSpace((2, 1))
    with pytest.raises(InvalidStateError):
        StateSpace(())
    assert StateSpace((2, 1 << 15)).total_cells == MAX_CELLS
    with pytest.raises(TooLargeError):
        StateSpace((2, 2, 1 << 15))


SWAP = Move(Table({(1, 2): 1, (2, 1): 1}), Table({(1, 1): 1, (2, 2): 1}))


def test_apply_move_basic_swap():
    t = Table({(1, 1): 1, (2, 2): 1})
    assert apply_move(t, SWAP) == Table({(1, 2): 1, (2, 1): 1})


def test_apply_move_insufficient_support():
    with pytest.raises(MoveNotApplicableError):
        apply_move(Table({(1, 1): 1}), SWAP)


def test_apply_move_entrywise():
    t = Table({(1, 1): 2, (2, 2): 1})
    assert apply_move(t, SWAP) == Table({(1, 1): 1, (1, 2): 1, (2, 1): 1})


@st.composite
def move_cases(draw):
    """A table and a move over one small space; half the time the table is
    lifted by the move's negative part, so the move applies."""
    space = StateSpace(tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))))
    state = st.sampled_from(space.states_by_index)
    plus = draw(st.dictionaries(state, st.integers(1, 3), min_size=1,
                                max_size=min(3, space.total_cells - 1)))
    rest = [s for s in space.states_by_index if s not in plus]
    minus = draw(st.lists(st.sampled_from(rest), min_size=sum(plus.values()),
                          max_size=sum(plus.values())))
    m = Move(Table(plus), Table([(s, 1) for s in minus]))
    t = Table(draw(st.dictionaries(state, st.integers(1, 3), max_size=6)))
    if draw(st.booleans()):
        t = t + m.minus
    return t, m


@given(move_cases())
def test_apply_then_reverse_roundtrip_random(case):
    t, m = case
    if all(dict(t.items()).get(s, 0) >= c for s, c in m.minus.items()):
        out = apply_move(t, m)
        assert out.degree == t.degree
        assert all(c > 0 for _, c in out.items())
        assert apply_move(out, m.reverse()) == t
    else:
        with pytest.raises(MoveNotApplicableError):
            apply_move(t, m)


def test_table_equality_is_canonical():
    a = Table([((1, 2), 1), ((1, 1), 2)])
    b = Table({(1, 1): 2, (1, 2): 1})
    assert a == b and hash(a) == hash(b)
    assert Table({(1, 1): 0}) == Table()


def test_table_rejects_negative():
    with pytest.raises(InvalidStateError):
        Table({(1, 1): -1})


def test_move_invariants():
    with pytest.raises(InvalidMoveError):
        Move(Table({(1, 1): 1}), Table({(1, 1): 1}))  # overlapping supports
    with pytest.raises(InvalidMoveError):
        Move(Table({(1, 1): 2}), Table({(1, 2): 1}))  # degree mismatch


def test_canonical_orientation_and_dedup():
    m = SWAP
    # smallest cell (1,1) sits in minus; canonical form flips it into plus
    canon = m.canonical()
    assert canon.plus.support[0] == (1, 1)
    assert dedup_moves([m, m.reverse(), m]) == dedup_moves([m.reverse()])
    # dedup is idempotent and order-independent
    rng = random.Random(3)
    moves = [m, m.reverse(), canon]
    once = dedup_moves(moves)
    rng.shuffle(moves)
    assert dedup_moves(moves) == once == dedup_moves(once)


@given(st.lists(st.integers(2, 5), min_size=1, max_size=4))
def test_states_by_index_is_state_at_and_sorted(levels):
    space = StateSpace(tuple(levels))
    states = space.states_by_index
    assert [state_index(x, space) for x in states] == list(range(space.total_cells))
    assert list(states) == sorted(states)
    assert space.states_by_index is states


# Every entry point takes a state to its cell through state_index, so a bad
# state raises the same text wherever it enters.
BAD_STATES = [
    ((1, 1, 1), "state (1, 1, 1) has arity 3, expected 4"),
    ((1, 1, 3, 1), "coordinate 3 of state (1, 1, 3, 1) outside 1..2"),
    ((1, 1, "1", 1), "coordinate 3 of state (1, 1, '1', 1) outside 1..2"),
]

ENTRY_POINTS = {
    "connected_component": lambda g, x: connected_component(Table({x: 1}), [], g.levels),
    "are_connected": lambda g, x: are_connected(Table({(2, 2, 2, 2): 1}), Table({x: 1}), [],
                                                g.levels),
    "margins": lambda g, x: margins(margin_map(g), Table({x: 1})),
    "verify_markov_basis": lambda g, x: verify_markov_basis(
        [Move(Table({x: 1}), Table({(2, 2, 2, 2): 1}))], margin_map(g), 1),
    "table_from_json": lambda g, x: jsonio.table_from_json(
        {"d": list(g.levels.levels), "cells": [[list(x), 1]]}),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("state, message", BAD_STATES)
def test_every_entry_point_refuses_a_bad_state_alike(c4, entry, state, message):
    if entry == "table_from_json" and type(state[2]) is str:
        # a JSON reader refuses a coordinate that is no integer before the
        # state meets its space
        with pytest.raises(InvalidInputError) as err:
            ENTRY_POINTS[entry](c4, state)
        assert str(err.value) == "coordinate must be an integer, not '1'"
        return
    with pytest.raises(InvalidStateError) as err:
        ENTRY_POINTS[entry](c4, state)
    assert str(err.value) == message


def test_a_coordinate_equal_to_an_int_is_that_int(c4):
    # the library reads (1.0, 1, 1, 1) as (1, 1, 1, 1) everywhere; the JSON
    # readers refuse 1.0 and true at the boundary
    space, am, moves = c4.levels, margin_map(c4), global_markov_moves(c4)
    ints = Table({(1, 1, 1, 1): 1, (2, 2, 1, 1): 1})
    floats = Table({(1.0, 1, 1, 1): 1, (2, 2, 1, 1): 1})
    assert state_index((1.0, 1, 1, 1), space) == 0
    assert pack_table(floats, space) == pack_table(ints, space)
    assert margins(am, floats) == margins(am, ints)
    assert (connected_component(floats, moves, space).visited
            == connected_component(ints, moves, space).visited)
    assert are_connected(floats, ints, moves, space).status == "connected"
    first = Move(Table({tuple(map(float, s)): c for s, c in moves[0].plus.items()}),
                 moves[0].minus)
    assert verify_markov_basis([first] + moves[1:], am, 3) == verify_markov_basis(moves, am, 3)
    for bad in (1.0, True):
        with pytest.raises(InvalidInputError) as err:
            jsonio.table_from_json({"d": [2, 2, 2, 2], "cells": [[[bad, 1, 1, 1], 1]]})
        assert str(err.value) == f"coordinate must be an integer, not {bad!r}"
        with pytest.raises(InvalidInputError) as err:
            jsonio.move_from_json({"plus": [[[bad, 1, 1, 1], 1]], "minus": [[[2, 1, 1, 1], 1]]})
        assert str(err.value) == f"coordinate must be an integer, not {bad!r}"
