import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberwalk.errors import (
    InvalidMoveError,
    InvalidStateError,
    MoveNotApplicableError,
    TooLargeError,
)
from fiberwalk.tables import (
    MAX_CELLS,
    Move,
    StateSpace,
    Table,
    apply_move,
    dedup_moves,
    state_index,
)


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
    if all(t.get(s) >= c for s, c in m.minus.items()):
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
