import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberwalk import jsonio
from fiberwalk.engine import MAX_PACKED_DEGREE, unpack_table
from fiberwalk.errors import InvalidStateError
from fiberwalk.families import cycle_graph
from fiberwalk.graphs import global_markov_moves
from fiberwalk.tables import StateSpace, Table


def test_graph_roundtrip(c4):
    data = jsonio.graph_to_json(c4)
    assert data == {
        "vertices": 4,
        "d": [2, 2, 2, 2],
        "edges": [[1, 2], [1, 4], [2, 3], [3, 4]],
    }
    assert jsonio.graph_from_json(data) == c4


def test_table_roundtrip():
    space = StateSpace((2, 3, 2))
    t = Table({(1, 2, 1): 2, (2, 3, 2): 1})
    data = jsonio.table_to_json(t, space)
    t2, space2 = jsonio.table_from_json(data)
    assert (t2, space2) == (t, space)


def test_table_json_validates_states():
    with pytest.raises(InvalidStateError):
        jsonio.table_from_json({"d": [2, 2], "cells": [[[1, 3], 1]]})
    with pytest.raises(InvalidStateError):
        jsonio.table_from_json({"d": [2, 2]})


def test_move_roundtrip(c4):
    for m in global_markov_moves(c4)[:3]:
        assert jsonio.move_from_json(jsonio.move_to_json(m)) == m


def test_moves_list_roundtrip(c4):
    moves = global_markov_moves(c4)
    data = jsonio.moves_to_json(moves)
    assert jsonio.moves_from_json(data) == moves
    assert jsonio.moves_from_json({"moves": data}) == moves


def test_file_roundtrip(tmp_path):
    path = str(tmp_path / "graph.json")
    g = cycle_graph(5)
    jsonio.dump(jsonio.graph_to_json(g), path)
    assert jsonio.graph_from_json(jsonio.load(path)) == g


@st.composite
def packed_tables(draw):
    """A random state space and a table on it, packed one byte per cell,
    of degree at most MAX_PACKED_DEGREE."""
    space = StateSpace(tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))))
    cells = bytearray(space.total_cells)
    budget = draw(st.integers(0, MAX_PACKED_DEGREE))
    for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=12)):
        count = draw(st.integers(0, budget))
        cells[i] += count
        budget -= count
    return bytes(cells), space


@given(packed_tables())
def test_packed_table_to_json_matches_the_table_path(packed):
    b, space = packed
    assert jsonio.packed_table_to_json(b, space) == jsonio.table_to_json(
        unpack_table(b, space), space
    )
