import itertools
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fiberwalk import jsonio
from fiberwalk.engine import MAX_PACKED_DEGREE, unpack_table
from fiberwalk.errors import InvalidInputError, InvalidStateError
from fiberwalk.families import cycle_graph
from fiberwalk.graphs import LabeledGraph, global_markov_moves
from fiberwalk.tables import Move, StateSpace, Table

from conftest import dump


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
    with pytest.raises(InvalidInputError, match="table JSON lacks key 'cells'"):
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
    dump(jsonio.graph_to_json(g), path)
    assert jsonio.graph_from_json(jsonio.load(path)) == g


@st.composite
def packed_tables(draw):
    """A random state space and a few tables on it, packed one byte per
    cell, each of degree at most MAX_PACKED_DEGREE."""
    space = StateSpace(tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))))
    tables = []
    for _ in range(draw(st.integers(0, 4))):
        cells = bytearray(space.total_cells)
        budget = draw(st.integers(0, MAX_PACKED_DEGREE))
        for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=12)):
            count = draw(st.integers(0, budget))
            cells[i] += count
            budget -= count
        tables.append(bytes(cells))
    return tables, space


@given(packed_tables())
@example(([], StateSpace((2,))))
@example(([bytes(4)], StateSpace((2, 2))))
@example(([bytes([255, 0, 0]), bytes([0, 128, 127]), bytes([1, 254, 0])], StateSpace((3,))))
def test_packed_tables_text_is_the_text_of_the_table_path(packed):
    tables, space = packed
    one_by_one = [jsonio.table_to_json(unpack_table(b, space), space) for b in tables]
    pieces = jsonio.packed_tables_text(tables, space)
    assert len(pieces) == max(len(tables), 1)
    assert "".join(pieces) == json.dumps(one_by_one, sort_keys=True)


# each *_to_json -> JSON text -> *_from_json round trip is the identity


def via_text(data):
    return json.loads(json.dumps(data))


spaces = st.lists(st.integers(2, 4), min_size=1, max_size=4).map(lambda d: StateSpace(tuple(d)))


@st.composite
def tables(draw):
    space = draw(spaces)
    cells = st.dictionaries(st.sampled_from(space.states_by_index), st.integers(1, 300),
                            max_size=8)
    return Table(draw(cells)), space


@st.composite
def moves(draw):
    """A move with disjoint parts of equal degree on a random space."""
    space = draw(spaces)
    states = space.states_by_index
    plus = draw(st.dictionaries(st.sampled_from(states), st.integers(1, 4), min_size=1,
                                max_size=min(4, len(states) - 1)))
    rest = [s for s in states if s not in plus]
    minus = draw(st.lists(st.sampled_from(rest), min_size=sum(plus.values()),
                          max_size=sum(plus.values())))
    return Move(Table(plus), Table([(s, 1) for s in minus]))


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    levels = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    return LabeledGraph.build(n, edges, levels)


@given(tables())
def test_table_json_roundtrip_property(case):
    t, space = case
    assert jsonio.table_from_json(via_text(jsonio.table_to_json(t, space))) == (t, space)


@given(st.lists(moves(), max_size=4))
def test_moves_json_roundtrip_property(ms):
    assert jsonio.moves_from_json(via_text(jsonio.moves_to_json(ms))) == ms


@given(graphs())
def test_graph_json_roundtrip_property(g):
    assert jsonio.graph_from_json(via_text(jsonio.graph_to_json(g))) == g
