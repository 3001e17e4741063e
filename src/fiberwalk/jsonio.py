"""JSON wire formats.

Graph: {"vertices": 4, "d": [2,2,2,2], "edges": [[1,2],[2,3],[3,4],[4,1]]}
Table: {"d": [2,2,2,2], "cells": [[[1,1,1,1], 1], ...]}
Move:  {"plus": <cells>, "minus": <cells>}   (cells as in Table, counts kept)

States are 1-based coordinate lists throughout.  Input that does not fit
these formats, or a file that cannot be read, raises InvalidInputError.
"""

from __future__ import annotations

import functools
import json
import operator
from typing import Union

from .errors import InvalidInputError
from .graphs import LabeledGraph
from .tables import Move, StateSpace, Table, state_index


def graph_to_json(g: LabeledGraph) -> dict:
    return {
        "vertices": g.n_vertices,
        "d": list(g.levels.levels),
        "edges": [list(e) for e in sorted(g.edges)],
    }


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise InvalidInputError(f"{what} JSON must be an object, not {type(data).__name__}")
    return data


def _list(data, what: str) -> list:
    if not isinstance(data, list):
        raise InvalidInputError(f"{what} must be a list, not {type(data).__name__}")
    return data


_INT = frozenset({int})


def _integer(value, what: str) -> int:
    # bool is an int subclass, but JSON true is no count
    if type(value) is not int:
        raise InvalidInputError(f"{what} must be an integer, not {value!r}")
    return value


def _pair(item, what: str) -> list:
    if not (isinstance(item, list) and len(item) == 2):
        raise InvalidInputError(f"{what} must be a two-element list, not {item!r}")
    return item


def graph_from_json(data: dict) -> LabeledGraph:
    data = _object(data, "graph")
    try:
        n, edges, levels = data["vertices"], data["edges"], data["d"]
    except KeyError as missing:
        raise InvalidInputError(f"graph JSON lacks key {missing}")
    edges = [tuple(_integer(v, "edge end") for v in _pair(e, "edge"))
             for e in _list(edges, "edges")]
    levels = [_integer(v, "level") for v in _list(levels, "d")]
    return LabeledGraph.build(_integer(n, "vertices"), edges, levels)


def _cells_to_json(t: Table) -> list:
    return [[list(s), c] for s, c in t.items()]


def _cells_from_json(cells) -> Table:
    """A table from a JSON cell list, each cell checked in one pass: a
    two-element list of a list of integer coordinates and an integer count.
    Equal states merge and zero counts drop, as in `Table`."""
    pairs = []
    for cell in _list(cells, "cells"):
        state, count = _pair(cell, "cell")
        if not _INT.issuperset(map(type, _list(state, "state"))):
            _integer(next(c for c in state if type(c) is not int), "coordinate")  # raises
        pairs.append((tuple(state), _integer(count, "count")))
    return Table(pairs)


def table_to_json(t: Table, space: StateSpace) -> dict:
    return {"d": list(space.levels), "cells": _cells_to_json(t)}


def packed_tables_text(packed, space: StateSpace) -> list[str]:
    """The text of json.dumps([table_to_json(unpack_table(b, space), space)
    for b in packed], sort_keys=True), written straight from tables packed
    one byte per cell in index order, in one piece per table.

    Each cell's '[<state>, <count>], ' fragment is built once, for every
    count up to the bitwise OR of the cell's counts, and shared by every
    table.  The OR is below twice the cell's largest count, so the fragments
    grow with the counts present, not with 255 per cell."""
    if not packed:
        return ["[]"]
    ored = functools.reduce(operator.or_, (int.from_bytes(b, "big") for b in packed))
    tops = ored.to_bytes(space.total_cells, "big")
    frags = [[""] + [f"[{json.dumps(s)}, {c}], " for c in range(1, top + 1)]
             for s, top in zip(space.states_by_index, tops)]
    end = '], "d": ' + json.dumps(space.levels) + "}, "
    get = list.__getitem__
    pieces = ['{"cells": [' + "".join(map(get, frags, b))[:-2] + end for b in packed]
    pieces[0] = "[" + pieces[0]
    pieces[-1] = pieces[-1][:-2] + "]"
    return pieces


def table_from_json(data: dict) -> tuple[Table, StateSpace]:
    data = _object(data, "table")
    try:
        space = StateSpace(tuple(_integer(v, "level") for v in _list(data["d"], "d")))
        table = _cells_from_json(data["cells"])
    except KeyError as missing:
        raise InvalidInputError(f"table JSON lacks key {missing}")
    for s, _ in table.items():
        state_index(s, space)  # raises for a state outside the space
    return table, space


def move_to_json(m: Move) -> dict:
    return {"plus": _cells_to_json(m.plus), "minus": _cells_to_json(m.minus)}


def move_from_json(data: dict) -> Move:
    data = _object(data, "move")
    try:
        return Move(_cells_from_json(data["plus"]), _cells_from_json(data["minus"]))
    except KeyError as missing:
        raise InvalidInputError(f"move JSON lacks key {missing}")


def moves_from_json(data: Union[list, dict]) -> list[Move]:
    if isinstance(data, dict):
        if "moves" not in data:
            raise InvalidInputError('move JSON object lacks key "moves"')
        data = data["moves"]
    return [move_from_json(m) for m in _list(data, "moves")]


def moves_to_json(moves) -> list:
    return [move_to_json(m) for m in moves]


def load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror or exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}")
