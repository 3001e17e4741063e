"""Named models: graphs, levels, and pinned companion data.

Presets bundle everything an experiment needs: the graph (when one
exists) and optional pinned tables and move sets.  A model's prime family
is worked out from its graph by `families.closed_form_family`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .errors import InvalidStateError
from .families import K2NShape, cycle_graph, k2n_graph
from .graphs import LabeledGraph, cone_graph
from .k33 import k33_graph
from .latin import latin_table, mols
from .tables import Move, StateSpace, Table


@dataclass
class Preset:
    name: str
    graph: Optional[LabeledGraph]
    space: StateSpace
    pinned_table: Optional[Table] = None
    pinned_moves: list[Move] = field(default_factory=list)


def _e_simple() -> Preset:
    space = StateSpace((2,))
    moves = [
        Move(Table({(1,): 2}), Table({(2,): 2})),
        Move(Table({(1,): 3}), Table({(2,): 3})),
    ]
    return Preset(
        name="e-simple",
        graph=None,
        space=space,
        pinned_moves=moves,
    )


def _seth_c4_3() -> Preset:
    g = cycle_graph(4, level=3)
    return Preset(
        name="seth-c4-3",
        graph=g,
        space=g.levels,
        pinned_table=latin_table(g, mols(3)),
    )


def resolve(name: str, k2n_levels: Optional[tuple[int, ...]] = None) -> Preset:
    """Look up a preset by name; `k2n` takes the second-group levels."""
    key = name.lower().replace("_", "-")
    if key in ("c4", "c5", "c6"):
        g = cycle_graph(int(key[1]))
        return Preset(name=key, graph=g, space=g.levels)
    if key in ("k22", "k23"):
        g = k2n_graph(K2NShape((2, 2) if key == "k22" else (2, 2, 2)))
        return Preset(name=key, graph=g, space=g.levels)
    if key == "k2n":
        if not k2n_levels or len(k2n_levels) < 2:
            raise InvalidStateError("k2n preset needs the second-group levels (>= 2 of them)")
        g = k2n_graph(K2NShape(tuple(k2n_levels)))
        return Preset(name=f"k2n{k2n_levels}", graph=g, space=g.levels)
    if key == "g48":
        g = k2n_graph(K2NShape((2, 4)))
        return Preset(name="g48", graph=g, space=g.levels)
    if key == "square-pyramid":
        g = cone_graph(cycle_graph(4), 2)
        return Preset(name="square-pyramid", graph=g, space=g.levels)
    if key == "k33":
        g = k33_graph()
        return Preset(name="k33", graph=g, space=g.levels)
    if key == "g154":
        g = k33_graph()
        edges = set(g.edges) - {(3, 6)}
        g154 = LabeledGraph.build(6, edges, [2] * 6)
        return Preset(name="g154", graph=g154, space=g154.levels)
    if key == "seth-c4-3":
        return _seth_c4_3()
    if key == "e-simple":
        return _e_simple()
    raise InvalidStateError(f"unknown preset {name!r}")


PRESET_NAMES = (
    "c4", "c5", "c6", "k22", "k23", "k2n", "square-pyramid", "g48",
    "k33", "g154", "seth-c4-3", "e-simple",
)


def table1_expected() -> dict:
    """Pinned expectations for the summary-table run, keyed by preset."""
    text = resources.files("fiberwalk.data").joinpath("table1_expected.json").read_text()
    return json.loads(text)
