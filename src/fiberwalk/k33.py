"""The six-vertex complete-bipartite connectivity experiment.

A pinned quartic pair with equal margins, padded by one or two copies of a
fixed degree-2 monomial: with one copy the two padded terms sit in
disjoint 18-element components of the quadratic-move graph; with two
copies they join a single 90-element component.  The optional search mode
re-discovers such a witness from scratch, on the engine's integer tables,
instead of trusting the pinned one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import _kernel as kernel
from .engine import _cell_codes, are_connected, connected_component, pack_move_set, unpack_table
from .graphs import LabeledGraph, global_markov_moves, margin_map, margins
from .tables import Table

# closures larger than this leave a search candidate undecided
SEARCH_COMPONENT_CAP = 512
# the pinned closures hold 18, 18 and 90 tables and the path search stays
# inside the 90, so this cap never binds
RUN_NODE_CAP = 4096
# candidate pairs k33_search tries unless told otherwise
SEARCH_MAX_PAIRS = 200


def k33_graph() -> LabeledGraph:
    edges = [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
    return LabeledGraph.build(6, edges, [2] * 6)


def _cells(*patterns: str) -> Table:
    """Parse 'xyz|uvw' cell strings over the two vertex groups."""
    out = []
    for s in patterns:
        left, right = s.split("|")
        out.append((tuple(int(c) for c in left + right), 1))
    return Table(out)


@dataclass(frozen=True)
class K33Witness:
    u_plus: Table
    u_minus: Table
    w: Table


def k33_witness() -> K33Witness:
    """The pinned degree-4 pair and degree-2 cofactor."""
    return K33Witness(
        u_plus=_cells("121|222", "212|212", "122|112", "222|122"),
        u_minus=_cells("221|222", "112|212", "222|112", "122|122"),
        w=_cells("111|111", "221|111"),
    )


def k33_run() -> dict:
    """Reproduce the pinned component sizes (18 / 18 disjoint, 90 joint)."""
    g = k33_graph()
    wit = k33_witness()
    am = margin_map(g)
    if margins(am, wit.u_plus) != margins(am, wit.u_minus):
        raise AssertionError("pinned quartic pair has unequal margins")
    moves = global_markov_moves(g)

    c_plus = connected_component(wit.u_plus + wit.w, moves, g.levels, node_cap=RUN_NODE_CAP)
    c_minus = connected_component(wit.u_minus + wit.w, moves, g.levels, node_cap=RUN_NODE_CAP)
    big_start = wit.u_plus + wit.w + wit.w
    big_goal = wit.u_minus + wit.w + wit.w
    c_big = connected_component(big_start, moves, g.levels, node_cap=RUN_NODE_CAP)

    inconclusive = c_plus.truncated or c_minus.truncated or c_big.truncated
    disjoint = None
    contains_goal = None
    path_len = None
    if not inconclusive:
        disjoint = c_plus.member_set.isdisjoint(c_minus.member_set)
        contains_goal = c_big.contains(big_goal)
        if contains_goal:
            res = are_connected(big_start, big_goal, moves, g.levels, node_cap=RUN_NODE_CAP)
            path_len = len(res.path)
    return {
        "moves": len(moves),
        "c18a": c_plus.size,
        "c18b": c_minus.size,
        "c90": c_big.size,
        "disjoint": disjoint,
        "contains_both_endpoints": contains_goal,
        "path_length": path_len,
        "inconclusive": inconclusive,
    }


def k33_search(max_pairs: int = SEARCH_MAX_PAIRS, graph: Optional[LabeledGraph] = None) -> Optional[dict]:
    """Search for a (pair, cofactor) witness instead of using the pinned one.

    Scans equal-margin degree-4 0/1 table pairs with disjoint supports that
    the quadratic moves fail to connect, then degree-2 cofactors w with
    (u+w, v+w) still split but (u+2w, v+2w) joined.  The tables are the
    engine's integers, margin key above the packed cells (see
    `engine._cell_codes`); the 635,376 of K(3,3) take about 0.5 s to
    enumerate and group, margin classes in key order, each class in
    state-combination order.  max_pairs bounds the candidate pairs tried.
    Returns the first witness found, as Tables, or None.  Nothing is
    asserted about the outcome.
    """
    if max_pairs == 0:
        return None  # no pair may be tried, so nothing is enumerated
    g = graph if graph is not None else k33_graph()
    am = margin_map(g)
    space = g.levels
    pm = pack_move_set(global_markov_moves(g), space)
    n = am.n_cols
    cells = 8 * n
    mask = (1 << cells) - 1
    # degree-4 margin fields are at most 4, so 4 bits hold them
    codes = _cell_codes(am, 4)
    # stable on the key alone: each class keeps its combination order
    tables = sorted(map(sum, itertools.combinations(codes, 4)), key=lambda t: t >> cells)
    pads = [sum(c) for c in itertools.combinations_with_replacement([c & mask for c in codes], 2)]

    def packed(t: int) -> bytes:
        return t.to_bytes(n, "big")

    def split(u: int, v: int, pad: int) -> Optional[bool]:
        visited, truncated = kernel.component(packed(u + pad), pm, SEARCH_COMPONENT_CAP)
        return None if truncated else packed(v + pad) not in visited

    tried = 0
    for _, cls in itertools.groupby(tables, key=lambda t: t >> cells):
        group = [t & mask for t in cls]
        for u, v in itertools.combinations(group, 2):
            if u & v:  # 0/1 cells: a shared cell
                continue
            if tried >= max_pairs:
                return None
            tried += 1
            if split(u, v, 0) is not True:
                continue
            for w in pads:
                if split(u, v, w) is True and split(u, v, 2 * w) is False:
                    u_plus, u_minus, w = (unpack_table(packed(t), space) for t in (u, v, w))
                    return {"u_plus": u_plus, "u_minus": u_minus, "w": w, "pairs_tried": tried}
    return None
