"""The six-vertex complete-bipartite connectivity experiment.

A pinned quartic pair with equal margins, padded by one or two copies of a
fixed degree-2 monomial: with one copy the two padded terms sit in
disjoint 18-element components of the quadratic-move graph; with two
copies they join a single 90-element component.  The optional search mode
re-discovers such a witness from scratch instead of trusting the pinned
one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .engine import are_connected, connected_component
from .errors import InvalidStateError
from .graphs import LabeledGraph, global_markov_moves, margin_map, margins
from .tables import Table

# closures larger than this leave a search candidate undecided
SEARCH_COMPONENT_CAP = 512


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


def k33_run(cap: int = 4096) -> dict:
    """Reproduce the pinned component sizes (18 / 18 disjoint, 90 joint)."""
    if cap < 128:
        raise InvalidStateError("cap too small to settle the components")
    g = k33_graph()
    wit = k33_witness()
    am = margin_map(g)
    if margins(am, wit.u_plus) != margins(am, wit.u_minus):
        raise AssertionError("pinned quartic pair has unequal margins")
    moves = global_markov_moves(g)

    c_plus = connected_component(wit.u_plus + wit.w, moves, g.levels, node_cap=cap)
    c_minus = connected_component(wit.u_minus + wit.w, moves, g.levels, node_cap=cap)
    big_start = wit.u_plus + wit.w + wit.w
    big_goal = wit.u_minus + wit.w + wit.w
    c_big = connected_component(big_start, moves, g.levels, node_cap=cap)

    inconclusive = c_plus.truncated or c_minus.truncated or c_big.truncated
    disjoint = None
    contains_goal = None
    path_len = None
    if not inconclusive:
        disjoint = c_plus.member_set.isdisjoint(c_minus.member_set)
        contains_goal = c_big.contains(big_goal)
        if contains_goal:
            res = are_connected(big_start, big_goal, moves, g.levels, node_cap=cap)
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


def k33_search(
    max_pairs: int = 200,
    max_tables: Optional[int] = None,
    graph: Optional[LabeledGraph] = None,
) -> Optional[dict]:
    """Search for a (pair, cofactor) witness instead of using the pinned one.

    Scans equal-margin degree-4 table pairs that the quadratic moves fail
    to connect, then degree-2 cofactors w with (u+w, v+w) still split but
    (u+2w, v+2w) joined.  Every degree-4 0/1 table is enumerated first
    (635,376 on K(3,3)); only max_tables bounds that phase, and max_pairs
    bounds the candidate pairs tried after it.  Returns the first witness
    found or None.  Nothing is asserted about the outcome.
    """
    if max_pairs == 0:
        return None  # no pair may be tried, so nothing is enumerated
    g = graph if graph is not None else k33_graph()
    am = margin_map(g)
    space = g.levels
    moves = global_markov_moves(g)

    by_margin: dict[tuple, list[Table]] = {}
    states = list(space.states())
    for n_seen, combo in enumerate(itertools.combinations(states, 4)):
        if max_tables is not None and n_seen >= max_tables:
            break
        t = Table([(s, 1) for s in combo])
        by_margin.setdefault(margins(am, t), []).append(t)

    def split(u: Table, v: Table, pad: Table) -> Optional[bool]:
        comp = connected_component(u + pad, moves, space, node_cap=SEARCH_COMPONENT_CAP)
        if comp.truncated:
            return None
        return not comp.contains(v + pad)

    tried = 0
    for key in sorted(by_margin):
        group = by_margin[key]
        if len(group) < 2:
            continue
        for u, v in itertools.combinations(group, 2):
            if set(u.support) & set(v.support):
                continue
            if tried >= max_pairs:
                return None
            tried += 1
            if split(u, v, Table()) is not True:
                continue
            for w_states in itertools.combinations_with_replacement(states, 2):
                w = Table([(s, 1) for s in w_states])
                if split(u, v, w) is True and split(u, v, w + w) is False:
                    return {
                        "u_plus": u,
                        "u_minus": v,
                        "w": w,
                        "pairs_tried": tried,
                    }
    return None
