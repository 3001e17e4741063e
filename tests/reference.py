"""Reference paths the tests check the library against.

The quadratic moves of a graph by way of its conditional-independence
statements: list every covering statement (A, B, C) with C separating A
from B, build each statement's swap moves, then orient and deduplicate
them.  `graphs.global_markov_moves` builds the same list straight from the
vertex sets whose induced graph is disconnected, each move once; the tests
compare the two.

Also `members`, the unpacked members of a component report, and
`are_connected`, the bidirectional search as it was written with a state
dict per side, which the tests compare the library's search with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence

from fiberwalk import _kernel as kernel
from fiberwalk.engine import (
    DEFAULT_NODE_CAP,
    ConnectResult,
    PathStep,
    pack_move_set,
    pack_table,
    unpack_table,
)
from fiberwalk.errors import IncompatibleShapeError, TooLargeError
from fiberwalk.graphs import MAX_MOVE_VERTICES, LabeledGraph, _block_states
from fiberwalk.tables import Move, StateSpace, Table, apply_move

VertexSet = FrozenSet[int]


@dataclass(frozen=True)
class CIStatement:
    """Covering separation triple: part_a independent of part_b given part_c."""

    part_a: VertexSet
    part_b: VertexSet
    part_c: VertexSet

    def __post_init__(self):
        a, b, c = map(frozenset, (self.part_a, self.part_b, self.part_c))
        if not a or not b:
            raise ValueError("both separated sets must be nonempty")
        if a & b or a & c or b & c:
            raise ValueError("statement sets must be pairwise disjoint")
        if min(a) > min(b):
            a, b = b, a
        object.__setattr__(self, "part_a", a)
        object.__setattr__(self, "part_b", b)
        object.__setattr__(self, "part_c", c)

    def sort_key(self):
        return (tuple(sorted(self.part_a)), tuple(sorted(self.part_b)))

    def __repr__(self) -> str:
        fmt = lambda s: "{" + ",".join(map(str, sorted(s))) + "}"
        return f"{fmt(self.part_a)}_|_{fmt(self.part_b)}|{fmt(self.part_c)}"


def separates(g: LabeledGraph, a: Iterable[int], b: Iterable[int], c: Iterable[int]) -> bool:
    """True iff removing c breaks all paths from a to b (flood fill)."""
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    if not a or not b:
        raise ValueError("a and b must be nonempty")
    if a & b or a & c or b & c:
        raise ValueError("a, b, c must be pairwise disjoint")
    blocked = c
    seen = set(a)
    stack = list(a)
    while stack:
        u = stack.pop()
        if u in b:
            return False
        for w in g.adjacency[u]:
            if w not in blocked and w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def global_markov_statements(g: LabeledGraph) -> list[CIStatement]:
    """All covering statements (A,B,C): A+B+C = V, A,B nonempty, C separates.

    Exhaustive over the 3^N vertex labelings; normalized min(A) < min(B);
    deterministic order.
    """
    n = g.n_vertices
    if n > MAX_MOVE_VERTICES:
        raise TooLargeError(f"statement enumeration capped at {MAX_MOVE_VERTICES} vertices")
    found = set()
    for labels in itertools.product((0, 1, 2), repeat=n):
        a = frozenset(v for v in g.vertices if labels[v - 1] == 0)
        b = frozenset(v for v in g.vertices if labels[v - 1] == 1)
        if not a or not b or min(a) > min(b):
            continue
        c = frozenset(v for v in g.vertices if labels[v - 1] == 2)
        if separates(g, a, b, c):
            found.add(CIStatement(a, b, c))
    return sorted(found, key=CIStatement.sort_key)


def _assemble(n: int, parts: list[tuple[list[int], tuple[int, ...]]]) -> tuple[int, ...]:
    coords = [0] * n
    for verts, vals in parts:
        for v, x in zip(verts, vals):
            coords[v - 1] = x
    return tuple(coords)


def ci_quadratic_moves(st: CIStatement, space: StateSpace) -> list[Move]:
    """Swap moves of one statement: exchange the A-block between two cells
    that share the C-block, for every unordered pair of A-values and B-values.
    """
    va, vb, vc = (sorted(st.part_a), sorted(st.part_b), sorted(st.part_c))
    if max(va + vb + vc) > space.n_vertices:
        raise IncompatibleShapeError("statement mentions vertices outside the space")
    a_vals = list(_block_states(space, va))
    b_vals = list(_block_states(space, vb))
    moves = []
    for xc in _block_states(space, vc):
        for xa, xa2 in itertools.combinations(a_vals, 2):
            for xb, xb2 in itertools.combinations(b_vals, 2):
                plus = Table(
                    [
                        (_assemble(space.n_vertices, [(va, xa), (vb, xb), (vc, xc)]), 1),
                        (_assemble(space.n_vertices, [(va, xa2), (vb, xb2), (vc, xc)]), 1),
                    ]
                )
                minus = Table(
                    [
                        (_assemble(space.n_vertices, [(va, xa), (vb, xb2), (vc, xc)]), 1),
                        (_assemble(space.n_vertices, [(va, xa2), (vb, xb), (vc, xc)]), 1),
                    ]
                )
                moves.append(Move(plus, minus).canonical())
    return moves


def dedup_moves(moves: Iterable[Move]) -> list[Move]:
    """Canonicalize orientations and drop duplicates; deterministic order."""
    seen = {}
    for m in moves:
        c = m.canonical()
        seen.setdefault(c.key(), c)
    return [seen[k] for k in sorted(seen)]


def members(rep):
    """The members of a component report in canonical order, unpacked; None
    when the closure was truncated."""
    if rep.packed is None:
        return None
    return tuple(unpack_table(b, rep.space) for b in rep.packed)


def _trace(parents: dict, end: bytes) -> list[tuple[int, bool]]:
    steps = []
    cur = end
    while True:
        prev = parents[cur]
        if prev is None:
            break
        pb, k, fwd = prev
        steps.append((k, fwd))
        cur = pb
    steps.reverse()
    return steps


def are_connected(
    u: Table,
    v: Table,
    moves: Sequence[Move],
    space: StateSpace,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConnectResult:
    """Bidirectional BFS between two tables.

    Returns a replayable path on success (verified by re-applying it), a
    definite "not-connected" when either side is exhausted below its cap,
    and "inconclusive" when both searches were truncated first.
    """
    if node_cap < 1:
        raise TooLargeError("node_cap must be >= 1")
    bu, bv = pack_table(u, space), pack_table(v, space)  # before the moves, as above
    pm = pack_move_set(moves, space)
    if bu == bv:
        return ConnectResult("connected", [])

    sides = [
        {"parents": {bu: None}, "frontier": [bu], "done": False},
        {"parents": {bv: None}, "frontier": [bv], "done": False},
    ]

    def expand(side_idx: int) -> Optional[bytes]:
        side, other = sides[side_idx], sides[1 - side_idx]
        nxt = []
        for t in sorted(side["frontier"]):
            for k, fwd, nb in kernel.neighbors_signed(t, pm):
                if nb in side["parents"]:
                    continue
                if len(side["parents"]) >= node_cap:
                    side["done"] = "truncated"
                    side["frontier"] = nxt
                    return None
                side["parents"][nb] = (t, k, fwd)
                nxt.append(nb)
                if nb in other["parents"]:
                    side["frontier"] = nxt
                    return nb
        side["frontier"] = nxt
        if not nxt:
            side["done"] = "exhausted"
        return None

    meet = None
    while meet is None:
        active = [i for i in (0, 1) if not sides[i]["done"] and sides[i]["frontier"]]
        if not active:
            break
        i = min(active, key=lambda j: len(sides[j]["parents"]))
        meet = expand(i)

    if meet is None:
        if any(s["done"] == "exhausted" for s in sides):
            return ConnectResult("not-connected")
        return ConnectResult("inconclusive")

    fwd_steps = _trace(sides[0]["parents"], meet)
    back_steps = _trace(sides[1]["parents"], meet)
    # steps recorded from v toward the meeting point replay reversed
    steps = fwd_steps + [(k, not fwd) for k, fwd in reversed(back_steps)]
    path = [PathStep(moves[k], fwd) for k, fwd in steps]

    cur = u
    for st in path:
        cur = apply_move(cur, st.move if st.forward else st.move.reverse())
    if cur != v:
        raise AssertionError("path replay failed; kernel inconsistency")
    return ConnectResult("connected", path)
