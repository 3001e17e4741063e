"""Labeled undirected graphs, their quadratic moves, and marginal maps.

The graph-side operations: the quadratic swap moves of the covering
conditional-independence statements, the 0/1 clique-marginal matrix, the
components left after removing vertices, and coning.

`global_markov_moves` builds the quadratic moves straight from the vertex
sets whose induced graph is disconnected, each move once.  The tests check
it against the statement path in `tests/reference.py`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import IncompatibleShapeError, InvalidStateError, TooLargeError
from .tables import Move, StateSpace, Table, state_index

# Hard cap on the vertices of a graph whose quadratic moves are listed: only
# the moves walk the 2^N vertex subsets.
MAX_MOVE_VERTICES = 12


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph on vertices 1..n with a level per vertex."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]
    levels: StateSpace

    def __post_init__(self):
        if self.n_vertices < 2:
            raise InvalidStateError("graphs need at least two vertices")
        if self.levels.n_vertices != self.n_vertices:
            raise IncompatibleShapeError(
                f"{self.n_vertices} vertices but {self.levels.n_vertices} levels"
            )
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise InvalidStateError(f"loop at vertex {u}")
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise InvalidStateError(f"edge {e} outside 1..{self.n_vertices}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]], levels: Iterable[int]) -> "LabeledGraph":
        return cls(n, frozenset((u, v) for u, v in edges), StateSpace(tuple(levels)))

    @property
    def vertices(self) -> range:
        return range(1, self.n_vertices + 1)

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}


def _block_states(space: StateSpace, vertices: list[int]):
    """All assignments to an ascending vertex list, lexicographic."""
    return itertools.product(*(range(1, space.levels[v - 1] + 1) for v in vertices))


def global_markov_moves(g: LabeledGraph) -> list[Move]:
    """Union of the quadratic moves over all covering statements, each built once.

    A move swaps, between two cells x and y that agree off a vertex set D
    and differ at every vertex of D, their values on a part D_A of D.  It
    belongs to some covering statement exactly when D_A is a nonempty union
    of components of the induced graph G[D] and D_B = D - D_A is nonempty:
    then C = V - D separates the two parts.  So the moves come from the
    subsets D whose induced graph is disconnected, the splits of its
    components in two, the shared values off D, and the unordered pairs of
    value vectors on D that differ everywhere.  Each move is reached from
    both of its sides; only the side holding its smallest cell is kept, as
    the plus part (`Move.canonical`).  The list is in `Move.key` order and
    equals the statement path of `tests/reference.py`: the moves of every
    covering statement, oriented and deduplicated.
    """
    n = g.n_vertices
    if n > MAX_MOVE_VERTICES:
        raise TooLargeError(f"quadratic moves capped at {MAX_MOVE_VERTICES} vertices")
    everyone = frozenset(g.vertices)
    found = []
    for size in range(2, n + 1):
        for d in itertools.combinations(g.vertices, size):
            comps = components_without(g, everyone.difference(d))
            if len(comps) < 2:
                continue
            rest = [v for v in g.vertices if v not in d]
            # the state whose values on d, then on rest, are the given ones
            order = list(d) + rest
            gather = operator.itemgetter(*(order.index(w) for w in g.vertices))
            vecs = list(_block_states(g.levels, list(d)))
            # x < y: they first differ at min(d)
            pairs = [
                (u, v)
                for u in vecs
                for v in vecs
                if u[0] < v[0] and all(a != b for a, b in zip(u, v))
            ]
            outside = list(_block_states(g.levels, rest))
            # comps[0] holds min(d); keep it in D_A so each split comes once
            for pick in range(2 ** (len(comps) - 1) - 1):
                part_a = comps[0].union(*(c for j, c in enumerate(comps[1:]) if pick >> j & 1))
                in_a = [v in part_a for v in d]
                # x' = (y on D_A, x on D_B) and y' = (x on D_A, y on D_B) make
                # the minus part.  x < x' as min(d) is in D_A, and x < y' iff x
                # is lower at min(D_B): keep only those pairs, whose plus part
                # then holds the move's smallest cell
                b0 = in_a.index(False)
                for u, v in pairs:
                    if u[b0] > v[b0]:
                        continue
                    up = tuple(b if a_side else a for a, b, a_side in zip(u, v, in_a))
                    vp = tuple(a if a_side else b for a, b, a_side in zip(u, v, in_a))
                    for z in outside:
                        x, y = gather(u + z), gather(v + z)
                        xp, yp = gather(up + z), gather(vp + z)
                        found.append((x, y) + ((xp, yp) if xp < yp else (yp, xp)))
    found.sort()
    return [
        Move(Table._trusted(((x, 1), (y, 1))), Table._trusted(((xp, 1), (yp, 1))))
        for x, y, xp, yp in found
    ]


def maximal_cliques(g: LabeledGraph) -> list[tuple[int, ...]]:
    """Pivoting Bron-Kerbosch; cliques returned sorted."""
    adj = g.adjacency
    out: list[tuple[int, ...]] = []

    def expand(r: set, p: set, x: set):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(g.vertices), set())
    return sorted(out)


class MarginMap:
    """The 0/1 matrix taking a table to its stacked maximal-clique marginals.

    Rows are blocks: one block per maximal clique, one row per clique-state
    (clique states in lexicographic order).  Entry((C, y_C), x) = 1 iff the
    restriction of x to C equals y_C.
    """

    def __init__(self, g: LabeledGraph):
        self.graph = g
        self.space = g.levels
        self.cliques = tuple(maximal_cliques(g))
        self.block_sizes = []
        self.block_starts = []
        row = 0
        for cl in self.cliques:
            size = 1
            for v in cl:
                size *= self.space.levels[v - 1]
            self.block_starts.append(row)
            self.block_sizes.append(size)
            row += size
        self.n_rows = row
        self.n_cols = self.space.total_cells
        # per-cell row incidences, in cell index order
        self._rows_of_cell = [
            tuple(s + self._clique_state_rank(ci, x) for ci, s in enumerate(self.block_starts))
            for x in self.space.states_by_index
        ]

    def _clique_state_rank(self, clique_idx: int, x) -> int:
        rank = 0
        for v in self.cliques[clique_idx]:
            rank = rank * self.space.levels[v - 1] + (x[v - 1] - 1)
        return rank

    def rows_of_cell(self, cell_index: int) -> tuple[int, ...]:
        return self._rows_of_cell[cell_index]

    def row_label(self, row: int) -> str:
        """Human-readable '(clique; clique-state)' label."""
        for ci, cl in enumerate(self.cliques):
            start, size = self.block_starts[ci], self.block_sizes[ci]
            if start <= row < start + size:
                rank = row - start
                coords = []
                for v in reversed(cl):
                    d = self.space.levels[v - 1]
                    coords.append(rank % d + 1)
                    rank //= d
                state = ",".join(map(str, reversed(coords)))
                verts = ",".join(map(str, cl))
                return f"({verts}; {state})"
        raise IndexError(row)

    def columns(self) -> list[tuple[int, ...]]:
        """Dense 0/1 column vectors, one per cell, in cell index order."""
        cols = []
        for rows in self._rows_of_cell:
            col = [0] * self.n_rows
            for r in rows:
                col[r] = 1
            cols.append(tuple(col))
        return cols

    @cached_property
    def column_basis(self) -> tuple[int, ...]:
        """Cell indices of a maximal independent set of columns.

        Picked greedily in cell order by the integer elimination of `cones`,
        once per map; its length is the rank of the marginal cone.
        """
        from .cones import _independent_subset  # cones imports this module

        return tuple(_independent_subset(self.columns()))

    @property
    def rank(self) -> int:
        return len(self.column_basis)

    def margins(self, t: Table) -> tuple[int, ...]:
        out = [0] * self.n_rows
        rows_of_cell, space = self._rows_of_cell, self.space
        for s, c in t.items():
            for r in rows_of_cell[state_index(s, space)]:
                out[r] += c
        return tuple(out)

    def validate_key(self, key: tuple[int, ...]) -> None:
        if len(key) != self.n_rows:
            raise IncompatibleShapeError(f"margin vector length {len(key)} != {self.n_rows} rows")
        if any(y < 0 for y in key):
            raise IncompatibleShapeError("margin vector must be entrywise nonnegative")
        sums = {sum(key[s : s + n]) for s, n in zip(self.block_starts, self.block_sizes)}
        if len(sums) > 1:
            raise IncompatibleShapeError(f"inconsistent block sums {sorted(sums)}")


def margin_map(g: LabeledGraph) -> MarginMap:
    return MarginMap(g)


def margins(am: MarginMap, t: Table) -> tuple[int, ...]:
    """Exact integer clique marginals of a table.

    Each state finds its cell through `state_index`, so the first state
    outside the map's space, in cell order, raises InvalidStateError.
    """
    return am.margins(t)


def components_without(g: LabeledGraph, removed: frozenset[int]) -> list[frozenset[int]]:
    left = [v for v in g.vertices if v not in removed]
    seen = set()
    comps = []
    for v in left:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return sorted(comps, key=lambda c: sorted(c))


def cone_graph(g: LabeledGraph, d0: int) -> LabeledGraph:
    """Add an apex vertex (numbered n+1, level d0) adjacent to every vertex."""
    if d0 < 2:
        raise InvalidStateError("apex level must be >= 2")
    apex = g.n_vertices + 1
    edges = set(g.edges) | {(v, apex) for v in g.vertices}
    return LabeledGraph.build(apex, edges, tuple(g.levels.levels) + (d0,))
