"""Labeled undirected graphs, separation statements, and marginal maps.

The graph-side operations: graphical separation, enumeration of the
covering conditional-independence statements, the quadratic swap moves
those statements induce, the 0/1 clique-marginal matrix, the components
left after removing vertices, and coning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable

from .errors import IncompatibleShapeError, InvalidPartitionError, InvalidStateError, TooLargeError
from .tables import Move, StateSpace, Table, dedup_moves, state_index

VertexSet = FrozenSet[int]

# 3^N labelings are enumerated for statement generation; hard cap.
MAX_STATEMENT_VERTICES = 12


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


@dataclass(frozen=True)
class CIStatement:
    """Covering separation triple: part_a independent of part_b given part_c."""

    part_a: VertexSet
    part_b: VertexSet
    part_c: VertexSet

    def __post_init__(self):
        a, b, c = map(frozenset, (self.part_a, self.part_b, self.part_c))
        if not a or not b:
            raise InvalidPartitionError("both separated sets must be nonempty")
        if a & b or a & c or b & c:
            raise InvalidPartitionError("statement sets must be pairwise disjoint")
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
        raise InvalidPartitionError("a and b must be nonempty")
    if a & b or a & c or b & c:
        raise InvalidPartitionError("a, b, c must be pairwise disjoint")
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
    if n > MAX_STATEMENT_VERTICES:
        raise TooLargeError(f"statement enumeration capped at {MAX_STATEMENT_VERTICES} vertices")
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


def _block_states(space: StateSpace, vertices: list[int]):
    """All assignments to an ascending vertex list, lexicographic."""
    return itertools.product(*(range(1, space.levels[v - 1] + 1) for v in vertices))


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


def global_markov_moves(g: LabeledGraph) -> list[Move]:
    """Union of the quadratic moves over all covering statements, deduplicated."""
    all_moves = []
    for st in global_markov_statements(g):
        all_moves.extend(ci_quadratic_moves(st, g.levels))
    return dedup_moves(all_moves)


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
        self._rows_of_cell: list[tuple[int, ...]] = []
        for x in self.space.states():
            rows = []
            for ci, cl in enumerate(self.cliques):
                rows.append(self.block_starts[ci] + self._clique_state_rank(ci, x))
            self._rows_of_cell.append(tuple(rows))

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
        for s, c in t.items():
            for r in self._rows_of_cell[state_index(s, self.space)]:
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
    """Exact integer clique marginals of a table."""
    t.validate_on(am.space)
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
