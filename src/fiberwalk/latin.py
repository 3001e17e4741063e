"""Mutually orthogonal Latin squares over small finite fields and the
isolated-table construction they induce on triangle-free graphs.

Superposing N-2 pairwise orthogonal squares of order d yields a 0/1 table
over [d]^N whose 2-way margins are all ones: strictly positive, strictly
inside the marginal cone, yet no quadratic swap applies, so the table is
stuck alone in a fiber that provably contains more points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cones import MAX_FACET_COLUMNS, MAX_FACET_RANK, cone_facets, is_relative_interior
from .errors import InvalidStateError, UnsupportedLevelsError
from .graphs import (
    LabeledGraph,
    components_without,
    global_markov_moves,
    margin_map,
    margins,
    maximal_cliques,
)
from .tables import Table

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)

# pinned irreducible polynomials (coefficient tuples, ascending degree)
_IRREDUCIBLE = {
    4: (2, (1, 1, 1)),   # x^2 + x + 1 over GF(2)
    8: (2, (1, 1, 0, 1)),  # x^3 + x + 1 over GF(2)
    9: (3, (1, 0, 1)),   # x^2 + 1 over GF(3)
}


def _field_tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables of GF(q), elements indexed 0..q-1."""
    if q in (2, 3, 5, 7):
        add = [[(i + j) % q for j in range(q)] for i in range(q)]
        mul = [[(i * j) % q for j in range(q)] for i in range(q)]
        return add, mul
    p, poly = _IRREDUCIBLE[q]
    deg = len(poly) - 1
    # element i <-> base-p digits = polynomial coefficients (ascending)
    def digits(i):
        out = []
        for _ in range(deg):
            out.append(i % p)
            i //= p
        return out

    def undigits(ds):
        v = 0
        for d in reversed(ds):
            v = v * p + d
        return v

    def polymul(a, b):
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the pinned irreducible polynomial
        for k in range(len(prod) - 1, deg - 1, -1):
            c = prod[k]
            if c:
                for j in range(deg + 1):
                    prod[k - deg + j] = (prod[k - deg + j] - c * poly[j]) % p
        return prod[:deg]

    q_elems = [digits(i) for i in range(q)]
    add = [[undigits([(x + y) % p for x, y in zip(a, b)]) for b in q_elems] for a in q_elems]
    mul = [[undigits(polymul(a, b)) for b in q_elems] for a in q_elems]
    return add, mul


@dataclass(frozen=True)
class LatinSquare:
    """d x d array, entries in 1..d, every row and column a permutation."""

    order: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d, rows = self.order, self.cells
        full = set(range(1, d + 1))
        if len(rows) != d or any(len(r) != d for r in rows):
            raise InvalidStateError("cells must be a d x d array")
        for r in rows:
            if set(r) != full:
                raise InvalidStateError(f"row {r} is not a permutation of 1..{d}")
        for j in range(d):
            if {r[j] for r in rows} != full:
                raise InvalidStateError(f"column {j + 1} is not a permutation of 1..{d}")

    def value(self, i: int, j: int) -> int:
        return self.cells[i - 1][j - 1]


def are_orthogonal(l1: LatinSquare, l2: LatinSquare) -> bool:
    """True iff superposing the squares shows every ordered pair once."""
    if l1.order != l2.order:
        raise InvalidStateError("orders differ")
    d = l1.order
    pairs = {(l1.cells[i][j], l2.cells[i][j]) for i in range(d) for j in range(d)}
    return len(pairs) == d * d


def mols(q: int) -> list[LatinSquare]:
    """The q-1 pairwise orthogonal squares L^(m)[i,j] = m*i + j over GF(q)."""
    if q not in SUPPORTED_ORDERS:
        raise UnsupportedLevelsError(f"order {q} not supported (prime powers up to 9)")
    add, mul = _field_tables(q)
    squares = []
    for m in range(1, q):
        rows = tuple(
            tuple(add[mul[m][i]][j] + 1 for j in range(q)) for i in range(q)
        )
        squares.append(LatinSquare(q, rows))
    return squares


def latin_table(g: LabeledGraph, squares: list[LatinSquare]) -> Table:
    """The 0/1 table on states (i, j, L1[i,j], ..., L_{N-2}[i,j]).

    Needs N-2 pairwise orthogonal squares whose order equals every level
    of g; all 2-way margins of the result are all-ones.
    """
    n = g.n_vertices
    if len(squares) != n - 2:
        raise InvalidStateError(f"need exactly {n - 2} squares, got {len(squares)}")
    orders = {sq.order for sq in squares}
    if len(orders) != 1:
        raise InvalidStateError("squares must share one order")
    d0 = orders.pop()
    if any(d != d0 for d in g.levels.levels):
        raise UnsupportedLevelsError(f"every level must equal the order {d0}")
    for i, s1 in enumerate(squares):
        for s2 in squares[i + 1 :]:
            if not are_orthogonal(s1, s2):
                raise InvalidStateError("squares are not pairwise orthogonal")
    # one cell per (i, j), so the cells come sorted and distinct
    return Table._trusted(tuple(
        ((i, j) + tuple(sq.value(i, j) for sq in squares), 1)
        for i in range(1, d0 + 1)
        for j in range(1, d0 + 1)
    ))


def _has_triangle(g: LabeledGraph) -> bool:
    return any(len(c) >= 3 for c in maximal_cliques(g))


def _has_cut_vertex(g: LabeledGraph) -> bool:
    base = len(components_without(g, frozenset()))
    return any(
        len(components_without(g, frozenset({v}))) > base for v in g.vertices
    )


@dataclass
class DisconnectionReport:
    precondition_failures: list[str]
    component_size: Optional[int] = None
    margins_strictly_positive: Optional[bool] = None
    interior: Optional[bool] = None
    interior_method: Optional[str] = None
    fiber_has_second_element: Optional[bool] = None

    @property
    def isolated_interior_point(self) -> bool:
        return (
            not self.precondition_failures
            and self.component_size == 1
            and bool(self.interior)
            and bool(self.fiber_has_second_element)
        )


def _uniform_mixture_certificate(am, y: tuple[int, ...], degree: int) -> bool:
    """Exact relative-interior certificate for highly symmetric margins.

    If total_cells * y equals degree * (column sum of the margin matrix)
    entrywise, then y is a strictly positive combination of all columns,
    hence lies in the relative interior of the cone they generate.
    """
    colsum = [0] * am.n_rows
    for i in range(am.n_cols):
        for r in am.rows_of_cell(i):
            colsum[r] += 1
    total = am.n_cols
    return all(total * yv == degree * cs for yv, cs in zip(y, colsum))


def verify_disconnection(g: LabeledGraph, t: Table, node_cap: int = 100_000) -> DisconnectionReport:
    """Check that t is stuck alone in a fiber with interior margins.

    Reports the component size under the graph's quadratic moves, strict
    margin positivity, relative interiority (facets when the rank budget
    allows, else the exact uniform-mixture certificate), and a second
    fiber element obtained by permuting symbols at one vertex.
    """
    failures = []
    if _has_triangle(g):
        failures.append("graph contains a triangle")
    if _has_cut_vertex(g):
        failures.append("graph has a cut vertex (not two-connected)")
    if failures:
        return DisconnectionReport(precondition_failures=failures)

    from .engine import connected_component

    am = margin_map(g)
    y = margins(am, t)
    moves = global_markov_moves(g)
    comp = connected_component(t, moves, g.levels, node_cap=node_cap)

    if am.n_cols <= MAX_FACET_COLUMNS and am.rank <= MAX_FACET_RANK:
        interior = is_relative_interior(am, y, cone_facets(am))
        method = "facets"
    elif _uniform_mixture_certificate(am, y, t.degree):
        interior = True
        method = "uniform-mixture"
    else:
        interior = None
        method = "unchecked"

    # image under swapping symbols 1 and 2 at vertex 1: same margins here
    # because all 2-way margins of t are constant on blocks
    def swap_first(state):
        c = state[0]
        return ((2 if c == 1 else 1 if c == 2 else c),) + state[1:]

    image = Table([(swap_first(s), c) for s, c in t.items()])
    second = image != t and margins(am, image) == y

    return DisconnectionReport(
        precondition_failures=[],
        component_size=comp.size if not comp.truncated else None,
        margins_strictly_positive=all(v > 0 for v in y),
        interior=interior,
        interior_method=method,
        fiber_has_second_element=second,
    )
