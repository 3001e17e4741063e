"""Fiber search engine: components, connecting paths, fiber enumeration,
and extensional Markov-basis verification.

The engine walks the implicit graph whose nodes are tables and whose edges
are move applications (in either orientation).  Searches intern tables as
packed byte strings, one byte per cell, and ask the kernel backend for each
table's images; see fiberwalk._kernel.

The Markov-basis check needs no kernel.  It enumerates every table up to a
degree, so it writes each table as one integer: the packed cells as its
low big-endian bytes, the margin key above them.  It builds the fiber
graph's edges from the moves: a move applies to a table t exactly when t
is its negative part plus a table s of lower degree, so its edges are
(minus + s, plus + s) over every such s, found by integer additions alone.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Optional, Sequence

from . import _kernel as kernel
from .errors import FiberTooLargeError, FiberwalkError, TooLargeError
from .graphs import MarginMap
from .tables import Move, StateSpace, Table, apply_move, state_index

DEFAULT_NODE_CAP = 1_000_000
# total multisets enumerated by verify_markov_basis before giving up
DEFAULT_TABLE_BUDGET = 5_000_000
MAX_PACKED_DEGREE = 255


def pack_table(t: Table, space: StateSpace) -> bytes:
    """One byte per cell.  Moves keep the degree, so capping the degree here
    keeps every table a search reaches inside the byte range."""
    if t.degree > MAX_PACKED_DEGREE:
        raise TooLargeError(f"degree {t.degree} exceeds {MAX_PACKED_DEGREE}, the packed byte range")
    cells = bytearray(space.total_cells)
    for s, c in t.items():
        cells[state_index(s, space)] = c
    return bytes(cells)


def unpack_table(b: bytes, space: StateSpace) -> Table:
    states = space.states_by_index
    return Table([(states[i], c) for i, c in enumerate(b) if c])


def pack_move_set(moves: Sequence[Move], space: StateSpace):
    """The moves packed by the kernel over the cells of space.

    Packing is memoised by content: callers that search under the same
    moves (k33_run's four searches, k33_search's one per candidate) pack
    them once.  The key also holds the kernel's pack_moves, so a set is
    never handed to functions other than those of the backend that packed
    it, even when the kernel's names are rebound."""
    return _pack_move_set(tuple(moves), space, kernel.pack_moves)


@lru_cache(maxsize=8)
def _pack_move_set(moves: tuple[Move, ...], space: StateSpace, pack_moves):
    packed = []
    for m in moves:
        minus = tuple((state_index(s, space), c) for s, c in m.minus.items())
        plus = tuple((state_index(s, space), c) for s, c in m.plus.items())
        packed.append((minus, plus))
    return pack_moves(packed)


@dataclass
class ComponentReport:
    """BFS closure of a start table under a move set."""

    start: Table
    size: int
    truncated: bool
    space: StateSpace
    packed: Optional[tuple[bytes, ...]] = None  # sorted packed members; None above cap

    @cached_property
    def members(self) -> Optional[tuple[Table, ...]]:
        """The members in canonical order, unpacked once; None when not kept."""
        if self.packed is None:
            return None
        return tuple(unpack_table(b, self.space) for b in self.packed)

    @cached_property
    def member_set(self) -> frozenset[bytes]:
        """The packed members as a set, built once; empty when they were not kept."""
        return frozenset(self.packed or ())

    def contains(self, t: Table) -> bool:
        """Whether t is a member, by its packed bytes; a table that cannot be
        packed (degree above 255, a state outside the space) is not one."""
        try:
            b = pack_table(t, self.space)
        except FiberwalkError:
            return False
        return b in self.member_set


def connected_component(
    start: Table,
    moves: Sequence[Move],
    space: StateSpace,
    node_cap: int = DEFAULT_NODE_CAP,
    keep_members: bool = True,
) -> ComponentReport:
    """Exact component when its size fits in node_cap, else a truncated report."""
    if node_cap < 1:
        raise TooLargeError("node_cap must be >= 1")
    start.validate_on(space)
    pm = pack_move_set(moves, space)
    # the compiled kernel reads the cap as a C size; no closure is larger
    cap = min(node_cap, sys.maxsize)
    visited, truncated = kernel.component(pack_table(start, space), pm, cap)
    packed = tuple(sorted(visited)) if keep_members and not truncated else None
    return ComponentReport(start=start, size=len(visited), truncated=truncated, space=space,
                           packed=packed)


@dataclass
class PathStep:
    move: Move
    forward: bool  # False means the move was applied in reverse


@dataclass
class ConnectResult:
    status: str  # "connected" | "not-connected" | "inconclusive"
    path: Optional[list[PathStep]] = None

    @property
    def connected(self) -> bool:
        return self.status == "connected"


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
    u.validate_on(space)
    v.validate_on(space)
    pm = pack_move_set(moves, space)
    bu, bv = pack_table(u, space), pack_table(v, space)
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


def enumerate_fiber(am: MarginMap, key: tuple[int, ...], size_cap: int = 100_000) -> frozenset[Table]:
    """All nonnegative tables with the given margin vector.

    Backtracks over cells in index order with an explicit stack (so the
    cell count is not bounded by the recursion limit), bounding each count
    by the running residual margins and forcing residuals of completed
    rows to zero.  Raises FiberTooLargeError beyond size_cap.
    """
    am.validate_key(tuple(key))
    space = am.space
    n_cells = am.n_cols
    residual = list(key)
    # rows whose incident cells are exhausted after cell i must be at zero
    last_cell = [0] * am.n_rows
    for i in range(n_cells):
        for r in am.rows_of_cell(i):
            last_cell[r] = i
    finishing = [[] for _ in range(n_cells)]
    for r, i in enumerate(last_cell):
        finishing[i].append(r)

    out: list[Table] = []
    # counts[i] is the count placed at cell i, None before cell i is reached;
    # counts run from the largest the residuals allow down to zero
    counts: list[Optional[int]] = [None] * n_cells
    states = space.states_by_index
    i = 0
    while i >= 0:
        if i == n_cells:
            out.append(Table([(states[j], c) for j, c in enumerate(counts) if c]))
            if len(out) > size_cap:
                raise FiberTooLargeError(f"fiber exceeds the cap of {size_cap}")
            i -= 1
            continue
        rows = am.rows_of_cell(i)
        c = counts[i]
        if c is None:
            c = min(residual[r] for r in rows)
        else:
            for r in rows:
                residual[r] += c
            c -= 1
        if c < 0:
            counts[i] = None
            i -= 1
            continue
        counts[i] = c
        for r in rows:
            residual[r] -= c
        if all(residual[r] == 0 for r in finishing[i]):
            i += 1
    return frozenset(out)


def _cell_codes(am: MarginMap, width: int) -> list[int]:
    """The integer of each one-cell table (see `_degree_tables`): a margin
    key field of `width` bits per row, row 0 most significant, above
    8 * n_cols bits that hold the packed cells, cell 0 most significant."""
    n = am.n_cols
    top = am.n_rows - 1
    keys = [sum(1 << width * (top - r) for r in am.rows_of_cell(i)) for i in range(n)]
    return [(key << 8 * n) + (1 << 8 * (n - 1 - i)) for i, key in enumerate(keys)]


def _degree_tables(codes: list[int], degree: int) -> list[int]:
    """Every table of exact degree d (multiset of d cells) as one integer,
    the sum of its cells' `_cell_codes`.

    Its low 8 * n_cols bits are the packed cells as big-endian bytes, so
    `(t & mask).to_bytes(n_cols, "big")` unpacks it, and above them sits
    its margin key, one field per row.  The fields must be wider than
    d.bit_length() and the cells must stay below 256 (d <= 255); then
    nothing carries, adding integers adds tables, and integers compare as
    (margin tuple, packed bytes) do.

    Built by additions alone: the tables are listed by their last
    (largest) cell, and those of degree k + 1 whose last cell is i are
    those of degree k whose last cell is at most i, plus cell i.
    """
    n = len(codes)
    # degree 0: the empty table, whose last cell is below every i
    tables, upto = [0], [1] * n
    for _ in range(degree):
        grown = []
        for i, code in enumerate(codes):
            grown += map(code.__add__, itertools.islice(tables, upto[i]))
            upto[i] = len(grown)  # tables of the new degree with last cell <= i
        tables = grown
    return tables


@dataclass
class BasisVerdict:
    passed: bool
    degree_bound: int
    fibers_checked: int
    witness: Optional[tuple[Table, Table]] = None  # same margins, different components
    witness_degree: Optional[int] = None

    def __bool__(self) -> bool:
        return self.passed


def verify_markov_basis(
    moves: Sequence[Move],
    am: MarginMap,
    degree_bound: int,
) -> BasisVerdict:
    """Extensional check: do the moves connect every fiber up to a degree?

    Enumerates all tables of degree <= degree_bound as integers that hold
    the margin key above the packed cells (see `_degree_tables`), and
    union-finds the components of the fiber graph.  Its edges come from
    the moves, not from the tables: a move of degree e applies to a table
    t of degree d exactly when t = minus + s for a table s of degree
    d - e, so the edges at degree d are the pairs (minus + s, plus + s)
    over every move and every s in the kept list of degree d - e.  Every
    pair is an edge, and they are the forward move applications to every
    table.  Sorted, the tables run fiber by fiber in margin-key order,
    each fiber in packed-byte order, so the first table whose root differs
    from its fiber's first gives the canonical witness: lowest degree,
    smallest margin key, then the two smallest tables in distinct
    components.

    Raises TooLargeError when degree_bound exceeds the one-byte cell range
    or the tables would exceed DEFAULT_TABLE_BUDGET, before enumerating any.
    """
    if degree_bound < 1:
        raise TooLargeError("degree bound must be >= 1")
    if degree_bound > MAX_PACKED_DEGREE:
        raise TooLargeError(
            f"degree {degree_bound} exceeds {MAX_PACKED_DEGREE}, the packed byte range"
        )
    n = am.n_cols
    total = sum(comb(n + d - 1, d) for d in range(1, degree_bound + 1))
    if total > DEFAULT_TABLE_BUDGET:
        raise TooLargeError(
            f"degree {degree_bound} needs {total} tables (> budget {DEFAULT_TABLE_BUDGET})"
        )
    space = am.space
    codes = _cell_codes(am, degree_bound.bit_length() + 1)
    cells = 8 * n

    def as_int(t: Table) -> int:
        return sum(c * codes[state_index(s, space)] for s, c in t.items())

    def unpack(t: int) -> Table:
        return unpack_table((t & ((1 << cells) - 1)).to_bytes(n, "big"), space)

    # (minus, plus) as integers, by move degree
    by_degree: dict[int, list[tuple[int, int]]] = {}
    for m in moves:
        by_degree.setdefault(m.degree, []).append((as_int(m.minus), as_int(m.plus)))
    # lower[k]: every table of degree k, the s values of the edges
    lower: list[list[int]] = [[0]]

    fibers_checked = 0
    for degree in range(1, degree_bound + 1):
        # union-find over tables; roots are absent, and the smaller root wins
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while root in parent:
                root = parent[root]
            while x != root:
                parent[x], x = root, parent[x]
            return root

        for e, pairs in by_degree.items():
            if e > degree:
                continue
            for a, b in pairs:
                for s in lower[degree - e]:
                    rx, ry = find(a + s), find(b + s)
                    if rx != ry:
                        if rx > ry:
                            rx, ry = ry, rx
                        parent[ry] = rx
        tables = _degree_tables(codes, degree)
        if degree < degree_bound:
            lower.append(tables)

        key = None
        for t in sorted(tables):
            if t >> cells != key:
                key, first, root = t >> cells, t, find(t)
                fibers_checked += 1
            elif find(t) != root:
                return BasisVerdict(
                    passed=False,
                    degree_bound=degree_bound,
                    fibers_checked=fibers_checked,
                    witness=(unpack(first), unpack(t)),
                    witness_degree=degree,
                )
    return BasisVerdict(passed=True, degree_bound=degree_bound, fibers_checked=fibers_checked)
