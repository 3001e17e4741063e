"""Fiber search engine: components, connecting paths, fiber enumeration,
and extensional Markov-basis verification.

The engine walks the implicit graph whose nodes are tables and whose edges
are move applications (in either orientation).  Searches intern tables as
packed byte strings, one byte per cell, and ask the kernel backend for each
table's images; see fiberwalk._kernel.

The Markov-basis check needs no kernel and no edges.  It enumerates every
table up to a degree, so it writes each table as one integer: the packed
cells as its low big-endian bytes, the margin key above them.  Once every
fiber of lower degree is connected, two tables of a fiber that share a
cell are connected, so a fiber's components are its classes under
"shares a cell", joined further only by the moves of the fiber's degree.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import comb
from operator import or_
from typing import Optional, Sequence

from . import _kernel as kernel
from .errors import FiberTooLargeError, FiberwalkError, InvalidMoveError, TooLargeError
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
    return Table._trusted(tuple((states[i], c) for i, c in enumerate(b) if c))


def pack_move_set(moves: Sequence[Move], space: StateSpace):
    """The moves packed by the kernel over the cells of space.

    Packing is memoised by content: callers that search under the same
    moves more than once (k33_run's three closures and its path search)
    pack them once.  The key also holds the kernel's pack_moves, so a set is
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
    truncated: bool
    space: StateSpace
    visited: set[bytes]  # the kernel's packed closure; a prefix of it when truncated

    @property
    def size(self) -> int:
        return len(self.visited)

    @cached_property
    def packed(self) -> Optional[tuple[bytes, ...]]:
        """The packed members sorted, on first use; None when truncated."""
        return None if self.truncated else tuple(sorted(self.visited))

    @property
    def member_set(self) -> set[bytes]:
        """The packed members; empty when the closure was truncated."""
        return set() if self.truncated else self.visited

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
) -> ComponentReport:
    """Exact component when its size fits in node_cap, else a truncated report."""
    if node_cap < 1:
        raise TooLargeError("node_cap must be >= 1")
    packed = pack_table(start, space)  # before the moves: a bad start is reported first
    pm = pack_move_set(moves, space)
    # the compiled kernel reads the cap as a C size; no closure is larger
    cap = min(node_cap, sys.maxsize)
    visited, truncated = kernel.component(packed, pm, cap)
    return ComponentReport(start=start, truncated=truncated, space=space, visited=visited)


@dataclass
class PathStep:
    move: Move
    forward: bool  # False means the move was applied in reverse


@dataclass
class ConnectResult:
    status: str  # "connected" | "not-connected" | "inconclusive"
    path: Optional[list[PathStep]] = None


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
            out.append(Table._trusted(tuple((states[j], c) for j, c in enumerate(counts) if c)))
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


def _occupied(x: int, ones: int) -> int:
    """0xff in each packed cell byte of x that holds a nonzero count, 0 in
    every other bit; ones is 0x01 in each cell byte.  A count's low seven
    bits plus 0x7f reach bit 7 exactly when they are nonzero, and the
    count's own bit 7 marks 128-255."""
    sevens = ones * 0x7F
    return (((((x & sevens) + sevens) | x) & (ones << 7)) >> 7) * 0xFF


@dataclass
class BasisVerdict:
    passed: bool
    degree_bound: int
    fibers_checked: int
    witness: Optional[tuple[Table, Table]] = None  # same margins, different components
    witness_degree: Optional[int] = None


def verify_markov_basis(
    moves: Sequence[Move],
    am: MarginMap,
    degree_bound: int,
) -> BasisVerdict:
    """Extensional check: do the moves connect every fiber up to a degree?

    Enumerates all tables of degree <= degree_bound as integers that hold
    the margin key above the packed cells (see `_degree_tables`).  Sorted,
    they run fiber by fiber in margin-key order, each fiber in packed-byte
    order.  The check returns at the first split fiber, so at degree d all
    fibers of lower degree are connected, and it needs no edges:
    - two tables of a fiber that share a cell c are connected: take c out
      of both, follow a path in their connected fiber of degree d - 1, and
      put c back into every step;
    - a move of degree e < d joins minus + s and plus + s, which share the
      cells of s, so only the moves of degree exactly d join more.
    A fiber's first table absorbs, pass by pass, each table meeting the cells
    of those absorbed or of tables a degree-d move links to them.  The
    smallest one left out gives the canonical witness: lowest degree,
    smallest margin key, then the two smallest tables in distinct components.

    Raises TooLargeError when degree_bound exceeds the one-byte cell range
    or the tables would exceed DEFAULT_TABLE_BUDGET, and InvalidMoveError
    when a move changes the margins, before enumerating any table.
    """
    if degree_bound < 1:
        raise TooLargeError("degree bound must be >= 1")
    if degree_bound > MAX_PACKED_DEGREE:
        raise TooLargeError(
            f"degree {degree_bound} exceeds {MAX_PACKED_DEGREE}, the packed byte range"
        )
    n, space = am.n_cols, am.space
    total = sum(comb(n + d - 1, d) for d in range(1, degree_bound + 1))
    if total > DEFAULT_TABLE_BUDGET:
        raise TooLargeError(
            f"degree {degree_bound} needs {total} tables (> budget {DEFAULT_TABLE_BUDGET})"
        )
    # margin fields wide enough for every table and every move part that fits a byte
    widest = max([degree_bound, *(m.degree for m in moves)])
    codes = _cell_codes(am, min(widest, MAX_PACKED_DEGREE).bit_length() + 1)
    cells, ones = 8 * n, int.from_bytes(b"\x01" * n, "big")  # ones: 0x01 in each cell byte

    def as_int(t: Table) -> int:
        return sum(c * codes[state_index(s, space)] for s, c in t.items())

    # grow[d][t]: t with the cells of every table a degree-d move links to it
    grow: dict[int, dict[int, int]] = {}
    for k, m in enumerate(moves):
        a, b = as_int(m.minus), as_int(m.plus)
        # a part of degree above 255 may carry out of its cell bytes: compare tuples
        if (a >> cells != b >> cells if m.degree <= MAX_PACKED_DEGREE
                else am.margins(m.minus) != am.margins(m.plus)):
            raise InvalidMoveError(f"move {k} changes the margins")
        links = grow.setdefault(m.degree, {})
        links[a], links[b] = links.get(a, a) | b, links.get(b, b) | a

    fibers_checked = 0
    for degree in range(1, degree_bound + 1):
        links = grow.get(degree, {})
        tables = _degree_tables(codes, degree)
        tables.sort()
        for _, fiber in itertools.groupby(tables, cells.__rrshift__):
            fibers_checked += 1
            first, *rest = fiber
            union = links.get(first, first)
            while rest:
                mask = _occupied(union, ones)
                joined = [t for t in rest if t & mask]
                if len(joined) == len(rest):
                    break
                if not joined:
                    witness = tuple(unpack_table((t & ((1 << cells) - 1)).to_bytes(n, "big"), space)
                                    for t in (first, rest[0]))
                    return BasisVerdict(False, degree_bound, fibers_checked, witness, degree)
                union = reduce(or_, map(links.get, joined, joined), union)
                rest = [t for t in rest if not t & mask]
    return BasisVerdict(passed=True, degree_bound=degree_bound, fibers_checked=fibers_checked)
