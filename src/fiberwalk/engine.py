"""Fiber search engine: components, connecting paths, fiber enumeration,
and extensional Markov-basis verification.

The engine walks the implicit graph whose nodes are tables and whose edges
are move applications (in either orientation).  Tables are interned as
packed byte strings via the kernel backend; see fiberwalk._kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Optional, Sequence

from . import _kernel as kernel
from .errors import FiberTooLargeError, TooLargeError
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
    packed = []
    for m in moves:
        minus = tuple((state_index(s, space), c) for s, c in m.minus.items())
        plus = tuple((state_index(s, space), c) for s, c in m.plus.items())
        packed.append((minus, plus))
    return kernel.pack_moves(packed)


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
    def member_set(self) -> frozenset[Table]:
        """The members as a set, built once; empty when they were not kept."""
        return frozenset(self.members or ())

    def contains(self, t: Table) -> bool:
        return t in self.member_set


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
    visited, truncated = kernel.component(pack_table(start, space), pm, node_cap)
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


def _degree_tables(am: MarginMap, degree: int) -> Iterable[tuple[bytes, int]]:
    """Packed tables of exact degree d (multisets of d cells), each with its
    margin key.

    The key packs the margin vector into one integer, a field per row with
    row 0 most significant.  The fields are wider than degree.bit_length(),
    so no margin carries into the next field, and keys compare exactly as
    the margin tuples do.
    """
    n = am.n_cols
    width = degree.bit_length() + 1
    top = am.n_rows - 1
    weight = [sum(1 << (width * (top - r)) for r in am.rows_of_cell(i)) for i in range(n)]
    for combo in itertools.combinations_with_replacement(range(n), degree):
        cells = bytearray(n)
        key = 0
        for i in combo:
            cells[i] += 1
            key += weight[i]
        yield bytes(cells), key


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
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> BasisVerdict:
    """Extensional check: do the moves connect every fiber up to a degree?

    Enumerates all tables of degree <= degree_bound, groups them by margin
    vector, and union-finds components via forward move applications.  On
    failure the witness pair is canonical: lowest degree, smallest margin
    key, then the two smallest tables in distinct components.
    """
    if degree_bound < 1:
        raise TooLargeError("degree bound must be >= 1")
    n = am.n_cols
    total = sum(comb(n + d - 1, d) for d in range(1, degree_bound + 1))
    if total > table_budget:
        raise TooLargeError(
            f"degree {degree_bound} needs {total} tables (> budget {table_budget})"
        )
    space = am.space
    pm = pack_move_set(moves, space)

    fibers_checked = 0
    for degree in range(1, degree_bound + 1):
        parent: dict[bytes, bytes] = {}

        def find(x: bytes) -> bytes:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(x: bytes, y: bytes) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                if rx > ry:
                    rx, ry = ry, rx
                parent[ry] = rx

        groups: dict[int, list[bytes]] = {}
        for tb, key in _degree_tables(am, degree):
            parent[tb] = tb
            groups.setdefault(key, []).append(tb)
        for tb in parent:
            for nb in kernel.forward_neighbors(tb, pm):
                union(tb, nb)

        for key in sorted(groups):
            members = groups[key]
            fibers_checked += 1
            roots = {find(tb) for tb in members}
            if len(roots) > 1:
                members.sort()
                first = members[0]
                r0 = find(first)
                second = next(tb for tb in members if find(tb) != r0)
                witness = (unpack_table(first, space), unpack_table(second, space))
                return BasisVerdict(
                    passed=False,
                    degree_bound=degree_bound,
                    fibers_checked=fibers_checked,
                    witness=witness,
                    witness_degree=degree,
                )
    return BasisVerdict(passed=True, degree_bound=degree_bound, fibers_checked=fibers_checked)
