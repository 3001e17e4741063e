"""Pure-Python fiber-walk kernel.

Tables cross the interface packed as one byte per cell (canonical
cell-index order), so byte strings double as canonical interning keys.
Inside the kernel a table of n cells is one Python int with a 16-bit field
per cell, cell 0 most significant: `_encode` and `_decode` convert.  Each
cell sits in the low byte of its field, so the ints of equal-length tables
sort exactly as their packed bytes do, and frontier order, visited sets and
truncated prefixes are those of the byte strings.

Every move is packed twice, forward and reversed, as directed moves, and a
set of directed moves is an int with bit d for directed move d.  A directed
move can apply only to a table that is nonzero on every cell it subtracts
from.  The zero cells of a table t of n cells are
z = int(t.translate(ZERO_BITS), 2), cell i at bit n - 1 - i, so byte j of z
(little-endian) holds 8 cells.  For each table length the index keeps, for
each byte that holds a cell some move subtracts from, a 256-entry table
whose entry v is the set of the directed moves that subtract from a cell
whose bit is set in v; the other bytes are never read.  The moves a table
must skip are the OR of one entry per indexed byte of z, and a scan tries
the rest lowest first: the results are those of trying every move, in the
same order.  Almost every table a closure expands has its own zero cells,
so a cache keyed by them would not help.

Trying a directed move is integer arithmetic.  For each table length each
part of each move is built once as an int of the same layout.  A directed
move that subtracts minus and adds plus applies to x exactly when
y = x - minus has no bit in the high byte of any field, and its image is
y + plus.  A cell that cannot give its
count borrows, and the lowest such cell is left with its high byte set.
This needs every cell at 255 or below, which engine.pack_table ensures and
moves, keeping the degree, preserve.  `component` keeps ints in its visited
set and frontier, walks each table's unblocked moves inline and decodes the
members once, at the end; `neighbors_signed` and `forward_neighbors` take
their images from `_images` and decode each one.  `forward_neighbors` has
no library caller; it stays for the benchmark's tracer, which binds every
kernel name.

The compiled kernel (_fast.c) implements the same interface with the same
results, byte for byte.
"""

from __future__ import annotations

import struct
from functools import reduce
from operator import or_
from typing import Callable

BACKEND = "pure"

# maps byte 0 to "1" and every other byte to "0"
ZERO_BITS = b"1" + b"0" * 255


def _encode(t: bytes) -> int:
    """The table as an int: cell i in the low byte of the 16-bit field
    n - 1 - i, counting fields from the least significant."""
    b = bytearray(2 * len(t))
    b[1::2] = t
    return int.from_bytes(b, "big")


def _decode(x: int, n: int) -> bytes:
    return x.to_bytes(2 * n, "big")[1::2]


Layout = tuple[list[int], int, Callable[[bytes], int], dict[int, list[int]]]


class PackedMoves:
    """Moves flattened to index/count tuples over a fixed cell indexing.

    Part 2k of `parts` is the negative part of move k and part 2k + 1 its
    positive part, each as (cell indices, counts).  Directed move d
    subtracts part d and adds part d ^ 1, so move k is d = 2k forward and
    d = 2k + 1 reversed, and one scan yields both orientations.  The parts
    as ints and the index of the directed moves are built per table
    length, on first use.
    """

    def __init__(self, moves):
        # moves: list of ((minus_pairs), (plus_pairs)) with pairs = ((idx, cnt), ...)
        self.parts = []
        for minus_pairs, plus_pairs in moves:
            for pairs in (minus_pairs, plus_pairs):
                self.parts.append((tuple(i for i, _ in pairs), tuple(c for _, c in pairs)))
        self.cells = 1 + max((i for idx, _ in self.parts for i in idx), default=-1)
        self._layouts: dict[int, Layout] = {}

    def __len__(self):
        return len(self.parts) // 2

    def layout(self, n: int) -> Layout:
        """(parts, high, unblocked, index) for tables of n cells.

        `parts` holds each part as an int, and `high` masks every field's
        high byte.  unblocked(t) is the set of the directed moves that
        subtract only from nonzero cells of t.  It reads `index`, which maps
        each byte j of a zero pattern that holds a cell some move subtracts
        from to a 256-entry table: entry v is the set of the directed moves
        that subtract from a cell n - 1 - 8j - k with bit k of v set.

        A count above 255 is stored as 256.  No cell can give it, and its
        move has degree above 255, so the move applies in neither direction
        to a table that engine.pack_table accepts."""
        try:
            return self._layouts[n]
        except KeyError:
            pass
        if n < self.cells:
            raise ValueError(f"table has {n} cells but a move uses cell {self.cells - 1}")
        parts = [sum(min(c, 256) << 16 * (n - 1 - i) for i, c in zip(idx, cnt))
                 for idx, cnt in self.parts]
        high = _encode(b"\xff" * n) << 8
        sub: dict[int, int] = {}  # cell -> the directed moves that subtract from it
        for d, (idx, cnt) in enumerate(self.parts):
            for i, c in zip(idx, cnt):
                if c > 0:
                    sub[i] = sub.get(i, 0) | 1 << d
        index = {}
        for j in sorted({(n - 1 - i) // 8 for i in sub}):
            tab = [0]
            for i in range(n - 1 - 8 * j, n - 9 - 8 * j, -1):
                s = sub.get(i, 0)
                tab += [v | s for v in tab]
            index[j] = tab
        # reads the indexed bytes of a zero pattern, skipping the others
        pick = struct.Struct("<" + "".join(
            f"{j - i - 1}xB" for i, j in zip([-1, *index], index))).unpack_from
        tables = list(index.values())
        nbytes = (n + 7) // 8
        every = (1 << len(self.parts)) - 1

        def unblocked(t: bytes) -> int:
            # b"0": a table of no cells has no zero cell
            z = int(t.translate(ZERO_BITS) or b"0", 2)
            return every & ~reduce(or_, map(list.__getitem__, tables,
                                            pick(z.to_bytes(nbytes, "little"))), 0)

        self._layouts[n] = out = (parts, high, unblocked, index)
        return out


def pack_moves(moves) -> PackedMoves:
    return PackedMoves(moves)


def _images(t: bytes, x: int, pm: PackedMoves) -> list[tuple[int, int]]:
    """(directed move, image) for every directed move that applies to the
    table t, given also as its int x; ascending, images as ints."""
    parts, high, unblocked, _ = pm.layout(len(t))
    cand = unblocked(t)
    out = []
    while cand:
        low = cand & -cand
        d = low.bit_length() - 1
        cand ^= low
        y = x - parts[d]
        if not y & high:
            out.append((d, y + parts[d ^ 1]))
    return out


def neighbors_signed(t: bytes, pm: PackedMoves) -> list[tuple[int, bool, bytes]]:
    """One-step images labeled (move index, forward?, image)."""
    n = len(t)
    return [(d >> 1, not d & 1, _decode(y, n)) for d, y in _images(t, _encode(t), pm)]


def forward_neighbors(t: bytes, pm: PackedMoves) -> list[bytes]:
    """Forward-orientation images only: the images of neighbors_signed
    whose move applied forward."""
    n = len(t)
    return [_decode(y, n) for d, y in _images(t, _encode(t), pm) if not d & 1]


def _closure(x0: int, n: int, pm: PackedMoves, cap: int) -> tuple[set, bool]:
    parts, high, unblocked, _ = pm.layout(n)
    visited = {x0}
    frontier = [x0]
    while frontier:
        frontier.sort()
        nxt = []
        for x in frontier:
            cand = unblocked(_decode(x, n))
            while cand:
                low = cand & -cand
                d = low.bit_length() - 1
                cand ^= low
                y = x - parts[d]
                if not y & high:
                    y += parts[d ^ 1]
                    if y not in visited:
                        if len(visited) >= cap:
                            return visited, True
                        visited.add(y)
                        nxt.append(y)
        frontier = nxt
    return visited, False


def component(start: bytes, pm: PackedMoves, cap: int) -> tuple[set, bool]:
    """Breadth-first closure of start under the moves.

    Returns (visited, truncated).  Frontiers are expanded in sorted order so
    the traversal (and any truncated prefix) is deterministic.
    """
    n = len(start)
    visited, truncated = _closure(_encode(start), n, pm, cap)
    return {_decode(x, n) for x in visited}, truncated
