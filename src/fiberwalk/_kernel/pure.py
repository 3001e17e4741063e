"""Pure-Python fiber-walk kernel.

Tables cross the interface packed as one byte per cell (canonical
cell-index order), so byte strings double as canonical interning keys.
Inside the kernel a table of n cells is one Python int with a 16-bit field
per cell, cell 0 most significant: `_encode` and `_decode` convert.  Each
cell sits in the low byte of its field, so the ints of equal-length tables
sort exactly as their packed bytes do, and frontier order, visited sets and
truncated prefixes are those of the byte strings.

Every move is packed twice, forward and reversed, as directed moves.  A
directed move can apply only to a table that is nonzero on every cell it
subtracts from, so pack_moves indexes each directed move by the smallest
such cell, and keeps the set of those cells as a bit mask.  A scan gathers
the moves filed under the table's nonzero cells, plus those that subtract
nothing, drops those whose mask reaches a zero cell, and tries the rest in
ascending order: the results are those of trying every move, in the same
order.

Trying a directed move is integer arithmetic.  For each table length each
part of each move is built once as an int of the same layout.  A directed
move that subtracts minus and adds plus applies to x exactly when
y = x - minus has no bit in the high byte of any field, and its image is
y + plus.  A cell that cannot give its
count borrows, and the lowest such cell is left with its high byte set.
This needs every cell at 255 or below, which engine.pack_table ensures and
moves, keeping the degree, preserve.  `_images` is the one image path:
`component` keeps ints in its visited set and frontier and decodes them
once, at the end, and `neighbors_signed` and `forward_neighbors` decode
each image they return.  `forward_neighbors` has no library caller; it
stays for the benchmark's tracer, which binds every kernel name.

The compiled kernel (_fast.c) implements the same interface with the same
results, byte for byte.
"""

from __future__ import annotations

BACKEND = "pure"

# maps every nonzero byte to 1: after int.from_bytes(..., "little"), bit 8i
# of a table's mask is set when cell i is nonzero
_NONZERO = bytes([0] + [1] * 255)


def _encode(t: bytes) -> int:
    """The table as an int: cell i in the low byte of the 16-bit field
    n - 1 - i, counting fields from the least significant."""
    b = bytearray(2 * len(t))
    b[1::2] = t
    return int.from_bytes(b, "big")


def _decode(x: int, n: int) -> bytes:
    return x.to_bytes(2 * n, "big")[1::2]


def _support_index(entries):
    """Index entries by the cells they subtract from.

    Returns (always, by_cell, masks): the positions of entries that subtract
    nothing; (cell, positions) pairs in cell order, each entry filed under
    the smallest cell it subtracts from; and per entry the bits 8i of the
    cells i it subtracts from.  Every position is in exactly one list, and
    each list is ascending.
    """
    always, buckets, masks = [], {}, []
    for k, (sub_i, sub_c) in enumerate(entries):
        cells = {i for i, c in zip(sub_i, sub_c) if c > 0}
        masks.append(sum(1 << 8 * i for i in cells))
        if cells:
            buckets.setdefault(min(cells), []).append(k)
        else:
            always.append(k)
    return always, sorted(buckets.items()), masks


def _candidates(t: bytes, index) -> list[int]:
    """Ascending positions of the entries that subtract only from nonzero
    cells of t."""
    always, by_cell, masks = index
    zero = ~int.from_bytes(t.translate(_NONZERO), "little")
    ks = always + [k for i, bucket in by_cell if t[i] for k in bucket if not masks[k] & zero]
    ks.sort()
    return ks


class PackedMoves:
    """Moves flattened to index/count tuples over a fixed cell indexing.

    Part 2k of `parts` is the negative part of move k and part 2k + 1 its
    positive part, each as (cell indices, counts).  Directed move d
    subtracts part d and adds part d ^ 1, so move k is d = 2k forward and
    d = 2k + 1 reversed, and one scan yields both orientations.  The
    support index of the directed moves is built here, once; the parts as
    ints are built per table length, on first use.
    """

    def __init__(self, moves):
        # moves: list of ((minus_pairs), (plus_pairs)) with pairs = ((idx, cnt), ...)
        self.parts = []
        for minus_pairs, plus_pairs in moves:
            for pairs in (minus_pairs, plus_pairs):
                self.parts.append((tuple(i for i, _ in pairs), tuple(c for _, c in pairs)))
        self.index = _support_index(self.parts)
        self.cells = 1 + max((i for idx, _ in self.parts for i in idx), default=-1)
        self._layouts: dict[int, tuple[list[int], int]] = {}

    def __len__(self):
        return len(self.parts) // 2

    def layout(self, n: int) -> tuple[list[int], int]:
        """(parts, high) for tables of n cells: each part as an int, and the
        mask of every field's high byte.

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
        self._layouts[n] = out = (parts, high)
        return out


def pack_moves(moves) -> PackedMoves:
    return PackedMoves(moves)


def _images(t: bytes, x: int, pm: PackedMoves):
    """(directed move, image) for every directed move that applies to the
    table t, given also as its int x; ascending, images as ints."""
    parts, high = pm.layout(len(t))
    for d in _candidates(t, pm.index):
        y = x - parts[d]
        if not y & high:
            yield d, y + parts[d ^ 1]


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
    visited = {x0}
    frontier = [x0]
    while frontier:
        frontier.sort()
        nxt = []
        for x in frontier:
            for _, y in _images(_decode(x, n), x, pm):
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
