"""Pure-Python fiber-walk kernel.

Tables are packed as one byte per cell (canonical cell-index order), so
byte strings double as canonical interning keys.  Moves are precompiled to
(cell-index, count) pairs; applicability is checked on the sparse negative
part before any copying.  Moves keep the degree and engine.pack_table caps
it at 255, so no cell leaves the byte range.

Every move is packed twice, forward and reversed, as directed moves.  A
directed move can apply only to a table that is nonzero on every cell it
subtracts from, so pack_moves indexes each directed move by the smallest
such cell, and keeps the set of those cells as a bit mask.  A scan gathers
the moves filed under the table's nonzero cells, plus those that subtract
nothing, drops those whose mask reaches a zero cell, and tries the rest in
ascending order: the results are those of trying every move, in the same
order.  `forward_neighbors` is that scan filtered to the forward moves; no
library code calls it, and it stays for the benchmark's tracer, which binds
every kernel name.

The compiled kernel (_fast.c) implements the same interface with the same
results, byte for byte.
"""

from __future__ import annotations

BACKEND = "pure"

# maps every nonzero byte to 1: after int.from_bytes(..., "little"), bit 8i
# of a table's mask is set when cell i is nonzero
_NONZERO = bytes([0] + [1] * 255)


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

    Each entry of `directed` is (sub_idx, sub_cnt, add_idx, add_cnt): move k
    forward at position 2k and reversed at 2k + 1, so one scan yields both
    orientations.  Their support index is built here, once.
    """

    def __init__(self, moves):
        # moves: list of ((minus_pairs), (plus_pairs)) with pairs = ((idx, cnt), ...)
        self.directed = []
        for minus_pairs, plus_pairs in moves:
            sub = (tuple(i for i, _ in minus_pairs), tuple(c for _, c in minus_pairs))
            add = (tuple(i for i, _ in plus_pairs), tuple(c for _, c in plus_pairs))
            self.directed += [sub + add, add + sub]
        self.index = _support_index(e[:2] for e in self.directed)

    def __len__(self):
        return len(self.directed) // 2


def pack_moves(moves) -> PackedMoves:
    return PackedMoves(moves)


def _images(t: bytes, pm: PackedMoves):
    """(directed move, image) for every directed move that applies to t,
    ascending."""
    entries = pm.directed
    for d in _candidates(t, pm.index):
        sub_i, sub_c, add_i, add_c = entries[d]
        for i, c in zip(sub_i, sub_c):
            if t[i] < c:
                break
        else:
            out = bytearray(t)
            for i, c in zip(sub_i, sub_c):
                out[i] -= c
            for i, c in zip(add_i, add_c):
                out[i] += c
            yield d, bytes(out)


def neighbors_signed(t: bytes, pm: PackedMoves) -> list[tuple[int, bool, bytes]]:
    """One-step images labeled (move index, forward?, image)."""
    return [(d >> 1, not d & 1, nb) for d, nb in _images(t, pm)]


def forward_neighbors(t: bytes, pm: PackedMoves) -> list[bytes]:
    """Forward-orientation images only: the images of neighbors_signed
    whose move applied forward."""
    return [nb for d, nb in _images(t, pm) if not d & 1]


def component(start: bytes, pm: PackedMoves, cap: int) -> tuple[set, bool]:
    """Breadth-first closure of start under the moves.

    Returns (visited, truncated).  Frontiers are expanded in sorted order so
    the traversal (and any truncated prefix) is deterministic.
    """
    visited = {start}
    frontier = [start]
    while frontier:
        frontier.sort()
        nxt = []
        for t in frontier:
            for _, nb in _images(t, pm):
                if nb not in visited:
                    if len(visited) >= cap:
                        return visited, True
                    visited.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return visited, False
