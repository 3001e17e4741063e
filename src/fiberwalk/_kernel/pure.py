"""Pure-Python fiber-walk kernel, and the reference the compiled kernel is
tested against.

Tables are packed as one byte per cell (canonical cell-index order), so
byte strings double as canonical interning keys.  Moves are precompiled to
(cell-index, count) pairs; applicability is checked on the sparse negative
part before any copying, which short-circuits nearly all non-applicable
moves.  Moves keep the degree and engine.pack_table caps it at 255, so no
cell leaves the byte range.

The compiled kernel (_fast.c) implements the same interface with the same
results, byte for byte.
"""

from __future__ import annotations

BACKEND = "pure"


class PackedMoves:
    """Moves flattened to index/count tuples over a fixed cell indexing.

    Each entry is (sub_idx, sub_cnt, add_idx, add_cnt); `directed` also
    carries every reversal so one scan yields both orientations.
    """

    def __init__(self, moves):
        # moves: list of ((minus_pairs), (plus_pairs)) with pairs = ((idx, cnt), ...)
        self.forward = []
        self.directed = []
        for minus_pairs, plus_pairs in moves:
            sub_i = tuple(i for i, _ in minus_pairs)
            sub_c = tuple(c for _, c in minus_pairs)
            add_i = tuple(i for i, _ in plus_pairs)
            add_c = tuple(c for _, c in plus_pairs)
            self.forward.append((sub_i, sub_c, add_i, add_c))
        for k, (si, sc, ai, ac) in enumerate(self.forward):
            self.directed.append((k, True, si, sc, ai, ac))
            self.directed.append((k, False, ai, ac, si, sc))

    def __len__(self):
        return len(self.forward)


def pack_moves(moves) -> PackedMoves:
    return PackedMoves(moves)


def apply_packed(t: bytes, sub_i, sub_c, add_i, add_c):
    """One directed application; None when not applicable."""
    for i, c in zip(sub_i, sub_c):
        if t[i] < c:
            return None
    out = bytearray(t)
    for i, c in zip(sub_i, sub_c):
        out[i] -= c
    for i, c in zip(add_i, add_c):
        out[i] += c
    return bytes(out)


def neighbors_signed(t: bytes, pm: PackedMoves) -> list[tuple[int, bool, bytes]]:
    """One-step images labeled (move index, forward?, image)."""
    out = []
    for k, fwd, si, sc, ai, ac in pm.directed:
        nb = apply_packed(t, si, sc, ai, ac)
        if nb is not None:
            out.append((k, fwd, nb))
    return out


def forward_neighbors(t: bytes, pm: PackedMoves) -> list[bytes]:
    """Forward-orientation images only (enough to see every fiber edge once)."""
    out = []
    for si, sc, ai, ac in pm.forward:
        nb = apply_packed(t, si, sc, ai, ac)
        if nb is not None:
            out.append(nb)
    return out


def component(start: bytes, pm: PackedMoves, cap: int) -> tuple[set, bool]:
    """Breadth-first closure of start under the moves.

    Returns (visited, truncated).  Frontiers are expanded in sorted order so
    the traversal (and any truncated prefix) is deterministic.
    """
    visited = {start}
    frontier = [start]
    truncated = False
    while frontier:
        frontier.sort()
        nxt = []
        for t in frontier:
            for _, _, si, sc, ai, ac in pm.directed:
                nb = apply_packed(t, si, sc, ai, ac)
                if nb is not None and nb not in visited:
                    if len(visited) >= cap:
                        return visited, True
                    visited.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return visited, truncated
