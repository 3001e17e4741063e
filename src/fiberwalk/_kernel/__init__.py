"""Kernel backend selection.

Both backends export the same interface: `pack_moves`, `forward_neighbors`,
`neighbors_signed`, `component` and `BACKEND`.  `pack_moves` packs every
move forward and reversed, as directed moves, and each backend indexes them
by the cells they subtract from, so that a scan skips moves that subtract
from a zero cell of the table and tries the rest in ascending order; its
results are those of trying every move.  `_fast` files each directed move
under the smallest cell it subtracts from and tries the buckets of the
table's nonzero cells.  `pure` skips every such move: it keeps, per table
length, one 256-entry table per byte of 8 cells that some move subtracts
from, and ORs one entry per such byte of the table's zero cells into the
set of moves to skip.  The compiled `_fast` extension is used when it
was built (`python setup.py build_ext --inplace`), otherwise the
pure-Python `pure` module.  Set FIBERWALK_PURE=1 to force the fallback.

Tables cross the interface as bytes, one byte per cell.  `_fast` copies
and edits those bytes in C.  `pure` turns a table into one Python int with
a 16-bit field per cell and applies a move with one subtraction, one mask
test and one addition; its `_images` is the one path that makes images, for
`component` (which keeps ints until it returns) and for `neighbors_signed`
and `forward_neighbors` (which decode each image).

`forward_neighbors` is the same scan filtered to the forward moves.  It has
no caller in the library: `engine.verify_markov_basis` applies no moves,
but grows each fiber's component from shared cells.  It stays in the
interface because the benchmark's tracer binds every kernel name and the
parity tests compare it across the backends.
"""

import os

from . import pure

if os.environ.get("FIBERWALK_PURE"):
    impl = pure
else:
    try:
        from . import _fast as impl  # type: ignore[attr-defined]
    except ImportError:
        impl = pure

BACKEND = impl.BACKEND
pack_moves = impl.pack_moves
neighbors_signed = impl.neighbors_signed
forward_neighbors = impl.forward_neighbors
component = impl.component
