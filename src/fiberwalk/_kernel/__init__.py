"""Kernel backend selection.

Both backends export the same interface: `pack_moves`, `forward_neighbors`,
`neighbors_signed`, `component` and `BACKEND`.  `pack_moves` builds, once, a
support index that files every forward and every directed move under the
smallest cell it subtracts from; a scan tries only the moves filed under the
table's nonzero cells (and those that subtract nothing), in ascending move
order, so its results are those of trying every move.  The compiled `_fast`
extension is used when it was built (`python setup.py build_ext --inplace`),
otherwise the pure-Python `pure` module.  Set FIBERWALK_PURE=1 to force the
fallback.
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
