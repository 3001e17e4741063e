"""Kernel backend selection.

Both backends export the same interface: `pack_moves`, `forward_neighbors`,
`neighbors_signed`, `component` and `BACKEND`.  The compiled `_fast`
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
