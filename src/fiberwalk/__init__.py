"""fiberwalk: connectivity of contingency-table fibers under
conditional-independence moves, with exact marginal-cone geometry.

Core layers:

- tables:   state spaces, sparse integer tables, reversible moves
- graphs:   labeled graphs, quadratic moves, clique-marginal maps
- engine:   fiber BFS, connecting paths, fiber enumeration, basis checks
- cones:    exact facet enumeration and margin-positivity verdicts
- families: closed-form cycle and complete-bipartite move/prime families
- latin:    orthogonal Latin squares and isolated-table constructions
- k33:      the pinned six-vertex bipartite connectivity experiment
- cli:      the `fiberwalk` command
"""

from ._kernel import BACKEND as kernel_backend

__version__ = "0.1.0"

__all__ = ["kernel_backend", "__version__"]
