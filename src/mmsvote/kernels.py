"""Backend dispatch for the search kernels.

The compiled extension (``mmsvote._kernels``, which ``setup.py`` compiles
from the shipped, Cython-generated ``_kernels.c``) and the pure-Python
module (``mmsvote._kernels_py``) implement the same two functions with
identical semantics. The compiled one is preferred when importable; it is
absent when no C compiler was available at build time. Its fixed buffers
cap the problem size at 8 agents, so oversized calls are routed to the
pure kernel case by case. For ``min_assignment`` that route has no
factorial cliff: the pure twin solves it by the Hungarian method in
O(n^3), while the compiled twin keeps its branch-and-bound, which is
fast up to its size cap.

``ACTIVE_BACKEND`` names the default choice ("c" or "python") so callers
and benchmarks can report what actually ran.
"""

from __future__ import annotations

from mmsvote import _kernels_py

try:
    from mmsvote import _kernels
except ImportError:  # extension not built; the pure twin covers everything
    _kernels = None

ACTIVE_BACKEND = _kernels.BACKEND if _kernels is not None else _kernels_py.BACKEND

_C_MAX_AGENTS = getattr(_kernels, "MAX_AGENTS", 0) if _kernels is not None else 0
_C_MAX_TYPES = getattr(_kernels, "MAX_TYPES", 0) if _kernels is not None else 0


def min_assignment(bundle_sums: list[list[int]]) -> int:
    """Minimum over bundle-to-agent permutations; see the kernel modules."""
    if _kernels is not None and len(bundle_sums) <= _C_MAX_AGENTS:
        return _kernels.min_assignment(bundle_sums)
    return _kernels_py.min_assignment(bundle_sums)


def search_max_partition(counts, masks, n, cap, node_budget):
    """Exact type-placement maximum; see the kernel modules."""
    if _kernels is not None and n <= _C_MAX_AGENTS and len(counts) <= _C_MAX_TYPES:
        return _kernels.search_max_partition(counts, masks, n, cap, node_budget)
    return _kernels_py.search_max_partition(counts, masks, n, cap, node_budget)
