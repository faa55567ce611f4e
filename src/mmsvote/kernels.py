"""The search kernels' public entry points.

Both functions forward to the pure-Python implementation in
``mmsvote._kernels_py``, the package's only kernel. ``ACTIVE_BACKEND``
names it so that callers and benchmarks can report what ran.
"""

from __future__ import annotations

from mmsvote import _kernels_py

ACTIVE_BACKEND = "python"


def min_assignment(bundle_sums: list[list[int]]) -> int:
    """Minimum over bundle-to-agent permutations; see ``_kernels_py``."""
    return _kernels_py.min_assignment(bundle_sums)


def search_max_partition(counts, masks, n, cap, node_budget):
    """Exact type-placement maximum; see ``_kernels_py``.

    Up to 6 agents the search packs all n! permutation sums into one int
    and a node costs a few integer operations; from 7 agents (5,040 lanes
    ran about 3.5 times slower there) it keeps a dynamic assignment state.
    The path depends on n alone, and both return the same tuple.

    ``cap`` only stops the search at the first placement reaching it and
    never prunes, so every cap at or above the maximum gives the same
    ``best`` and composition."""
    return _kernels_py.search_max_partition(counts, masks, n, cap, node_budget)
