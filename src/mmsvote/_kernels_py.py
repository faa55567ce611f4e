"""Pure-Python twin of the compiled search kernels.

Semantics here and in ``_kernels.pyx`` must match exactly; the dispatch
module picks whichever is importable. Both kernels are deliberately free
of package imports so they stay self-contained.

The two entry points:

* ``min_assignment``: the adversary's side of the share game, a minimum
  over all bundle-to-agent permutations. Here it is the Hungarian method,
  O(n^3) in integer arithmetic; the compiled twin still runs a
  branch-and-bound, which returns the same value.
* ``search_max_partition``: the agent's side, an exhaustive maximum over
  placements of interchangeable decision types into labeled bundles.
"""

from __future__ import annotations

BACKEND = "python"


def min_assignment(bundle_sums: list[list[int]]) -> int:
    """Minimum over permutations sigma of sum_j bundle_sums[j][sigma(j)].

    ``bundle_sums[j][a]`` is the value the reference agent collects when
    agent a decides bundle j. This is a linear assignment problem, solved
    exactly by the Hungarian method with shortest augmenting paths (Kuhn
    1955; Jonker & Volgenant 1987): one augmentation per bundle, each
    O(n^2), so O(n^3) in all. Row and column potentials keep every reduced
    cost nonnegative. The arithmetic is on ints only, so the value is exact,
    and entries may be any ints (the compiled twin's pruning needs them
    nonnegative, as agreement counts are).
    """
    n = len(bundle_sums)
    if n == 0:
        return 0
    hi = max(map(max, bundle_sums))
    lo = min(map(min, bundle_sums))
    # Exceeds every value minv takes. A column potential stays in
    # [-(hi - lo), 0], because a matched bundle's potential is at most its
    # entry in a still-unmatched column, whose potential is 0. So a new
    # bundle's first reduced costs are at most 2 * hi - lo, and once shifted
    # by the first delta (at least lo) at most 2 * (hi - lo); later passes
    # only lower them.
    inf = 1 + 2 * (hi - lo) + abs(lo)
    u = [0] * n  # bundle (row) potentials
    v = [0] * (n + 1)  # agent (column) potentials; column n is the virtual root
    match = [-1] * (n + 1)  # match[a]: the bundle agent a decides, -1 if none yet
    way = [0] * n  # way[a]: the previous column on the shortest path to a
    for j in range(n):
        match[n] = j
        a0 = n
        minv = [inf] * n
        tree = [n]
        free = list(range(n))
        while True:
            j0 = match[a0]
            row = bundle_sums[j0]
            u0 = u[j0]
            delta = inf
            for a in free:
                cur = row[a] - u0 - v[a]
                m = minv[a]
                if cur < m:
                    minv[a] = m = cur
                    way[a] = a0
                if m < delta:
                    delta = m
                    a1 = a
            if delta:
                for a in tree:
                    u[match[a]] += delta
                    v[a] -= delta
                for a in free:
                    minv[a] -= delta
            free.remove(a1)
            tree.append(a1)
            a0 = a1
            if match[a0] < 0:
                break
        while a0 != n:  # augment along the path back to the root
            a1 = way[a0]
            match[a0] = match[a1]
            a0 = a1
    return sum(bundle_sums[match[a]][a] for a in range(n))


def search_max_partition(
    counts: tuple[int, ...],
    masks: tuple[int, ...],
    n: int,
    cap: int,
    node_budget: int,
) -> tuple[int, tuple[tuple[int, ...], ...] | None, int, bool]:
    """Exact maximum, over all placements of the given decision types into
    n labeled bundles, of the permutation-minimum value.

    ``counts[t]`` decisions of type t are interchangeable; ``masks[t]`` is
    the agent bitmask of the reference agent's side (bit a set means agent
    a collects the decision when it goes the reference agent's way, which
    is the same event as agreeing with the reference agent). Placements
    are enumerated isomorph-free: bundles with identical placement history
    are interchangeable, so counts are forced nonincreasing inside each
    interchangeability class.

    ``cap`` is a certified upper bound on the value; reaching it stops the
    search. ``node_budget`` bounds the number of per-type compositions
    applied. Returns ``(best, composition, nodes, completed)`` where
    ``composition[t][j]`` says how many type-t decisions the best
    placement puts in bundle j, and ``completed`` is False when the
    budget ran out (callers must then discard ``best``).
    """
    T = len(counts)
    if T == 0:
        return 0, (), 0, True
    B = [[0] * n for _ in range(n)]
    agree_bit = [[(masks[t] >> a) & 1 for a in range(n)] for t in range(T)]
    suffix = [0] * (T + 1)
    for t in range(T - 1, -1, -1):
        suffix[t] = suffix[t + 1] + counts[t]

    comp = [[0] * n for _ in range(T)]
    best = -1
    best_comp: tuple[tuple[int, ...], ...] | None = None
    nodes = 0
    out_of_budget = False

    def place(t: int, classes: tuple[int, ...]) -> bool:
        """Returns True when the search should unwind (cap hit or budget out)."""
        nonlocal best, best_comp, nodes, out_of_budget
        if t == T:
            value = min_assignment(B)
            if value > best:
                best = value
                best_comp = tuple(tuple(row) for row in comp)
            return best >= cap

        def fill(j: int, remaining: int) -> bool:
            nonlocal nodes, out_of_budget
            if j == n:
                if remaining:
                    return False
                nodes += 1
                if nodes > node_budget:
                    out_of_budget = True
                    return True
                row = comp[t]
                bits = agree_bit[t]
                for b in range(n):
                    c = row[b]
                    if c:
                        Bb = B[b]
                        for a in range(n):
                            if bits[a]:
                                Bb[a] += c
                # each undecided column can add at most 1 to every permutation sum
                if min_assignment(B) + suffix[t + 1] > best:
                    refined: dict[tuple[int, int], int] = {}
                    new_classes = []
                    for b in range(n):
                        key = (classes[b], row[b])
                        new_classes.append(refined.setdefault(key, len(refined)))
                    if place(t + 1, tuple(new_classes)):
                        return True
                for b in range(n):
                    c = row[b]
                    if c:
                        Bb = B[b]
                        for a in range(n):
                            if bits[a]:
                                Bb[a] -= c
                return False
            hi = remaining
            if j > 0 and classes[j] == classes[j - 1]:
                hi = min(hi, comp[t][j - 1])
            for c in range(hi, -1, -1):
                comp[t][j] = c
                if fill(j + 1, remaining - c):
                    return True
            comp[t][j] = 0
            return False

        return fill(0, counts[t])

    place(0, tuple([0] * n))
    if out_of_budget:
        return best, None, nodes, False
    return best, best_comp, nodes, True
