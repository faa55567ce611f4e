"""The search kernels, in pure Python with integer arithmetic only.

``mmsvote.kernels`` forwards to this module. It is deliberately free of
package imports so that it stays self-contained.

The two entry points:

* ``min_assignment``: the adversary's side of the share game, a minimum
  over all bundle-to-agent permutations, solved by the Hungarian method
  in O(n^3).
* ``search_max_partition``: the agent's side, an exhaustive maximum over
  placements of interchangeable decision types into labeled bundles.
  It carries one assignment state from node to node (the dynamic
  Hungarian method of Mills-Tettey, Stentz & Dias 2007): a node only
  raises the entries of a few bundles, so it re-augments just the bundles
  whose matched entry rose, instead of solving from scratch.

Both run on one shortest-augmenting-path step, ``_augment``.
"""

from __future__ import annotations


def _augment(
    bundle_sums: list[list[int]], u: list[int], v: list[int], match: list[int], j: int
) -> None:
    """Match the unmatched bundle j along one shortest augmenting path.

    Every reduced cost ``bundle_sums[r][a] - u[r] - v[a]`` must be
    nonnegative and zero on every matched pair, and some agent must be
    free; the step keeps both properties and frees no agent. ``match[a]``
    is the bundle agent a decides, -1 if none; column n of ``v`` and
    ``match`` is the virtual root. Dijkstra over reduced costs from bundle
    j, O(n^2), ints only.
    """
    n = len(bundle_sums)
    row = bundle_sums[j]
    u0 = u[j]
    minv = [row[a] - u0 - v[a] for a in range(n)]  # cheapest reach of each agent so far
    way = [n] * n  # way[a]: the previous agent on the shortest path to a
    free = list(range(n))  # agents not yet in the tree
    tree = [n]
    match[n] = j
    delta = min(minv)
    a1 = minv.index(delta)
    while True:
        if delta:
            for a in tree:
                u[match[a]] += delta
                v[a] -= delta
            for a in free:
                minv[a] -= delta
        free.remove(a1)
        tree.append(a1)
        if match[a1] < 0:
            break
        j0 = match[a1]
        row = bundle_sums[j0]
        u0 = u[j0]
        a0 = free[0]
        delta = minv[a0]  # relaxing only lowers minv, so this bounds the minimum
        for a in free:
            cur = row[a] - u0 - v[a]
            m = minv[a]
            if cur < m:
                minv[a] = m = cur
                way[a] = a1
            if m < delta:
                delta = m
                a0 = a
        a1 = a0
    while a1 != n:  # augment along the path back to the root
        a0 = way[a1]
        match[a1] = match[a0]
        a1 = a0


def min_assignment(bundle_sums: list[list[int]]) -> int:
    """Minimum over permutations sigma of sum_j bundle_sums[j][sigma(j)].

    ``bundle_sums[j][a]`` is the value the reference agent collects when
    agent a decides bundle j. This is a linear assignment problem, solved
    exactly by the Hungarian method with shortest augmenting paths (Kuhn
    1955; Jonker & Volgenant 1987): starting from an empty matching and
    zero potentials, ``_augment`` matches one bundle at a time in O(n^2),
    so O(n^3) in all. The arithmetic is on ints only, so the value is
    exact, and entries may be any ints.
    """
    n = len(bundle_sums)
    u = [0] * n  # bundle (row) potentials
    v = [0] * (n + 1)  # agent (column) potentials
    match = [-1] * (n + 1)
    for j in range(n):
        _augment(bundle_sums, u, v, match, j)
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

    Each node's permutation minimum comes from an assignment state (bundle
    and agent potentials, matching) kept for the current bundle sums: it
    starts tight on the identity for the all-zero sums, a node unmatches
    the bundles whose matched entry it raised and re-augments each with
    ``_augment``, and backtracking restores the saved state. A leaf reuses
    its node's value.

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
    # the assignment state of the current B: potentials and matching
    u = [0] * n
    v = [0] * (n + 1)
    match = list(range(n)) + [-1]
    agreeing = [[a for a in range(n) if (masks[t] >> a) & 1] for t in range(T)]
    suffix = [0] * (T + 1)
    for t in range(T - 1, -1, -1):
        suffix[t] = suffix[t + 1] + counts[t]

    comp = [[0] * n for _ in range(T)]
    best = -1
    best_comp: tuple[tuple[int, ...], ...] | None = None
    nodes = 0
    out_of_budget = False

    def place(t: int, classes: tuple[int, ...], value: int) -> bool:
        """``value`` is the permutation minimum of the current B.

        Returns True when the search should unwind (cap hit or budget out).
        """
        nonlocal best, best_comp, nodes, out_of_budget
        if t == T:
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
                agents = agreeing[t]
                for b in range(n):
                    c = row[b]
                    if c:
                        Bb = B[b]
                        for a in agents:
                            Bb[a] += c
                # entries only rose, so the potentials stay feasible and a
                # matched pair stays tight unless its own entry rose: unmatch
                # those bundles and re-augment each one
                loose = [a for a in agents if row[match[a]]]
                node_value = value
                if loose:
                    saved = u[:], v[:], match[:]
                    bundles = [match[a] for a in loose]
                    for a in loose:
                        match[a] = -1
                    for b in bundles:
                        _augment(B, u, v, match, b)
                    node_value = sum(B[match[a]][a] for a in range(n))
                # each undecided column can add at most 1 to every permutation sum
                if node_value + suffix[t + 1] > best:
                    refined: dict[tuple[int, int], int] = {}
                    new_classes = []
                    for b in range(n):
                        key = (classes[b], row[b])
                        new_classes.append(refined.setdefault(key, len(refined)))
                    if place(t + 1, tuple(new_classes), node_value):
                        return True
                if loose:
                    u[:], v[:], match[:] = saved
                for b in range(n):
                    c = row[b]
                    if c:
                        Bb = B[b]
                        for a in agents:
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

    place(0, tuple([0] * n), 0)
    if out_of_budget:
        return best, None, nodes, False
    return best, best_comp, nodes, True
