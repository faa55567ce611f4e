"""Deliberately naive reference implementations.

These exist to pin down expected values independently of the package's
optimized solvers: brute force over raw labeled partitions and raw
outcome bit strings, no type collapsing, no pruning, no shared code with
``mmsvote``'s search paths beyond the agreement definition. Keep them
slow and obvious.
"""

import math
from itertools import permutations, product


def naive_mms_adapt(matrix, i):
    """Max over all n^m bundle assignments of the min over all n!
    permutations of agent i's agreement total."""
    n, m = matrix.n, matrix.m
    agree = [
        [1 if matrix.rows[a][j] == matrix.rows[i][j] else 0 for a in range(n)] for j in range(m)
    ]
    best = None
    for assign in product(range(n), repeat=m):
        B = [[0] * n for _ in range(n)]
        for j, b in enumerate(assign):
            row = agree[j]
            target = B[b]
            for a in range(n):
                target[a] += row[a]
        worst = min(sum(B[b][p[b]] for b in range(n)) for p in permutations(range(n)))
        if best is None or worst > best:
            best = worst
    return 0 if best is None else best


def naive_min_assignment(B):
    """Min over all n! permutations sigma of sum_j B[j][sigma(j)]."""
    n = len(B)
    return min(sum(B[j][p[j]] for j in range(n)) for p in permutations(range(n)))


def naive_mnw(matrix):
    """Scan all 2^m outcomes; maximize (count of positive utilities,
    product of positive utilities), breaking exact ties by the
    lexicographically smallest outcome. Returns (outcome, utilities)."""
    best_key = None
    best_out = None
    best_us = None
    for bits in product((0, 1), repeat=matrix.m):
        us = tuple(
            sum(1 for j in range(matrix.m) if matrix.rows[i][j] == bits[j])
            for i in range(matrix.n)
        )
        positive = [u for u in us if u > 0]
        prod = 1
        for u in positive:
            prod *= u
        key = (len(positive), prod)
        if best_key is None or key > best_key:
            best_key, best_out, best_us = key, bits, us
    return best_out, best_us


def standard_pattern_utility(matrix, i):
    """Closed form for agent ``i``'s utility under the 4-agent standard
    graceful rule (``ptrr-generalized`` at n = 4), valid when every tie
    type occurs an even number of times.

    Each cycle of a sole-minority type hands the majority three wins and
    the minority one, so a type opposing ``i`` alone yields
    ``ceil(3c/4)`` wins for everyone else and ``floor(c/4)`` for ``i``;
    even tie counts split evenly. The type counts are read off the raw
    columns, without the package's census.
    """
    if matrix.n != 4:
        raise ValueError("closed form applies to 4-agent instances")
    if not 0 <= i < 4:
        raise ValueError(f"agent index {i} out of range")
    solo = [0] * 4  # decisions where agent a alone is in the minority
    ties = {}  # 2-2 decisions, keyed by the first agent's partner
    consensus = 0
    for j in range(matrix.m):
        column = [matrix.rows[a][j] for a in range(4)]
        ones = sum(column)
        if ones in (0, 4):
            consensus += 1
        elif ones == 2:
            partner = next(a for a in (1, 2, 3) if column[a] == column[0])
            ties[partner] = ties.get(partner, 0) + 1
        else:
            solo[next(a for a in range(4) if column.count(column[a]) == 1)] += 1
    if any(t % 2 for t in ties.values()):
        raise ValueError("closed form requires even tie counts")
    total = consensus + sum(ties.values()) // 2
    for j in range(4):
        if j == i:
            total += solo[j] // 4
        else:
            total += math.ceil(3 * solo[j] / 4)
    return total


def random_matrix(rng, n, m):
    """Uniform random n x m preference matrix from a seeded Random."""
    from mmsvote.model import PreferenceMatrix

    return PreferenceMatrix.from_rows(
        [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)]
    )


def canonical_census_multisets(n, m_max):
    """All multisets of canonical columns (first bit 0) with size <= m_max,
    yielded as column tuples. One canonical column order per multiset."""
    from itertools import combinations_with_replacement

    columns = [
        tuple(int(b) for b in format(v, f"0{n}b")) for v in range(2 ** max(n - 1, 0))
    ]
    for size in range(m_max + 1):
        for combo in combinations_with_replacement(columns, size):
            yield combo


def reference_search_max_partition(counts, masks, n, cap, node_budget):
    """The share search without warm starts: the same enumeration, node
    accounting and pruning as ``_kernels_py.search_max_partition``, but the
    permutation minimum is solved from scratch at every node and once more
    at every leaf. ``min_assignment`` is tied to brute force on its own."""
    from mmsvote._kernels_py import min_assignment

    T = len(counts)
    if T == 0:
        return 0, (), 0, True
    B = [[0] * n for _ in range(n)]
    suffix = [sum(counts[t:]) for t in range(T + 1)]
    comp = [[0] * n for _ in range(T)]
    state = {"best": -1, "comp": None, "nodes": 0, "out": False}

    def add(t, sign):
        for b in range(n):
            for a in range(n):
                if (masks[t] >> a) & 1:
                    B[b][a] += sign * comp[t][b]

    def place(t, classes):
        if t == T:
            value = min_assignment(B)
            if value > state["best"]:
                state["best"] = value
                state["comp"] = tuple(tuple(row) for row in comp)
            return state["best"] >= cap

        def fill(j, remaining):
            if j == n:
                if remaining:
                    return False
                state["nodes"] += 1
                if state["nodes"] > node_budget:
                    state["out"] = True
                    return True
                add(t, 1)
                if min_assignment(B) + suffix[t + 1] > state["best"]:
                    keys = [(classes[b], comp[t][b]) for b in range(n)]
                    first_seen = list(dict.fromkeys(keys))
                    new_classes = tuple(first_seen.index(k) for k in keys)
                    if place(t + 1, new_classes):
                        return True
                add(t, -1)
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

    place(0, (0,) * n)
    if state["out"]:
        return state["best"], None, state["nodes"], False
    return state["best"], state["comp"], state["nodes"], True
