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


def reference_share(counts, masks, n):
    """The share of solver items by brute force: every composition of
    each type's count into n labelled bundles, with no symmetry pruning
    and no stopping cap, each placement valued by ``naive_min_assignment``.
    Bit a of ``masks[t]`` set means agent a collects a type-t decision."""
    splits = [
        [p for p in product(range(c + 1), repeat=n) if sum(p) == c] for c in counts
    ]
    best = 0
    for placement in product(*splits):
        B = [[0] * n for _ in range(n)]
        for split, mask in zip(placement, masks):
            for b in range(n):
                for a in range(n):
                    if mask >> a & 1:
                        B[b][a] += split[b]
        best = max(best, naive_min_assignment(B))
    return best


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
    """The share search without warm starts: the same visiting order, node
    accounting and pruning as ``_kernels_py.search_max_partition``, but the
    permutation minimum is solved from scratch at every node and once more
    at every leaf. ``min_assignment`` is tied to brute force on its own.
    It keeps the recursive slot-by-slot enumerator ``fill``, which tries
    each slot's counts from low to high, so it visits each type's splits
    in ascending lexicographic order; that ties the kernel's in-place
    successor step to an independently written order."""
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
            for c in range(hi + 1):
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


def reference_eta_vector(matrix):
    """The deferral thresholds summed as ``Fraction``s, term by term:
    three quarters of every sole-minority count opposing someone else, a
    quarter of the agent's own, all consensus columns and half the ties.
    The counts come from each column's bits: one agent against three is
    that agent's sole minority, two against two a tie."""
    from fractions import Fraction

    solo = [0, 0, 0, 0]
    ties = consensus = 0
    for col in matrix.columns():
        ones = sum(col)
        if ones in (0, 4):
            consensus += 1
        elif ones == 2:
            ties += 1
        else:
            solo[col.index(1 if ones == 1 else 0)] += 1
    total_alpha = sum(solo)
    return tuple(
        Fraction(3, 4) * (total_alpha - solo[i])
        + Fraction(1, 4) * solo[i]
        + consensus
        + Fraction(ties, 2)
        for i in range(4)
    )


def reference_deferred_ambiguity(matrix):
    """The 4-agent deferral rule through a second matrix: the reduced
    instance is built with ``drop_columns`` and gets its own census, the
    standard graceful rule's transcript on it is compared against
    ``reference_eta_vector`` as ``Fraction``s. Returns the same
    ``(outcome, removed, compensated agent, thresholds)`` tuple as
    ``mmsvote.rules.deferred_ambiguity``."""
    from mmsvote.model import type_census
    from mmsvote.rules import GracefulRule, standard_pattern

    removed = sorted(
        entry.occurrences[-1]
        for ctype, entry in type_census(matrix).items()
        if ctype.kind == "tie" and entry.count % 2 == 1
    )
    reduced = matrix.drop_columns(removed) if removed else matrix
    transcript = GracefulRule("_inner", standard_pattern(4), required_agents=4).run(reduced)
    eta = reference_eta_vector(reduced)
    short = [i for i in range(4) if transcript.utilities[i] < eta[i]]
    assert len(short) <= 1
    if short:
        i_star = short[0]
    else:
        at_threshold = [i for i in range(4) if transcript.utilities[i] == eta[i]]
        i_star = at_threshold[0] if at_threshold else 0
        if (
            len(at_threshold) == 2
            and len(removed) == 2
            and all(
                matrix.rows[at_threshold[0]][j] != matrix.rows[at_threshold[1]][j]
                for j in removed
            )
        ):
            i_star = min(i for i in range(4) if i not in at_threshold)
    inner = iter(transcript.outcome)
    outcome = tuple(
        matrix.rows[i_star][j] if j in removed else next(inner) for j in range(matrix.m)
    )
    return outcome, tuple(removed), i_star, eta
