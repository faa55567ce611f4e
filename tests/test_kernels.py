"""The search kernels against the naive oracles in ``tests/oracles.py``:
the permutation minimum against brute force and, past its reach, against
metamorphic relations; the warm-started share search against a
from-scratch reference (same values, winning composition, node
accounting and budget behavior); and the node counts of the ``shares``
benchmark workload, pinned.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsvote import _kernels_py, kernels, shares
from mmsvote.model import parse_matrix
from oracles import naive_min_assignment, reference_search_max_partition


def random_case(rng, n_max=6, t_max=5, count_max=6):
    n = rng.randint(2, n_max)
    T = rng.randint(0, t_max)
    counts = tuple(rng.randint(1, count_max) for _ in range(T))
    masks = []
    for _ in range(T):
        mask = 1 << rng.randrange(n)  # reference agent's own bit, position free
        for a in range(n):
            if rng.random() < 0.5:
                mask |= 1 << a
        masks.append(mask)
    return n, counts, tuple(masks)


def test_min_assignment_brute_force():
    from itertools import permutations

    rng = random.Random(27182)
    for _ in range(120):
        n = rng.randint(1, 5)
        B = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
        expected = min(sum(B[j][p[j]] for j in range(n)) for p in permutations(range(n)))
        assert kernels.min_assignment(B) == expected


def agreement_sums(rng, n, m):
    """Bundle sums as ``shares.partition_guarantee`` builds them: random bit
    columns for n agents, split into n random bundles, counted from agent 0's
    side (``B[b][a]`` is how many decisions of bundle b agent a agrees on)."""
    rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
    B = [[0] * n for _ in range(n)]
    for j in range(m):
        Bb = B[rng.randrange(n)]
        for a in range(n):
            if rows[a][j] == rows[0][j]:
                Bb[a] += 1
    return B


def test_min_assignment_oracle():
    rng = random.Random(16180)
    cases = [[]]
    for n in range(1, 8):
        for _ in range(40 if n < 7 else 10):
            cases.append([[rng.randint(0, 50) for _ in range(n)] for _ in range(n)])
            cases.append(agreement_sums(rng, n, rng.randint(0, 3 * n)))
            # tie-heavy: entries from {0, 1}, and every row a single value
            cases.append([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            cases.append([[rng.randint(0, 3)] * n for _ in range(n)])
        cases.append([[0] * n for _ in range(n)])
        cases.append([[5] * n for _ in range(n)])
    # n = 8, the first five of the seed-11235 stream's agreement sums there
    rng = random.Random(11235)
    drawn = [agreement_sums(rng, n, rng.randint(0, 4 * n)) for n in range(1, 9) for _ in range(60)]
    cases += drawn[-60:-55]
    for B in cases:
        expected = naive_min_assignment(B)
        assert _kernels_py.min_assignment(B) == expected, B
        assert kernels.min_assignment(B) == expected, B
    assert _kernels_py.min_assignment([]) == kernels.min_assignment([]) == 0


@st.composite
def large_square(draw):
    n = draw(st.integers(9, 16))
    hi = draw(st.sampled_from([1, 4, 30]))
    row = st.lists(st.integers(0, hi), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(B=large_square(), data=st.data())
def test_min_assignment_metamorphic(B, data):
    # sizes past brute force: relations any exact permutation minimum obeys
    n = len(B)
    value = kernels.min_assignment(B)
    rows = data.draw(st.permutations(range(n)))
    cols = data.draw(st.permutations(range(n)))
    assert kernels.min_assignment([B[r] for r in rows]) == value
    assert kernels.min_assignment([[row[a] for a in cols] for row in B]) == value
    c = data.draw(st.integers(0, 20))
    k = data.draw(st.integers(0, n - 1))
    shifted_row = [[x + c if j == k else x for x in row] for j, row in enumerate(B)]
    shifted_col = [[x + c if a == k else x for a, x in enumerate(row)] for row in B]
    assert kernels.min_assignment(shifted_row) == value + c
    assert kernels.min_assignment(shifted_col) == value + c
    sigma = data.draw(st.permutations(range(n)))
    assert value <= sum(B[j][j] for j in range(n))
    assert value <= sum(B[j][sigma[j]] for j in range(n))
    assert value >= sum(map(min, B))
    assert value >= sum(map(min, zip(*B)))


def test_search_parity_small_complete():
    rng = random.Random(6022)
    for _ in range(120):
        n, counts, masks = random_case(rng, n_max=3, t_max=3, count_max=4)
        cap = sum(c * bin(m).count("1") for c, m in zip(counts, masks)) // n
        got = _kernels_py.search_max_partition(counts, masks, n, cap, 10**7)
        assert got == reference_search_max_partition(counts, masks, n, cap, 10**7)
        assert got[3], "small cases must complete"


def test_search_parity_capped_nodes():
    # larger shapes, held to identical results under a shared node cap so
    # the from-scratch reference stays fast enough to compare against
    rng = random.Random(6023)
    for _ in range(40):
        n, counts, masks = random_case(rng)
        cap = sum(c * bin(m).count("1") for c, m in zip(counts, masks)) // n
        got = _kernels_py.search_max_partition(counts, masks, n, cap, 4000)
        assert got == reference_search_max_partition(counts, masks, n, cap, 4000)


def test_search_parity_under_budget_pressure():
    rng = random.Random(1729)
    for _ in range(60):
        n, counts, masks = random_case(rng, n_max=4, t_max=4, count_max=4)
        cap = sum(c * bin(m).count("1") for c, m in zip(counts, masks)) // n
        budget = rng.randint(1, 30)
        got = _kernels_py.search_max_partition(counts, masks, n, cap, budget)
        assert got == reference_search_max_partition(counts, masks, n, cap, budget)
        _, comp, nodes, done = got
        if not done:
            assert comp is None and nodes == budget + 1


def test_search_empty_types():
    assert kernels.search_max_partition((), (), 5, 0, 100) == (0, (), 0, True)


# The four instances of the `shares` benchmark workload, before its per-seed
# column shuffle: the structured 7x12 (pair minorities {1,2}, {3,4}, {5,6},
# four columns each) and the 6x12, 7x10 and 8x10 drawn from its corpus seed.
# Per agent: (share, search nodes). A pruning or enumeration change shows here.
SHARES_WORKLOAD = [
    (
        "7 12\n000011111111\n000011111111\n111100001111\n111100001111\n"
        "111111110000\n111111110000\n111111111111\n",
        [(6, 1682), (6, 1682), (6, 1682), (6, 1682), (6, 1682), (6, 1682), (8, 3)],
    ),
    (
        "6 12\n110100000100\n000110111000\n001010010100\n011011011001\n"
        "100101011110\n111000001111\n",
        [(5, 3769), (5, 1647), (6, 1369), (5, 4334), (5, 3417), (5, 2704)],
    ),
    (
        "7 10\n0100101100\n1101110010\n1011011111\n0111011111\n0100000000\n"
        "1101110010\n0111111111\n",
        [(3, 642), (5, 273), (3, 3346), (4, 277), (2, 863), (5, 273), (4, 265)],
    ),
    (
        "8 10\n1011101100\n1010101011\n0001100001\n1011100101\n0000100001\n"
        "1100010010\n0011010101\n0011000111\n",
        [(3, 2741), (3, 2000), (4, 849), (5, 265), (4, 509), (2, 5659), (3, 4282), (4, 890)],
    ),
]


def test_shares_workload_nodes_pure():
    searched = {}
    for text, pinned in SHARES_WORKLOAD:
        matrix = parse_matrix(text)
        for i, expected in enumerate(pinned):
            consensus, items = shares._solver_items(matrix, i)
            counts = tuple(c for c, _ in items)
            masks = tuple(m for _, m in items)
            cap = shares._items_cap(matrix.n, items)
            best, _, nodes, done = _kernels_py.search_max_partition(
                counts, masks, matrix.n, cap, 10**7
            )
            assert done and (consensus + best, nodes) == expected, (text, i)
            searched[(matrix.n, items)] = nodes
    # the solver caches equal searches, so the benchmark runs each once
    assert len(searched) == 24 and sum(searched.values()) == 45_150


@st.composite
def search_case(draw, n):
    T = draw(st.integers(1, 4))
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=T, max_size=T)))
    masks = tuple(draw(st.lists(st.integers(0, 2**n - 1), min_size=T, max_size=T)))
    bound = sum(c * bin(m).count("1") for c, m in zip(counts, masks)) // n
    cap = draw(st.one_of(st.just(bound), st.integers(0, bound + 1)))
    budget = draw(st.one_of(st.integers(1, 40), st.just(2000)))
    return counts, masks, cap, budget


@pytest.mark.parametrize("n", range(2, 11))
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_search_matches_reference(n, data):
    # the only comparison with the reference past 6 agents
    counts, masks, cap, budget = data.draw(search_case(n))
    expected = reference_search_max_partition(counts, masks, n, cap, budget)
    assert _kernels_py.search_max_partition(counts, masks, n, cap, budget) == expected
