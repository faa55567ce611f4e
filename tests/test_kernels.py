"""The search kernels against the naive oracles in ``tests/oracles.py``:
the permutation minimum against brute force and, past its reach, against
metamorphic relations; the split enumerator against a sorted (ascending)
brute-force enumeration and its classes against a naive refinement; the
split tables against the enumerator (from cold, with a nested reader, in
the walk's reading order) and their lazy growth; the warm-started share
search against a from-scratch reference (same values, winning
composition, node accounting and budget behavior); the one search walk
on its packed-lane node state against the same walk on its assignment
node state up to 6 agents, and which state each n takes; each node
state's push/pop contract (a pruned push changes nothing, a pop undoes
its push, a leaf's value is exact); that the stopping cap only stops the
search; and the node counts of the ``shares`` benchmark workload and of
a batch of small 3- and 4-agent instances, pinned, both on the raw
solver items and over the relabelling classes the solver actually
searches, with the augmenting steps of the former and the nodes of one
deep 7-agent search.
"""

import copy
import inspect
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsvote import _kernels_py, kernels, shares
from mmsvote.adversary import gen_mnw_gap, gen_stage1
from mmsvote.model import PreferenceMatrix, parse_matrix
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


def contiguous_runs(n):
    """Every split of n slots into contiguous class runs, as class tuples."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        classes = [0]
        for cut in cuts:
            classes.append(classes[-1] + cut)
        yield tuple(classes)


def enumerate_compositions(total, classes):
    return [row for row, _ in _kernels_py._splits(total, classes)]


def test_compositions_order():
    for n in range(1, 7):
        splits = {total: [] for total in range(9)}
        for p in itertools.product(range(9), repeat=n):
            if sum(p) <= 8:
                splits[sum(p)].append(p)
        for classes in contiguous_runs(n):
            within = [b for b in range(1, n) if classes[b] == classes[b - 1]]
            for total, candidates in splits.items():
                expected = sorted(
                    p for p in candidates if all(p[b] <= p[b - 1] for b in within)
                )
                yielded = list(_kernels_py._splits(total, classes))
                assert [row for row, _ in yielded] == expected, (n, classes, total)
                assert all(refined == refine(row, classes) for row, refined in yielded)


def test_compositions_capacity_boundary():
    # the most even split comes first, the whole type in bundle 0 last
    rows = enumerate_compositions(6, (0, 0, 0))
    assert rows[0] == (2, 2, 2) and rows[-1] == (6, 0, 0)
    # inside the final run, the next split after a row raises the
    # rightmost slot it can and spreads the rest as evenly as possible
    # over the slots after it, under that slot's new count
    rows = enumerate_compositions(7, (0, 1, 1, 1))
    i = rows.index((0, 3, 2, 2))
    assert rows[i + 1 : i + 3] == [(0, 3, 3, 1), (0, 4, 2, 1)]
    rows = enumerate_compositions(7, (0, 0, 0, 0))
    i = rows.index((3, 2, 1, 1))
    assert rows[i + 1 : i + 3] == [(3, 2, 2, 0), (3, 3, 1, 0)]
    # raising a slot left of the final run puts zeros up to the final run,
    # then the most even spread of the rest over the final run
    rows = enumerate_compositions(5, (0, 0, 1, 1))
    i = rows.index((1, 1, 3, 0))
    assert rows[i + 1] == (2, 0, 2, 1)
    rows = enumerate_compositions(7, (0, 1, 1, 1))
    i = rows.index((0, 7, 0, 0))
    assert rows[i + 1] == (1, 2, 2, 2)
    # total 0 is one all-zero split; one slot takes the whole total
    for classes in ((0,), (0, 0), (0, 1, 1), (0, 1, 2, 2, 3)):
        assert enumerate_compositions(0, classes) == [(0,) * len(classes)]
    for total in range(5):
        assert enumerate_compositions(total, (0,)) == [(total,)]
    # total 1: the unit visits the first slot of each run, last run first
    assert enumerate_compositions(1, (0, 0, 1, 2, 2)) == [
        (0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0),
        (1, 0, 0, 0, 0),
    ]
    for n in range(1, 8):
        units = [tuple(int(b == s) for b in range(n)) for s in range(n)]
        for classes in contiguous_runs(n):
            expected = sorted(
                p for p in units
                if all(p[b] <= p[b - 1] for b in range(1, n) if classes[b] == classes[b - 1])
            )
            assert enumerate_compositions(1, classes) == expected, classes


def refine(row, classes):
    """The next depth's classes below ``row``: a new class wherever the
    class or the count changes from the previous bundle."""
    pairs = list(zip(row, classes))
    return tuple(itertools.accumulate([0] + [int(p != q) for q, p in zip(pairs, pairs[1:])]))


@st.composite
def table_key(draw):
    n = draw(st.integers(1, 8))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    classes = tuple(itertools.accumulate([0] + list(map(int, cuts))))
    return draw(st.integers(0, 12)), classes


def read_table(total, classes, stop=None, nest=None):
    """The rows a reader of the split table of ``(total, classes)`` sees,
    read as ``_walk`` reads them: by index, with ``grow`` where a row is
    missing, and at most ``stop`` of them. ``nest = (k, j)`` starts a
    second reader of the same table after the k-th row, which reads j
    rows; its rows are returned second."""
    rows, grow = _kernels_py._split_table(total, classes)
    seen, inner = [], None
    i = 0
    while (stop is None or i < stop) and (i < len(rows) or grow(i)):
        seen.append(rows[i])
        i += 1
        if nest and i == nest[0]:
            inner = read_table(total, classes, stop=nest[1])[0]
    return seen, inner


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(key=table_key(), data=st.data())
def test_split_table_contract(key, data):
    # from a cold table, a reader sees every split in the enumerator's
    # order, each paired with its refined classes, and so does a second
    # reader nested after a random row, which may grow the table past
    # the first reader or stop early
    total, classes = key
    expected = [(row, refine(row, classes)) for row in enumerate_compositions(total, classes)]
    _kernels_py._split_table.cache_clear()
    assert read_table(total, classes) == (expected, None)
    _kernels_py._split_table.cache_clear()
    k = data.draw(st.integers(1, len(expected)))
    j = data.draw(st.integers(0, len(expected)))
    outer, inner = read_table(total, classes, nest=(k, j))
    assert outer == expected and inner == expected[:j]
    assert _kernels_py._split_table(total, classes)[0] == expected


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(1, 4),
    total=st.integers(0, 6),
    T=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    budget=st.integers(1, 400),
)
def test_walk_reads_split_tables(n, total, T, seed, budget):
    # the walk on a state that keeps a random subset of nodes visits the
    # splits in enumerator order under each kept node's refined classes;
    # every depth has the same total, so even splits nest a reader on its
    # parent's table
    rng = random.Random(seed)
    visited = []

    def push(t, row, floor):
        visited.append((t, row))
        return 0 if rng.random() < 0.6 else None

    _kernels_py._split_table.cache_clear()
    _kernels_py._walk((total,) * T, n, 10**9, budget, (push, lambda t, row: None))
    # the same keep decisions, drawn in the same order
    rng.seed(seed)
    expected = []

    def visit(t, classes):
        for row in enumerate_compositions(total, classes):
            if len(expected) == budget:
                return True
            expected.append((t, row))
            if rng.random() < 0.6 and t + 1 < T and visit(t + 1, refine(row, classes)):
                return True
        return False

    visit(0, (0,) * n)
    assert visited == expected


def test_split_tables_grow_lazily(monkeypatch):
    # a search that stops early builds few rows: the Nash welfare gap
    # instance's searches stop at their cap within a few nodes, and a
    # search stopped by its budget leaves no table longer than twice the
    # rows it read, plus one
    from test_shares import clear_package_caches

    tables = {}
    split_table = _kernels_py._split_table

    def recorded(total, classes):
        tables[total, classes] = table = split_table(total, classes)
        return table

    clear_package_caches()
    monkeypatch.setattr(_kernels_py, "_split_table", recorded)
    shares.mms_adapt_all(gen_mnw_gap(9))
    assert 0 < sum(len(rows) for rows, _ in tables.values()) < 16
    rng = random.Random(907)
    stopped = 0
    for budget in range(1, 25):
        n, counts, masks = random_case(rng, n_max=6, t_max=4, count_max=12)
        if not counts:
            continue
        push, pop = _kernels_py._lane_state(counts, masks, n)
        pushed = []

        def recording(t, row, floor):
            pushed.append(row)
            return push(t, row, floor)

        tables.clear()
        split_table.cache_clear()
        stopped += not _kernels_py._walk(counts, n, 10**9, budget, (recording, pop))[3]
        ids = {id(row) for row in pushed}
        for rows, _ in tables.values():
            read = max((i + 1 for i, (row, refined) in enumerate(rows) if id(row) in ids), default=0)
            assert len(rows) <= 2 * read + 1
    assert stopped


def test_split_tables_shared_across_threads():
    # searches in several threads grow the same cold tables at once, with
    # a thread switch forced every microsecond, and give the serial results
    rng = random.Random(5081)
    cases = []
    for _ in range(40):
        n, counts, masks = random_case(rng, n_max=5, t_max=4, count_max=8)
        cases.append((counts, masks, n, sum(counts), 2000))
    expected = [_kernels_py.search_max_partition(*case) for case in cases]
    _kernels_py._split_table.cache_clear()
    results = [None] * 4

    def run(k):
        results[k] = [_kernels_py.search_max_partition(*case) for case in cases]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4


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
        [(6, 8), (6, 8), (6, 8), (6, 8), (6, 8), (6, 8), (8, 388)],
    ),
    (
        "6 12\n110100000100\n000110111000\n001010010100\n011011011001\n"
        "100101011110\n111000001111\n",
        [(5, 1766), (5, 2595), (6, 223), (5, 1502), (5, 1395), (5, 2578)],
    ),
    (
        "7 10\n0100101100\n1101110010\n1011011111\n0111011111\n0100000000\n"
        "1101110010\n0111111111\n",
        [(3, 652), (5, 73), (3, 670), (4, 216), (2, 822), (5, 73), (4, 226)],
    ),
    (
        "8 10\n1011101100\n1010101011\n0001100001\n1011100101\n0000100001\n"
        "1100010010\n0011010101\n0011000111\n",
        [(3, 2784), (3, 2026), (4, 950), (5, 368), (4, 700), (2, 5665), (3, 4302), (4, 1461)],
    ),
]


def items_search(n, items, search=_kernels_py.search_max_partition):
    """(best, nodes) of the kernel on solver items, run to completion."""
    counts = tuple(c for c, _ in items)
    masks = tuple(m for _, m in items)
    best, _, nodes, done = search(counts, masks, n, shares._items_cap(n, items), 10**7)
    assert done
    return best, nodes


def agent_items(matrix, i):
    """Agent i's raw solver items, not relabelled, by descending count,
    then mask, and the matrix's consensus count."""
    consensus, types = shares._census(matrix)
    items = sorted(shares._agent_items(matrix.n, types, i), key=lambda cm: (-cm[0], cm[1]))
    return tuple(items), consensus


def agent_search(matrix, i):
    """Agent i's share search on its raw solver items: (share, nodes, items)."""
    items, consensus = agent_items(matrix, i)
    best, nodes = items_search(matrix.n, items)
    return consensus + best, nodes, items


def relabelled_searches(matrices):
    """The searches the solver runs for every agent of the matrices, one
    per relabelled key: {(n, relabelled items): nodes}. Each agrees with
    the raw search on the share."""
    searched = {}
    for matrix in matrices:
        types = shares._census(matrix)[1]
        for i in range(matrix.n):
            items = agent_items(matrix, i)[0]
            key = (matrix.n, shares._relabel(matrix.n, shares._agent_items(matrix.n, types, i))[0])
            if key not in searched:
                best, searched[key] = items_search(*key)
                assert best == items_search(matrix.n, items)[0]
    return searched


def test_shares_workload_nodes_pure():
    searched = {}
    for text, pinned in SHARES_WORKLOAD:
        matrix = parse_matrix(text)
        for i, expected in enumerate(pinned):
            share, nodes, items = agent_search(matrix, i)
            assert (share, nodes) == expected, (text, i)
            searched[(matrix.n, items)] = nodes
    # distinct raw searches: this pins the kernel, not the solver's cache,
    # which runs one search per relabelled key (next test)
    assert len(searched) == 24 and sum(searched.values()) == 31_386


def test_shares_workload_relabelled_searches():
    searched = relabelled_searches(parse_matrix(text) for text, _ in SHARES_WORKLOAD)
    assert len(searched) == 22 and sum(searched.values()) == 25_191


def counting_augment(monkeypatch):
    """Count the calls to ``_augment`` from here on: a list of one count."""
    calls = [0]
    augment = _kernels_py._augment

    def counted(*args):
        calls[0] += 1
        return augment(*args)

    monkeypatch.setattr(_kernels_py, "_augment", counted)
    return calls


def test_shares_workload_augmentations(monkeypatch):
    # the primal pre-test prunes most nodes before any augmenting step:
    # 5,793 calls for the 22 searches on the assignment path, against
    # 16,396 without it; the public entry, which sends the 6-agent keys to
    # the lane path, visits the same 25,191 nodes
    searched = relabelled_searches(parse_matrix(text) for text, _ in SHARES_WORKLOAD)
    calls = counting_augment(monkeypatch)
    assignment = {key: items_search(*key, _kernels_py._search_assignment)[1] for key in searched}
    assert assignment == searched and sum(searched.values()) == 25_191
    assert calls[0] == 5_793


def test_search_path_selection(monkeypatch):
    # up to 6 agents the search packs the permutation sums and never
    # augments; from 7 agents it keeps the assignment state
    calls = counting_augment(monkeypatch)
    items = agent_items(parse_matrix(SHARES_WORKLOAD[1][0]), 0)[0]
    assert items_search(6, items, kernels.search_max_partition) == (5, 1766)
    assert calls[0] == 0
    items = agent_items(parse_matrix(SHARES_WORKLOAD[0][0]), 6)[0]
    assert items_search(7, items, kernels.search_max_partition) == (8, 388)
    assert calls[0] > 0


def test_stage1_tripled_search_pinned():
    # gen_stage1(7) * 3, a 7x21 instance, agent index 1: a deep search
    # (certified cap 13) that the workloads do not reach
    matrix = PreferenceMatrix.from_columns(gen_stage1(7) * 3)
    items = agent_items(matrix, 1)[0]
    assert shares._items_cap(7, items) == 13
    assert items_search(7, items) == (12, 107_893)


@st.composite
def search_case(draw, n, count_max=4):
    T = draw(st.integers(1, 4))
    counts = tuple(draw(st.lists(st.integers(1, count_max), min_size=T, max_size=T)))
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


@pytest.mark.parametrize("n", range(2, 6))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_search_long_runs_match_reference(n, data):
    # the sweep workload's shapes: few agents, up to a dozen decisions of a
    # type, so long runs of equal bundles meet the enumeration's capacity check
    counts, masks, cap, budget = data.draw(search_case(n, count_max=12))
    expected = reference_search_max_partition(counts, masks, n, cap, budget)
    assert _kernels_py.search_max_partition(counts, masks, n, cap, budget) == expected


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_search_cap_only_stops(data):
    # any cap from the optimum up to floor(T/n) only decides where the
    # search stops: the same best, composition and completion, and no
    # fewer nodes for a higher cap
    n = data.draw(st.integers(2, 5))
    counts, masks, _, _ = data.draw(search_case(n))
    top = sum(c * m.bit_count() for c, m in zip(counts, masks)) // n
    best, comp, nodes, done = kernels.search_max_partition(counts, masks, n, top, 10**6)
    assert done and best <= top
    for cap in range(top - 1, best - 1, -1):
        got = kernels.search_max_partition(counts, masks, n, cap, 10**6)
        assert got[:2] == (best, comp) and got[3]
        assert got[2] <= nodes
        nodes = got[2]


@st.composite
def lane_case(draw):
    # random items for 1-6 agents; about half the cases put the decision total
    # on a lane-width edge, 2^k - 1 or 2^k, where the packed lanes widen
    n = draw(st.integers(1, 6))
    T = draw(st.integers(1, 4))
    edges = [e for e in (1, 2, 3, 4, 7, 8, 15, 16) if T <= e <= (16 if n <= 4 else 8)]
    total = draw(st.one_of(st.sampled_from(edges), st.integers(T, 3 * T)))
    counts = [1] * T
    for t in draw(st.lists(st.integers(0, T - 1), min_size=total - T, max_size=total - T)):
        counts[t] += 1
    masks = tuple(draw(st.lists(st.integers(0, 2**n - 1), min_size=T, max_size=T)))
    return n, tuple(counts), masks


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=lane_case(), data=st.data())
def test_search_lanes_match_assignment(case, data):
    # the two search paths, called directly, on every cap from the optimum
    # to floor(T/n) and under a budget that runs out mid-search
    n, counts, masks = case
    top = sum(c * m.bit_count() for c, m in zip(counts, masks)) // n
    got = _kernels_py._search_lanes(counts, masks, n, top, 10**6)
    assert got == _kernels_py._search_assignment(counts, masks, n, top, 10**6)
    best, _, nodes, done = got
    assert done
    for cap in range(best, top):
        assert _kernels_py._search_lanes(counts, masks, n, cap, 10**6) == (
            _kernels_py._search_assignment(counts, masks, n, cap, 10**6)
        )
    if nodes > 1:
        budget = data.draw(st.integers(1, nodes - 1))
        got = _kernels_py._search_lanes(counts, masks, n, top, budget)
        assert got == _kernels_py._search_assignment(counts, masks, n, top, budget)
        assert not got[3]


def held_state(build, counts, masks, n):
    """A node state built by ``build`` and a view of what it holds at a
    depth: the lane state's packed ints up to that depth (the next slot
    is the child's, which each push there writes), the assignment state's
    bundle sums, potentials and matching."""
    push, pop = build(counts, masks, n)
    held = inspect.getclosurevars(push).nonlocals
    if build is _kernels_py._lane_state:
        S = held["S"]
        return push, pop, lambda depth: S[: depth + 1]
    lists = [held[name] for name in ("B", "u", "v", "match")]
    return push, pop, lambda depth: copy.deepcopy(lists)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=lane_case(), data=st.data())
@pytest.mark.parametrize("build", [_kernels_py._lane_state, _kernels_py._assignment_state])
def test_node_state_push_pop(build, case, data):
    # one path down the tree and back: each push prunes exactly when the
    # node's permutation minimum is at most the floor, a pruned push
    # leaves the state as it was, a leaf's value is exact, and each pop
    # restores the state its push found
    n, counts, masks = case
    T = len(counts)
    push, pop, view = held_state(build, counts, masks, n)
    B = [[0] * n for _ in range(n)]
    path = []
    for t in range(T):
        row = [0] * n
        for b in data.draw(st.lists(st.integers(0, n - 1), min_size=counts[t], max_size=counts[t])):
            row[b] += 1
        for b in range(n):
            for a in range(n):
                B[b][a] += row[b] * (masks[t] >> a & 1)
        value = naive_min_assignment(B)
        floor = value + data.draw(st.integers(-1, 1))
        before = view(T)
        path.append((t, row, view(t)))
        got = push(t, row, floor)
        if floor >= value:
            assert got is None and view(T) == before
            got = push(t, row, value - 1)
        assert got is not None
        if t == T - 1:
            assert got == value
    for t, row, before in reversed(path):
        pop(t, row)
        assert view(t) == before


@st.composite
def shares_shape_case(draw):
    # the shares workload's shapes: 6-9 agents and 6-10 types of 1-3
    # decisions, so a node raises several matched entries at once
    n = draw(st.integers(6, 9))
    T = draw(st.integers(6, 10))
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=T, max_size=T)))
    masks = tuple(draw(st.lists(st.integers(1, 2**n - 1), min_size=T, max_size=T)))
    cap = sum(c * bin(m).count("1") for c, m in zip(counts, masks)) // n
    budget = draw(st.integers(100, 300))
    return counts, masks, n, cap, budget


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=shares_shape_case())
def test_search_shares_shapes_match_reference(case):
    assert _kernels_py.search_max_partition(*case) == reference_search_max_partition(*case)


def small_instances(seed=4321, count=300):
    """Random 3x1-10 and 4x1-8 matrices, about half each, as in the sweep workload."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = (3, rng.randint(1, 10)) if rng.random() < 0.5 else (4, rng.randint(1, 8))
        rows = ["".join(str(rng.randint(0, 1)) for _ in range(m)) for _ in range(n)]
        yield parse_matrix(f"{n} {m}\n" + "\n".join(rows) + "\n")


def test_small_instances_nodes_pinned():
    searches = nodes = total_share = 0
    for matrix in small_instances():
        for i in range(matrix.n):
            share, used, _ = agent_search(matrix, i)
            searches += 1
            nodes += used
            total_share += share
    assert (searches, nodes, total_share) == (1047, 4_557, 2560)


def brute_force_class(n, items):
    """The least relabelled item tuple over all n! agent relabellings."""
    keys = []
    for perm in itertools.permutations(range(n)):
        renamed = []
        for count, mask in items:
            bits = sum(1 << perm[a] for a in range(n) if mask >> a & 1)
            renamed.append((count, bits))
        keys.append(tuple(sorted(renamed, key=lambda cm: (-cm[0], cm[1]))))
    return min(keys)


def test_small_instances_relabelled_searches():
    matrices = list(small_instances())
    searched = relabelled_searches(matrices)
    assert len(searched) == 281 and sum(searched.values()) == 1_815
    # at n <= 4 the signatures tell every pair of classes apart: one
    # search per relabelling class, no more
    classes = set()
    for matrix in matrices:
        for i in range(matrix.n):
            items = agent_items(matrix, i)[0]
            classes.add((matrix.n, brute_force_class(matrix.n, items)))
    assert len(classes) == len(searched)
