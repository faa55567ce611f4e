import importlib
import inspect
import itertools
import json
import math
import pkgutil
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmsvote
from mmsvote import shares
from mmsvote.adversary import gen_mnw_gap
from mmsvote.model import Partition, PreferenceMatrix, parse_matrix, type_census
from mmsvote.shares import (
    N3Bounds,
    SearchBudgetExceeded,
    effective_budget,
    mms_adapt,
    mms_adapt_all,
    mms_egal,
    mms_partition,
    n3_bounds,
    partition_guarantee,
    rds,
    share_report,
    uniform_bound,
)
from mmsvote.verify import mnw_t_sweep
from oracles import (
    canonical_census_multisets,
    naive_mms_adapt,
    random_matrix,
    reference_share,
)
from test_kernels import SHARES_WORKLOAD, small_instances

EXAMPLE_3x9 = PreferenceMatrix.from_rows(
    [
        (1, 1, 0, 1, 1, 0, 1, 1, 0),
        (1, 1, 1, 1, 1, 1, 1, 1, 1),
        (0, 0, 1, 0, 0, 1, 0, 0, 1),
    ]
)

EXAMPLE_4x2 = PreferenceMatrix.from_rows([(1, 1), (1, 0), (0, 1), (0, 0)])

EXAMPLE_3x15 = PreferenceMatrix.from_columns([(0, 1, 1)] * 9 + [(1, 0, 1)] * 3 + [(1, 1, 0)] * 3)


def all_consensus(n, m):
    return PreferenceMatrix.from_rows([(1,) * m] * n)

def all_opposed(n, m):
    return PreferenceMatrix.from_rows([(0,) * m] + [(1,) * m] * (n - 1))


def test_rds_examples():
    assert rds(EXAMPLE_4x2) == (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    assert rds(EXAMPLE_3x9) == (Fraction(5), Fraction(6), Fraction(4))
    assert rds(all_consensus(4, 7)) == (Fraction(7),) * 4
    assert rds(all_opposed(3, 2)) == (Fraction(2, 3), Fraction(4, 3), Fraction(4, 3))


def test_mms_egal():
    assert mms_egal(9) == 4
    assert mms_egal(0) == 0
    assert mms_egal(15) == 7
    with pytest.raises(ValueError):
        mms_egal(-1)


def test_mms_adapt_pinned_values():
    assert mms_adapt_all(EXAMPLE_3x9) == (5, 6, 4)
    assert mms_adapt_all(EXAMPLE_4x2) == (0, 0, 0, 0)
    assert mms_adapt_all(EXAMPLE_3x15) == (7, 9, 9)
    assert mms_adapt_all(all_consensus(5, 6)) == (6,) * 5


def test_mms_adapt_empty_instance():
    M = PreferenceMatrix.from_columns([], n_agents=4)
    assert mms_adapt_all(M) == (0, 0, 0, 0)
    assert uniform_bound(M, 0) == 0


def test_mms_adapt_all_opposed_family():
    for n in (3, 4, 5):
        for m in range(1, 9):
            M = all_opposed(n, m)
            assert mms_adapt(M, 0) == m // n
            for i in range(1, n):
                assert mms_adapt(M, i) == m - -(-m // n)


def test_uniform_bound_examples():
    assert uniform_bound(EXAMPLE_3x9, 0) == 5
    assert [uniform_bound(EXAMPLE_4x2, i) for i in range(4)] == [1, 1, 1, 1]
    assert uniform_bound(all_consensus(3, 7), 2) == 7
    # -1 once returned the last agent's bound, and n raised a bare IndexError
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"agent index {i} out of range for n=3"):
            uniform_bound(EXAMPLE_3x9, i)


def test_uniform_bound_is_floor_of_rds():
    # the bounds come from integer totals; rds() keeps the exact rationals
    rng = random.Random(99)
    for _ in range(100):
        M = random_matrix(rng, rng.randint(1, 6), rng.randint(0, 10))
        floors = [r.numerator // r.denominator for r in rds(M)]
        assert [uniform_bound(M, i) for i in range(M.n)] == floors
        assert list(share_report(M).uniform_bound) == floors


def test_mms_matches_naive_oracle_exhaustive_n3():
    for cols in canonical_census_multisets(3, 4):
        M = PreferenceMatrix.from_columns(cols, n_agents=3)
        for i in range(3):
            assert mms_adapt(M, i) == naive_mms_adapt(M, i), M.to_text()


def test_mms_matches_naive_oracle_random():
    rng = random.Random(421)
    for _ in range(25):
        M = random_matrix(rng, 4, rng.randint(1, 5))
        for i in range(4):
            assert mms_adapt(M, i) == naive_mms_adapt(M, i), M.to_text()
    for _ in range(5):
        M = random_matrix(rng, 5, 4)
        for i in range(5):
            assert mms_adapt(M, i) == naive_mms_adapt(M, i), M.to_text()


def test_certified_cap_against_reference_share():
    # agent 0's item multisets (masks hold agent 0 and are not everyone):
    # all of them at n = 3 up to 6 decisions, a seeded sample at n = 4, 5
    cases = []
    for size in range(7):
        for combo in itertools.combinations_with_replacement((1, 3, 5), size):
            cases.append((3, combo))
    rng = random.Random(2603)
    for n, draws in ((4, 150), (5, 12)):
        sides = [mask for mask in range(1, 2**n - 1) if mask & 1]
        for _ in range(draws):
            cases.append((n, tuple(rng.choice(sides) for _ in range(rng.randint(1, 5)))))
    dropped = set()
    for n, combo in cases:
        items = sorted(Counter(combo).items())
        masks = tuple(mask for mask, _ in items)
        counts = tuple(count for _, count in items)
        expected = reference_share(counts, masks, n)
        # agent a votes 1 on a decision exactly when its mask holds a
        columns = [tuple(mask >> a & 1 for a in range(n)) for mask in combo]
        matrix = PreferenceMatrix.from_columns(columns, n_agents=n)
        assert mms_adapt(matrix, 0) == expected, (n, combo)
        cap = shares._items_cap(n, tuple(zip(counts, masks)))
        assert cap >= expected, (n, combo)
        total = sum(count * mask.bit_count() for count, mask in zip(counts, masks))
        if cap < total // n:
            dropped.add(total % n)
    # the table holds both residues the cap is lowered on
    assert dropped == {0, 1}


@pytest.mark.parametrize(
    "rows, share", [(("11", "10", "01"), 0), (("00", "00", "11", "10"), 0)]
)
def test_certified_cap_below_floor_rds(rows, share):
    # 3x2 with r = 0 and 4x2 with r = 1: agent index 1 cannot reach
    # floor(RDS) = 1
    M = PreferenceMatrix.from_rows([tuple(map(int, row)) for row in rows])
    items = shares._agent_items(M.n, shares._census(M)[1], 1)
    assert uniform_bound(M, 1) == 1
    assert shares._items_cap(M.n, items) == share == mms_adapt(M, 1)


def test_share_dominance_chain_random():
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randint(2, 5)
        M = random_matrix(rng, n, rng.randint(0, 7))
        shares = mms_adapt_all(M)
        dictator = rds(M)
        for i in range(n):
            assert shares[i] <= uniform_bound(M, i) <= dictator[i]


@st.composite
def small_matrix(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(0, 16 - n))
    row = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    return PreferenceMatrix.from_rows(draw(st.lists(row, min_size=n, max_size=n)))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(M=small_matrix())
def test_agent_items_are_the_census_seen_from_the_agent(M):
    # one item per non-consensus type, whose mask holds the agents voting
    # with agent i on it; no two types give agent i the same mask, so no
    # items need merging
    n = M.n
    types = shares._census(M)[1]
    census = [(t, e) for t, e in type_census(M).items() if t.kind != "consensus"]
    for i in range(n):
        items = shares._agent_items(n, types, i)
        masks = [mask for _, mask in items]
        assert len(items) == len(census)
        assert len(set(masks)) == len(masks)
        assert all(mask >> i & 1 for mask in masks)
        assert sorted(items) == sorted(
            (e.count, sum(1 << a for a in range(n) if t.bits[a] == t.bits[i])) for t, e in census
        )


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(M=small_matrix(), data=st.data())
def test_mms_metamorphic_relabel_columns_and_cap(M, data):
    # relations that need no oracle, up to 8 agents
    n, m = M.n, M.m
    values = mms_adapt_all(M)
    perm = data.draw(st.permutations(range(n)))
    relabelled = PreferenceMatrix.from_columns(
        [[col[a] for a in perm] for col in M.columns()], n_agents=n
    )
    assert mms_adapt_all(relabelled) == tuple(values[a] for a in perm)
    order = data.draw(st.permutations(range(m)))
    flips = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    cols = list(M.columns())
    moved = [tuple(1 - b if flip else b for b in cols[j]) for j, flip in zip(order, flips)]
    assert mms_adapt_all(PreferenceMatrix.from_columns(moved, n_agents=n)) == values
    for i in range(n):
        assert values[i] <= uniform_bound(M, i)


def test_partition_guarantee_examples():
    P = Partition.of([(0, 1, 2), (3, 4, 5), (6, 7, 8)], n_agents=3, n_decisions=9)
    assert partition_guarantee(EXAMPLE_3x9, 2, P) == 4
    singles = Partition.of([(0,), (1,), (), ()], n_agents=4, n_decisions=2)
    assert partition_guarantee(EXAMPLE_4x2, 0, singles) == 0
    one_bundle = Partition.of([tuple(range(9)), (), ()], n_agents=3, n_decisions=9)
    assert partition_guarantee(EXAMPLE_3x9, 0, one_bundle) == min(
        sum(1 for j in range(9) if EXAMPLE_3x9.rows[a][j] == EXAMPLE_3x9.rows[0][j])
        for a in range(3)
    )


def test_partition_guarantee_validates():
    P = Partition.of([(0,), (1,)], n_agents=2, n_decisions=2)
    with pytest.raises(ValueError):
        partition_guarantee(EXAMPLE_3x9, 0, P)


def test_mms_partition_witness_attains_share():
    rng = random.Random(1213)
    matrices = [random_matrix(rng, rng.randint(3, 4), rng.randint(0, 6)) for _ in range(60)]
    # each witness comes from a search of the agent's own items, not the
    # relabelled ones the share queries search
    matrices += [parse_matrix(text) for text, _ in SHARES_WORKLOAD]
    matrices += small_instances(seed=2718, count=150)
    # column-shuffled and column-complemented copies list the census types
    # in another order and orientation than their source
    for M in matrices:
        cols = list(M.columns())
        rng.shuffle(cols)
        shuffled = PreferenceMatrix.from_columns(cols, n_agents=M.n)
        complemented = PreferenceMatrix.from_columns(
            [tuple(1 - b for b in col) if rng.random() < 0.5 else col for col in M.columns()],
            n_agents=M.n,
        )
        for X in (M, shuffled, complemented):
            consensus = {j for j, col in enumerate(X.columns()) if len(set(col)) == 1}
            for i in range(X.n):
                witness = mms_partition(X, i)
                assert partition_guarantee(X, i, witness) == mms_adapt(X, i), (X.to_text(), i)
                assert consensus <= set(witness.bundles[0]), (X.to_text(), i)
    witness = mms_partition(EXAMPLE_3x9, 1)
    assert partition_guarantee(EXAMPLE_3x9, 1, witness) == 6


@pytest.mark.parametrize(
    "n, expected", [(9, (189,) + (217,) * 9), (15, (765,) + (991,) * 15)]
)
def test_mnw_gap_shares_reach_uniform_bound(n, expected):
    # the paper's Nash welfare gap family: every share reaches the cap
    # floor(RDS), and agent 0's is the gap construction's MMS^adapt
    M = gen_mnw_gap(n)
    shares = mms_adapt_all(M)
    assert shares == expected
    assert shares == tuple(uniform_bound(M, i) for i in range(M.n))
    assert shares[0] == mnw_t_sweep(n).mms1_reference
    if n == 9:
        assert partition_guarantee(M, 0, mms_partition(M, 0)) == 189


def test_partition_guarantee_never_exceeds_share():
    rng = random.Random(88)
    for _ in range(30):
        M = random_matrix(rng, 3, rng.randint(1, 6))
        share = mms_adapt(M, 0)
        for _ in range(5):
            bundles = [[] for _ in range(3)]
            for j in range(M.m):
                bundles[rng.randrange(3)].append(j)
            P = Partition.of(bundles, n_agents=3, n_decisions=M.m)
            assert partition_guarantee(M, 0, P) <= share


def test_n3_bounds_examples():
    b = n3_bounds(EXAMPLE_3x9)
    assert b.fine == (5, 6, 4)
    assert b.coarse == 6
    assert b.min_bound == 5
    b = n3_bounds(EXAMPLE_3x15)
    assert b.fine == (7, 9, 9)
    with pytest.raises(ValueError):
        n3_bounds(EXAMPLE_4x2)


def solo_counts(matrix):
    """Per agent, the decisions on which it alone disagrees with the other
    two, read off the column bits."""
    return tuple(sum(col.count(col[a]) == 1 for col in matrix.columns()) for a in range(3))


def n3_bounds_from_solo(m, solo):
    """The closed-form three-agent bounds for m decisions from the
    agents' solo counts."""
    d = sum(solo)
    return N3Bounds(
        fine=tuple(m - d + (2 * (d - s) + s) // 3 for s in solo),
        coarse=m - math.ceil(Fraction(d, 3)),
        min_bound=m - math.ceil(Fraction(4 * d, 9)),
    )


def test_n3_bounds_solo_counts_on_clustered_example():
    assert solo_counts(EXAMPLE_3x9) == (3, 0, 6)
    assert n3_bounds(EXAMPLE_3x9) == n3_bounds_from_solo(9, (3, 0, 6))


def test_n3_bounds_all_consensus():
    M = all_consensus(3, 5)
    assert solo_counts(M) == (0, 0, 0)
    assert n3_bounds(M) == N3Bounds(fine=(5, 5, 5), coarse=5, min_bound=5)
    with pytest.raises(ValueError):
        n3_bounds(PreferenceMatrix.from_rows([(0,), (0,)]))


def test_n3_bounds_match_column_counts_exhaustive():
    # every 3xm matrix up to m = 5: 37,449 matrices
    for m in range(6):
        for cols in itertools.product(itertools.product((0, 1), repeat=3), repeat=m):
            M = PreferenceMatrix.from_columns(cols, n_agents=3)
            assert n3_bounds(M) == n3_bounds_from_solo(m, solo_counts(M)), cols


def test_n3_bounds_dominate_shares():
    rng = random.Random(777)
    for _ in range(60):
        M = random_matrix(rng, 3, rng.randint(0, 7))
        shares = mms_adapt_all(M)
        b = n3_bounds(M)
        for i in range(3):
            assert shares[i] <= b.fine[i] <= b.coarse
        assert min(shares) <= b.min_bound


def test_budget_is_a_hard_error(monkeypatch):
    # the budget is in the key of the class cache (_search_class) and of
    # the census memo (_census_bests): after default-budget calls have
    # filled both, a tiny budget must still search, and fail, for the same
    # agent, for a relabelled copy of it and for every agent at once
    M = random_matrix(random.Random(2), 4, 8)
    swapped = PreferenceMatrix.from_rows([M.rows[1], M.rows[0], M.rows[2], M.rows[3]])
    assert mms_adapt(M, 0) == mms_adapt(swapped, 1)
    expected = mms_adapt_all(M)
    monkeypatch.setenv("MMSVOTE_SEARCH_BUDGET", "1")
    for matrix, i in ((M, 0), (swapped, 1)):
        with pytest.raises(SearchBudgetExceeded):
            mms_adapt(matrix, i)
        with pytest.raises(SearchBudgetExceeded):
            mms_partition(matrix, i)
        with pytest.raises(SearchBudgetExceeded):
            mms_adapt_all(matrix)
    monkeypatch.delenv("MMSVOTE_SEARCH_BUDGET")
    assert mms_adapt_all(M) == expected


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("MMSVOTE_SEARCH_BUDGET", "2")
    assert effective_budget() == 2
    M = random_matrix(random.Random(9), 4, 8)
    with pytest.raises(SearchBudgetExceeded):
        mms_adapt(M, 1)
    monkeypatch.setenv("MMSVOTE_SEARCH_BUDGET", "zillion")
    with pytest.raises(ValueError):
        effective_budget()
    monkeypatch.setenv("MMSVOTE_SEARCH_BUDGET", "0")
    with pytest.raises(ValueError):
        effective_budget()


def test_share_report_json():
    report = share_report(EXAMPLE_3x9)
    data = json.loads(report.to_json())
    assert data["mms_adapt"] == [5, 6, 4]
    assert data["mms_egal"] == 4
    assert data["rds"] == [5, 6, 4]
    assert data["uniform_bound"] == [5, 6, 4]
    assert data["n3_bounds"] == {"fine": [5, 6, 4], "coarse": 6, "min_bound": 5}

    report = share_report(all_opposed(3, 2))
    data = report.to_dict()
    assert data["rds"] == ["2/3", "4/3", "4/3"]
    assert data["mms_adapt"] == [0, 1, 1]

    report = share_report(EXAMPLE_4x2)
    assert "n3_bounds" not in report.to_dict()


def test_mms_adapt_all_matches_per_agent_calls():
    # mms_adapt_all reads the census memo, mms_adapt searches one agent's
    # items; each per-agent call here reads the census of a fresh matrix
    rng = random.Random(7321)
    shapes = [(2, 8)] * 60 + [(3, 10)] * 150 + [(4, 8)] * 150 + [(5, 6)] * 40
    shapes += [(6, 5)] * 30 + [(7, 4)] * 30
    for n, m_max in shapes:
        m = rng.randint(1, m_max)
        rows = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)]
        expected = tuple(mms_adapt(PreferenceMatrix.from_rows(rows), i) for i in range(n))
        assert mms_adapt_all(PreferenceMatrix.from_rows(rows)) == expected
        # consensus columns anywhere add one each to every share
        cols = list(zip(*rows))
        for _ in range(rng.randint(1, 3)):
            cols.insert(rng.randint(0, len(cols)), (rng.randint(0, 1),) * n)
        more = tuple(v + len(cols) - m for v in expected)
        assert tuple(mms_adapt(PreferenceMatrix.from_columns(cols), i) for i in range(n)) == more
        assert mms_adapt_all(PreferenceMatrix.from_columns(cols)) == more


def clear_package_caches():
    """Empty every functools cache in the package, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name.startswith("mmsvote") and module is not None:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_package_caches_are_bounded():
    # a long session in one process (exhaustive_check, a benchmark sweep)
    # must not grow a cache without bound: every functools cache in the
    # package has a finite maxsize, or wraps a function of no arguments
    cached = {}
    for info in pkgutil.iter_modules(mmsvote.__path__, "mmsvote."):
        module = importlib.import_module(info.name)
        members = list(vars(module).items())
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == info.name:
                members += [(f"{name}.{k}", v) for k, v in vars(value).items()]
        for name, value in members:
            if callable(getattr(value, "cache_info", None)):
                cached[f"{info.name}.{name}"] = value
    assert {"mmsvote.cli._build_parser", "mmsvote.shares._search_class"} <= set(cached)
    for name, fn in cached.items():
        bounded = fn.cache_info().maxsize is not None
        assert bounded or not inspect.signature(fn.__wrapped__).parameters, name


def test_census_memo_ignores_column_order_and_orientation():
    rng = random.Random(6607)
    for _ in range(150):
        n = rng.randint(2, 6)
        M = random_matrix(rng, n, rng.randint(0, 8 if n < 5 else 5))
        shares._census_bests.cache_clear()
        expected = mms_adapt_all(M)
        cols = list(M.columns())
        rng.shuffle(cols)
        permuted = PreferenceMatrix.from_columns(cols, n_agents=n)
        flipped = PreferenceMatrix.from_columns(
            [tuple(1 - b for b in col) if rng.random() < 0.5 else col for col in cols], n_agents=n
        )
        assert mms_adapt_all(permuted) == mms_adapt_all(flipped) == expected
        info = shares._census_bests.cache_info()
        assert (info.misses, info.hits) == (1, 2)


def test_census_memo_cold_start_searches():
    # from cold caches, the memo runs exactly the searches of the
    # relabelled classes (test_kernels pins the same 281) and no more;
    # the 300 matrices have 198 distinct non-consensus censuses
    clear_package_caches()
    matrices = list(small_instances())
    first = [mms_adapt_all(matrix) for matrix in matrices]
    assert shares._search_class.cache_info().misses == 281
    assert shares._census_bests.cache_info().misses == 198
    assert shares._census_bests.cache_info().maxsize is not None
    clear_package_caches()
    assert [mms_adapt_all(matrix) for matrix in matrices] == first
    assert shares._search_class.cache_info().misses == 281


@st.composite
def concatenable_pair(draw):
    n = draw(st.integers(2, 5))
    widths = st.integers(0, 5 if n < 5 else 3)
    def matrix(m):
        row = st.lists(st.integers(0, 1), min_size=m, max_size=m)
        return PreferenceMatrix.from_rows(draw(st.lists(row, min_size=n, max_size=n)))
    return matrix(draw(widths)), matrix(draw(widths))


@st.composite
def prefix_walk(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(0, 8))
    row = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    return PreferenceMatrix.from_rows(draw(st.lists(row, min_size=n, max_size=n)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(M=prefix_walk())
def test_one_column_raises_each_share_by_zero_or_one(M):
    # the one-column step: appending a column adds exactly 0 or 1 to
    # every agent's adaptive share, so a share walk along the prefixes
    # of a matrix climbs by unit steps
    before = mms_adapt_all(M.prefix(0))
    assert before == (0,) * M.n
    for k in range(1, M.m + 1):
        after = mms_adapt_all(M.prefix(k))
        steps = [a - b for a, b in zip(after, before)]
        assert set(steps) <= {0, 1}, (M.to_text(), k, steps)
        before = after


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(pair=concatenable_pair(), bit=st.integers(0, 1))
def test_mms_metamorphic_consensus_and_concatenation(pair, bit):
    A, B = pair
    n = A.n
    values = mms_adapt_all(A)
    # a consensus column adds its one decision to every share
    plus = A.append_column((bit,) * n)
    assert mms_adapt_all(plus) == tuple(v + 1 for v in values)
    # the bundle-wise union of two witnesses is a partition of A||B whose
    # guarantee is at least the sum, so the share is superadditive
    joined = PreferenceMatrix.from_rows([a + b for a, b in zip(A.rows, B.rows)])
    for whole, part_a, part_b in zip(mms_adapt_all(joined), values, mms_adapt_all(B)):
        assert whole >= part_a + part_b
