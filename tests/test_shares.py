import json
import random
from fractions import Fraction

import pytest

from mmsvote.model import Partition, PreferenceMatrix
from mmsvote.shares import (
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
from oracles import canonical_census_multisets, naive_mms_adapt, random_matrix

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


def test_share_dominance_chain_random():
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randint(2, 5)
        M = random_matrix(rng, n, rng.randint(0, 7))
        shares = mms_adapt_all(M)
        dictator = rds(M)
        for i in range(n):
            assert shares[i] <= uniform_bound(M, i) <= dictator[i]


def test_mms_invariance_under_column_permutation_and_negation():
    rng = random.Random(3571)
    for _ in range(40):
        n = rng.randint(3, 4)
        m = rng.randint(1, 6)
        M = random_matrix(rng, n, m)
        cols = list(M.columns())
        rng.shuffle(cols)
        j = rng.randrange(m)
        cols[j] = tuple(1 - b for b in cols[j])
        M2 = PreferenceMatrix.from_columns(cols, n_agents=n)
        assert mms_adapt_all(M) == mms_adapt_all(M2)


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
    for _ in range(60):
        n = rng.randint(3, 4)
        M = random_matrix(rng, n, rng.randint(0, 6))
        for i in range(n):
            witness = mms_partition(M, i)
            assert partition_guarantee(M, i, witness) == mms_adapt(M, i)
    witness = mms_partition(EXAMPLE_3x9, 1)
    assert partition_guarantee(EXAMPLE_3x9, 1, witness) == 6


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
    b = n3_bounds(all_consensus(3, 5))
    assert b.fine == (5, 5, 5)
    with pytest.raises(ValueError):
        n3_bounds(EXAMPLE_4x2)


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
    monkeypatch.setenv("MMSVOTE_SEARCH_BUDGET", "1")
    M = random_matrix(random.Random(2), 4, 8)
    with pytest.raises(SearchBudgetExceeded):
        mms_adapt(M, 0)


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
