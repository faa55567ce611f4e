import pickle
import random

import pytest

from mmsvote.model import (
    CanonicalType,
    ParseError,
    Partition,
    PreferenceMatrix,
    agreement,
    canonicalize,
    n3_counts,
    n4_counts,
    parse_matrix,
    parse_outcome,
    type_census,
    utility,
)


def test_parse_matrix_basic():
    M = parse_matrix("3 2\n10\n11\n00")
    assert M.n == 3 and M.m == 2
    assert M.rows == ((1, 0), (1, 1), (0, 0))


def test_parse_matrix_round_trips():
    M = parse_matrix("4 2\n11\n10\n01\n00")
    assert parse_matrix(M.to_text()) == M
    assert parse_matrix(M.to_json()) == M


def test_parse_matrix_rejects_bad_character():
    with pytest.raises(ParseError) as err:
        parse_matrix("3 2\n10\n1X\n00")
    assert err.value.line == 3
    assert err.value.column == 2
    assert "row 2" in str(err.value)


def test_parse_matrix_rejects_dimension_mismatch():
    with pytest.raises(ParseError):
        parse_matrix("3 2\n10\n11")
    with pytest.raises(ParseError):
        parse_matrix("2 3\n101\n10")
    with pytest.raises(ParseError):
        parse_matrix("")


def test_parse_matrix_header_needs_ascii_digits():
    # both pass str.isdigit; int() reads the first as 3 and fails on the second
    for text in ("\u0663 1\n0\n0\n0\n", "\u00b2 1\n0\n"):
        with pytest.raises(ParseError) as err:
            parse_matrix(text)
        assert err.value.line == 1


def test_parse_matrix_empty_decisions_is_legal():
    M = parse_matrix("3 0\n\n\n\n")
    assert M.n == 3 and M.m == 0
    assert parse_matrix(M.to_text()) == M


def test_parse_matrix_json_validation():
    with pytest.raises(ParseError):
        parse_matrix('{"n": 2, "rows": ["01", "10"]}')
    with pytest.raises(ParseError):
        parse_matrix('{"n": 2, "m": 2, "rows": ["01"]}')
    with pytest.raises(ParseError):
        parse_matrix('{"n": 2, "m": 2, "rows": ["01", "1x"]}')
    with pytest.raises(ParseError):
        parse_matrix('{"n": true, "m": 1, "rows": ["0"]}')
    with pytest.raises(ParseError):
        parse_matrix('{"n": 1, "m": false, "rows": [""]}')


def test_matrix_validates_shape():
    with pytest.raises(ValueError):
        PreferenceMatrix(((0, 1), (0,)))
    with pytest.raises(ValueError):
        PreferenceMatrix(((0, 2),))
    with pytest.raises(ValueError):
        PreferenceMatrix(())


def test_bits_must_be_integers():
    # 1.0 == 1, but a float bit would print as "1.0" and break the text format
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        PreferenceMatrix.from_rows([(1.0, 0, 1), (0, 1, 1)])
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        canonicalize([0, 1.0, 1])
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        utility(EXAMPLE_3x9, (1, 1, 1, 0, 1, 1, 1, 0, 0.0), 0)
    M = PreferenceMatrix.from_rows([(True, False, 1), (0, 1, 1)])
    assert M.rows == ((1, 0, 1), (0, 1, 1))
    assert M.to_text() == "2 3\n101\n011\n"
    assert type(M.rows[0][0]) is int


def test_from_columns_and_accessors():
    M = PreferenceMatrix.from_columns([(0, 1, 1), (1, 1, 0)])
    assert M.rows == ((0, 1), (1, 1), (1, 0))
    assert M.column(0) == (0, 1, 1)
    assert list(M.columns()) == [(0, 1, 1), (1, 1, 0)]
    assert M.prefix(1).rows == ((0,), (1,), (1,))
    assert M.drop_columns([0]).rows == ((1,), (1,), (0,))
    assert M.append_column((0, 0, 0)).m == 3
    empty = PreferenceMatrix.from_columns([], n_agents=2)
    assert empty.m == 0 and empty.n == 2


def test_agreement_examples():
    assert agreement((1, 0, 1), (1, 0, 1), {0, 1, 2}) == 3
    assert agreement((1, 0, 1), (0, 1, 0), {0, 1, 2}) == 0
    assert agreement((1, 1, 0), (1, 0, 0), {1, 2}) == 1
    assert agreement((1, 1, 0), (1, 0, 0)) == 2


def test_agreement_errors():
    with pytest.raises(ValueError):
        agreement((0, 1), (0, 1, 1))
    with pytest.raises(ValueError):
        agreement((0, 1), (0, 1), {2})


def test_agreement_complement_identity():
    rng = random.Random(11)
    for _ in range(200):
        size = rng.randint(1, 12)
        a = tuple(rng.randint(0, 1) for _ in range(size))
        b = tuple(rng.randint(0, 1) for _ in range(size))
        subset = {k for k in range(size) if rng.random() < 0.5}
        disagreements = sum(1 for k in subset if a[k] != b[k])
        assert agreement(a, b, subset) + disagreements == len(subset)


def test_canonicalize_examples():
    t, flip = canonicalize([0, 0, 1, 1])
    assert t.bits == (0, 0, 1, 1) and not flip
    assert t.kind == "tie"
    assert t.sides == ((0, 1), (2, 3))

    t, flip = canonicalize([1, 0, 0, 0])
    assert t.bits == (0, 1, 1, 1) and flip
    assert t.kind == "split"
    assert t.minority == (0,)
    assert t.minority_bit == 0

    t, flip = canonicalize([1, 1, 1])
    assert t.bits == (0, 0, 0) and flip
    assert t.kind == "consensus"


def test_canonicalize_negation_invariance():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 8)
        col = tuple(rng.randint(0, 1) for _ in range(n))
        neg = tuple(1 - b for b in col)
        t1, _ = canonicalize(col)
        t2, _ = canonicalize(neg)
        assert t1 == t2
        t3, flip3 = canonicalize(t1.bits)
        assert t3 == t1 and not flip3


def test_canonical_type_rejects_bad_orientation():
    with pytest.raises(ValueError):
        CanonicalType((1, 0))
    with pytest.raises(ValueError):
        CanonicalType(())
    with pytest.raises(ValueError):
        CanonicalType((0, 0, 0)).minority_bit


def test_type_census_counts_sum_to_m():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(0, 10)
        M = PreferenceMatrix.from_columns(
            [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(m)], n_agents=n
        )
        census = type_census(M)
        assert sum(e.count for e in census.values()) == m
        for ctype, entry in census.items():
            assert entry.count == len(entry.occurrences) == len(entry.flipped)
            for j, flip in zip(entry.occurrences, entry.flipped):
                observed, f = canonicalize(M.column(j))
                assert observed == ctype and f == flip


def test_type_census_is_cached_and_read_only():
    M = PreferenceMatrix.from_columns([(0, 1, 1), (1, 0, 0), (1, 1, 1), (0, 0, 1)])
    twin = PreferenceMatrix(M.rows)
    census = type_census(M)
    assert type_census(M) is census
    some_type = next(iter(census))
    with pytest.raises(TypeError):
        census[some_type] = census[some_type]
    with pytest.raises(TypeError):
        del census[some_type]
    assert M == twin and hash(M) == hash(twin)
    type_census(twin)
    assert M == twin and hash(M) == hash(twin)
    assert type_census(twin) == census
    restored = pickle.loads(pickle.dumps(M))
    assert restored == M and type_census(restored) == census


EXAMPLE_3x9 = PreferenceMatrix.from_rows(
    [
        (1, 1, 0, 1, 1, 0, 1, 1, 0),
        (1, 1, 1, 1, 1, 1, 1, 1, 1),
        (0, 0, 1, 0, 0, 1, 0, 0, 1),
    ]
)


def test_n3_counts_on_clustered_example():
    solo, consensus = n3_counts(EXAMPLE_3x9)
    assert solo == (3, 0, 6)
    assert consensus == 0


def test_n3_counts_all_consensus():
    M = PreferenceMatrix.from_rows([(1,) * 5, (1,) * 5, (1,) * 5])
    assert n3_counts(M) == ((0, 0, 0), 5)
    with pytest.raises(ValueError):
        n3_counts(PreferenceMatrix.from_rows([(0,), (0,)]))


def test_n4_counts():
    M = PreferenceMatrix.from_columns(
        [
            (1, 0, 0, 0),  # agent 1 solo
            (0, 0, 1, 0),  # agent 3 solo
            (0, 0, 1, 1),  # tie pairing agents 1,2
            (1, 1, 0, 0),  # same tie, negated orientation
            (0, 1, 0, 1),  # tie pairing agents 1,3
            (1, 1, 1, 1),  # consensus
        ]
    )
    solo, ties, consensus = n4_counts(M)
    assert solo == (1, 0, 1, 0)
    assert ties == (2, 1, 0)
    assert consensus == 1


def test_utility_examples():
    outcome = (1, 1, 1, 0, 1, 1, 1, 0, 0)
    assert utility(EXAMPLE_3x9, EXAMPLE_3x9.rows[1], 1) == 9
    assert [utility(EXAMPLE_3x9, outcome, i) for i in range(3)] == [5, 6, 4]
    with pytest.raises(ValueError):
        utility(EXAMPLE_3x9, outcome, 3)
    with pytest.raises(ValueError):
        utility(EXAMPLE_3x9, (0, 1), 0)


def test_utility_negation_invariance():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = rng.randint(1, 8)
        cols = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(m)]
        M = PreferenceMatrix.from_columns(cols)
        A = [rng.randint(0, 1) for _ in range(m)]
        j = rng.randrange(m)
        flipped_cols = list(cols)
        flipped_cols[j] = tuple(1 - b for b in cols[j])
        Mf = PreferenceMatrix.from_columns(flipped_cols)
        Af = list(A)
        Af[j] = 1 - A[j]
        for i in range(n):
            assert utility(M, A, i) == utility(Mf, Af, i)


def test_partition_validation():
    P = Partition.of([(0, 2), (1,), ()], n_agents=3, n_decisions=3)
    assert P.bundles == ((0, 2), (1,), ())
    assert P.n_bundles == 3
    with pytest.raises(ValueError):
        Partition.of([(0,), (0,), ()], n_agents=3, n_decisions=2)
    with pytest.raises(ValueError):
        Partition.of([(0,), (1,)], n_agents=3, n_decisions=2)
    with pytest.raises(ValueError):
        Partition.of([(0,), (1,), ()], n_agents=3, n_decisions=3)
    with pytest.raises(ValueError):
        Partition.of([(0,), (3,), ()], n_agents=3, n_decisions=3)


def test_parse_outcome():
    assert parse_outcome("0101\n", 4) == (0, 1, 0, 1)
    with pytest.raises(ParseError):
        parse_outcome("010", 4)
    with pytest.raises(ParseError):
        parse_outcome("01x1", 4)
