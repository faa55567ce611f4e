import pickle
import random

import pytest

from mmsvote import model
from mmsvote.model import (
    CanonicalType,
    ParseError,
    Partition,
    PreferenceMatrix,
    canonicalize,
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


def test_canonicalize_examples():
    t, flip = canonicalize([0, 0, 1, 1])
    assert t.bits == (0, 0, 1, 1) and not flip
    assert t.kind == "tie"

    t, flip = canonicalize([1, 0, 0, 0])
    assert t.bits == (0, 1, 1, 1) and flip
    assert t.kind == "split"
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


def test_canonical_type_hash_and_pickle():
    # the hash is made once with the type, equals the dataclass hash of the
    # bits, and stays out of the pickled state
    rng = random.Random(8)
    for _ in range(100):
        t, _ = canonicalize(tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8))))
        checked = CanonicalType(t.bits)
        assert hash(t) == hash(checked) == hash((t.bits,))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            blob = pickle.dumps(t, protocol)
            assert blob == pickle.dumps(checked, protocol)
            again = pickle.loads(blob)
            assert again == t and hash(again) == hash(t) and again.kind == t.kind
    assert CanonicalType((0, 1, 1)).__reduce_ex__(2)[2] == {"bits": (0, 1, 1), "kind": "split"}


def test_canonical_memo_shares_types():
    # equal columns read one memoized type, complementary ones an equal,
    # hash-equal type; the memo is bounded and sits behind canonicalize's
    # input check
    rng = random.Random(31)
    for _ in range(200):
        col = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
        t, flip = canonicalize(col)
        u, flip_u = canonicalize(list(col))
        c, flip_c = canonicalize(tuple(1 - b for b in col))
        assert t is u and t == c and flip == flip_u != flip_c
        assert t == CanonicalType(t.bits) and hash(t) == hash(c) == hash(CanonicalType(t.bits))
        if t.kind == "split":
            assert t.minority_bit == (1 if 2 * sum(t.bits) < t.n else 0)
    assert model._canonical.cache_info().maxsize is not None
    canonicalize((1, 0))
    model._canonical.cache_clear()
    canonicalize((1, 0))
    for bad in [(1.0, 0), (2, 0), ("1", 0), ()]:
        with pytest.raises(ValueError):
            canonicalize(bad)
    info = model._canonical.cache_info()
    assert (info.hits, info.misses) == (0, 1)


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
    with pytest.raises(ValueError):
        Partition.of([(0,), (0,), ()], n_agents=3, n_decisions=2)
    with pytest.raises(ValueError):
        Partition.of([(0,), (1,)], n_agents=3, n_decisions=2)
    with pytest.raises(ValueError):
        Partition.of([(0,), (1,), ()], n_agents=3, n_decisions=3)
    with pytest.raises(ValueError):
        Partition.of([(0,), (3,), ()], n_agents=3, n_decisions=3)
    # every index is checked whichever constructor builds the partition
    for bundles, message in (
        ([(0, 1.0), (2,), ()], "out of range"),
        ([(0, 1), (1, 2), ()], "two bundles"),
        ([(0,), (2,), ()], "not covered"),
    ):
        with pytest.raises(ValueError, match=message):
            Partition(bundles, 3)
        with pytest.raises(ValueError, match=message):
            Partition.of(bundles, n_agents=3, n_decisions=3)
    # a bool is read as its int, as in a preference bit
    assert Partition([(True, 0), (2,), ()], 3).bundles == ((0, 1), (2,), ())


def test_parse_outcome():
    assert parse_outcome("0101\n", 4) == (0, 1, 0, 1)
    with pytest.raises(ParseError):
        parse_outcome("010", 4)
    with pytest.raises(ParseError):
        parse_outcome("01x1", 4)


def test_trusted_builders_equal_checked_constructor():
    # parse_matrix, prefix and drop_columns skip the constructor's checks;
    # their matrices must still be indistinguishable from checked ones
    rng = random.Random(5150)
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(0, 9)
        rows = [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)]
        checked = PreferenceMatrix.from_rows(rows)
        text = f"{n} {m}\n" + "\n".join("".join(map(str, r)) for r in rows) + "\n"
        for parsed in (parse_matrix(text), parse_matrix(checked.to_json())):
            assert parsed == checked and hash(parsed) == hash(checked)
            assert all(type(b) is int for row in parsed.rows for b in row)
            again = pickle.loads(pickle.dumps(parsed))
            assert again == checked and hash(again) == hash(checked)
            assert type_census(again) == type_census(checked)
            for ctype in type_census(parsed):
                assert ctype.kind == CanonicalType(ctype.bits).kind
        k = rng.randint(0, m)
        assert checked.prefix(k) == PreferenceMatrix.from_rows([r[:k] for r in rows])
        drop = set(rng.sample(range(m), rng.randint(0, m)))
        kept = [[b for j, b in enumerate(r) if j not in drop] for r in rows]
        assert checked.drop_columns(drop) == PreferenceMatrix.from_rows(kept)
        assert hash(checked.drop_columns(drop)) == hash(PreferenceMatrix.from_rows(kept))


def test_every_exported_name_resolves():
    # a deleted function cannot leave its name behind in an __all__
    import importlib
    import pkgutil

    import mmsvote

    modules = [mmsvote] + [
        importlib.import_module(f"mmsvote.{info.name}")
        for info in pkgutil.iter_modules(mmsvote.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    assert len(modules) >= 8
