import dataclasses
import json
import random

import pytest

from mmsvote.adversary import (
    AttackExhausted,
    CertificateError,
    ViolationCertificate,
    _AttackDriver,
    adaptive_attack,
    all_consensus,
    all_opposed,
    gen_ambiguity_instances,
    gen_mnw_gap,
    gen_named_examples,
    gen_stage1,
    gen_stage2,
    gen_stage3,
)
from mmsvote.model import PreferenceMatrix, _agreements, canonicalize, type_census, utility
from mmsvote.rules import RULE_NAMES, Rule, Stepper, build_rule, run_rule
from mmsvote.shares import _rds_totals, mms_adapt, partition_guarantee
from mmsvote.verify import check_certificate


def minority_of(column):
    # the scripts put the targeted set on bit 0
    return frozenset(i + 1 for i, b in enumerate(column) if b == 0)


def test_stage1_pattern():
    cols = gen_stage1(7)
    assert len(cols) == 7
    assert cols[0] == (0, 0, 1, 1, 1, 1, 1)
    assert cols[5] == (0, 1, 1, 1, 1, 1, 0)
    assert cols[6] == (0, 1, 1, 1, 1, 1, 1)
    assert [minority_of(c) for c in gen_stage1(3)] == [
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({1}),
    ]
    with pytest.raises(ValueError):
        gen_stage1(2)


def test_stage2_pattern():
    cols = gen_stage2(7, 2, 3)
    assert len(cols) == 6
    assert cols[0] == (1, 1, 0, 0, 1, 1, 1)
    assert [minority_of(c) for c in cols] == [
        frozenset({3, 4}),
        frozenset({3, 5}),
        frozenset({3, 6}),
        frozenset({3, 7}),
        frozenset({1, 3}),
        frozenset({3}),
    ]
    assert cols[-1] == (1, 1, 0, 1, 1, 1, 1)


def test_stage2_without_ell():
    cols = gen_stage2(7, None, 2)
    assert [minority_of(c) for c in cols] == [
        frozenset({2, 3}),
        frozenset({2, 4}),
        frozenset({2, 5}),
        frozenset({2, 6}),
        frozenset({1, 2}),
        frozenset({2}),
    ]


def test_stage2_rejections():
    with pytest.raises(ValueError):
        gen_stage2(6, 2, 3)
    with pytest.raises(ValueError):
        gen_stage2(7, 2, 2)
    with pytest.raises(ValueError):
        gen_stage2(7, 2, 1)


def test_stage3_pattern():
    s3a, s3b = gen_stage3(7, 2, 3)
    assert [minority_of(c) for c in s3a] == [
        frozenset({1, 4}),
        frozenset({1, 5}),
        frozenset({1, 6}),
        frozenset({1, 7}),
    ]
    assert len(s3b) == 6
    assert s3b[0] == (0, 0, 1, 1, 1, 1, 1)
    assert [minority_of(c) for c in s3b] == [
        frozenset({1, j}) for j in range(2, 8)
    ]


def test_stage3_rejections():
    # the same checks as stage 2: both build one partner list
    for n, ell, mu in [(6, 2, 3), (7, 2, 2), (7, None, 1), (7, 9, 3), (7, 2, 8)]:
        with pytest.raises(ValueError):
            gen_stage3(n, ell, mu)
        with pytest.raises(ValueError):
            gen_stage2(n, ell, mu)


def test_stage_relabeling_invariance():
    # mapping ell 2->4, mu 3->6 and the partner pools in order
    perm = {1: 1, 2: 4, 3: 6, 4: 2, 5: 3, 6: 5, 7: 7}
    base = gen_stage2(7, 2, 3)
    moved = gen_stage2(7, 4, 6)
    for col_b, col_m in zip(base, moved):
        assert {perm[a] for a in minority_of(col_b)} == set(minority_of(col_m))
    base_a, _ = gen_stage3(7, 2, 3)
    moved_a, _ = gen_stage3(7, 4, 6)
    for col_b, col_m in zip(base_a, moved_a):
        assert {perm[a] for a in minority_of(col_b)} == set(minority_of(col_m))


def test_ambiguity_instances():
    named = {inst.name: inst for inst in gen_ambiguity_instances()}
    assert set(named) == {"ambiguous-triple", "alpha2-heavy", "final-45"}
    assert named["ambiguous-triple"].matrix.m == 3
    assert named["alpha2-heavy"].matrix.m == 7
    assert named["final-45"].matrix.m == 8
    for inst in named.values():
        assert inst.matrix.n == 4
        for agent, bound in inst.mms_claims.items():
            assert mms_adapt(inst.matrix, agent - 1) >= bound


def test_mnw_gap_shape():
    M = gen_mnw_gap(9)
    assert (M.n, M.m) == (10, 360)
    sole = {i: 0 for i in range(2, 11)}
    blocks = {}
    for j in range(M.m):
        minority = minority_of(M.column(j))
        if len(minority) == 1:
            (a,) = minority
            sole[a] += 1
        else:
            assert 1 in minority and len(minority) == 4
            blocks[minority] = blocks.get(minority, 0) + 1
    assert all(c == 10 for c in sole.values())
    assert sorted(blocks.values()) == [90, 90, 90]
    assert set(blocks) == {
        frozenset({1, 2, 3, 4}),
        frozenset({1, 5, 6, 7}),
        frozenset({1, 8, 9, 10}),
    }
    t = run_rule("majority", M)
    assert t.utilities == (90,) + (260,) * 9


def test_mnw_gap_rejections():
    for n in (6, 8, 10, 12):
        with pytest.raises(ValueError):
            gen_mnw_gap(n)
    assert gen_mnw_gap(15).n == 16


def test_named_examples_and_families():
    named = gen_named_examples()
    assert set(named) == {"jr_vs_mms", "mms_vs_rds", "mnw_vs_mms"}
    assert (named["jr_vs_mms"].n, named["jr_vs_mms"].m) == (3, 9)
    assert (named["mms_vs_rds"].n, named["mms_vs_rds"].m) == (4, 2)
    assert (named["mnw_vs_mms"].n, named["mnw_vs_mms"].m) == (3, 15)
    assert all_consensus(3, 4).rows == ((1, 1, 1, 1),) * 3
    assert all_opposed(4, 2).rows == ((0, 0), (1, 1), (1, 1), (1, 1))
    assert all_consensus(3, 0).m == 0
    for family in (all_consensus, all_opposed):
        with pytest.raises(ValueError, match="nonnegative"):
            family(3, -2)
        for n in (0, -4):
            with pytest.raises(ValueError, match="agents must be positive"):
                family(n, 2)


def assert_certificate_sound(cert):
    assert isinstance(cert, ViolationCertificate)
    guarantee = partition_guarantee(cert.instance, cert.victim, cert.witness)
    achieved = utility(cert.instance, cert.transcript.outcome, cert.victim)
    assert guarantee == cert.guarantee
    assert achieved == cert.achieved
    assert achieved < guarantee


def test_attack_majority_pinned():
    cert = adaptive_attack("majority", 7)
    assert_certificate_sound(cert)
    assert cert.victim == 0
    assert cert.guarantee == 1
    assert cert.achieved == 0
    assert cert.instance.m == 7
    assert all(len(b) == 1 for b in cert.witness.bundles)
    assert cert.transcript.outcome == (1,) * 7


def test_attack_rule_corpus():
    for name in ["always-0", "always-1", "always-minority", "ptrr-generalized"]:
        cert = adaptive_attack(name, 7)
        assert_certificate_sound(cert)


def test_attack_larger_n():
    cert = adaptive_attack("majority", 9)
    assert_certificate_sound(cert)
    assert cert.victim == 0
    assert cert.instance.m == 9


@pytest.mark.parametrize("rule", ["majority", "ptrr-generalized"])
@pytest.mark.parametrize("n", [11, 13])
def test_attack_past_factorial_sizes(rule, n):
    cert = adaptive_attack(rule, n)
    assert check_certificate(cert)
    assert not check_certificate(dataclasses.replace(cert, achieved=cert.achieved + 1))


@pytest.mark.parametrize("rule", ["majority", "ptrr-generalized"])
def test_attack_30_agents(rule):
    # agents already at floor(RDS) skip their witness checks; the certificate
    # is still the first one in agent-then-witness order: agent 1 starved on
    # the singleton split of the opening stage
    cert = adaptive_attack(rule, 30)
    assert check_certificate(cert)
    assert (cert.victim, cert.guarantee, cert.achieved, cert.instance.m) == (0, 1, 0, 30)
    assert all(len(bundle) == 1 for bundle in cert.witness.bundles)


def test_attack_deterministic():
    a = adaptive_attack("always-minority", 7)
    b = adaptive_attack("always-minority", 7)
    assert a.to_dict() == b.to_dict()


class _ScriptedStepper(Stepper):
    def __init__(self, positions):
        self.positions = positions
        self.fed = 0

    def decide(self, column):
        minority_bit = 1 if 2 * sum(column) < len(column) else 0
        with_minority = self.fed in self.positions
        self.fed += 1
        return minority_bit if with_minority else 1 - minority_bit


class ScriptedRule(Rule):
    """Online test rule: sides with the column's minority at the given
    0-based feed positions and with the majority everywhere else."""

    name = "scripted"

    def __init__(self, positions):
        self.positions = frozenset(positions)

    def stepper(self, n, m=None):
        return _ScriptedStepper(self.positions)


class _ConstantStepper(Stepper):
    def __init__(self, value):
        self.value = value

    def decide(self, column):
        return self.value


class ConstantRule(Rule):
    """Online test rule that decides ``value`` on every column, bit or not."""

    name = "constant"

    def __init__(self, value):
        self.value = value

    def stepper(self, n, m=None):
        return _ConstantStepper(self.value)


@pytest.mark.parametrize("value", [2, 1.0])
def test_attack_rejects_non_bit_decision(value):
    report = adaptive_attack(ConstantRule(value), 7)
    assert isinstance(report, AttackExhausted)
    assert report.reason == f"rule produced non-bit decision {value!r}"
    assert (report.instance.n, report.instance.m) == (7, 0)


def test_attack_reads_true_as_one():
    as_true = adaptive_attack(ConstantRule(True), 7)
    assert as_true.to_dict() == adaptive_attack(ConstantRule(1), 7).to_dict()


# the scripts the staged runs below walk through at n = 7, where the
# opening ends at t = 1 (ell = 2, mu = 3) unless the rule waits longer
S1 = gen_stage1(7)
S2 = gen_stage2(7, 2, 3)
S3A, S3B = gen_stage3(7, 2, 3)


STAGE_PATHS = [
    # I1 -> I2: t = 2, then the first opening column n-1 times
    ((1,), S1[:2] + S1[:1] * 5, 2, 1, 0, "1011111"),
    # I1 -> II1: no second minority decision
    ((0,), S1[:1] + S2, 3, 1, 0, "0111111"),
    # I1 -> II1 -> II2: tau = 2, then the first stage II column again
    ((0, 2), S1[:1] + S2[:2] + S2[:1], 4, 1, 0, "0101"),
    # I1 -> II1 -> III-a -> III-b: tau = 1
    ((0, 1), S1[:1] + S2[:1] + S3A + S3B + S3B[:2], 1, 2, 1, "00111111111111"),
]


@pytest.mark.parametrize(
    "positions, columns, victim, guarantee, achieved, decisions",
    STAGE_PATHS,
    ids=["I2", "II1", "II2", "III-b"],
)
def test_attack_stage_paths(positions, columns, victim, guarantee, achieved, decisions):
    # the built-in rules end in stage I1 or go I1 -> II1 -> III-a; these
    # runs reach stages I2, II2 and III-b as well
    cert = adaptive_attack(ScriptedRule(positions), 7)
    assert_certificate_sound(cert)
    assert [cert.instance.column(j) for j in range(cert.instance.m)] == columns
    blob = cert.to_dict()
    assert blob["n"] == 7
    assert (blob["victim"], blob["guarantee"], blob["achieved"]) == (victim, guarantee, achieved)
    assert blob["decisions"] == decisions


class _RandomBitStepper(Stepper):
    def __init__(self, rng):
        self.rng = rng

    def decide(self, column):
        return self.rng.randint(0, 1)


class RandomBitRule(Rule):
    """Online test rule that decides seeded random bits, blind to the columns."""

    name = "random-bits"

    def __init__(self, seed):
        self.seed = seed

    def stepper(self, n, m=None):
        return _RandomBitStepper(random.Random(self.seed))


def _attackable(name):
    rule = build_rule(name)
    return rule.online and not rule.horizon_aware and rule.required_agents is None


# the built-in rules the staged attack accepts at any n >= 7
ATTACKABLE = [name for name in RULE_NAMES if ":" not in name and _attackable(name)]


def test_attack_running_state_matches_recount(monkeypatch):
    # the driver keeps utilities, n·RDS totals and the type census as it
    # feeds columns; before every witness check they must equal a recount
    checks = []
    check_witnesses = _AttackDriver._check_witnesses

    def recounted(driver):
        matrix = PreferenceMatrix.from_columns(driver.columns, n_agents=driver.n)
        assert tuple(driver.utilities) == _agreements(matrix, driver.bits)
        assert driver.totals == _rds_totals(matrix)
        assert [(ctype, tuple(columns)) for ctype, columns in driver.census.items()] == [
            (ctype, entry.occurrences) for ctype, entry in type_census(matrix).items()
        ]
        checks.append(matrix.m)
        check_witnesses(driver)

    monkeypatch.setattr(_AttackDriver, "_check_witnesses", recounted)
    attacks = [(ScriptedRule(path[0]), 7) for path in STAGE_PATHS]
    attacks += [(name, n) for name in ATTACKABLE for n in range(7, 13)]
    attacks += [(RandomBitRule(seed), n) for seed in range(5) for n in (7, 9)]
    for rule, n in attacks:
        checks.clear()
        report = adaptive_attack(rule, n)
        assert checks == list(range(1, report.instance.m + 1))
        assert_certificate_sound(report)


def test_attack_rejections():
    with pytest.raises(ValueError, match="n >= 7"):
        adaptive_attack("majority", 6)
    with pytest.raises(ValueError, match="not attackable"):
        adaptive_attack("muffled3", 7)
    with pytest.raises(ValueError, match="not attackable"):
        adaptive_attack("mnw", 7)
    with pytest.raises(ValueError, match="fixed to 3 agents"):
        adaptive_attack("ptrr3", 7)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="max_columns must be positive"):
            adaptive_attack("ptrr-generalized", 7, max_columns=cap)


def test_attack_column_cap_reports_exhausted():
    report = adaptive_attack("ptrr-generalized", 7, max_columns=3)
    assert isinstance(report, AttackExhausted)
    assert "cap" in report.reason
    assert report.instance.m == 3
    blob = report.to_dict()
    assert blob["exhausted"] is True
    assert blob["decisions"] == "".join(map(str, report.transcript.outcome))


def test_certificate_json_round_trip():
    cert = adaptive_attack("majority", 7)
    text = cert.to_json()
    back = ViolationCertificate.from_json(text)
    assert back.victim == cert.victim
    assert back.guarantee == cert.guarantee
    assert back.achieved == cert.achieved
    assert back.witness.bundles == cert.witness.bundles
    assert back.instance.rows == cert.instance.rows
    assert back.transcript.outcome == cert.transcript.outcome
    assert back.rule == "majority"


def test_certificate_parse_rejections(tmp_path):
    cert = adaptive_attack("majority", 7)
    blob = cert.to_dict()

    def broken(**changes):
        bad = dict(blob)
        bad.update(changes)
        return json.dumps(bad)

    with pytest.raises(CertificateError, match="not valid JSON"):
        ViolationCertificate.from_json("{nope")
    with pytest.raises(CertificateError, match="missing field"):
        ViolationCertificate.from_json(json.dumps({"victim": 1}))
    with pytest.raises(CertificateError, match="bits"):
        ViolationCertificate.from_json(broken(decisions="01"))
    with pytest.raises(CertificateError, match="bits"):
        ViolationCertificate.from_json(broken(decisions=int("1" * len(blob["decisions"]))))
    with pytest.raises(CertificateError, match="out of range"):
        ViolationCertificate.from_json(broken(victim=8))
    with pytest.raises(CertificateError, match="witness"):
        ViolationCertificate.from_json(broken(witness=[[1, 1], [2]]))
    with pytest.raises(CertificateError, match="witness"):
        ViolationCertificate.from_json(broken(witness=blob["witness"] + [[]]))
    with pytest.raises(CertificateError, match="integers"):
        ViolationCertificate.from_json(broken(guarantee="one"))
    for not_an_object in ("3", "null", "[]"):
        with pytest.raises(CertificateError, match="object"):
            ViolationCertificate.from_json(not_an_object)
    with pytest.raises(CertificateError, match="instance"):
        ViolationCertificate.from_json(broken(instance=7))
    floats = [[float(j) for j in bundle] for bundle in blob["witness"]]
    with pytest.raises(CertificateError, match="witness"):
        ViolationCertificate.from_json(broken(witness=floats))
    bools = [[True if j == 1 else j for j in bundle] for bundle in blob["witness"]]
    with pytest.raises(CertificateError, match="witness"):
        ViolationCertificate.from_json(broken(witness=bools))
    with pytest.raises(CertificateError, match="out of range"):
        ViolationCertificate.from_json(broken(victim=True))
    with pytest.raises(CertificateError, match="integers"):
        ViolationCertificate.from_json(broken(achieved=False))
    # "n" is optional, but when present it must be the instance's agent count
    for bad_n in (99, 6, True, "7", 7.0, None):
        with pytest.raises(CertificateError, match="agent count"):
            ViolationCertificate.from_json(broken(n=bad_n))
    # "rule" is optional too; a name must be a string, and a built-in
    # rule must fit the instance's agent count
    for not_a_name in (5, None, [1], True):
        with pytest.raises(CertificateError, match="rule name string"):
            ViolationCertificate.from_json(broken(rule=not_a_name))
    for fixed_size in ("ptrr3", "muffled3", "deferred4"):
        with pytest.raises(CertificateError, match="needs exactly"):
            ViolationCertificate.from_json(broken(rule=fixed_size))
    # a graceful table is never opened, so a missing file is no error
    absent = tmp_path / "absent.map"
    for name in ("mnw", "ptrr-generalized", "plurality", f"graceful:{absent}"):
        cert = ViolationCertificate.from_json(broken(rule=name))
        assert cert.rule == cert.transcript.rule == name
        assert check_certificate(cert)
    del blob["n"], blob["rule"]
    cert = ViolationCertificate.from_json(json.dumps(blob))
    assert (cert.instance.n, cert.rule) == (7, "?")


def test_attack_transcript_matches_instance():
    cert = adaptive_attack("always-0", 7)
    t = cert.transcript
    assert t.n == 7
    assert t.matrix == cert.instance
    blob = t.to_dict()
    assert blob["m"] == len(blob["decisions"]) == cert.instance.m
    seen = {}
    for j, record in enumerate(blob["decisions"]):
        column = cert.instance.column(j)
        assert record["column"] == "".join(map(str, column))
        ctype, flipped = canonicalize(column)
        assert record["type"] == "".join(map(str, ctype.bits))
        assert record["flipped"] is flipped
        assert record["counter"] == seen.get(ctype, 0)
        assert record["bit"] == t.outcome[j]
        seen[ctype] = record["counter"] + 1
    assert list(blob["counters"].items()) == [
        ("".join(map(str, c.bits)), k) for c, k in seen.items()
    ]
