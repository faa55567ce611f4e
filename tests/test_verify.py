import dataclasses
import random
from fractions import Fraction

import pytest

from mmsvote.adversary import (
    CertificateError,
    ViolationCertificate,
    adaptive_attack,
    all_consensus,
    all_opposed,
    gen_mnw_gap,
    gen_named_examples,
)
from mmsvote.model import Partition, PreferenceMatrix
from mmsvote.rules import run_rule
from mmsvote.shares import mms_adapt_all, mms_egal, partition_guarantee
from mmsvote.verify import (
    THRESHOLDS,
    audit,
    check_certificate,
    exhaustive_check,
    mnw_t_sweep,
)

EXAMPLES = gen_named_examples()


def test_audit_majority_on_mnw_example():
    matrix = EXAMPLES["mnw_vs_mms"]
    outcome = run_rule("majority", matrix).outcome
    report = audit(matrix, outcome)
    assert report.utilities == (6, 12, 12)
    assert report.mms_adapt == (7, 9, 9)
    assert report.ratios == (Fraction(6, 7), Fraction(4, 3), Fraction(4, 3))
    assert report.alpha_adapt == Fraction(6, 7)
    assert not report.satisfies(Fraction(1))
    assert report.satisfies(Fraction(4, 5))
    assert report.satisfies(Fraction(3, 4))


def test_audit_round_robin_hits_one():
    matrix = EXAMPLES["jr_vs_mms"]
    outcome = run_rule("ptrr3", matrix).outcome
    report = audit(matrix, outcome)
    assert report.alpha_adapt == 1
    assert report.ratios == (1, 1, 1)
    assert report.egal_share == 4
    assert report.alpha_egal == 1
    assert all(report.satisfies(t) for t in THRESHOLDS)


def test_audit_vacuous_shares():
    matrix = EXAMPLES["mms_vs_rds"]
    for outcome in ((0, 0), (1, 1), (0, 1)):
        report = audit(matrix, outcome)
        assert report.mms_adapt == (0, 0, 0, 0)
        assert report.ratios == (None, None, None, None)
        assert report.alpha_adapt is None
        assert report.satisfies(Fraction(1))
        blob = report.to_dict()
        assert blob["alpha_adapt"] == "inf"
        assert blob["ratios"] == ["inf"] * 4


def test_audit_json_shape():
    matrix = EXAMPLES["mnw_vs_mms"]
    report = audit(matrix, run_rule("majority", matrix).outcome)
    blob = report.to_dict()
    assert blob["n"] == 3 and blob["m"] == 15
    assert blob["alpha_adapt"] == "6/7"
    assert blob["mms_egal"] == 7
    assert set(blob["thresholds"]) == {"adapt", "egal"}
    assert set(blob["thresholds"]["adapt"]) == {"1", "4/5", "3/4", "1/2"}
    assert blob["thresholds"]["adapt"]["1"] is False
    assert blob["thresholds"]["adapt"]["4/5"] is True


def test_check_certificate_accepts_attack_output():
    cert = adaptive_attack("majority", 7)
    assert isinstance(cert, ViolationCertificate)
    assert check_certificate(cert)


def test_check_certificate_rejects_tampering():
    cert = adaptive_attack("majority", 7)
    assert not check_certificate(dataclasses.replace(cert, achieved=cert.achieved + 1))
    assert not check_certificate(dataclasses.replace(cert, guarantee=cert.guarantee + 1))


def test_check_certificate_consensus_no_violation():
    # a structurally fine certificate that simply shows no violation
    matrix = all_consensus(7, 5)
    transcript = run_rule("majority", matrix)
    bundles = [list(range(5))] + [[] for _ in range(6)]
    witness = Partition.of(bundles, n_agents=7, n_decisions=5)
    cert = ViolationCertificate(
        rule="majority",
        instance=matrix,
        transcript=transcript,
        victim=0,
        witness=witness,
        guarantee=5,
        achieved=5,
    )
    assert partition_guarantee(matrix, 0, witness) == 5
    assert not check_certificate(cert)


def test_check_certificate_malformed():
    cert = adaptive_attack("majority", 7)
    with pytest.raises(CertificateError):
        check_certificate(dataclasses.replace(cert, victim=9))
    short = Partition(tuple(b for b in cert.witness.bundles[:-1]) + ((),))
    with pytest.raises(CertificateError):
        check_certificate(dataclasses.replace(cert, witness=short))
    other = run_rule("majority", all_consensus(7, 3))
    with pytest.raises(CertificateError):
        check_certificate(dataclasses.replace(cert, transcript=other))


def test_exhaustive_round_robin_clean():
    assert exhaustive_check("ptrr3", 3, 4) is None


def test_exhaustive_majority_counterexample():
    found = exhaustive_check("majority", 3, 3)
    assert found is not None
    assert found.rule == "majority"
    assert found.instance.m == 3
    assert list(found.instance.columns()) == [(0, 0, 1)] * 3
    assert found.outcome == (0, 0, 0)
    assert found.report.utilities[2] == 0
    assert found.report.mms_adapt[2] == 1
    assert found.alpha == 0
    blob = found.to_dict()
    assert blob["instance"] == "3 3\n000\n000\n111\n"
    assert blob["alpha"] == "0"
    assert blob["threshold"] == "1"


def test_exhaustive_muffled_clean():
    assert exhaustive_check("muffled3", 3, 4, "egal") is None
    assert exhaustive_check("muffled3", 3, 4, "adapt", threshold=Fraction(3, 4)) is None


def test_exhaustive_rejections():
    with pytest.raises(ValueError):
        exhaustive_check("majority", 3, 3, "best")
    with pytest.raises(ValueError):
        exhaustive_check("majority", 3, 3, sample=10)
    with pytest.raises(ValueError):
        exhaustive_check("ptrr3", 4, 3)
    with pytest.raises(ValueError):
        exhaustive_check("majority", 3, 0)
    for sample in (0, -3):
        with pytest.raises(ValueError, match="sample"):
            exhaustive_check("majority", 3, 2, sample=sample, seed=1)
    for threshold in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="threshold"):
            exhaustive_check("always-0", 3, 3, threshold=threshold)


def test_sampling_reproducible():
    first = exhaustive_check("majority", 3, 4, sample=120, seed=11)
    second = exhaustive_check("majority", 3, 4, sample=120, seed=11)
    assert first is not None
    assert first.instance.rows == second.instance.rows
    assert first.outcome == second.outcome
    # a rule with a proven guarantee never trips, sampled or not
    assert exhaustive_check("ptrr3", 3, 5, sample=80, seed=5) is None


def test_egal_transfer_bound():
    # an alpha-egal guarantee is worth at least alpha/2 against the
    # adaptive share; checked on rule outcomes, with alpha capped at 1
    rng = random.Random(424)
    for _ in range(50):
        m = rng.randint(2, 8)
        matrix = PreferenceMatrix.from_rows(
            [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(3)]
        )
        for rule in ("muffled3", "ptrr3"):
            report = audit(matrix, run_rule(rule, matrix).outcome)
            if report.alpha_adapt is None or report.alpha_egal is None:
                continue
            capped = min(report.alpha_egal, Fraction(1))
            assert report.alpha_adapt >= capped / 2
            for threshold in THRESHOLDS:
                if report.satisfies(threshold, share="egal"):
                    assert report.satisfies(threshold / 2)


def test_mnw_egal_floor_bound():
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(3, 5)
        m = rng.randint(2, 9)
        matrix = PreferenceMatrix.from_rows(
            [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)]
        )
        transcript = run_rule("mnw", matrix)
        floor_bound = (Fraction(2, n) - Fraction(2, m)) * mms_egal(m)
        for u in transcript.utilities:
            assert u >= floor_bound


def test_mnw_all_opposed_exact():
    for n in (3, 4, 5):
        matrix = all_opposed(n, 2 * n)
        transcript = run_rule("mnw", matrix)
        assert transcript.utilities[0] == 2
        assert set(transcript.utilities[1:]) == {2 * n - 2}


def test_all_opposed_share_oracle():
    assert mms_adapt_all(all_opposed(3, 6)) == (2, 4, 4)
    assert mms_adapt_all(all_opposed(3, 12)) == (4, 8, 8)


def test_muffled_all_opposed_tightness():
    matrix = all_opposed(3, 12)
    report = audit(matrix, run_rule("muffled3", matrix).outcome)
    assert report.utilities == (6, 6, 6)
    assert report.alpha_adapt == Fraction(3, 4)
    assert report.alpha_egal == 1


def test_t_sweep_pinned_values():
    result = mnw_t_sweep(9)
    assert result.k == 27
    assert result.u1_majority == 90
    assert result.ui_majority == 260
    assert result.t_star == Fraction(-1)
    assert result.argmax_t == 0
    assert result.majority_is_mnw
    assert result.mms1_reference == 189
    assert result.ratio == Fraction(10, 21)
    assert result.reference_curve == Fraction(2, 3)
    blob = result.to_dict()
    assert blob["t_star"] == "-1"
    assert blob["ratio"] == "10/21"

    larger = mnw_t_sweep(15)
    assert larger.k == 90
    assert larger.t_star == Fraction(-1)
    assert larger.majority_is_mnw


def test_t_sweep_matches_generated_instance():
    result = mnw_t_sweep(9)
    matrix = gen_mnw_gap(9)
    transcript = run_rule("majority", matrix)
    assert transcript.utilities[0] == result.u1_majority
    assert set(transcript.utilities[1:]) == {result.ui_majority}


def test_t_sweep_rejections():
    for n in (8, 11, 12):
        with pytest.raises(ValueError):
            mnw_t_sweep(n)
    with pytest.raises(ValueError):
        mnw_t_sweep(9, k=5)
    with pytest.raises(ValueError):
        mnw_t_sweep(9, k=0)
