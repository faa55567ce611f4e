import dataclasses
import pickle
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
from mmsvote.rules import RULE_NAMES, build_rule, run_rule
from mmsvote.shares import mms_adapt_all, mms_egal, partition_guarantee
from mmsvote.verify import (
    THRESHOLDS,
    _lowest_ratio,
    audit,
    check_certificate,
    exhaustive_check,
    mnw_t_sweep,
)
from oracles import random_matrix

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


def test_lowest_ratio_matches_fraction_min():
    # the integer cross-multiplication picks an entry equal to min() over
    # the defined Fractions, zero shares skipped, None when all are zero
    rng = random.Random(1409)
    cases = [((3, 5), (0, 0)), ((0, 2), (0, 3)), ((4, 4, 1), (2, 2, 0))]
    for _ in range(2000):
        n = rng.randint(1, 6)
        utilities = tuple(rng.randint(0, 9) for _ in range(n))
        cases.append((utilities, tuple(rng.choice((0, rng.randint(1, 9))) for _ in range(n))))
    for utilities, shares in cases:
        ratios = tuple(None if s == 0 else Fraction(u, s) for u, s in zip(utilities, shares))
        defined = [r for r in ratios if r is not None]
        low = _lowest_ratio(utilities, shares)
        assert low == (min(defined) if defined else None)
        assert low is None or isinstance(low, Fraction)
    for _ in range(200):
        matrix = random_matrix(rng, rng.randint(2, 5), rng.randint(0, 6))
        report = audit(matrix, tuple(rng.randint(0, 1) for _ in range(matrix.m)))
        for alpha, ratios in ((report.alpha_adapt, report.ratios),
                              (report.alpha_egal, report.egal_ratios)):
            defined = [r for r in ratios if r is not None]
            assert alpha == (min(defined) if defined else None)


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
    m = cert.instance.m
    with pytest.raises(CertificateError):
        check_certificate(dataclasses.replace(cert, victim=9))
    # a witness that loses its last bundle's decisions cannot be built at all
    with pytest.raises(ValueError, match="not covered"):
        Partition(cert.witness.bundles[:-1] + ((),), m)
    # valid partitions shaped for another instance do not fit the certificate
    other_m = Partition.of([range(5)] + [()] * 6, n_agents=7, n_decisions=5)
    one_more_bundle = Partition(cert.witness.bundles + ((),), m)
    for witness in (other_m, one_more_bundle):
        with pytest.raises(CertificateError, match="witness"):
            dataclasses.replace(cert, witness=witness)
    other = run_rule("majority", all_consensus(7, 3))
    with pytest.raises(CertificateError):
        check_certificate(dataclasses.replace(cert, transcript=other))


def test_check_certificate_builds_no_partition(monkeypatch):
    # the witness was checked when it was built; the referee only recomputes
    cert = adaptive_attack("majority", 7)
    built = []
    post_init = Partition.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Partition, "__post_init__", counting)
    assert check_certificate(cert)
    assert built == []
    Partition(cert.witness.bundles, cert.instance.m)
    assert len(built) == 1


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
    # exhaustive mode draws nothing at random, so a seed there is a mistake
    for seed in (0, 3):
        with pytest.raises(ValueError, match="seed needs sample"):
            exhaustive_check("majority", 3, 2, seed=seed)
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


@pytest.mark.parametrize("n, ratio", [(9, Fraction(10, 21)), (15, Fraction(16, 51))])
def test_mnw_gap_majority_ratio(n, ratio):
    # majority on the gap family gives agent 0 only u1 / MMS^adapt of its
    # share, the ratio the t-sweep's closed form predicts
    matrix = gen_mnw_gap(n)
    report = audit(matrix, run_rule("majority", matrix).outcome)
    assert report.alpha_adapt == ratio == mnw_t_sweep(n).ratio


def test_t_sweep_rejections():
    for n in (8, 11, 12):
        with pytest.raises(ValueError):
            mnw_t_sweep(n)
    with pytest.raises(ValueError):
        mnw_t_sweep(9, k=5)
    with pytest.raises(ValueError):
        mnw_t_sweep(9, k=0)


# alpha_adapt is exactly 4/5 here; 0.8 as a float is 3602879701896397/2**52
ALPHA_FOUR_FIFTHS = PreferenceMatrix.from_rows(
    [
        (0, 0, 1, 0, 1, 1, 1, 1, 1, 1),
        (0, 0, 0, 1, 1, 1, 0, 0, 1, 0),
        (1, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    ]
)


def test_float_thresholds_are_rejected():
    report = audit(ALPHA_FOUR_FIFTHS, (1, 0, 1, 1, 0, 0, 1, 1, 1, 0))
    assert report.alpha_adapt == Fraction(4, 5)
    assert report.satisfies(Fraction(4, 5)) and not report.satisfies(1)
    with pytest.raises(ValueError, match="float"):
        report.satisfies(0.8)
    with pytest.raises(ValueError, match="float"):
        report.satisfies(0.5, share="egal")
    with pytest.raises(ValueError, match="float"):
        exhaustive_check("always-0", 3, 5, threshold=0.8)
    found = exhaustive_check("always-0", 3, 5, threshold=Fraction(4, 5))
    assert found is not None and found.threshold == Fraction(4, 5)
    assert exhaustive_check("always-0", 3, 5, threshold="4/5").threshold == Fraction(4, 5)


@pytest.mark.parametrize(
    "rows, outcome",
    [
        ([(1, 0, 1), (0, 0, 1), (1, 1, 0)], (0, 2, 1)),
        ([(1, 0), (0, 0), (1, 1)], (0, 1.0)),
        ([(1, 0), (0, 0), (1, 1)], (1,)),
    ],
)
def test_audit_rejects_bad_outcomes(rows, outcome):
    with pytest.raises(ValueError):
        audit(PreferenceMatrix.from_rows(rows), outcome)


def test_audit_reads_bools_as_bits():
    M = PreferenceMatrix.from_rows([(1, 0), (0, 0), (1, 1)])
    assert audit(M, (True, 0)) == audit(M, (1, 0))


def test_satisfies_rejects_unknown_share():
    # every share name but "adapt" used to be read as "egal"
    matrix = PreferenceMatrix.from_rows([(0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 1, 1, 0, 1, 0)])
    report = audit(matrix, run_rule("majority", matrix).outcome)
    assert (report.alpha_adapt, report.alpha_egal) == (Fraction(3, 4), 1)
    assert not report.satisfies(1) and report.satisfies(1, share="egal")
    for share in ("adpat", "EGAL", ""):
        with pytest.raises(ValueError, match="share must be 'adapt' or 'egal'"):
            report.satisfies(1, share=share)


def _naive_audit_dict(matrix, outcome, shares):
    """The JSON form of an audit, recounted column by column with one
    Fraction per ratio and ``min`` over the defined ones."""
    n, m = matrix.n, matrix.m
    utilities = [sum(1 for j in range(m) if matrix.rows[i][j] == outcome[j]) for i in range(n)]
    egal = m // 2

    def side(denominators):
        ratios = [None if s == 0 else Fraction(u, s) for u, s in zip(utilities, denominators)]
        defined = [r for r in ratios if r is not None]
        alpha = min(defined) if defined else None
        flags = {("inf" if t is None else str(t)): alpha is None or alpha >= t for t in THRESHOLDS}
        return ["inf" if r is None else str(r) for r in ratios], ("inf" if alpha is None else str(alpha)), flags

    ratios, alpha, flags = side(shares)
    egal_ratios, alpha_egal, egal_flags = side([egal] * n)
    return {
        "n": n, "m": m, "utilities": utilities, "mms_adapt": list(shares),
        "ratios": ratios, "alpha_adapt": alpha, "mms_egal": egal,
        "egal_ratios": egal_ratios, "alpha_egal": alpha_egal,
        "thresholds": {"adapt": flags, "egal": egal_flags},
    }


def test_audit_matches_naive_recount_for_every_builtin_rule():
    from oracles import naive_mms_adapt

    rng = random.Random(2121)
    for n in (2, 3, 4):
        for _ in range(6):
            matrix = random_matrix(rng, n, rng.randint(1, 5 if n == 4 else 6))
            shares = [naive_mms_adapt(matrix, i) for i in range(n)]
            for name in RULE_NAMES[:-1]:
                rule = build_rule(name)
                if rule.required_agents not in (None, n):
                    continue
                outcome = rule.run(matrix).outcome
                assert audit(matrix, outcome).to_dict() == _naive_audit_dict(matrix, outcome, shares)


def test_audit_reuses_run_utilities_only_for_the_run_outcome():
    # after a run, every other outcome is checked and counted as on a
    # matrix that never saw the run
    rng = random.Random(77)
    for name, n in (("ptrr3", 3), ("deferred4", 4), ("majority", 3), ("mnw", 4), ("muffled3", 3)):
        for _ in range(25):
            rows = random_matrix(rng, n, rng.randint(1, 8)).rows
            matrix = PreferenceMatrix(rows)
            outcome = run_rule(name, matrix).outcome
            expected = audit(PreferenceMatrix(rows), outcome)
            assert audit(matrix, outcome) == expected
            for same in (list(outcome), tuple(list(outcome)), tuple(bool(b) for b in outcome)):
                run_rule(name, matrix)
                assert audit(matrix, same) == expected
            flipped = tuple(1 - b for b in outcome)
            run_rule(name, matrix)
            assert audit(matrix, flipped) == audit(PreferenceMatrix(rows), flipped)
            run_rule(name, matrix)
            with pytest.raises(ValueError):
                audit(matrix, tuple(float(b) for b in outcome))
            restored = pickle.loads(pickle.dumps(matrix))
            assert vars(restored) == {"rows": rows}
            assert audit(restored, outcome) == expected
