"""Fairness auditing, certificate validation, and guarantee sweeps.

Everything here compares realized utilities against share guarantees
using exact rational arithmetic; no float ever enters a pass/fail
decision. An audit reports, per agent, the ratio of achieved utility to
the adaptive share (and to the egalitarian share floor(m/2)), with the
convention that a zero share makes the requirement vacuous: such agents
carry a ratio of None, rendered as "inf" in JSON, and never drag the
instance-level alpha down.

``exhaustive_check`` re-verifies guarantee claims by brute force over
all short instances, and ``mnw_t_sweep`` re-traces the one-parameter
deviation family that separates maximum Nash welfare from the adaptive
share on the gap construction.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .adversary import CertificateError, ViolationCertificate
from .model import Partition, PreferenceMatrix, utility
from .rules import Rule, RuleTranscript, build_rule
from .shares import mms_adapt_all, mms_egal, partition_guarantee

__all__ = [
    "THRESHOLDS",
    "AuditReport",
    "audit",
    "check_certificate",
    "Counterexample",
    "exhaustive_check",
    "TSweepResult",
    "mnw_t_sweep",
]

THRESHOLDS = (Fraction(1), Fraction(4, 5), Fraction(3, 4), Fraction(1, 2))


def _ratio_text(value: Fraction | None) -> str:
    return "inf" if value is None else str(value)


@dataclass(frozen=True)
class AuditReport:
    """Per-agent and aggregate fairness ratios for one outcome.

    ``ratios[i]`` is utility over adaptive share (None when the share is
    zero); ``alpha_adapt`` is the minimum of the defined ratios, or None
    when all are vacuous. The egalitarian side divides by floor(m/2)
    for every agent. ``satisfies`` answers threshold queries exactly.
    """

    n: int
    m: int
    utilities: tuple[int, ...]
    mms_adapt: tuple[int, ...]
    ratios: tuple[Fraction | None, ...]
    alpha_adapt: Fraction | None
    egal_share: int
    egal_ratios: tuple[Fraction | None, ...]
    alpha_egal: Fraction | None

    def satisfies(self, threshold: Fraction, *, share: str = "adapt") -> bool:
        alpha = self.alpha_adapt if share == "adapt" else self.alpha_egal
        return alpha is None or alpha >= threshold

    def to_dict(self) -> dict:
        def flags(share: str) -> dict:
            return {
                _ratio_text(t): self.satisfies(t, share=share) for t in THRESHOLDS
            }

        return {
            "n": self.n,
            "m": self.m,
            "utilities": list(self.utilities),
            "mms_adapt": list(self.mms_adapt),
            "ratios": [_ratio_text(r) for r in self.ratios],
            "alpha_adapt": _ratio_text(self.alpha_adapt),
            "mms_egal": self.egal_share,
            "egal_ratios": [_ratio_text(r) for r in self.egal_ratios],
            "alpha_egal": _ratio_text(self.alpha_egal),
            "thresholds": {"adapt": flags("adapt"), "egal": flags("egal")},
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def audit(matrix: PreferenceMatrix, outcome: Sequence[int]) -> AuditReport:
    """Measure how far an outcome falls short of the share guarantees."""
    utilities = tuple(utility(matrix, outcome, i) for i in range(matrix.n))
    shares = mms_adapt_all(matrix)
    ratios = tuple(
        None if s == 0 else Fraction(u, s) for u, s in zip(utilities, shares)
    )
    defined = [r for r in ratios if r is not None]
    egal = mms_egal(matrix.m)
    egal_ratios = tuple(
        None if egal == 0 else Fraction(u, egal) for u in utilities
    )
    defined_egal = [r for r in egal_ratios if r is not None]
    return AuditReport(
        n=matrix.n,
        m=matrix.m,
        utilities=utilities,
        mms_adapt=shares,
        ratios=ratios,
        alpha_adapt=min(defined) if defined else None,
        egal_share=egal,
        egal_ratios=egal_ratios,
        alpha_egal=min(defined_egal) if defined_egal else None,
    )


def check_certificate(cert: ViolationCertificate) -> bool:
    """Validate a violation certificate by full recomputation.

    Recomputes the victim's utility from the recorded decisions and the
    witness guarantee from scratch; the certificate passes only if both
    match the recorded numbers and the utility strictly undercuts the
    guarantee. Structurally broken certificates raise
    :class:`CertificateError` instead of returning False.
    """
    instance = cert.instance
    if len(cert.transcript.outcome) != instance.m:
        raise CertificateError(
            f"transcript covers {len(cert.transcript.outcome)} decisions, "
            f"instance has {instance.m}"
        )
    if not 0 <= cert.victim < instance.n:
        raise CertificateError(f"victim index {cert.victim} out of range")
    try:
        witness = Partition.of(
            cert.witness.bundles, n_agents=instance.n, n_decisions=instance.m
        )
    except ValueError as exc:
        raise CertificateError(f"bad witness partition: {exc}") from None
    achieved = utility(instance, cert.transcript.outcome, cert.victim)
    guarantee = partition_guarantee(instance, cert.victim, witness)
    if achieved != cert.achieved or guarantee != cert.guarantee:
        return False
    return achieved < guarantee


# ---------------------------------------------------------------------------
# brute-force re-verification


@dataclass(frozen=True)
class Counterexample:
    """A minimized instance on which a rule misses its target ratio."""

    rule: str
    share: str
    threshold: Fraction
    instance: PreferenceMatrix
    outcome: tuple[int, ...]
    report: AuditReport

    @property
    def alpha(self) -> Fraction | None:
        return (
            self.report.alpha_adapt
            if self.share == "adapt"
            else self.report.alpha_egal
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "share": self.share,
            "threshold": _ratio_text(self.threshold),
            "alpha": _ratio_text(self.alpha),
            "instance": self.instance.to_text(),
            "outcome": "".join(map(str, self.outcome)),
            "report": self.report.to_dict(),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _canonical_columns(n: int) -> list[tuple[int, ...]]:
    return [
        (0,) + bits for bits in itertools.product((0, 1), repeat=n - 1)
    ]


def _violates(
    rule: Rule, matrix: PreferenceMatrix, share: str, threshold: Fraction
) -> tuple[bool, tuple[int, ...], AuditReport]:
    outcome = rule.run(matrix).outcome
    report = audit(matrix, outcome)
    return (not report.satisfies(threshold, share=share)), outcome, report


def _minimize(
    rule: Rule, matrix: PreferenceMatrix, share: str, threshold: Fraction
) -> PreferenceMatrix:
    changed = True
    while changed and matrix.m > 1:
        changed = False
        for j in range(matrix.m):
            candidate = matrix.drop_columns([j])
            bad, _, _ = _violates(rule, candidate, share, threshold)
            if bad:
                matrix = candidate
                changed = True
                break
    return matrix


def exhaustive_check(
    rule: Rule | str,
    n: int,
    m_max: int,
    share: str = "adapt",
    *,
    threshold: Fraction | int = Fraction(1),
    sample: int | None = None,
    seed: int | None = None,
) -> Counterexample | None:
    """Search short instances for a violation of a share guarantee.

    Exhaustive mode enumerates instances over canonical-orientation
    columns only (rules here treat a column and its negation
    symmetrically, so the quotient is faithful); rules whose transcript
    contract declares order-insensitivity are enumerated as column
    multisets, the rest as ordered sequences. Sampling mode draws
    ``sample`` random instances and requires an explicit seed. Returns
    the first violating instance, greedily minimized, or None.
    """
    if isinstance(rule, str):
        rule = build_rule(rule)
    if rule.required_agents is not None and rule.required_agents != n:
        raise ValueError(
            f"rule {rule.name!r} is fixed to {rule.required_agents} agents"
        )
    if share not in ("adapt", "egal"):
        raise ValueError(f"share must be 'adapt' or 'egal', got {share!r}")
    if n < 2:
        raise ValueError(f"need at least 2 agents, got {n}")
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    threshold = Fraction(threshold)
    if threshold <= 0:
        # every outcome meets a non-positive share fraction, so no audit could fail
        raise ValueError(f"threshold must be positive, got {threshold}")

    if sample is not None:
        if sample < 1:
            raise ValueError(f"sample must be positive, got {sample}")
        if seed is None:
            raise ValueError("sampling mode requires an explicit seed")
        rng = random.Random(seed)
        instances = (
            PreferenceMatrix.from_rows(
                [
                    tuple(rng.randint(0, 1) for _ in range(m))
                    for _ in range(n)
                ]
            )
            for m in (rng.randint(1, m_max) for _ in range(sample))
        )
    else:
        columns = _canonical_columns(n)
        if rule.order_insensitive:
            per_m = (
                itertools.combinations_with_replacement(columns, m)
                for m in range(1, m_max + 1)
            )
        else:
            per_m = (
                itertools.product(columns, repeat=m) for m in range(1, m_max + 1)
            )
        instances = (
            PreferenceMatrix.from_columns(cols, n_agents=n)
            for chunk in per_m
            for cols in chunk
        )

    for matrix in instances:
        bad, outcome, report = _violates(rule, matrix, share, threshold)
        if not bad:
            continue
        minimized = _minimize(rule, matrix, share, threshold)
        _, outcome, report = _violates(rule, minimized, share, threshold)
        return Counterexample(
            rule=rule.name,
            share=share,
            threshold=threshold,
            instance=minimized,
            outcome=outcome,
            report=report,
        )
    return None


# ---------------------------------------------------------------------------
# the Nash welfare deviation sweep


@dataclass(frozen=True)
class TSweepResult:
    """Outcome of sweeping the gap family's one-parameter deviation.

    ``t`` counts columns flipped toward agent 1 in each of the three
    blocks; majority is t = 0. The sweep confirms where welfare peaks
    and reports the resulting share ratio for agent 1 against the
    construction's closed-form adaptive share.
    """

    n: int
    k: int
    u1_majority: int
    ui_majority: int
    t_star: Fraction
    argmax_t: int
    majority_is_mnw: bool
    mms1_reference: int
    ratio: Fraction
    reference_curve: Fraction

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "u1_majority": self.u1_majority,
            "ui_majority": self.ui_majority,
            "t_star": _ratio_text(self.t_star),
            "argmax_t": self.argmax_t,
            "majority_is_mnw": self.majority_is_mnw,
            "mms1_reference": self.mms1_reference,
            "ratio": _ratio_text(self.ratio),
            "reference_curve": _ratio_text(self.reference_curve),
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def mnw_t_sweep(n: int, k: int | None = None) -> TSweepResult:
    """Sweep Nash welfare over the gap construction's deviation family.

    For each integer t, welfare is (u1 + 3t) * (ui - t)^n where u1 and
    ui are the majority utilities of agent 1 and of everyone else. The
    sweep walks every feasible t exactly (big integers, no rounding),
    finds the argmax, and cross-checks the closed-form stationary point
    t* = (2k - n^2 + 3n - 3) / 3; majority is welfare-optimal within
    the family exactly when the argmax sits at t = 0.
    """
    if n < 9:
        raise ValueError(f"the gap family needs n >= 9, got {n}")
    if n % 3 != 0 or n % 2 != 1:
        raise ValueError(f"the gap family needs n divisible by 3 and odd, got {n}")
    if k is None:
        k = n * (n - 3) // 2
    if k < 3 or k % 3 != 0:
        raise ValueError(f"k must be a positive multiple of 3, got {k}")
    agents = n + 1
    u1 = n * agents
    ui = (n - 1 + 2 * k // 3) * agents
    block = k * agents // 3
    best_t, best_nw = 0, 0
    for t in range(0, min(block, ui) + 1):
        nw = (u1 + 3 * t) * (ui - t) ** n
        if nw > best_nw:
            best_t, best_nw = t, nw
    t_star = Fraction(2 * k - n * n + 3 * n - 3, 3)
    mms1 = k + n * (n + k // 3)
    return TSweepResult(
        n=n,
        k=k,
        u1_majority=u1,
        ui_majority=ui,
        t_star=t_star,
        argmax_t=best_t,
        majority_is_mnw=best_t == 0,
        mms1_reference=mms1,
        ratio=Fraction(u1, mms1),
        reference_curve=Fraction(6, n),
    )
