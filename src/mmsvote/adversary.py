"""Instance generators and the staged attack on online rules.

The constructions here come in two flavors. The generators build fixed
instances: the hard 4-agent families around ambiguous (tie) columns, the
large family separating maximum Nash welfare from the adaptive share,
and a handful of small named examples. The adaptive attack is different:
it plays against a live online rule, feeding columns one at a time and
branching on the decisions it observes, until it can exhibit a concrete
violation of the rule's adaptive-share guarantee.

Attack columns always put the minority on bit 0. Agent arguments such as
``ell`` and ``mu`` are 1-based throughout this module, matching how they
appear in reports; column indices inside certificates are 0-based in
memory and 1-based in JSON.

The attack keeps utilities, RDS totals and the type census as it feeds
columns. Its violation test is exact: once a column leaves some agent
below floor(RDS), it builds a small catalog of witness partitions,
evaluates them with ``partition_guarantee`` and compares against
realized utilities. A returned certificate is therefore sound by
construction, independent of any bookkeeping along the way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import (
    CanonicalType,
    Partition,
    PreferenceMatrix,
    _agreements,
    _as_bits,
    _canonical,
    parse_matrix,
)
from .rules import _RULE_FACTORIES, Rule, RuleTranscript, build_rule
from .shares import partition_guarantee

__all__ = [
    "gen_stage1",
    "gen_stage2",
    "gen_stage3",
    "gen_ambiguity_instances",
    "gen_mnw_gap",
    "gen_named_examples",
    "all_consensus",
    "all_opposed",
    "NamedInstance",
    "ViolationCertificate",
    "AttackExhausted",
    "CertificateError",
    "adaptive_attack",
    "ATTACK_COLUMN_CAP_FACTOR",
]

ATTACK_COLUMN_CAP_FACTOR = 4


def _minority_column(n: int, minority: Iterable[int]) -> tuple[int, ...]:
    """Column with bit 0 exactly for the given 1-based agents."""
    col = [1] * n
    for a in minority:
        if not 1 <= a <= n:
            raise ValueError(f"agent {a} out of range for n={n}")
        col[a - 1] = 0
    return tuple(col)


def gen_stage1(n: int) -> list[tuple[int, ...]]:
    """Opening script: agent 1 in the minority on every column.

    Column i pairs agent 1 with agent i+1 in the minority; the last
    column leaves agent 1 alone there. Any rule that never sides with
    the minority hands agent 1 zero utility across all n columns.
    """
    if n < 3:
        raise ValueError(f"stage 1 needs n >= 3, got {n}")
    cols = [_minority_column(n, (1, i + 1)) for i in range(1, n)]
    cols.append(_minority_column(n, (1,)))
    return cols


def _partners(n: int, ell: int | None, mu: int) -> list[int]:
    """The n-3 partners of stages II and III: agents outside {1, ell, mu}
    in ascending order (with ``ell`` None, the first n-3 outside {1, mu})."""
    if n < 7:
        raise ValueError(f"stages II and III need n >= 7, got {n}")
    if mu in (1, ell) or not 2 <= mu <= n:
        raise ValueError(f"mu={mu} must be one of agents 2..{n} and differ from ell={ell}")
    if ell is not None and not 2 <= ell <= n:
        raise ValueError(f"ell={ell} out of range")
    excluded = {1, ell, mu}
    return [a for a in range(2, n + 1) if a not in excluded][: n - 3]


def gen_stage2(n: int, ell: int | None, mu: int) -> list[tuple[int, ...]]:
    """Second forcing script, aimed at agent ``mu``.

    The first n-3 columns pair ``mu`` with each of its partners, then
    ``mu`` pairs with agent 1, and the final column has ``mu`` alone in
    the minority. ``ell`` may be None when the first stage ended on the
    solo column.
    """
    cols = [_minority_column(n, (mu, x)) for x in _partners(n, ell, mu)]
    cols.append(_minority_column(n, (mu, 1)))
    cols.append(_minority_column(n, (mu,)))
    return cols


def gen_stage3(
    n: int, ell: int | None, mu: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Cascade scripts: the targeted opener and one full cycle.

    The first block pairs agent 1 with each of the n-3 partners of
    stage II; the cycle block pairs agent 1 with agents 2..n in order
    (n-1 columns, the opening script without its solo column) and is
    meant to be repeated.
    """
    s3a = [_minority_column(n, (1, j)) for j in _partners(n, ell, mu)]
    return s3a, gen_stage1(n)[:-1]


# ---------------------------------------------------------------------------
# fixed instance families


@dataclass(frozen=True)
class NamedInstance:
    """A generated instance together with the share facts it was built
    to exhibit (1-based agent -> claimed lower bound on the adaptive
    share). The claims are verified against the solver in the tests."""

    name: str
    matrix: PreferenceMatrix
    mms_claims: Mapping[int, int]


_T2 = (0, 0, 1, 1)
_T3 = (0, 1, 0, 1)
_T4 = (0, 1, 1, 0)
_A2 = (0, 1, 0, 0)
_A3 = (0, 0, 1, 0)
_A4 = (0, 0, 0, 1)


def gen_ambiguity_instances() -> tuple[NamedInstance, ...]:
    """The 4-agent families that make tie columns genuinely hard.

    Three instances: one of each tie type; a tie mix padded with three
    columns opposing agent 2; and the heavy family of three columns
    opposing each of agents 3 and 4 plus one tie with each.
    """
    triple = PreferenceMatrix.from_columns([_T2, _T3, _T4])
    heavy2 = PreferenceMatrix.from_columns([_T2, _T2, _T3, _T4] + [_A2] * 3)
    final = PreferenceMatrix.from_columns([_A3] * 3 + [_A4] * 3 + [_T3, _T4])
    return (
        NamedInstance("ambiguous-triple", triple, {1: 1, 2: 1, 3: 1, 4: 1}),
        NamedInstance("alpha2-heavy", heavy2, {2: 2}),
        NamedInstance("final-45", final, {2: 5}),
    )


def gen_mnw_gap(n: int) -> PreferenceMatrix:
    """Family separating maximum Nash welfare from the adaptive share.

    Builds an (n+1)-agent instance with m = (n+k)(n+1) columns for
    k = n(n-3)/2: each agent except the first is the sole minority on
    n+1 columns, and agent 1 sits in the minority on k(n+1) columns,
    one third of them alongside each third of the other agents. The
    divisibility constraints keep every block size integral.
    """
    if n < 9:
        raise ValueError(f"gap construction needs n >= 9, got {n}")
    if n % 3 != 0 or n % 2 != 1:
        raise ValueError(f"gap construction needs n divisible by 3 and odd, got {n}")
    agents = n + 1
    k = n * (n - 3) // 2
    cols: list[tuple[int, ...]] = []
    for i in range(2, agents + 1):
        cols.extend([_minority_column(agents, (i,))] * agents)
    third = n // 3
    block = k * agents // 3
    for r in range(3):
        group = range(2 + r * third, 2 + (r + 1) * third)
        col = _minority_column(agents, (1, *group))
        cols.extend([col] * block)
    return PreferenceMatrix.from_columns(cols, n_agents=agents)


def _check_family_shape(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"the number of agents must be positive, got {n}")
    if m < 0:
        raise ValueError(f"the number of decisions must be nonnegative, got {m}")


def all_consensus(n: int, m: int) -> PreferenceMatrix:
    """Everyone wants 1 on every decision."""
    _check_family_shape(n, m)
    return PreferenceMatrix.from_rows([(1,) * m] * n)


def all_opposed(n: int, m: int) -> PreferenceMatrix:
    """Agent 1 wants 0 everywhere; everyone else wants 1."""
    _check_family_shape(n, m)
    return PreferenceMatrix.from_rows([(0,) * m] + [(1,) * m] * (n - 1))


def gen_named_examples() -> dict[str, PreferenceMatrix]:
    """Small named instances used throughout the documentation and tests."""
    jr_vs_mms = PreferenceMatrix.from_rows(
        [
            (1, 1, 0, 1, 1, 0, 1, 1, 0),
            (1, 1, 1, 1, 1, 1, 1, 1, 1),
            (0, 0, 1, 0, 0, 1, 0, 0, 1),
        ]
    )
    mms_vs_rds = PreferenceMatrix.from_rows([(1, 1), (1, 0), (0, 1), (0, 0)])
    mnw_vs_mms = PreferenceMatrix.from_columns(
        [(0, 1, 1)] * 9 + [(1, 0, 1)] * 3 + [(1, 1, 0)] * 3
    )
    return {
        "jr_vs_mms": jr_vs_mms,
        "mms_vs_rds": mms_vs_rds,
        "mnw_vs_mms": mnw_vs_mms,
    }


# ---------------------------------------------------------------------------
# the adaptive attack


class _Transcribed:
    """A report that stores its rule's name, agent count and instance
    once, in its transcript."""

    @property
    def rule(self) -> str:
        return self.transcript.rule

    @property
    def n(self) -> int:
        return self.transcript.n

    @property
    def instance(self) -> PreferenceMatrix:
        return self.transcript.matrix


@dataclass(frozen=True)
class ViolationCertificate(_Transcribed):
    """Proof that a rule fell short of an adaptive-share guarantee.

    The witness partition certifies ``guarantee <= mms_adapt`` for the
    victim on the recorded instance, while ``achieved`` is the victim's
    realized utility; validity means ``achieved < guarantee``, and both
    numbers can be recomputed from the other fields alone. Construction
    raises :class:`CertificateError` unless the transcript, the victim and
    the witness's shape (n bundles over m decisions) fit the instance.
    """

    transcript: RuleTranscript
    victim: int
    witness: Partition
    guarantee: int
    achieved: int

    def __post_init__(self) -> None:
        n, m = self.instance.n, self.instance.m
        if len(self.transcript.outcome) != m:
            raise CertificateError(f"transcript does not cover the instance's {m} decisions")
        if not isinstance(self.victim, int) or not 0 <= self.victim < n:
            raise CertificateError(f"victim index {self.victim!r} out of range")
        if len(self.witness.bundles) != n or self.witness.n_decisions != m:
            raise CertificateError(f"bad witness partition: not {n} bundles over {m} decisions")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "n": self.n,
            "instance": self.instance.to_text(),
            "decisions": "".join(map(str, self.transcript.outcome)),
            "victim": self.victim + 1,
            "witness": [[j + 1 for j in bundle] for bundle in self.witness.bundles],
            "guarantee": self.guarantee,
            "achieved": self.achieved,
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ViolationCertificate":
        try:
            blob = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"certificate is not valid JSON: {exc}") from None
        return cls.from_dict(blob)

    @classmethod
    def from_dict(cls, blob: Mapping) -> "ViolationCertificate":
        if not isinstance(blob, Mapping):
            raise CertificateError("certificate must be a JSON object")
        for key in ("instance", "decisions", "victim", "witness", "guarantee", "achieved"):
            if key not in blob:
                raise CertificateError(f"certificate is missing field {key!r}")
        if not isinstance(blob["instance"], str):
            raise CertificateError("bad instance: expected the instance text as a string")
        try:
            instance = parse_matrix(blob["instance"])
        except ValueError as exc:
            raise CertificateError(f"bad instance: {exc}") from None
        if "n" in blob and (not _is_int(blob["n"]) or blob["n"] != instance.n):
            raise CertificateError(
                f"agent count n must be {instance.n} as in the instance, got {blob['n']!r}"
            )
        decisions = blob["decisions"]
        if (
            not isinstance(decisions, str)
            or not set(decisions) <= {"0", "1"}
            or len(decisions) != instance.m
        ):
            raise CertificateError(
                f"decision string must be {instance.m} bits, got {decisions!r}"
            )
        outcome = tuple(int(b) for b in decisions)
        victim = blob["victim"]
        if not _is_int(victim) or not 1 <= victim <= instance.n:
            raise CertificateError(f"victim {victim!r} out of range")
        bundles = blob["witness"]
        if not isinstance(bundles, list) or not all(
            isinstance(bundle, list) and all(_is_int(j) for j in bundle) for bundle in bundles
        ):
            raise CertificateError(
                "bad witness partition: expected lists of integer decision numbers"
            )
        try:
            witness = Partition([[j - 1 for j in bundle] for bundle in bundles], instance.m)
        except ValueError as exc:
            raise CertificateError(f"bad witness partition: {exc}") from None
        guarantee, achieved = blob["guarantee"], blob["achieved"]
        if not _is_int(guarantee) or not _is_int(achieved):
            raise CertificateError("guarantee and achieved must be integers")
        rule_name = blob.get("rule", "?")
        if not isinstance(rule_name, str):
            raise CertificateError(f"rule must be a rule name string, got {rule_name!r}")
        # only the built-in table is consulted: a graceful:<path> name
        # would open the file it names
        factory = _RULE_FACTORIES.get(rule_name)
        required = factory().required_agents if factory is not None else None
        if required is not None and required != instance.n:
            raise CertificateError(
                f"rule {rule_name!r} needs exactly {required} agents, "
                f"the instance has {instance.n}"
            )
        return cls(
            transcript=RuleTranscript(rule_name, instance, outcome, _agreements(instance, outcome)),
            victim=victim - 1,
            witness=witness,
            guarantee=guarantee,
            achieved=achieved,
        )


class CertificateError(ValueError):
    """A serialized certificate is structurally unusable."""


def _is_int(value: object) -> bool:
    # JSON true/false load as bools, which Python counts as integers
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AttackExhausted(_Transcribed):
    """The full script ran without producing a certificate.

    The staged argument guarantees a violation for every online rule at
    these sizes, so this report signals an implementation inconsistency
    rather than a surviving rule; it carries the evidence for debugging.
    """

    transcript: RuleTranscript
    reason: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "n": self.n,
            "exhausted": True,
            "reason": self.reason,
            "instance": self.instance.to_text(),
            "decisions": "".join(map(str, self.transcript.outcome)),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _minority_pref(column: Sequence[int]) -> int | None:
    """The minority side's preferred bit, or None on ties and consensus."""
    ones = sum(column)
    n = len(column)
    if ones == 0 or ones == n or 2 * ones == n:
        return None
    return 1 if 2 * ones < n else 0


class _ScriptStop(Exception):
    """The script cannot go on; the message says why."""


class _Certified(Exception):
    """Carries a violation certificate out of the script."""


class _AttackDriver:
    def __init__(self, rule: Rule, n: int, cap: int):
        self.rule = rule
        self.n = n
        self.cap = cap
        self.step = rule.stepper(n)
        self.columns: list[tuple[int, ...]] = []
        self.bits: list[int] = []
        self.specials: list[int] = []
        self.stage3_from: int | None = None
        # kept as columns are fed; the census is ordered by first occurrence
        self.utilities = [0] * n
        self.totals = [0] * n
        self.census: dict[CanonicalType, list[int]] = {}

    def feed(
        self, columns: Sequence[tuple[int, ...]], *, until_minority: bool = False
    ) -> int | None:
        """Feed columns in order, updating the counts and checking the
        witnesses after each one.

        With ``until_minority``, the first column the rule decides for its
        minority ends the feed: it becomes a special column, and its
        1-based position in ``columns`` is returned. Otherwise, or when no
        such column comes, the result is None.
        """
        for position, column in enumerate(columns, start=1):
            if len(self.columns) >= self.cap:
                raise _ScriptStop(f"safety cap of {self.cap} columns reached")
            decided = self.step.decide(column)
            try:
                (bit,) = _as_bits((decided,), "decision")
            except ValueError:
                raise _ScriptStop(f"rule produced non-bit decision {decided!r}") from None
            ones = sum(column)
            for i, b in enumerate(column):
                self.utilities[i] += b == bit
                self.totals[i] += ones if b else self.n - ones
            # the scripts above make every column, so _canonical needs no bit check
            self.census.setdefault(_canonical(column)[0], []).append(len(self.columns))
            self.columns.append(column)
            self.bits.append(bit)
            self._check_witnesses()
            if until_minority and bit == _minority_pref(column):
                self.specials.append(len(self.columns) - 1)
                return position
        return None

    # -- witnesses --------------------------------------------------------

    def _witnesses(self) -> list[Partition]:
        # catalog order: singletons (when every column fits in its own
        # bundle), then the two per-type round-robin spreads (only once
        # some type has repeats to spread), then the cascade split
        n = self.n
        m = len(self.columns)
        census = self.census.values()
        out = []
        if m <= n:
            bundles = [[j] for j in range(m)] + [[] for _ in range(n - m)]
            out.append(Partition(bundles, m))
        if any(len(occurrences) >= 2 for occurrences in census):
            for offset in (0, 1):
                bundles = [[] for _ in range(n)]
                for c, occurrences in enumerate(census):
                    for k, j in enumerate(occurrences):
                        bundles[(offset * c + k) % n].append(j)
                out.append(Partition(bundles, m))
        if self.stage3_from is not None:
            head = set(self.specials) | set(range(self.stage3_from, m))
            bundles = [sorted(head)] + [[] for _ in range(n - 1)]
            for occurrences in census:
                rest = [j for j in occurrences if j not in head]
                for k, j in enumerate(rest):
                    bundles[1 + k % (n - 1)].append(j)
            out.append(Partition(bundles, m))
        return out

    def _check_witnesses(self) -> None:
        # a partition's permutation minimum is an int no larger than its
        # average over all permutations, RDS_i, so an agent whose utility
        # reaches floor(RDS_i) cannot be violated and its checks are skipped
        below = [i for i, (achieved, total) in enumerate(zip(self.utilities, self.totals))
                 if achieved < total // self.n]
        if not below:
            return
        matrix = PreferenceMatrix._trusted(tuple(zip(*self.columns)))
        witnesses = self._witnesses()
        for i in below:
            achieved = self.utilities[i]
            for partition in witnesses:
                guarantee = partition_guarantee(matrix, i, partition)
                if achieved < guarantee:
                    bits = tuple(self.bits)
                    raise _Certified(ViolationCertificate(
                        transcript=RuleTranscript.from_outcome(self.rule.name, matrix, bits),
                        victim=i,
                        witness=partition,
                        guarantee=guarantee,
                        achieved=achieved,
                    ))

    # -- script -----------------------------------------------------------

    def run(self) -> ViolationCertificate | AttackExhausted:
        try:
            self._script()
        except _Certified as found:
            return found.args[0]
        except _ScriptStop as stop:
            matrix = PreferenceMatrix.from_columns(self.columns, n_agents=self.n)
            return AttackExhausted(
                transcript=RuleTranscript.from_outcome(self.rule.name, matrix, self.bits),
                reason=str(stop),
            )

    def _script(self) -> None:
        # t and tau: 1-based script positions of the first and second
        # minority decisions; ell and mu: the agents the script singles out
        n = self.n
        s1 = gen_stage1(n)
        t = self.feed(s1, until_minority=True)  # I1
        if t is None:
            raise _ScriptStop(
                "opening stage passed with no minority decision and no certificate"
            )
        ell = t + 1 if t <= n - 1 else None
        mu = next(a for a in range(2, n + 1) if a != ell)
        self.feed([column for column in s1[: t - 1] for _ in range(n - 1)])  # I2

        s2 = gen_stage2(n, ell, mu)
        tau = self.feed(s2, until_minority=True)  # II1
        if tau is not None:
            self.feed([column for column in s2[: tau - 1] for _ in range(n - 1)])  # II2

        self.stage3_from = len(self.columns)
        s3a, s3b = gen_stage3(n, ell, mu)
        self.feed(s3a)  # III-a
        self.feed(s3b * (n - 1))  # III-b
        raise _ScriptStop(
            "script completed without a violation; the staged argument promises "
            "one, so this indicates an inconsistency in the attack implementation"
        )


def adaptive_attack(
    rule: Rule | str, n: int, *, max_columns: int | None = None
) -> ViolationCertificate | AttackExhausted:
    """Attack an online rule with n agents and extract a certificate.

    Plays the staged script: force a minority decision while agent 1
    starves, amplify the forced types, repeat against a second agent,
    then cascade. Utilities, RDS totals and the type census are kept as
    columns are fed. After a column that leaves agents below floor(RDS),
    the witness catalog is built and each witness evaluated exactly for
    each such agent (agent order first, then witness order); the first
    violation found is returned. No partition guarantees more than
    floor(RDS), so the other agents are skipped. A completed script
    without a violation yields an :class:`AttackExhausted` report instead.

    The rule must be online and not horizon-aware; it sees columns
    strictly one at a time. ``max_columns`` (at least 1) overrides the
    default safety cap of 4n².
    """
    if isinstance(rule, str):
        rule = build_rule(rule)
    if n < 7:
        raise ValueError(f"the staged attack needs n >= 7, got {n}")
    if max_columns is not None and max_columns < 1:
        raise ValueError(f"max_columns must be positive, got {max_columns}")
    if not rule.online or rule.horizon_aware:
        raise ValueError(
            f"rule {rule.name!r} is not attackable: the script requires an online "
            "rule that decides without knowing the horizon"
        )
    if rule.required_agents is not None and rule.required_agents != n:
        raise ValueError(
            f"rule {rule.name!r} is fixed to {rule.required_agents} agents"
        )
    cap = ATTACK_COLUMN_CAP_FACTOR * n * n if max_columns is None else max_columns
    return _AttackDriver(rule, n, cap).run()
