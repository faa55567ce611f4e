"""Decision rules for perpetual binary voting.

A rule maps a preference matrix to an outcome, one bit per decision. The
rules here fall into three informational classes, recorded on each rule
object so callers (notably the adaptive lower-bound search) can tell what
a rule is allowed to see:

* online: decides column ``j`` from columns ``1..j`` only;
* horizon-aware: online, but told the total number of decisions upfront;
* offline: sees the whole matrix before deciding anything.

Graceful rules are the central online family. Such a rule keeps one
counter per canonical column type and decides the k-th occurrence of a
type by looking up position k (cyclically) in a fixed token sequence for
that type. Tokens are orientation-relative, so a graceful rule treats a
column and its bitwise negation identically up to relabeling of sides:

* ``MAJ`` / ``MIN``: side with more / fewer supporters in the observed
  column (split types only);
* ``CANON`` / ``ANTI``: bit 0 / bit 1 of the canonical orientation,
  negated when the observed column arrived flipped (tie types only).

Consensus columns are always decided unanimously and do not consult the
token table.

Every ``run`` returns a :class:`RuleTranscript` holding the per-decision
records, final outcome, utilities, and per-type occurrence counters, and
serializes to JSON so long runs can be checkpointed and replayed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .model import CanonicalType, PreferenceMatrix, canonicalize, n4_counts, type_census, utility
from .shares import SearchBudgetExceeded, effective_budget

__all__ = [
    "DecisionRecord",
    "RuleTranscript",
    "Rule",
    "MajorityRule",
    "ConstantRule",
    "AlwaysMinorityRule",
    "GracefulRule",
    "GracefulMap",
    "GracefulMapError",
    "standard_pattern",
    "MuffledMajority3",
    "DeferredAmbiguity4",
    "InternalInconsistencyError",
    "deferred_ambiguity",
    "eta_vector",
    "MaxNashWelfareRule",
    "mnw_outcome",
    "nash_welfare",
    "build_rule",
    "run_rule",
    "RULE_NAMES",
]

TOKENS = ("MAJ", "MIN", "CANON", "ANTI")


class GracefulMapError(ValueError):
    """A graceful token table is malformed or has no entry for a type."""


class InternalInconsistencyError(RuntimeError):
    """Two agents simultaneously fell below their deferral thresholds.

    The compensation argument guarantees at most one agent can end up
    short, so this firing means the implementation (not the input) is
    wrong. It exists to be never raised.
    """


@dataclass(frozen=True)
class DecisionRecord:
    """One decided column: what was seen and what was chosen."""

    column: tuple[int, ...]
    type_bits: tuple[int, ...]
    flipped: bool
    counter: int
    bit: int

    def to_dict(self) -> dict:
        return {
            "column": "".join(map(str, self.column)),
            "type": "".join(map(str, self.type_bits)),
            "flipped": self.flipped,
            "counter": self.counter,
            "bit": self.bit,
        }


@dataclass(frozen=True)
class RuleTranscript:
    """Full record of a rule run, sufficient to replay or audit it."""

    rule: str
    n: int
    records: tuple[DecisionRecord, ...]
    outcome: tuple[int, ...]
    utilities: tuple[int, ...]
    counters: Mapping[CanonicalType, int]
    details: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_outcome(
        cls,
        rule: str,
        matrix: PreferenceMatrix,
        outcome: Sequence[int],
        details: Mapping[str, object] | None = None,
    ) -> "RuleTranscript":
        """The transcript of ``outcome`` on ``matrix``, read off the type
        census: the k-th occurrence of a type carries counter k, and the
        final counters are the census counts."""
        census = type_census(matrix)
        columns = list(matrix.columns())
        records: list = [None] * matrix.m
        for ctype, entry in census.items():
            for k, (j, flipped) in enumerate(zip(entry.occurrences, entry.flipped)):
                records[j] = DecisionRecord(columns[j], ctype.bits, flipped, k, outcome[j])
        return cls(
            rule=rule,
            n=matrix.n,
            records=tuple(records),
            outcome=tuple(outcome),
            utilities=tuple(utility(matrix, outcome, i) for i in range(matrix.n)),
            counters={ctype: entry.count for ctype, entry in census.items()},
            details=details or {},
        )

    @property
    def m(self) -> int:
        return len(self.outcome)

    def to_dict(self) -> dict:
        out: dict = {
            "rule": self.rule,
            "n": self.n,
            "m": self.m,
            "outcome": "".join(map(str, self.outcome)),
            "utilities": list(self.utilities),
            "counters": {str(t): c for t, c in self.counters.items()},
            "decisions": [r.to_dict() for r in self.records],
        }
        if self.details:
            out["details"] = {k: _jsonable(v) for k, v in self.details.items()}
        return out

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class Rule:
    """Base class for decision rules.

    Subclasses set ``name`` and the informational flags, and implement
    either :meth:`stepper` (online rules) or :meth:`run` (offline rules).
    ``order_insensitive`` declares that utilities depend only on the type
    census of the input, which exhaustive checkers exploit to dedup.
    """

    name: str = "?"
    required_agents: int | None = None
    online: bool = True
    horizon_aware: bool = False
    order_insensitive: bool = False

    def check_matrix(self, matrix: PreferenceMatrix) -> None:
        if self.required_agents is not None and matrix.n != self.required_agents:
            raise ValueError(
                f"rule {self.name!r} needs exactly {self.required_agents} agents, "
                f"got {matrix.n}"
            )

    def stepper(self, n: int, m: int | None = None) -> "Stepper":
        raise NotImplementedError(f"rule {self.name!r} has no online stepper")

    def run(self, matrix: PreferenceMatrix) -> RuleTranscript:
        self.check_matrix(matrix)
        if self.horizon_aware:
            step = self.stepper(matrix.n, matrix.m)
        else:
            step = self.stepper(matrix.n)
        outcome = []
        for column in matrix.columns():
            bit = step.decide(column)
            if bit not in (0, 1):
                raise ValueError(f"rule produced non-bit decision {bit!r}")
            outcome.append(bit)
        return RuleTranscript.from_outcome(self.name, matrix, outcome, step.details())


class Stepper:
    """Incremental interface for online rules: feed columns, get bits."""

    def decide(self, column: Sequence[int]) -> int:
        raise NotImplementedError

    def details(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# simple online rules


class _MajorityStepper(Stepper):
    def __init__(self, n: int):
        self.n = n

    def decide(self, column: Sequence[int]) -> int:
        return 1 if 2 * sum(column) > self.n else 0


class MajorityRule(Rule):
    """Decide every column by simple majority; exact ties go to 0."""

    name = "majority"
    order_insensitive = True

    def stepper(self, n: int, m: int | None = None) -> Stepper:
        return _MajorityStepper(n)


class _ConstantStepper(Stepper):
    def __init__(self, bit: int):
        self.bit = bit

    def decide(self, column: Sequence[int]) -> int:
        return self.bit


class ConstantRule(Rule):
    """Ignore the column entirely and always output a fixed bit."""

    order_insensitive = True

    def __init__(self, bit: int):
        if bit not in (0, 1):
            raise ValueError(f"constant bit must be 0 or 1, got {bit!r}")
        self.bit = bit
        self.name = f"always-{bit}"

    def stepper(self, n: int, m: int | None = None) -> Stepper:
        return _ConstantStepper(self.bit)


class _MinorityStepper(Stepper):
    def __init__(self, n: int):
        self.n = n

    def decide(self, column: Sequence[int]) -> int:
        ones = sum(column)
        if 2 * ones == self.n:
            return 0
        if ones == 0 or ones == self.n:
            return column[0]
        return 1 if 2 * ones < self.n else 0


class AlwaysMinorityRule(Rule):
    """Side with the minority on every split column.

    Consensus columns are decided unanimously and exact ties go to 0,
    matching the majority rule's conventions.
    """

    name = "always-minority"
    order_insensitive = True

    def stepper(self, n: int, m: int | None = None) -> Stepper:
        return _MinorityStepper(n)


# ---------------------------------------------------------------------------
# graceful rules


def _check_tokens(ctype: CanonicalType, tokens: Sequence[str], n: int) -> tuple[str, ...]:
    tokens = tuple(tokens)
    if len(tokens) != n:
        raise GracefulMapError(
            f"token sequence for type {ctype} has length {len(tokens)}, expected {n}"
        )
    allowed = {"split": ("MAJ", "MIN"), "tie": ("CANON", "ANTI")}[ctype.kind]
    for tok in tokens:
        if tok not in allowed:
            raise GracefulMapError(
                f"token {tok!r} is not valid for {ctype.kind} type {ctype}; "
                f"allowed: {', '.join(allowed)}"
            )
    return tokens


def _resolve_token(token: str, ctype: CanonicalType, flipped: bool) -> int:
    if token == "MAJ":
        canonical_bit = 1 - ctype.minority_bit
    elif token == "MIN":
        canonical_bit = ctype.minority_bit
    elif token == "CANON":
        canonical_bit = 0
    elif token == "ANTI":
        canonical_bit = 1
    else:
        raise GracefulMapError(f"unknown token {token!r}")
    return canonical_bit ^ int(flipped)


@dataclass(frozen=True)
class GracefulMap:
    """Explicit token table for a graceful rule, usually read from a file.

    The file format is one line per non-consensus type::

        <canonical bits> <token,token,...,token>

    with exactly ``n`` comma-separated tokens per line, ``MAJ``/``MIN``
    for split types and ``CANON``/``ANTI`` for tie types. Blank lines and
    lines starting with ``#`` are skipped. A run that meets a type absent
    from the table fails rather than guessing.
    """

    n: int
    table: Mapping[CanonicalType, tuple[str, ...]]

    @classmethod
    def parse(cls, text: str) -> "GracefulMap":
        table: dict[CanonicalType, tuple[str, ...]] = {}
        n: int | None = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GracefulMapError(
                    f"line {lineno}: expected '<bits> <tokens>', got {line!r}"
                )
            bits_text, tokens_text = parts
            if not set(bits_text) <= {"0", "1"}:
                raise GracefulMapError(f"line {lineno}: bad type bits {bits_text!r}")
            bits = tuple(int(b) for b in bits_text)
            if n is None:
                n = len(bits)
            elif len(bits) != n:
                raise GracefulMapError(
                    f"line {lineno}: type has {len(bits)} bits, expected {n}"
                )
            if bits and bits[0] != 0:
                raise GracefulMapError(
                    f"line {lineno}: type bits must be in canonical orientation "
                    f"(first bit 0), got {bits_text!r}"
                )
            ctype = CanonicalType(bits)
            if ctype.kind == "consensus":
                raise GracefulMapError(
                    f"line {lineno}: consensus types are always decided unanimously "
                    "and may not appear in the table"
                )
            if ctype in table:
                raise GracefulMapError(f"line {lineno}: duplicate entry for {ctype}")
            table[ctype] = _check_tokens(ctype, tokens_text.split(","), n)
        if n is None:
            raise GracefulMapError("empty token table")
        return cls(n=n, table=dict(table))

    @classmethod
    def load(cls, path) -> "GracefulMap":
        with open(path, "r", encoding="ascii") as fh:
            return cls.parse(fh.read())

    def tokens_for(self, ctype: CanonicalType) -> tuple[str, ...]:
        try:
            return self.table[ctype]
        except KeyError:
            raise GracefulMapError(f"token table has no entry for type {ctype}") from None

    def to_text(self) -> str:
        lines = [f"{t} {','.join(tokens)}" for t, tokens in self.table.items()]
        return "\n".join(lines) + "\n"


def standard_pattern(n: int) -> Callable[[CanonicalType], tuple[str, ...]]:
    """Token pattern used by the package's built-in graceful rules.

    Split types give the majority its way on the first ``n - 1``
    occurrences of each cycle and the minority on the last. Tie types
    alternate sides, starting with the side of agent 1.
    """
    if n < 2:
        raise ValueError("graceful patterns need at least 2 agents")
    split = ("MAJ",) * (n - 1) + ("MIN",)
    tie = tuple("CANON" if k % 2 == 0 else "ANTI" for k in range(n))

    def pattern(ctype: CanonicalType) -> tuple[str, ...]:
        return split if ctype.kind == "split" else tie

    return pattern


class _GracefulStepper(Stepper):
    def __init__(self, pattern: Callable[[CanonicalType], Sequence[str]], n: int):
        self.pattern = pattern
        self.n = n
        self.counters: dict[CanonicalType, int] = {}

    def decide(self, column: Sequence[int]) -> int:
        ctype, flipped = canonicalize(column)
        if ctype.kind == "consensus":
            return column[0]
        k = self.counters.get(ctype, 0)
        self.counters[ctype] = k + 1
        tokens = _check_tokens(ctype, self.pattern(ctype), self.n)
        return _resolve_token(tokens[k % len(tokens)], ctype, flipped)


class GracefulRule(Rule):
    """Counter-based online rule driven by per-type token sequences."""

    order_insensitive = True

    def __init__(
        self,
        name: str,
        pattern: Callable[[CanonicalType], Sequence[str]],
        *,
        required_agents: int | None = None,
    ):
        self.name = name
        self.pattern = pattern
        self.required_agents = required_agents

    @classmethod
    def from_map(cls, gmap: GracefulMap, *, name: str = "graceful") -> "GracefulRule":
        return cls(name, gmap.tokens_for, required_agents=gmap.n)

    def stepper(self, n: int, m: int | None = None) -> Stepper:
        return _GracefulStepper(self.pattern, n)


def _ptrr3() -> GracefulRule:
    return GracefulRule("ptrr3", standard_pattern(3), required_agents=3)


def _ptrr_generalized() -> GracefulRule:
    def pattern(ctype: CanonicalType) -> tuple[str, ...]:
        return standard_pattern(len(ctype.bits))(ctype)

    return GracefulRule("ptrr-generalized", pattern)


# ---------------------------------------------------------------------------
# muffled majority (3 agents, horizon-aware)


class _MuffledStepper(Stepper):
    def __init__(self, m: int):
        self.threshold = m // 2
        self.scores = [0, 0, 0]

    def decide(self, column: Sequence[int]) -> int:
        under = [i for i in range(3) if self.scores[i] < self.threshold]
        if not under:
            bit = 1 if 2 * sum(column) > 3 else 0
        else:
            ones = sum(column[i] for i in under)
            zeros = len(under) - ones
            if ones != zeros:
                bit = 1 if ones > zeros else 0
            else:
                pick = min(under, key=lambda i: (self.scores[i], i))
                bit = column[pick]
        for i in range(3):
            if column[i] == bit:
                self.scores[i] += 1
        return bit

    def details(self) -> dict:
        return {"final_scores": tuple(self.scores)}


class MuffledMajority3(Rule):
    """Majority restricted to agents still short of half the horizon.

    Agents whose matched-decision score has reached ``floor(m / 2)`` are
    muffled: their votes stop counting. Among the rest, strict majority
    wins; a tie is broken by copying the lowest-scoring unmuffled agent
    (lowest index on equal scores). When everyone is muffled the rule
    falls back to plain majority. Scores count matched decisions, so the
    rule needs the horizon upfront.
    """

    name = "muffled3"
    required_agents = 3
    horizon_aware = True

    def stepper(self, n: int, m: int | None = None) -> Stepper:
        if m is None:
            raise ValueError("muffled3 needs the number of decisions upfront")
        return _MuffledStepper(m)


# ---------------------------------------------------------------------------
# deferred ambiguity (4 agents, offline)


def eta_vector(matrix: PreferenceMatrix) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Compensation thresholds for the deferral rule, one per agent.

    Agent ``i`` is entitled to three quarters of every sole-minority
    count opposing someone else, a quarter of the count opposing
    themselves, half of every tie count, and all consensus columns.
    """
    if matrix.n != 4:
        raise ValueError("thresholds are defined for 4-agent instances")
    solo, ties, consensus = n4_counts(matrix)
    half_ties = Fraction(sum(ties), 2)
    total_alpha = sum(solo)
    return tuple(
        Fraction(3, 4) * (total_alpha - solo[i])
        + Fraction(1, 4) * solo[i]
        + consensus
        + half_ties
        for i in range(4)
    )


def deferred_ambiguity(
    matrix: PreferenceMatrix,
) -> tuple[tuple[int, ...], tuple[int, ...], int, tuple[Fraction, ...]]:
    """Outcome of the 4-agent deferral rule, with its working parts.

    Removes the last occurrence of every odd-count tie type, runs the
    standard graceful rule on the remainder, and hands all removed
    columns to the unique agent (if any) whose realized utility fell
    below their threshold on the reduced instance. When nobody fell
    short, the columns go to the lowest-numbered agent sitting exactly
    at their threshold, except that a pair of threshold agents
    disagreeing on every removed column is served by the lowest-numbered
    agent outside the pair; with no threshold agent at all, agent 1
    takes them. Returns ``(outcome, removed column indices, compensated
    agent, thresholds)``, all relative to the original column order.
    """
    if matrix.n != 4:
        raise ValueError("the deferral rule is defined for 4 agents")
    removed = sorted(
        entry.occurrences[-1]
        for ctype, entry in type_census(matrix).items()
        if ctype.kind == "tie" and entry.count % 2 == 1
    )
    reduced = matrix.drop_columns(removed) if removed else matrix
    transcript = GracefulRule("_inner", standard_pattern(4), required_agents=4).run(reduced)
    eta = eta_vector(reduced)
    short = [i for i in range(4) if transcript.utilities[i] < eta[i]]
    if len(short) > 1:
        raise InternalInconsistencyError(
            f"agents {[i + 1 for i in short]} all below threshold: "
            f"utilities {transcript.utilities}, thresholds {tuple(map(str, eta))}"
        )
    if short:
        i_star = short[0]
    else:
        # An agent sitting exactly on the threshold may still be owed one
        # more decision once the removed columns come back (two removals
        # can lift their share by a full unit), so they take precedence
        # over the default.
        at_threshold = [i for i in range(4) if transcript.utilities[i] == eta[i]]
        i_star = at_threshold[0] if at_threshold else 0
        if (
            len(at_threshold) == 2
            and len(removed) == 2
            and all(
                matrix.rows[at_threshold[0]][j] != matrix.rows[at_threshold[1]][j]
                for j in removed
            )
        ):
            # Two threshold agents on opposite sides of both removed
            # columns cannot both be served by either of them, while any
            # other agent sides with each of them exactly once.
            i_star = min(i for i in range(4) if i not in at_threshold)
    removed_set = set(removed)
    inner = iter(transcript.outcome)
    outcome = tuple(
        matrix.rows[i_star][j] if j in removed_set else next(inner)
        for j in range(matrix.m)
    )
    return outcome, tuple(removed), i_star, eta


class DeferredAmbiguity4(Rule):
    """Graceful core plus deferred handling of odd tie types (4 agents)."""

    name = "deferred4"
    required_agents = 4
    online = False
    order_insensitive = True

    def run(self, matrix: PreferenceMatrix) -> RuleTranscript:
        self.check_matrix(matrix)
        outcome, removed, i_star, eta = deferred_ambiguity(matrix)
        details = {
            "deferred_columns": tuple(j + 1 for j in removed),
            "compensated_agent": i_star + 1,
            "thresholds": eta,
        }
        return RuleTranscript.from_outcome(self.name, matrix, outcome, details)


# ---------------------------------------------------------------------------
# maximum Nash welfare (offline)


def nash_welfare(matrix: PreferenceMatrix, outcome: Sequence[int]) -> int:
    """Product of all agents' utilities under ``outcome``."""
    product = 1
    for i in range(matrix.n):
        product *= utility(matrix, outcome, i)
    return product


def mnw_outcome(matrix: PreferenceMatrix) -> tuple[int, ...]:
    """Outcome maximizing the product of utilities.

    Searches over per-type counts of canonically-0 decisions rather than
    raw outcomes, since utilities only depend on those counts. Welfare
    degeneracies (some agent at zero) are broken by most agents positive,
    then largest product of the positive utilities, then the
    lexicographically smallest outcome string. Budget-guarded like the
    share solver: the candidate space must fit in the node budget.
    """
    limit = effective_budget()
    types = list(type_census(matrix).items())
    space = 1
    for _, entry in types:
        space *= entry.count + 1
    if space > limit:
        raise SearchBudgetExceeded(
            limit,
            space,
            f"the Nash welfare candidate space has {space} candidates, "
            f"more than the node budget {limit}",
        )

    n = matrix.n
    # wins[t][x] = per-agent utility contribution when x of type t's
    # columns are decided with canonical bit 0
    contrib = []
    for ctype, entry in types:
        count = entry.count
        rows = [
            tuple((x if b == 0 else count - x) for b in ctype.bits)
            for x in range(count + 1)
        ]
        contrib.append(rows)

    best_key: tuple[int, int] | None = None
    best_vectors: list[tuple[int, ...]] = []

    def scan(t: int, totals: tuple[int, ...], chosen: tuple[int, ...]) -> None:
        nonlocal best_key, best_vectors
        if t == len(types):
            positive = [u for u in totals if u > 0]
            product = 1
            for u in positive:
                product *= u
            key = (len(positive), product)
            if best_key is None or key > best_key:
                best_key = key
                best_vectors = [chosen]
            elif key == best_key:
                best_vectors.append(chosen)
            return
        for x, row in enumerate(contrib[t]):
            scan(t + 1, tuple(a + b for a, b in zip(totals, row)), chosen + (x,))

    scan(0, (0,) * n, ())

    def realize(vector: tuple[int, ...]) -> tuple[int, ...]:
        # lexicographically smallest outcome with the given per-type
        # canonical-0 counts: walk left to right, emit 0 whenever the
        # side that shows as 0 still has quota
        remaining0 = {}
        remaining1 = {}
        for (ctype, entry), x in zip(types, vector):
            remaining0[ctype] = x
            remaining1[ctype] = entry.count - x
        bits = [0] * matrix.m
        for ctype, entry in types:
            for j, flipped in zip(entry.occurrences, entry.flipped):
                side0 = remaining1 if flipped else remaining0
                side1 = remaining0 if flipped else remaining1
                if side0[ctype] > 0:
                    side0[ctype] -= 1
                    bits[j] = 0
                else:
                    side1[ctype] -= 1
                    bits[j] = 1
        return tuple(bits)

    return min(realize(v) for v in best_vectors)


class MaxNashWelfareRule(Rule):
    """Offline rule returning an outcome of maximum Nash welfare."""

    name = "mnw"
    online = False
    order_insensitive = True

    def run(self, matrix: PreferenceMatrix) -> RuleTranscript:
        outcome = mnw_outcome(matrix)
        details = {"nash_welfare": nash_welfare(matrix, outcome)}
        return RuleTranscript.from_outcome(self.name, matrix, outcome, details)


# ---------------------------------------------------------------------------
# registry


def build_rule(name: str) -> Rule:
    """Construct a rule from its command-line name.

    Recognized names: ``majority``, ``ptrr3``, ``ptrr-generalized``,
    ``muffled3``, ``deferred4``, ``mnw``, ``always-0``, ``always-1``,
    ``always-minority``, and ``graceful:<path>`` for a token table file.
    """
    if name == "majority":
        return MajorityRule()
    if name == "ptrr3":
        return _ptrr3()
    if name == "ptrr-generalized":
        return _ptrr_generalized()
    if name == "muffled3":
        return MuffledMajority3()
    if name == "deferred4":
        return DeferredAmbiguity4()
    if name == "mnw":
        return MaxNashWelfareRule()
    if name == "always-0":
        return ConstantRule(0)
    if name == "always-1":
        return ConstantRule(1)
    if name == "always-minority":
        return AlwaysMinorityRule()
    if name.startswith("graceful:"):
        path = name[len("graceful:"):]
        if not path:
            raise ValueError("graceful: needs a token table path")
        return GracefulRule.from_map(GracefulMap.load(path))
    raise ValueError(f"unknown rule {name!r}; known: {', '.join(RULE_NAMES)}")


RULE_NAMES = (
    "majority",
    "ptrr3",
    "ptrr-generalized",
    "muffled3",
    "deferred4",
    "mnw",
    "always-0",
    "always-1",
    "always-minority",
    "graceful:<path>",
)


def run_rule(rule: Rule | str, matrix: PreferenceMatrix) -> RuleTranscript:
    """Run a rule (by object or command-line name) on a matrix."""
    if isinstance(rule, str):
        rule = build_rule(rule)
    return rule.run(matrix)
