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

Every ``run`` returns a :class:`RuleTranscript` holding the matrix, the
outcome and the utilities. Its JSON form adds the per-decision records
and per-type occurrence counters, read off the matrix's type census, so
a run can be replayed or audited. The graceful rules and ``deferred4``
count the utilities once, in the run, and leave them on the matrix for
``audit``; other outcomes are checked by ``RuleTranscript.from_outcome``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .model import (
    CanonicalType,
    PreferenceMatrix,
    _agreements,
    _remember,
    _utilities,
    canonicalize,
    type_census,
)
from .shares import SearchBudgetExceeded, effective_budget

__all__ = [
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
    "MaxNashWelfareRule",
    "mnw_outcome",
    "nash_welfare",
    "build_rule",
    "run_rule",
    "RULE_NAMES",
]

class GracefulMapError(ValueError):
    """A graceful token table is malformed or has no entry for a type."""


class InternalInconsistencyError(RuntimeError):
    """Two agents simultaneously fell below their deferral thresholds.

    The compensation argument guarantees at most one agent can end up
    short, so this firing means the implementation (not the input) is
    wrong. It exists to be never raised.
    """


@dataclass(frozen=True)
class RuleTranscript:
    """A rule run: the matrix, the outcome, every agent's utility under
    it and rule-specific details, enough to replay or audit the run."""

    rule: str
    matrix: PreferenceMatrix
    outcome: tuple[int, ...]
    utilities: tuple[int, ...]
    details: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_outcome(
        cls,
        rule: str,
        matrix: PreferenceMatrix,
        outcome: Sequence[int],
        details: Mapping[str, object] | None = None,
    ) -> "RuleTranscript":
        """The transcript of ``outcome`` on ``matrix``. ``outcome`` is
        checked like ``utility`` checks it, once for all agents, unless it
        is the very tuple a rule run left on the matrix (``_utilities``)."""
        bits, utilities = _utilities(matrix, outcome)
        return cls(rule, matrix, bits, utilities, details or {})

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def m(self) -> int:
        return self.matrix.m

    def to_dict(self) -> dict:
        """The JSON form. Decision j records column j, its canonical type
        and flip, the number of earlier occurrences of that type (its
        counter) and the bit decided; the counters are the census counts
        in order of first occurrence."""
        census = type_census(self.matrix)
        columns = list(self.matrix.columns())
        decisions: list = [None] * self.m
        for ctype, entry in census.items():
            for k, (j, flipped) in enumerate(zip(entry.occurrences, entry.flipped)):
                decisions[j] = {
                    "column": "".join(map(str, columns[j])),
                    "type": str(ctype),
                    "flipped": flipped,
                    "counter": k,
                    "bit": self.outcome[j],
                }
        out: dict = {
            "rule": self.rule,
            "n": self.n,
            "m": self.m,
            "outcome": "".join(map(str, self.outcome)),
            "utilities": list(self.utilities),
            "counters": {str(t): e.count for t, e in census.items()},
            "decisions": decisions,
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
        step = self.stepper(matrix.n, matrix.m)
        # from_outcome rejects a decision that is not a bit
        outcome = [step.decide(column) for column in matrix.columns()]
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


@lru_cache(maxsize=4096)
def _cycle(tokens: tuple[str, ...], ctype: CanonicalType, n: int) -> tuple[int, ...]:
    """The canonical bits a graceful rule decides on the successive
    occurrences of a non-consensus type, one per checked token; a column
    that arrived flipped takes its bit negated. Callers ask the pattern
    for ``tokens`` on every type, so a table's missing type always fails."""
    tokens = _check_tokens(ctype, tokens, n)
    if ctype.kind == "split":
        minority = ctype.minority_bit
        return tuple(minority if token == "MIN" else 1 - minority for token in tokens)
    return tuple(int(token == "ANTI") for token in tokens)


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
        cycle = _cycle(tuple(self.pattern(ctype)), ctype, self.n)
        return cycle[k % len(cycle)] ^ flipped


def _graceful_outcome(
    pattern: Callable[[CanonicalType], Sequence[str]],
    n: int,
    m: int,
    types: Iterable[tuple[CanonicalType, Sequence[int], Sequence[bool]]],
) -> list[int]:
    """The outcome a ``_GracefulStepper`` gives on a matrix's columns,
    read off its type census: ``types`` holds each type with its column
    indices and their flips, in order of first occurrence. The k-th
    occurrence of a type takes bit k mod the length of its ``_cycle``,
    flipped with the column. Types are met as the stepper meets them, so
    a bad token table fails on the same type. Columns that no entry
    lists stay 0."""
    outcome = [0] * m
    for ctype, occurrences, flips in types:
        if ctype.kind == "consensus":
            for j, flipped in zip(occurrences, flips):
                outcome[j] = int(flipped)
            continue
        cycle = _cycle(tuple(pattern(ctype)), ctype, n)
        period = len(cycle)
        for k, (j, flipped) in enumerate(zip(occurrences, flips)):
            outcome[j] = cycle[k % period] ^ flipped
    return outcome


class GracefulRule(Rule):
    """Counter-based online rule driven by per-type token sequences.

    ``run`` resolves every column from the matrix's type census; the
    stepper serves callers that feed columns one at a time."""

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

    def run(self, matrix: PreferenceMatrix) -> RuleTranscript:
        self.check_matrix(matrix)
        types = ((t, e.occurrences, e.flipped) for t, e in type_census(matrix).items())
        bits = tuple(_graceful_outcome(self.pattern, matrix.n, matrix.m, types))
        utilities = _agreements(matrix, bits)
        return RuleTranscript(self.name, matrix, *_remember(matrix, bits, utilities))


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


def _eta_quarters(solo: Sequence[int], ties: int, consensus: int) -> tuple[int, ...]:
    """Four times each agent's deferral threshold, an integer: three
    quarters of every sole-minority count opposing someone else, a quarter
    of the agent's own, all consensus columns and half of the ``ties``."""
    total_alpha = sum(solo)
    rest = 4 * consensus + 2 * ties
    return tuple(3 * (total_alpha - s) + s + rest for s in solo)


@lru_cache(maxsize=4096)
def _quarter(q: int) -> Fraction:
    """``Fraction(q, 4)``, one shared instance per q: thresholds repeat from
    run to run, and a Fraction is immutable."""
    return Fraction(q, 4)


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
    agent, thresholds)``, all relative to the original column order. The
    outcome tuple and its utilities are left on the matrix, as a run's are.
    """
    if matrix.n != 4:
        raise ValueError("the deferral rule is defined for 4 agents")
    # The reduced instance is read off the full census: the k-th kept
    # occurrence of a type is its k-th occurrence in the reduced matrix,
    # and an odd tie type keeps all but its last. The same walk counts
    # the sole minorities, ties and consensus columns of the thresholds.
    solo = [0, 0, 0, 0]
    ties = consensus = 0
    removed = []
    kept = []
    for ctype, entry in type_census(matrix).items():
        occurrences, flips = entry.occurrences, entry.flipped
        if ctype.kind == "consensus":
            consensus += entry.count
        elif ctype.kind == "split":
            solo[ctype.bits.index(ctype.minority_bit)] += entry.count
        else:
            ties += entry.count
            if entry.count % 2 == 1:
                removed.append(occurrences[-1])
                occurrences, flips = occurrences[:-1], flips[:-1]
        kept.append((ctype, occurrences, flips))
    removed.sort()
    outcome = _graceful_outcome(standard_pattern(4), 4, matrix.m, kept)
    # -1 agrees with no agent, so the utilities count the kept columns only
    for j in removed:
        outcome[j] = -1
    utilities = _agreements(matrix, outcome)
    # thresholds and utilities are compared in quarters, as integers
    eta4 = _eta_quarters(solo, ties - len(removed), consensus)
    eta = tuple(map(_quarter, eta4))
    short = [i for i in range(4) if 4 * utilities[i] < eta4[i]]
    if len(short) > 1:
        raise InternalInconsistencyError(
            f"agents {[i + 1 for i in short]} all below threshold: "
            f"utilities {utilities}, thresholds {tuple(map(str, eta))}"
        )
    rows = matrix.rows
    if short:
        i_star = short[0]
    else:
        # An agent sitting exactly on the threshold may still be owed one
        # more decision once the removed columns come back (two removals
        # can lift their share by a full unit), so they take precedence
        # over the default.
        at_threshold = [i for i in range(4) if 4 * utilities[i] == eta4[i]]
        i_star = at_threshold[0] if at_threshold else 0
        if (
            len(at_threshold) == 2
            and len(removed) == 2
            and all(rows[at_threshold[0]][j] != rows[at_threshold[1]][j] for j in removed)
        ):
            # Two threshold agents on opposite sides of both removed
            # columns cannot both be served by either of them, while any
            # other agent sides with each of them exactly once.
            i_star = min(i for i in range(4) if i not in at_threshold)
    served = rows[i_star]
    for j in removed:
        outcome[j] = served[j]
    # each agent gains the removed columns on which they side with i_star
    utilities = tuple(
        u + sum(row[j] == served[j] for j in removed) for u, row in zip(utilities, rows)
    )
    return _remember(matrix, tuple(outcome), utilities)[0], tuple(removed), i_star, eta


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
        # the outcome is the tuple deferred_ambiguity remembered, so its
        # utilities are read back, not counted again
        return RuleTranscript.from_outcome(self.name, matrix, outcome, details)


# ---------------------------------------------------------------------------
# maximum Nash welfare (offline)


def nash_welfare(matrix: PreferenceMatrix, outcome: Sequence[int]) -> int:
    """Product of all agents' utilities under ``outcome``."""
    product = 1
    for u in _utilities(matrix, outcome)[1]:
        product *= u
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
    # contrib[t][x] = per-agent utility contribution when x of type t's
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


_RULE_FACTORIES: dict[str, Callable[[], Rule]] = {
    "majority": MajorityRule,
    "ptrr3": _ptrr3,
    "ptrr-generalized": _ptrr_generalized,
    "muffled3": MuffledMajority3,
    "deferred4": DeferredAmbiguity4,
    "mnw": MaxNashWelfareRule,
    "always-0": lambda: ConstantRule(0),
    "always-1": lambda: ConstantRule(1),
    "always-minority": AlwaysMinorityRule,
}

RULE_NAMES = (*_RULE_FACTORIES, "graceful:<path>")


def build_rule(name: str) -> Rule:
    """Construct a rule from its command-line name: one of ``RULE_NAMES``,
    where ``graceful:<path>`` loads a token table file."""
    factory = _RULE_FACTORIES.get(name)
    if factory is not None:
        return factory()
    if name.startswith("graceful:"):
        path = name[len("graceful:"):]
        if not path:
            raise ValueError("graceful: needs a token table path")
        return GracefulRule.from_map(GracefulMap.load(path))
    raise ValueError(f"unknown rule {name!r}; known: {', '.join(RULE_NAMES)}")


def run_rule(rule: Rule | str, matrix: PreferenceMatrix) -> RuleTranscript:
    """Run a rule (by object or command-line name) on a matrix."""
    if isinstance(rule, str):
        rule = build_rule(rule)
    return rule.run(matrix)
