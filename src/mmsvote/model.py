"""Core data model for perpetual binary voting.

An instance is an n x m binary matrix: row i holds agent i's preferred
alternative for each of m sequential yes/no decisions. Everything else in
the package (share computations, decision rules, adversaries, audits) is
built on the small vocabulary defined here: matrices, decision columns,
canonical column types, partitions of the decision set, and the agents'
utilities under an outcome.

Conventions
-----------
* ``rows[i][j]`` is agent ``i``'s preferred bit on decision ``j``. Both
  indices are 0-based in code; reports and error messages number agents
  and decisions from 1.
* A column and its bitwise negation describe the same situation with the
  alternative labels swapped. The canonical orientation of a column flips
  it, when necessary, so that the first agent reads 0.
* All values are immutable after construction and safe to share across
  threads.
* Input is checked once, where it enters the package. The public
  constructors (``PreferenceMatrix(...)``, ``from_rows``, ``from_columns``,
  ``append_column``, ``CanonicalType(...)``), the parsers, ``canonicalize``
  and ``utility`` reject anything that is not a 0/1 ``int`` (``bool`` is
  read as its ``int``) or has the wrong length; ``Partition(...)``, any
  index that is not an ``int`` in range or not in exactly one bundle.
  Internal builders trust bits the package made itself: the parsers,
  ``prefix``, ``drop_columns`` and ``type_census`` build their values
  without a second check, and a Partition's users check only its shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from operator import eq
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "ParseError",
    "PreferenceMatrix",
    "CanonicalType",
    "CensusEntry",
    "Partition",
    "canonicalize",
    "type_census",
    "utility",
    "parse_matrix",
    "parse_outcome",
]


class ParseError(ValueError):
    """Malformed instance or outcome text.

    Carries the offending 1-based ``line`` and ``column`` of the input
    text when they are known, both also baked into the message.
    """

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


def _as_bits(values: Iterable[object], what: str) -> tuple[int, ...]:
    bits = []
    for v in values:
        if v is True or v is False:
            v = int(v)
        # 1.0 == 1, so the membership test alone would let floats through
        if not isinstance(v, int) or v not in (0, 1):
            raise ValueError(f"{what}: bit must be 0 or 1, got {v!r}")
        bits.append(v)
    return tuple(bits)


@dataclass(frozen=True)
class PreferenceMatrix:
    """Immutable n x m preference profile.

    Attributes
    ----------
    rows : tuple of tuple of int
        ``rows[i]`` is agent i's preference vector over the m decisions.
        All rows have equal length; entries are 0 or 1. A matrix with
        m = 0 is legal (the degenerate base case for generators), a
        matrix with no agents is not.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a preference matrix needs at least one agent")
        width = len(self.rows[0])
        clean = []
        for i, row in enumerate(self.rows):
            bits = _as_bits(row, f"agent {i + 1}")
            if len(bits) != width:
                raise ValueError(
                    f"agent {i + 1} has {len(bits)} preference bits, expected {width}"
                )
            clean.append(bits)
        object.__setattr__(self, "rows", tuple(clean))

    def __getstate__(self) -> dict:
        # the cached type census and the last outcome's utilities are not
        # serialized; they are rebuilt on demand
        return {"rows": self.rows}

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "PreferenceMatrix":
        """A matrix over rows already known to be nonempty, of equal width
        and made of 0/1 ints; skips the constructor's checks."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        return matrix

    @property
    def n(self) -> int:
        """Number of agents."""
        return len(self.rows)

    @property
    def m(self) -> int:
        """Number of decisions."""
        return len(self.rows[0])

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "PreferenceMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_columns(
        cls, columns: Iterable[Sequence[int]], n_agents: int | None = None
    ) -> "PreferenceMatrix":
        """Build a matrix column by column.

        ``n_agents`` is only required when ``columns`` is empty, since an
        m = 0 matrix cannot infer its height.
        """
        cols = [tuple(col) for col in columns]
        if not cols:
            if n_agents is None:
                raise ValueError("n_agents is required when there are no columns")
            if n_agents < 1:
                raise ValueError("a preference matrix needs at least one agent")
            return cls(tuple(() for _ in range(n_agents)))
        height = len(cols[0])
        if n_agents is not None and n_agents != height:
            raise ValueError(f"columns have {height} entries, expected {n_agents}")
        for k, col in enumerate(cols):
            if len(col) != height:
                raise ValueError(f"column {k + 1} has {len(col)} entries, expected {height}")
        return cls(tuple(tuple(col[i] for col in cols) for i in range(height)))

    def column(self, j: int) -> tuple[int, ...]:
        """The j-th decision column (0-based), as an n-tuple of bits."""
        return tuple(row[j] for row in self.rows)

    def columns(self) -> Iterator[tuple[int, ...]]:
        return zip(*self.rows)

    def prefix(self, k: int) -> "PreferenceMatrix":
        """The sub-instance consisting of the first k decisions."""
        if not 0 <= k <= self.m:
            raise ValueError(f"prefix length {k} out of range for m={self.m}")
        return PreferenceMatrix._trusted(tuple(row[:k] for row in self.rows))

    def drop_columns(self, indices: Iterable[int]) -> "PreferenceMatrix":
        """A copy with the given 0-based columns removed (order preserved)."""
        drop = set(indices)
        for j in drop:
            if not 0 <= j < self.m:
                raise ValueError(f"column index {j} out of range for m={self.m}")
        keep = [j for j in range(self.m) if j not in drop]
        return PreferenceMatrix._trusted(tuple(tuple(row[j] for j in keep) for row in self.rows))

    def append_column(self, column: Sequence[int]) -> "PreferenceMatrix":
        return PreferenceMatrix.from_columns(list(self.columns()) + [tuple(column)], n_agents=self.n)

    def to_text(self) -> str:
        """Render the instance text format: ``"<n> <m>"`` header, then one
        row of m bit characters per agent, LF-terminated."""
        lines = [f"{self.n} {self.m}"]
        lines.extend("".join(str(b) for b in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "m": self.m, "rows": ["".join(str(b) for b in row) for row in self.rows]}
        )


@dataclass(frozen=True)
class CanonicalType:
    """A decision column normalized so the first agent reads 0.

    Two columns get the same CanonicalType exactly when they are equal or
    bitwise negations of each other. The ``kind`` of a type is read off
    the popcount when the type is made: "consensus" (all zeros), "split"
    (a strict majority exists), or "tie" (both sides equal, only possible
    for even n). It takes no part in equality or hashing. The hash is the
    dataclass's ``hash((bits,))``; it, the minority side and the bitmask
    of the bits (bit a for agent a) are computed once when the type is
    made, since census builds, rule runs and share queries read them
    often and ``_canonical`` shares one type among all equal columns.
    None of them goes into pickles.
    """

    bits: tuple[int, ...]
    kind: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bits = _as_bits(self.bits, "canonical type")
        if not bits:
            raise ValueError("a canonical type needs at least one agent")
        if bits[0] != 0:
            raise ValueError("canonical orientation requires the first bit to be 0")
        _fill(self, bits)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {"bits": self.bits, "kind": self.kind}

    def __setstate__(self, state: dict) -> None:
        _fill(self, state["bits"])

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def minority_bit(self) -> int:
        """Which canonical bit value (0 or 1) the strict minority holds."""
        if self.kind != "split":
            raise ValueError(f"type {self} has no strict minority")
        return self._minority_bit

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _fill(ctype: CanonicalType, bits: tuple[int, ...]) -> None:
    """Set a type's bits and everything derived from them: the kind, the
    minority bit (read only on split types), the bitmask and the hash."""
    ones = sum(bits)
    n = len(bits)
    kind = "consensus" if ones == 0 else "tie" if 2 * ones == n else "split"
    object.__setattr__(ctype, "bits", bits)
    object.__setattr__(ctype, "kind", kind)
    object.__setattr__(ctype, "_minority_bit", 1 if 2 * ones < n else 0)
    object.__setattr__(ctype, "_mask", sum(b << a for a, b in enumerate(bits)))
    object.__setattr__(ctype, "_hash", hash((bits,)))


def canonicalize(column: Sequence[int]) -> tuple[CanonicalType, bool]:
    """Normalize a column to canonical orientation.

    Returns the CanonicalType together with a flag telling whether the
    column had to be negated to get there. Idempotent on canonical
    columns; a column and its negation map to the same type.
    """
    bits = _as_bits(column, "column")
    if not bits:
        raise ValueError("a column needs at least one agent")
    return _canonical(bits)


@lru_cache(maxsize=4096)
def _canonical(bits: tuple[int, ...]) -> tuple[CanonicalType, bool]:
    """``canonicalize`` for a nonempty tuple of 0/1 ints, unchecked.

    Memoized, so equal columns share one immutable type. Only checked
    bits may reach it: ``(1.0, 0)`` equals and hashes like ``(1, 0)``
    and would read that column's entry."""
    flipped = bits[0] == 1
    if flipped:
        bits = tuple(1 - b for b in bits)
    ctype = object.__new__(CanonicalType)
    _fill(ctype, bits)
    return ctype, flipped


@dataclass(frozen=True)
class CensusEntry:
    """Occurrence bookkeeping for one canonical type within a matrix."""

    count: int
    occurrences: tuple[int, ...]
    flipped: tuple[bool, ...]


def type_census(matrix: PreferenceMatrix) -> Mapping[CanonicalType, CensusEntry]:
    """Exact multiplicity of every canonical type in the matrix.

    The mapping is ordered by first occurrence; each entry records the
    0-based column indices realizing the type and, per occurrence,
    whether the observed column was the negated orientation. Counts sum
    to m. The census is computed once per matrix and cached on it, so
    every caller shares one read-only mapping.
    """
    census = matrix.__dict__.get("_census")
    if census is not None:
        return census
    seen: dict[CanonicalType, tuple[list[int], list[bool]]] = {}
    for j, col in enumerate(matrix.columns()):
        ctype, flip = _canonical(col)
        cols, flips = seen.setdefault(ctype, ([], []))
        cols.append(j)
        flips.append(flip)
    census = MappingProxyType(
        {
            ctype: CensusEntry(len(cols), tuple(cols), tuple(flips))
            for ctype, (cols, flips) in seen.items()
        }
    )
    object.__setattr__(matrix, "_census", census)
    return census


def utility(matrix: PreferenceMatrix, outcome: Sequence[int], i: int) -> int:
    """Agent i's utility under ``outcome``: the number of decisions that
    went the agent's way. ``i`` is 0-based."""
    if not 0 <= i < matrix.n:
        raise ValueError(f"agent index {i} out of range for n={matrix.n}")
    bits = _outcome_bits(matrix, outcome)
    return sum(map(eq, matrix.rows[i], bits))


def _outcome_bits(matrix: PreferenceMatrix, outcome: Sequence[int]) -> tuple[int, ...]:
    bits = _as_bits(outcome, "outcome")
    if len(bits) != matrix.m:
        raise ValueError(f"outcome has {len(bits)} bits, expected {matrix.m}")
    return bits


def _agreements(matrix: PreferenceMatrix, outcome: Sequence[int]) -> tuple[int, ...]:
    """Every agent's agreement count with ``outcome``, unchecked."""
    return tuple(sum(map(eq, row, outcome)) for row in matrix.rows)


def _remember(matrix: PreferenceMatrix, bits: tuple, utilities: tuple) -> tuple[tuple, tuple]:
    """Keep ``bits``, an outcome the package checked or made itself, and
    its ``utilities`` on the matrix for ``_utilities``; returns both."""
    object.__setattr__(matrix, "_last_outcome", (bits, utilities))
    return bits, utilities


def _utilities(
    matrix: PreferenceMatrix, outcome: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check ``outcome`` once and return it as bits, together with every
    agent's utility under it; both are remembered on the matrix. When
    ``outcome`` is the very tuple remembered last, both are read back.
    Identity decides, not equality: ``(1.0, 0)`` and ``(True, 0)`` equal
    ``(1, 0)`` but must still be checked."""
    last = matrix.__dict__.get("_last_outcome")
    if last is not None and last[0] is outcome:
        return last
    bits = _outcome_bits(matrix, outcome)
    return _remember(matrix, bits, _agreements(matrix, bits))


@dataclass(frozen=True)
class Partition:
    """A split of the decision set {0..m-1} into labeled bundles.

    Bundles may be empty; they are stored as sorted tuples of 0-based
    column indices. Construction checks that every index is an ``int``
    in ``range(n_decisions)`` (a ``bool`` reads as its ``int``) and sits
    in exactly one bundle; ``Partition.of`` also checks the bundle count.
    """

    bundles: tuple[tuple[int, ...], ...]
    n_decisions: int

    def __post_init__(self) -> None:
        m = self.n_decisions
        seen: set[int] = set()
        clean = []
        for b in self.bundles:
            bundle = []
            for j in b:
                if not isinstance(j, int) or not 0 <= j < m:
                    raise ValueError(f"decision index {j!r} out of range for m={m}")
                if j in seen:
                    raise ValueError(f"decision {j + 1} appears in two bundles")
                seen.add(j)
                bundle.append(int(j))
            clean.append(tuple(sorted(bundle)))
        if len(seen) != m:
            missing = sorted(set(range(m)) - seen)
            raise ValueError(f"decisions not covered: {[j + 1 for j in missing]}")
        object.__setattr__(self, "bundles", tuple(clean))

    @classmethod
    def of(cls, bundles: Iterable[Iterable[int]], n_agents: int, n_decisions: int) -> "Partition":
        bs = tuple(bundles)
        if len(bs) != n_agents:
            raise ValueError(f"partition has {len(bs)} bundles, expected {n_agents}")
        return cls(bs, n_decisions)


_BIT_CHARS = frozenset("01")
# a checked row's characters as the bytes 0 and 1, which tuple() reads as ints
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def parse_matrix(text: str) -> PreferenceMatrix:
    """Parse the instance text format, or its JSON alternative.

    Text format: first line ``"<n> <m>"`` (ASCII decimals, single space),
    then n lines of exactly m characters from {0, 1}. The trailing
    newline is optional. A JSON object ``{"n":..., "m":..., "rows":
    [...]}`` is accepted when the input starts with ``{``.
    """
    head = text.lstrip()
    if not head:
        raise ParseError("empty input")
    if head[0] == "{":
        return _parse_json_matrix(text)

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(" ")
    if len(header) != 2 or not all(tok.isascii() and tok.isdigit() for tok in header):
        raise ParseError('header must be "<n> <m>"', line=1)
    n, m = int(header[0]), int(header[1])
    if n < 1:
        raise ParseError("at least one agent is required", line=1)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} agent rows, found {len(lines) - 1}", line=len(lines))
    rows = []
    for i, raw in enumerate(lines[1:], start=1):
        if len(raw) != m:
            raise ParseError(f"row {i} has {len(raw)} characters, expected {m}", line=i + 1)
        if not _BIT_CHARS.issuperset(raw):
            j, ch = next((j, ch) for j, ch in enumerate(raw) if ch not in _BIT_CHARS)
            raise ParseError(f"invalid character {ch!r} in row {i}", line=i + 1, column=j + 1)
        rows.append(tuple(raw.encode().translate(_BIT_VALUES)))
    return PreferenceMatrix._trusted(tuple(rows))


def _parse_json_matrix(text: str) -> PreferenceMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    if not isinstance(obj, dict):
        raise ParseError("JSON instance must be an object")
    for key in ("n", "m", "rows"):
        if key not in obj:
            raise ParseError(f'JSON instance lacks "{key}"')
    n, m, rows = obj["n"], obj["m"], obj["rows"]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, m)) or n < 1 or m < 0:
        raise ParseError('"n" and "m" must be a positive and a nonnegative integer')
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f'"rows" must list exactly {n} strings')
    parsed = []
    for i, raw in enumerate(rows, start=1):
        if not isinstance(raw, str) or len(raw) != m or not _BIT_CHARS.issuperset(raw):
            raise ParseError(f"row {i} must be a string of {m} bits")
        parsed.append(tuple(raw.encode().translate(_BIT_VALUES)))
    return PreferenceMatrix._trusted(tuple(parsed))


def parse_outcome(text: str, m: int) -> tuple[int, ...]:
    """Parse an outcome bit string of expected length m."""
    s = text.strip()
    if len(s) != m:
        raise ParseError(f"outcome has {len(s)} bits, expected {m}")
    for j, ch in enumerate(s):
        if ch not in "01":
            raise ParseError(f"invalid character {ch!r} in outcome", column=j + 1)
    return tuple(int(ch) for ch in s)
