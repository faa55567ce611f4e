"""Share computations: what each agent can guarantee itself.

Three share notions are computed exactly:

* adaptive maxi-min share (``mms_adapt``): the agent partitions the
  decisions into n labeled, possibly empty, bundles; an adversary then
  assigns one agent to decide each bundle (a permutation, the identity
  included); the agent scores the decisions on which it agrees with the
  bundle's decider. The share is the max-over-partitions of the
  min-over-permutations value.
* egalitarian maxi-min share (``mms_egal``): floor(m/2), the value of the
  two-bundle game where the adversary flips one bundle against the agent.
* random dictator share (``rds``): the agent's expected utility when a
  uniformly random agent dictates every decision, kept as an exact
  rational.

The adaptive share is the expensive one. The solver exploits that
decisions with the same canonical type are interchangeable for every
agreement term, so it enumerates compositions of per-type multiplicities
into bundles instead of raw n^m partitions, prunes bundle-relabeling
symmetry, and bounds-and-cuts with the permutation minimum of the
partial placement. The enumeration core lives in ``mmsvote.kernels``;
exceeding the configured node budget raises, it never degrades to an
approximation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mmsvote import kernels
from mmsvote.model import (
    Partition,
    PreferenceMatrix,
    n3_counts,
    type_census,
)

__all__ = [
    "DEFAULT_SEARCH_BUDGET",
    "BUDGET_ENV_VAR",
    "SearchBudgetExceeded",
    "effective_budget",
    "rds",
    "mms_egal",
    "mms_adapt",
    "mms_adapt_all",
    "mms_partition",
    "partition_guarantee",
    "uniform_bound",
    "n3_bounds",
    "N3Bounds",
    "ShareReport",
    "share_report",
]

DEFAULT_SEARCH_BUDGET = 5_000_000
BUDGET_ENV_VAR = "MMSVOTE_SEARCH_BUDGET"


class SearchBudgetExceeded(RuntimeError):
    """The exact search hit its node budget before completing.

    Raised instead of returning a partial value: share computations are
    used as test oracles and certificate checkers, so a silent
    approximation would poison everything downstream. ``message`` replaces
    the share search's wording for other budget-guarded searches, such as
    the Nash welfare rule, whose ``nodes`` is the size of its candidate space.
    """

    def __init__(self, budget: int, nodes: int, message: str | None = None):
        if message is None:
            message = f"share search exceeded its node budget ({nodes} nodes used, budget {budget})"
        super().__init__(f"{message}; raise it via {BUDGET_ENV_VAR}")
        self.budget = budget
        self.nodes = nodes


def effective_budget() -> int:
    """Resolve the node budget: the environment override, else the
    default (sized for n <= 4 with m <= 12 and n <= 7 with up to 6
    distinct types)."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_SEARCH_BUDGET


def rds(matrix: PreferenceMatrix) -> tuple[Fraction, ...]:
    """Random dictator share of every agent, as exact rationals.

    RDS_i sums, over decisions, the fraction of agents (the dictator
    candidates) agreeing with agent i there.
    """
    n = matrix.n
    totals = [0] * n
    for col in matrix.columns():
        ones = sum(col)
        for i, b in enumerate(col):
            totals[i] += ones if b == 1 else n - ones
    return tuple(Fraction(t, n) for t in totals)


def mms_egal(m: int) -> int:
    """Egalitarian maxi-min share: floor(m/2)."""
    if m < 0:
        raise ValueError(f"decision count must be nonnegative, got {m}")
    return m // 2


def uniform_bound(matrix: PreferenceMatrix, i: int) -> int:
    """floor(RDS_i): a certified upper bound on the adaptive share (the
    uniformly random permutation is never better for the agent than the
    worst one)."""
    return math.floor(rds(matrix)[i])


def _agreement_mask(bits: tuple[int, ...], i: int) -> int:
    """Bitmask of the agents on agent i's side of a canonical column."""
    ref = bits[i]
    mask = 0
    for a, b in enumerate(bits):
        if b == ref:
            mask |= 1 << a
    return mask


def _columns_by_mask(matrix: PreferenceMatrix, i: int) -> tuple[list[int], dict[int, list[int]]]:
    """Agent i's view of the census: the consensus columns, and the other
    columns grouped by agreement mask, both in census order.

    Types with equal masks share a group: they are indistinguishable to
    every agreement term of the game.
    """
    consensus: list[int] = []
    groups: dict[int, list[int]] = {}
    for ctype, entry in type_census(matrix).items():
        if ctype.kind == "consensus":
            consensus.extend(entry.occurrences)
        else:
            groups.setdefault(_agreement_mask(ctype.bits, i), []).extend(entry.occurrences)
    return consensus, groups


def _items(groups: dict[int, list[int]]) -> tuple[tuple[int, int], ...]:
    """(count, mask) per group, by descending count, then by mask."""
    items = ((len(cols), mask) for mask, cols in groups.items())
    return tuple(sorted(items, key=lambda cm: (-cm[0], cm[1])))


def _solver_items(matrix: PreferenceMatrix, i: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Collapse the census to what the solver needs for agent i.

    Returns ``(consensus_count, items)`` with items a canonically sorted
    tuple of (count, agreement mask) pairs, one per mask group.
    Consensus columns are pulled out entirely, since they add their
    count to every permutation's total no matter where they are placed.
    """
    consensus, groups = _columns_by_mask(matrix, i)
    return len(consensus), _items(groups)


def _items_cap(n: int, items: tuple[tuple[int, int], ...]) -> int:
    """floor of the non-consensus part of RDS: the solver's stopping cap."""
    return sum(count * bin(mask).count("1") for count, mask in items) // n


@lru_cache(maxsize=65536)
def _search(n: int, items: tuple[tuple[int, int], ...], budget: int):
    counts = tuple(c for c, _ in items)
    masks = tuple(m for _, m in items)
    cap = _items_cap(n, items)
    best, comp, nodes, completed = kernels.search_max_partition(counts, masks, n, cap, budget)
    if not completed:
        raise SearchBudgetExceeded(budget, nodes)
    return best, comp


def mms_adapt(matrix: PreferenceMatrix, i: int) -> int:
    """Exact adaptive maxi-min share of agent i (0-based).

    Raises SearchBudgetExceeded when the node budget runs out.
    """
    if not 0 <= i < matrix.n:
        raise ValueError(f"agent index {i} out of range for n={matrix.n}")
    consensus, items = _solver_items(matrix, i)
    best, _ = _search(matrix.n, items, effective_budget())
    return consensus + best


def mms_adapt_all(matrix: PreferenceMatrix) -> tuple[int, ...]:
    return tuple(mms_adapt(matrix, i) for i in range(matrix.n))


def mms_partition(matrix: PreferenceMatrix, i: int) -> Partition:
    """An optimal partition witnessing mms_adapt(matrix, i).

    The witness is the first optimum in the solver's canonical
    (symmetry-pruned) enumeration order; consensus columns all sit in the
    first bundle. ``partition_guarantee`` of the result equals the share.
    """
    if not 0 <= i < matrix.n:
        raise ValueError(f"agent index {i} out of range for n={matrix.n}")
    n = matrix.n
    consensus, groups = _columns_by_mask(matrix, i)
    items = _items(groups)
    _, comp = _search(n, items, effective_budget())
    bundles: list[list[int]] = [consensus] + [[] for _ in range(n - 1)]
    for (_, mask), alloc in zip(items, comp):
        cols = groups[mask]
        pos = 0
        for b, c in enumerate(alloc):
            bundles[b].extend(cols[pos : pos + c])
            pos += c
    return Partition.of(bundles, n_agents=n, n_decisions=matrix.m)


def partition_guarantee(matrix: PreferenceMatrix, i: int, partition: Partition) -> int:
    """Exact min over all n! bundle-to-agent permutations of agent i's
    agreement total; the kernel finds it in O(n^3) without enumerating
    them. This is the certificate-checking primitive: for any partition
    it lower-bounds mms_adapt, with equality on a witness."""
    if not 0 <= i < matrix.n:
        raise ValueError(f"agent index {i} out of range for n={matrix.n}")
    checked = Partition.of(partition.bundles, n_agents=matrix.n, n_decisions=matrix.m)
    n = matrix.n
    ref = matrix.rows[i]
    B = []
    for bundle in checked.bundles:
        row = [0] * n
        for j in bundle:
            for a in range(n):
                if matrix.rows[a][j] == ref[j]:
                    row[a] += 1
        B.append(row)
    return kernels.min_assignment(B)


@dataclass(frozen=True)
class N3Bounds:
    """Closed-form three-agent bounds on the adaptive share.

    ``fine[i]`` bounds agent i from above using all three odd-one-out
    counts; ``coarse`` is the weaker uniform bound m - ceil(d/3) (d the
    total count of non-unanimous decisions); ``min_bound`` bounds the
    smallest share, min_i mms_adapt_i <= m - ceil(4d/9).
    """

    fine: tuple[int, int, int]
    coarse: int
    min_bound: int


def n3_bounds(matrix: PreferenceMatrix) -> N3Bounds:
    if matrix.n != 3:
        raise ValueError(f"n3_bounds needs n=3, got n={matrix.n}")
    solo, _ = n3_counts(matrix)
    m = matrix.m
    d = sum(solo)
    fine = []
    for i in range(3):
        others = d - solo[i]
        fine.append(m - d + math.floor(Fraction(2, 3) * others + Fraction(1, 3) * solo[i]))
    return N3Bounds(
        fine=(fine[0], fine[1], fine[2]),
        coarse=m - math.ceil(Fraction(d, 3)),
        min_bound=m - math.ceil(Fraction(4 * d, 9)),
    )


def _rational(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class ShareReport:
    """All share values of one instance, JSON-serializable.

    Rationals render as "p/q" strings; values that happen to be integers
    render as plain numbers.
    """

    n: int
    m: int
    mms_adapt: tuple[int, ...]
    mms_egal: int
    rds: tuple[Fraction, ...]
    uniform_bound: tuple[int, ...]
    n3: N3Bounds | None = None

    def to_dict(self) -> dict:
        data: dict = {
            "n": self.n,
            "m": self.m,
            "mms_adapt": list(self.mms_adapt),
            "mms_egal": self.mms_egal,
            "rds": [_rational(r) for r in self.rds],
            "uniform_bound": list(self.uniform_bound),
        }
        if self.n3 is not None:
            data["n3_bounds"] = {
                "fine": list(self.n3.fine),
                "coarse": self.n3.coarse,
                "min_bound": self.n3.min_bound,
            }
        return data

    def to_json(self, indent: int | None = None) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


def share_report(matrix: PreferenceMatrix) -> ShareReport:
    """Compute every share notion for the instance at once."""
    dictator_shares = rds(matrix)
    return ShareReport(
        n=matrix.n,
        m=matrix.m,
        mms_adapt=mms_adapt_all(matrix),
        mms_egal=mms_egal(matrix.m),
        rds=dictator_shares,
        uniform_bound=tuple(math.floor(r) for r in dictator_shares),
        n3=n3_bounds(matrix) if matrix.n == 3 else None,
    )
