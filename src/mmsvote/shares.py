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

The search stops at a certified cap on the share: floor(RDS) of the
non-consensus part, or one lower where the agreement totals rule that out
(``_items_cap``). A share attaining the lower cap skips its proof of
optimality; the share itself and ``uniform_bound`` do not change.

The share depends on the agreement structure only up to a relabelling of
the agents: renaming them permutes the columns of every bundle-sum
matrix, and the permutation minimum absorbs that. Every share query reads
the matrix's census of non-consensus types (the bitmask of each type's
canonical ones with its count, sorted). Agent i's solver items are that
census seen from agent i: one ``(count, mask)`` item per type, the mask
holding the agents on agent i's side, and no two types give the same
mask. The share queries search each agent's relabelled items: the agents
are renamed by an invariant signature (the refinement step of canonical
labelling, McKay & Piperno 2014) and the items sorted once, so agents
whose items differ only by agent labels are mostly searched once;
``mms_partition`` maps that search's placement of each item back to the
columns of its type. Two caches, both keyed with the node budget, hold
the results: the cache of those searches, keyed by their items, and
``mms_adapt_all``'s memo of every agent's share, less the consensus
columns, on the sorted census, so matrices equal up to column order and
orientation cost one lookup.
The matrix itself caches no share; it holds only its type census and
the utilities of the last outcome a rule or an audit counted on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from mmsvote import kernels
from mmsvote.model import (
    Partition,
    PreferenceMatrix,
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


def _rds_totals(matrix: PreferenceMatrix) -> list[int]:
    """n times every agent's random dictator share: the number of
    (decision, agent) pairs agreeing with agent i, from one integer pass.
    ``totals[i] // n`` is floor(RDS_i)."""
    n = matrix.n
    totals = [0] * n
    for col in matrix.columns():
        ones = sum(col)
        for i, b in enumerate(col):
            totals[i] += ones if b == 1 else n - ones
    return totals


def rds(matrix: PreferenceMatrix) -> tuple[Fraction, ...]:
    """Random dictator share of every agent, as exact rationals.

    RDS_i sums, over decisions, the fraction of agents (the dictator
    candidates) agreeing with agent i there.
    """
    n = matrix.n
    return tuple(Fraction(t, n) for t in _rds_totals(matrix))


def mms_egal(m: int) -> int:
    """Egalitarian maxi-min share: floor(m/2)."""
    if m < 0:
        raise ValueError(f"decision count must be nonnegative, got {m}")
    return m // 2


def uniform_bound(matrix: PreferenceMatrix, i: int) -> int:
    """floor(RDS_i): a certified upper bound on the adaptive share (the
    uniformly random permutation is never better for the agent than the
    worst one)."""
    if not 0 <= i < matrix.n:
        raise ValueError(f"agent index {i} out of range for n={matrix.n}")
    return _rds_totals(matrix)[i] // matrix.n


def _census(matrix: PreferenceMatrix) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The consensus count and the non-consensus types of the matrix's
    census as sorted ``(ones, count)`` pairs, ``ones`` being the bitmask
    of the agents whose canonical bit is 1: the agreement structure the
    shares depend on, whatever the column order and orientation."""
    consensus = 0
    types = []
    for ctype, entry in type_census(matrix).items():
        if ctype.kind == "consensus":
            consensus += entry.count
        else:
            types.append((ctype._mask, entry.count))
    types.sort()
    return consensus, tuple(types)


def _agent_items(n: int, types: Sequence[tuple[int, int]], i: int) -> list[tuple[int, int]]:
    """Agent i's solver items for non-consensus types given as ``_census``
    pairs, in their order: ``(count, mask)`` per type, ``mask`` being the
    agents on agent i's side of it.

    Distinct types give distinct masks. With agent i on the ones side of
    both, equal masks are equal ``ones``; on the zeros side of both,
    equal complements are. With i on the ones side of one type only, its
    ``ones`` would be the complement of the other's, which puts agent 0
    in one of them, and no canonical type has agent 0 in ``ones``.
    """
    everyone = (1 << n) - 1
    return [(count, ones if ones >> i & 1 else everyone ^ ones) for ones, count in types]


def _items_cap(n: int, items: Sequence[tuple[int, int]]) -> int:
    """The solver's stopping cap: floor(T/n), T being n times the
    non-consensus RDS, one lower where agent a's agreement totals X_a rule
    it out (like T, they do not depend on the placement).

    Write T = n*cap + r. For bundle sums B and an assignment s, the shifts
    s(j) + k mod n cover each (bundle, agent) cell once, so their sums add
    to T, and a value >= cap leaves each shift family an excess of r.
    Swapping agents a, a' in bundles j, j' moves a sum by E(j) - E(j'),
    where E(j) = B[j][a'] - B[j][a] sums over j to X_a' - X_a. At r = 0
    every sum is cap, so E is constant and X_a' = X_a mod n. At r = 1, E
    takes two adjacent values, the upper on m bundles, and each of the
    m(n - m)(n - 2)! disjoint swap pairs holds one of the (n - 1)! sums of
    cap + 1; so m is 0, 1, n - 1 or n, and X_a' - X_a = m is 0 or +-1 mod n.
    """
    agree = [sum(count for count, mask in items if mask >> a & 1) for a in range(n)]
    cap, r = divmod(sum(agree), n)
    if r <= 1:
        allowed = (0,) if r == 0 else (0, 1, n - 1)
        residues = {x % n for x in agree}
        if any((x - y) % n not in allowed for x in residues for y in residues):
            return cap - 1
    return cap


def _relabel(
    n: int, items: Sequence[tuple[int, int]]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Rename the agents so that items equal up to agent labels tend to
    meet in one key; returns the relabelled items and ``order``, where
    ``order[k]`` is the index, in ``items``, of relabelled item k.

    Each agent's signature is the sorted multiset of (count, popcount of
    mask) over the items whose mask contains it, an invariant of the
    relabelling; agents are renamed in the order of (signature, index),
    every mask is rewritten under the new names, and the items are sorted
    by descending count, then mask, so the key does not depend on the
    order the items come in.

    Renaming agents permutes the columns of every bundle-sum matrix, which
    the permutation minimum absorbs, so any renaming keeps the share and
    keeps every composition a witness: row k of one is a placement of
    item ``order[k]``. The index tie-break only costs cache hits between
    items the signatures do not tell apart.
    """
    signatures: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for count, mask in items:
        key = (count, mask.bit_count())
        for a in range(n):
            if mask >> a & 1:
                signatures[a].append(key)
    names = sorted(range(n), key=lambda a: (sorted(signatures[a]), a))
    relabelled = []
    for k, (count, mask) in enumerate(items):
        renamed = 0
        for name, a in enumerate(names):
            if mask >> a & 1:
                renamed |= 1 << name
        # masks are distinct, so k never takes part in the order
        relabelled.append((-count, renamed, k))
    relabelled.sort()
    return tuple((-c, mask) for c, mask, _ in relabelled), tuple(k for _, _, k in relabelled)


@lru_cache(maxsize=65536)
def _search_class(n: int, items: tuple[tuple[int, int], ...], budget: int):
    """The kernel search for relabelled solver items, one per items tuple."""
    counts = tuple(c for c, _ in items)
    masks = tuple(m for _, m in items)
    cap = _items_cap(n, items)
    best, comp, nodes, completed = kernels.search_max_partition(counts, masks, n, cap, budget)
    if not completed:
        raise SearchBudgetExceeded(budget, nodes)
    return best, comp


def mms_adapt(matrix: PreferenceMatrix, i: int) -> int:
    """Exact adaptive maxi-min share of agent i (0-based); searches agent
    i's relabelled class only.

    Raises SearchBudgetExceeded when the node budget runs out.
    """
    if not 0 <= i < matrix.n:
        raise ValueError(f"agent index {i} out of range for n={matrix.n}")
    n = matrix.n
    consensus, types = _census(matrix)
    items = _relabel(n, _agent_items(n, types, i))[0]
    return consensus + _search_class(n, items, effective_budget())[0]


def mms_adapt_all(matrix: PreferenceMatrix) -> tuple[int, ...]:
    """``mms_adapt`` of every agent, in agent order, memoized on the
    matrix's type census."""
    consensus, types = _census(matrix)
    bests = _census_bests(matrix.n, types, effective_budget())
    return tuple(consensus + best for best in bests)


@lru_cache(maxsize=65536)
def _census_bests(n: int, types: tuple[tuple[int, int], ...], budget: int):
    """Every agent's share, less the consensus columns, for the sorted
    non-consensus census ``types``. Each agent's items go through the
    cached search of their relabelled class."""
    return tuple(
        _search_class(n, _relabel(n, _agent_items(n, types, i))[0], budget)[0]
        for i in range(n)
    )


def mms_partition(matrix: PreferenceMatrix, i: int) -> Partition:
    """An optimal partition witnessing mms_adapt(matrix, i).

    The witness is the first optimum in the solver's canonical
    (symmetry-pruned) enumeration order of agent i's relabelled items, the
    search ``mms_adapt`` reads; consensus columns all sit in the first
    bundle, and each item's columns are those of its census type.
    ``partition_guarantee`` of the result equals the share.
    """
    if not 0 <= i < matrix.n:
        raise ValueError(f"agent index {i} out of range for n={matrix.n}")
    n = matrix.n
    _, types = _census(matrix)
    items, order = _relabel(n, _agent_items(n, types, i))
    _, comp = _search_class(n, items, effective_budget())
    # the consensus type's mask is 0, every other type's is not
    columns = {ctype._mask: entry.occurrences for ctype, entry in type_census(matrix).items()}
    bundles: list[list[int]] = [list(columns.get(0, ()))] + [[] for _ in range(n - 1)]
    for k, alloc in zip(order, comp):
        cols = columns[types[k][0]]
        pos = 0
        for b, c in enumerate(alloc):
            bundles[b].extend(cols[pos : pos + c])
            pos += c
    return Partition(bundles, matrix.m)


def partition_guarantee(matrix: PreferenceMatrix, i: int, partition: Partition) -> int:
    """Exact min over all n! bundle-to-agent permutations of agent i's
    agreement total; the kernel finds it in O(n^3) without enumerating
    them. This is the certificate-checking primitive: for any partition
    it lower-bounds mms_adapt, with equality on a witness. A Partition is
    valid by construction; only its shape, n bundles over m decisions, is
    checked here."""
    n = matrix.n
    if not 0 <= i < n:
        raise ValueError(f"agent index {i} out of range for n={n}")
    if len(partition.bundles) != n or partition.n_decisions != matrix.m:
        raise ValueError(f"partition is not {n} bundles over {matrix.m} decisions")
    ref = matrix.rows[i]
    B = []
    for bundle in partition.bundles:
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
    # a 3-agent type splits one agent from the other two: the ones side
    # when it holds a single agent, else agent 0
    _, types = _census(matrix)
    solo = [0, 0, 0]
    for ones, count in types:
        solo[ones.bit_length() - 1 if ones.bit_count() == 1 else 0] += count
    m = matrix.m
    d = sum(solo)
    fine = []
    for i in range(3):
        others = d - solo[i]
        fine.append(m - d + (2 * others + solo[i]) // 3)
    return N3Bounds(
        fine=(fine[0], fine[1], fine[2]),
        coarse=m - (d + 2) // 3,
        min_bound=m - (4 * d + 8) // 9,
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
    n = matrix.n
    totals = _rds_totals(matrix)
    return ShareReport(
        n=n,
        m=matrix.m,
        mms_adapt=mms_adapt_all(matrix),
        mms_egal=mms_egal(matrix.m),
        rds=tuple(Fraction(t, n) for t in totals),
        uniform_bound=tuple(t // n for t in totals),
        n3=n3_bounds(matrix) if n == 3 else None,
    )
