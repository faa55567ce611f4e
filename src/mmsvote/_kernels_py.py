"""The search kernels, in pure Python with integer arithmetic only.

``mmsvote.kernels`` forwards to this module. It is deliberately free of
package imports so that it stays self-contained.

The two entry points:

* ``min_assignment``: the adversary's side of the share game, a minimum
  over all bundle-to-agent permutations, solved by the Hungarian method
  in O(n^3).
* ``search_max_partition``: the agent's side, an exhaustive maximum over
  placements of interchangeable decision types into labeled bundles. One
  walk, ``_walk``, visits the tree. Each type's splits over the bundles
  come from ``_splits``, most even split first, so good incumbents come
  early and prune more, each with the classes below it; they are built
  once per count and classes into a ``_split_table`` that every search
  reads as a list, so a node costs one ``push``. What a node holds is
  its state, chosen by n and driven by the walk through ``push`` and
  ``pop``: up to ``LANE_AGENTS`` = 6 agents, ``_lane_state`` packs every
  permutation's sum into one int (SIMD within a register, Lamport 1975);
  from 7 agents, ``_assignment_state`` carries one assignment state from
  node to node (the dynamic Hungarian method of Mills-Tettey, Stentz &
  Dias 2007), behind a primal pre-test that prunes most nodes without
  touching it.

The Hungarian method runs on one shortest-augmenting-path step,
``_augment``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import islice, permutations
from threading import Lock

# the most agents whose n! permutation sums the share search packs into
# one integer; see ``search_max_partition``
LANE_AGENTS = 6

# held while a split table grows; see ``_split_table``
_grow_lock = Lock()

# a search's (best, composition, nodes, completed), a node state's (push,
# pop), a split with the classes below it, and a split table's (rows, grow)
_Result = tuple[int, tuple[tuple[int, ...], ...] | None, int, bool]
_State = tuple[
    Callable[[int, tuple[int, ...], int], int | None], Callable[[int, tuple[int, ...]], None]
]
_Split = tuple[tuple[int, ...], tuple[int, ...]]
_Table = tuple[list[_Split], Callable[[int], bool]]


def _augment(
    bundle_sums: list[list[int]], u: list[int], v: list[int], match: list[int], j: int
) -> int:
    """Match the unmatched bundle j along one shortest augmenting path.

    Every reduced cost ``bundle_sums[r][a] - u[r] - v[a]`` must be
    nonnegative and zero on every matched pair, and some agent must be
    free; the step keeps both properties and frees no agent. ``match[a]``
    is the bundle agent a decides, -1 if none; column n of ``v`` and
    ``match`` is the virtual root. Dijkstra over reduced costs from bundle
    j, O(n^2), ints only.

    Returns the sum of the Dijkstra steps' deltas: the rise of
    ``sum(u) + sum(v[:n])``, since each step raises u and lowers v by the
    same delta on every real agent of the tree and raises bundle j's u
    once more. On a full matching with every matched pair tight, that sum
    is the matched total.
    """
    n = len(bundle_sums)
    row = bundle_sums[j]
    u0 = u[j]
    minv = [row[a] - u0 - v[a] for a in range(n)]  # cheapest reach of each agent so far
    way = [n] * n  # way[a]: the previous agent on the shortest path to a
    free = list(range(n))  # agents not yet in the tree
    tree = [n]
    match[n] = j
    delta = min(minv)
    a1 = minv.index(delta)
    rise = 0
    while True:
        if delta:
            rise += delta
            for a in tree:
                u[match[a]] += delta
                v[a] -= delta
            for a in free:
                minv[a] -= delta
        free.remove(a1)
        tree.append(a1)
        if match[a1] < 0:
            break
        j0 = match[a1]
        row = bundle_sums[j0]
        u0 = u[j0]
        a0 = free[0]
        delta = minv[a0]  # relaxing only lowers minv, so this bounds the minimum
        for a in free:
            cur = row[a] - u0 - v[a]
            m = minv[a]
            if cur < m:
                minv[a] = m = cur
                way[a] = a1
            if m < delta:
                delta = m
                a0 = a
        a1 = a0
    while a1 != n:  # augment along the path back to the root
        a0 = way[a1]
        match[a1] = match[a0]
        a1 = a0
    return rise


def min_assignment(bundle_sums: list[list[int]]) -> int:
    """Minimum over permutations sigma of sum_j bundle_sums[j][sigma(j)].

    ``bundle_sums[j][a]`` is the value the reference agent collects when
    agent a decides bundle j. This is a linear assignment problem, solved
    exactly by the Hungarian method with shortest augmenting paths (Kuhn
    1955; Jonker & Volgenant 1987): starting from an empty matching and
    zero potentials, ``_augment`` matches one bundle at a time in O(n^2),
    so O(n^3) in all. The arithmetic is on ints only, so the value is
    exact, and entries may be any ints.
    """
    n = len(bundle_sums)
    u = [0] * n  # bundle (row) potentials
    v = [0] * (n + 1)  # agent (column) potentials
    match = [-1] * (n + 1)
    for j in range(n):
        _augment(bundle_sums, u, v, match, j)
    return sum(bundle_sums[match[a]][a] for a in range(n))


def _splits(total: int, classes: tuple[int, ...]) -> Iterator[_Split]:
    """Yield each split of ``total`` over bundles of the given ``classes``
    with the classes below it, in ascending lexicographic order: the most
    even split first, the whole type in bundle 0 last. Even splits tend to
    be good placements, so the search finds a strong incumbent early, and
    a strong incumbent prunes more of what follows. It fills the split
    tables (``_split_table``), which the search reads in this order.

    Slot b opens a class run unless ``classes[b] == classes[b - 1]``, and
    counts may not rise along a run. The slots are filled left to right,
    each with its counts from low to high: up to the rest, and at most
    the previous slot's count inside a run. Left of the final run the
    lowest count is 0; inside it, the rest must still fit under
    nonincreasing counts, so it is ``ceil(rest / (n - b))``, which makes
    the first split the most even and leaves no dead end. The classes
    below a split cut each class where its count changes from the
    previous bundle, which keeps every class a contiguous run.
    """
    n = len(classes)
    last = n - 1  # the first slot of the final run
    while last and classes[last] == classes[last - 1]:
        last -= 1

    def fill(
        b: int, rest: int, row: tuple[int, ...], refined: tuple[int, ...]
    ) -> Iterator[_Split]:
        if b == n:
            yield row, refined
            return
        opens = not b or classes[b] != classes[b - 1]
        high = rest if opens else min(rest, row[-1])
        low = -(-rest // (n - b)) if b >= last else 0
        for c in range(low, high + 1):
            k = refined[-1] + (opens or c != row[-1]) if b else 0
            yield from fill(b + 1, rest - c, row + (c,), refined + (k,))

    yield from fill(0, total, (), ())


@lru_cache(maxsize=1024)
def _split_table(total: int, classes: tuple[int, ...]) -> _Table:
    """The splits of a type of ``total`` decisions over bundles of the
    given ``classes``, as a list that grows on demand, and its ``grow``.

    Row i of the list is ``(split, refined)``, the i-th that ``_splits``
    yields: the split and the classes below it. A table is built once per
    key and read by every search that reaches the key. It starts empty. A
    reader keeps its own index i and calls ``grow(i)`` when row i is
    missing: if row i is the list's next, it appends the next chunk, as
    many rows as the list holds (one at first), and it returns whether row
    i now exists. A search that stops after a few nodes thus builds a few
    rows, and a reader reads in turn the rows that a nested reader of the
    same key appended.
    """
    splits = _splits(total, classes)
    rows: list[_Split] = []

    def grow(i: int) -> bool:
        # searches in two threads may share a table: the generator must not
        # be resumed while it runs, and another reader may have appended
        # row i since this one found it missing
        with _grow_lock:
            if i == len(rows):
                rows.extend(islice(splits, i or 1))
            return i < len(rows)

    return rows, grow


def search_max_partition(
    counts: tuple[int, ...], masks: tuple[int, ...], n: int, cap: int, node_budget: int
) -> _Result:
    """Exact maximum, over all placements of the given decision types into
    n labeled bundles, of the permutation-minimum value.

    ``counts[t]`` decisions of type t are interchangeable; ``masks[t]`` is
    the agent bitmask of the reference agent's side (bit a set means agent
    a collects the decision when it goes the reference agent's way, which
    is the same event as agreeing with the reference agent). Placements
    are enumerated isomorph-free: bundles with identical placement history
    are interchangeable, so counts are forced nonincreasing inside each
    interchangeability class. A class is a contiguous run of bundles, and
    type t's splits come from ``_splits``, most even split first, each
    with the classes below it, built once per (count, classes) into a
    ``_split_table`` and read as a list by every search that reaches that
    key.

    A node is pruned when its value plus the undecided decisions' count
    cannot exceed ``best``, read afresh at every node. ``cap`` is a
    certified upper bound on the value; reaching it stops the search.
    ``node_budget`` bounds the number of per-type compositions applied.
    Returns ``(best, composition, nodes, completed)`` where
    ``composition[t][j]`` says how many type-t decisions the best
    placement puts in bundle j, and ``completed`` is False when the
    budget ran out (callers must then discard ``best``).

    One walk (``_walk``) searches on a node state chosen by n: every
    permutation's sum packed into one int up to ``LANE_AGENTS`` agents
    (n! <= 720, ``_lane_state``), one dynamic assignment state above
    (``_assignment_state``). On the ``shares`` benchmark's 7-agent
    searches the lanes ran about 3.5 times slower, so the cut-off is a
    constant on n.
    """
    if not counts:
        return 0, (), 0, True
    if n <= LANE_AGENTS:
        return _search_lanes(counts, masks, n, cap, node_budget)
    return _search_assignment(counts, masks, n, cap, node_budget)


def _search_lanes(
    counts: tuple[int, ...], masks: tuple[int, ...], n: int, cap: int, node_budget: int
) -> _Result:
    """``search_max_partition`` on the packed-lane node state."""
    return _walk(counts, n, cap, node_budget, _lane_state(counts, masks, n))


def _search_assignment(
    counts: tuple[int, ...], masks: tuple[int, ...], n: int, cap: int, node_budget: int
) -> _Result:
    """``search_max_partition`` on the assignment node state."""
    return _walk(counts, n, cap, node_budget, _assignment_state(counts, masks, n))


def _walk(counts: tuple[int, ...], n: int, cap: int, node_budget: int, state: _State) -> _Result:
    """The search of ``search_max_partition`` on one node state.

    ``state`` is ``(push, pop)``. ``push(t, row, floor)`` applies type t's
    split ``row``; it returns None, leaving the state as it was, when the
    node's value is at most ``floor = best - rest`` (each of the ``rest``
    undecided decisions adds at most 1 to every permutation sum), and
    otherwise a value, exact at a leaf. ``pop(t, row)`` undoes a push that
    returned a value.

    A node's splits and the classes below each, as ``_splits`` yields
    them, are read by index from the ``_split_table`` of its count and
    classes, built once and read as a list by every search, so a node
    costs one ``push`` and enumerates nothing.
    """
    push, pop = state
    T = len(counts)
    suffix = [0] * (T + 1)
    for t in range(T - 1, -1, -1):
        suffix[t] = suffix[t + 1] + counts[t]

    comp: list[tuple[int, ...]] = [()] * T
    best = -1
    best_comp: tuple[tuple[int, ...], ...] | None = None
    nodes = 0
    out_of_budget = False

    def place(t: int, classes: tuple[int, ...]) -> bool:
        """Returns True when the search should unwind (cap hit or budget out)."""
        nonlocal best, best_comp, nodes, out_of_budget
        rows, grow = _split_table(counts[t], classes)
        rest = suffix[t + 1]
        leaf = t + 1 == T
        # this reader's own position: a nested reader of the same table
        # may append rows, which this one then reads in turn
        i = 0
        while i < len(rows) or grow(i):
            row, refined = rows[i]
            i += 1
            nodes += 1
            if nodes > node_budget:
                out_of_budget = True
                return True
            value = push(t, row, best - rest)
            if value is None:
                continue
            comp[t] = row
            if leaf:
                best = value
                best_comp = tuple(comp)
                if best >= cap:
                    return True
            elif place(t + 1, refined):
                return True
            pop(t, row)
        return False

    place(0, (0,) * n)
    if out_of_budget:
        return best, None, nodes, False
    return best, best_comp, nodes, True


@lru_cache(maxsize=64)
def _lane_table(n: int, w: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lane layout for n agents and lanes of w bits: ``ones``, a 1 at
    the bottom of every lane, and ``E[b][a]``, a 1 at the bottom of every
    lane whose permutation gives bundle b to agent a. Lane k belongs to
    the k-th permutation of ``itertools.permutations(range(n))``."""
    bits = [[0] * n for _ in range(n)]
    lane = 1
    for perm in permutations(range(n)):
        for b, a in enumerate(perm):
            bits[b][a] |= lane
        lane <<= w
    return (lane - 1) // ((1 << w) - 1), tuple(map(tuple, bits))


@lru_cache(maxsize=1024)
def _lane_rows(n: int, w: int, mask: int) -> tuple[int, ...]:
    """``INC[b]``: a 1 in every lane whose permutation gives bundle b to
    an agent of ``mask``, so one decision of that type in bundle b adds
    ``INC[b]`` to the packed sums."""
    E = _lane_table(n, w)[1]
    agents = [a for a in range(n) if mask >> a & 1]
    return tuple(sum(E[b][a] for a in agents) for b in range(n))


def _lane_state(counts: tuple[int, ...], masks: tuple[int, ...], n: int) -> _State:
    """The node state with every permutation's sum in one int.

    ``S[t]`` holds, for the node at depth t, n! lanes of ``w =
    sum(counts).bit_length() + 2`` bits; lane k is the sum of the k-th
    bundle-to-agent permutation, at most ``sum(counts)``, so no lane
    carries into the next (SIMD within a register, Lamport 1975). A push
    at depth t adds ``row[b] * INC[t][b]`` over the bundles to ``S[t]``
    and stores the child's int in ``S[t + 1]``, so a node never changes
    its parent's int and ``pop`` has nothing to undo. The prune test
    "value > floor" is "every lane >= k" for ``k = floor + 1``. Both a
    lane and k are at most ``2^(w-2)``, so adding ``2^(w-1) - k`` to every
    lane leaves each lane in range and sets its top bit exactly when the
    lane is at least k: the test is one add and one mask, skipped when
    k <= 0. Above a leaf a push returns the child's int, not its value; at
    a leaf it steps k up until some lane falls short, which gives the
    exact value.
    """
    last = len(counts) - 1
    w = sum(counts).bit_length() + 2
    ones = _lane_table(n, w)[0]
    high = ones << (w - 1)
    incs = [_lane_rows(n, w, m) for m in masks]
    S = [0] * (last + 2)

    def push(t: int, row: tuple[int, ...], floor: int) -> int | None:
        child = S[t]
        inc = incs[t]
        for b in range(n):
            c = row[b]
            if c:
                child += c * inc[b]
        value = floor + 1
        if value > 0 and (child + high - value * ones) & high != high:
            return None
        if t < last:
            S[t + 1] = child
            return child
        while (child + high - (value + 1) * ones) & high == high:
            value += 1
        return value

    def pop(t: int, row: tuple[int, ...]) -> None:
        pass

    return push, pop


def _assignment_state(counts: tuple[int, ...], masks: tuple[int, ...], n: int) -> _State:
    """The node state that keeps one dynamic assignment state.

    Each node's permutation minimum comes from an assignment state (bundle
    and agent potentials, matching) kept for the current bundle sums
    ``B``: it starts tight on the identity for the all-zero sums, a push
    unmatches the bundles whose matched entry its row raised and
    re-augments each with ``_augment``, and ``pop`` restores the saved
    state. A node's value is its parent's plus the rises the
    re-augmentations return, so every value is exact.

    Before the row is applied, a primal pre-test checks the pruning bar
    on an upper bound of the value: the least sum, on the new bundle
    sums, of the parent's matching and of each permutation that swaps the
    bundles of an agent whose matched entry rises with those of one other
    agent. It takes O(n) integer steps per such agent and changes no
    state, so most pruned nodes cost no row update, no saved state and no
    ``_augment``. The bound is never below the value, so it prunes only
    nodes the exact test would prune: nodes, ``best`` and the winning
    composition are the same with or without it.
    """
    T = len(counts)
    B = [[0] * n for _ in range(n)]
    # the assignment state of the current B: potentials and matching
    u = [0] * n
    v = [0] * (n + 1)
    match = list(range(n)) + [-1]
    agreeing = [[a for a in range(n) if (masks[t] >> a) & 1] for t in range(T)]
    outside = [[a for a in range(n) if not (masks[t] >> a) & 1] for t in range(T)]
    values = [0] * (T + 1)  # values[t]: the permutation minimum at depth t
    saved: list[tuple[list[int], list[int], list[int]] | None] = [None] * T

    def push(t: int, row: tuple[int, ...], floor: int) -> int | None:
        value = values[t]
        agents = agreeing[t]
        # The primal pre-test, on B before the row. On the new sums the
        # old matching's sum is value plus the row's count under each
        # loose agent. Swapping the bundles b of a loose agent a and b2
        # of an agent a2 outside type t's side changes it by
        # B[b][a2] - B[b2][a2] + B[b2][a] - B[b][a] + row[b2] - row[b];
        # a swap with an agent on t's side changes it as on the old
        # sums, by at least 0 since the old matching is minimal. Any
        # such sum bounds the node's value, so one at or below floor
        # prunes the node the exact test below would prune, before the
        # row is applied or any bundle re-augmented.
        loose = []
        gap = value - floor
        for a in agents:
            c = row[match[a]]
            if c:
                loose.append(a)
                gap += c
        if gap > 0:
            others = outside[t]
            for a in loose:
                b = match[a]
                Bb = B[b]
                lift = Bb[a] + row[b] - gap
                for a2 in others:
                    b2 = match[a2]
                    B2 = B[b2]
                    if Bb[a2] - B2[a2] + B2[a] + row[b2] <= lift:
                        gap = 0
                        break
                if not gap:
                    break
        if gap <= 0:
            return None
        for b in range(n):
            c = row[b]
            if c:
                Bb = B[b]
                for a in agents:
                    Bb[a] += c
        # entries only rose, so the potentials stay feasible and a
        # matched pair stays tight unless its own entry rose: unmatch
        # those bundles and re-augment each one
        if loose:
            saved[t] = u[:], v[:], match[:]
            bundles = [match[a] for a in loose]
            for a in loose:
                match[a] = -1
            for b in bundles:
                value += _augment(B, u, v, match, b)
        else:
            saved[t] = None
        if value <= floor:
            pop(t, row)
            return None
        values[t + 1] = value
        return value

    def pop(t: int, row: tuple[int, ...]) -> None:
        state = saved[t]
        if state is not None:
            u[:], v[:], match[:] = state
        agents = agreeing[t]
        for b in range(n):
            c = row[b]
            if c:
                Bb = B[b]
                for a in agents:
                    Bb[a] -= c

    return push, pop
