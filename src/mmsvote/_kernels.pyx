# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of ``_kernels_py``; see that module for the contract.

``setup.py`` compiles the shipped ``_kernels.c``; regenerate it after an
edit here with ``cython -3 src/mmsvote/_kernels.pyx``. Fixed C buffers cap
the size (n <= 8 agents, 128 types); the dispatcher routes larger calls to
the pure kernel. Order, tie-breaking and node accounting match that kernel
exactly; ``tests/test_kernels.py`` builds this module and compares them.
"""

BACKEND = "c"

cdef enum:
    MAXN = 8
    MAXT = 128

MAX_AGENTS = MAXN
MAX_TYPES = MAXT


cdef void _assign_dfs(int n, int (*B)[MAXN], int j, int used, int acc, int *best) noexcept:
    cdef int a, i, k, cnt, tmp_a, tmp_v
    cdef int order_a[MAXN]
    cdef int order_v[MAXN]
    if acc >= best[0]:
        return
    if j == n:
        best[0] = acc
        return
    cnt = 0
    for a in range(n):
        if not (used >> a) & 1:
            order_a[cnt] = a
            order_v[cnt] = B[j][a]
            cnt += 1
    for i in range(1, cnt):
        tmp_a = order_a[i]
        tmp_v = order_v[i]
        k = i - 1
        while k >= 0 and order_v[k] > tmp_v:
            order_a[k + 1] = order_a[k]
            order_v[k + 1] = order_v[k]
            k -= 1
        order_a[k + 1] = tmp_a
        order_v[k + 1] = tmp_v
    for i in range(cnt):
        _assign_dfs(n, B, j + 1, used | (1 << order_a[i]), acc + order_v[i], best)


cdef int _min_assign(int n, int (*B)[MAXN]) noexcept:
    cdef int j, a, used, pick, pick_v, best
    used = 0
    best = 0
    for j in range(n):
        pick = -1
        pick_v = 0
        for a in range(n):
            if not (used >> a) & 1 and (pick < 0 or B[j][a] < pick_v):
                pick = a
                pick_v = B[j][a]
        used |= 1 << pick
        best += pick_v
    _assign_dfs(n, B, 0, 0, 0, &best)
    return best


def min_assignment(bundle_sums):
    """Minimum over permutations sigma of sum_j bundle_sums[j][sigma(j)]."""
    cdef int n = len(bundle_sums)
    cdef int B[MAXN][MAXN]
    cdef int j, a
    if n > MAXN:
        raise ValueError(f"compiled kernel supports at most {MAXN} agents, got {n}")
    for j in range(n):
        row = bundle_sums[j]
        for a in range(n):
            B[j][a] = row[a]
    return _min_assign(n, B)


cdef struct SearchState:
    int n
    int T
    int cap
    int best
    bint have_best
    bint out_of_budget
    long long nodes
    long long budget
    int counts[MAXT]
    int suffix[MAXT + 1]
    unsigned char agree[MAXT][MAXN]
    int B[MAXN][MAXN]
    int comp[MAXT][MAXN]
    int best_comp[MAXT][MAXN]
    int classes[MAXT + 1][MAXN]


cdef bint _place(SearchState *S, int t) noexcept:
    cdef int value, b, a
    if t == S.T:
        value = _min_assign(S.n, S.B)
        if value > S.best:
            S.best = value
            S.have_best = True
            for b in range(S.T):
                for a in range(S.n):
                    S.best_comp[b][a] = S.comp[b][a]
        return S.best >= S.cap
    return _fill(S, t, 0, S.counts[t])


cdef bint _fill(SearchState *S, int t, int j, int remaining) noexcept:
    cdef int n = S.n
    cdef int b, a, c, hi, oc, cc, found, q, nid
    cdef int keys_old[MAXN]
    cdef int keys_cnt[MAXN]
    if j == n:
        if remaining:
            return False
        S.nodes += 1
        if S.nodes > S.budget:
            S.out_of_budget = True
            return True
        for b in range(n):
            c = S.comp[t][b]
            if c:
                for a in range(n):
                    if S.agree[t][a]:
                        S.B[b][a] += c
        # each undecided column can add at most 1 to every permutation sum
        if _min_assign(n, S.B) + S.suffix[t + 1] > S.best:
            nid = 0
            for b in range(n):
                oc = S.classes[t][b]
                cc = S.comp[t][b]
                found = -1
                for q in range(nid):
                    if keys_old[q] == oc and keys_cnt[q] == cc:
                        found = q
                        break
                if found < 0:
                    keys_old[nid] = oc
                    keys_cnt[nid] = cc
                    found = nid
                    nid += 1
                S.classes[t + 1][b] = found
            if _place(S, t + 1):
                return True
        for b in range(n):
            c = S.comp[t][b]
            if c:
                for a in range(n):
                    if S.agree[t][a]:
                        S.B[b][a] -= c
        return False
    hi = remaining
    if j > 0 and S.classes[t][j] == S.classes[t][j - 1] and S.comp[t][j - 1] < hi:
        hi = S.comp[t][j - 1]
    for c in range(hi, -1, -1):
        S.comp[t][j] = c
        if _fill(S, t, j + 1, remaining - c):
            return True
    S.comp[t][j] = 0
    return False


def search_max_partition(counts, masks, int n, int cap, node_budget):
    """Exact maximum over isomorph-free type placements; see the pure twin."""
    cdef SearchState S
    cdef int t, b
    T = len(counts)
    if T == 0:
        return 0, (), 0, True
    if n > MAXN:
        raise ValueError(f"compiled kernel supports at most {MAXN} agents, got {n}")
    if T > MAXT:
        raise ValueError(f"compiled kernel supports at most {MAXT} types, got {T}")
    S.n = n
    S.T = T
    S.cap = cap
    S.best = -1
    S.have_best = False
    S.out_of_budget = False
    S.nodes = 0
    S.budget = node_budget
    S.suffix[T] = 0
    for t in range(T - 1, -1, -1):
        S.counts[t] = counts[t]
        S.suffix[t] = S.suffix[t + 1] + S.counts[t]
    for t in range(T):
        mask = masks[t]
        for b in range(n):
            S.agree[t][b] = (mask >> b) & 1
            S.comp[t][b] = 0
    for b in range(n):
        S.classes[0][b] = 0
        for t in range(n):
            S.B[b][t] = 0
    _place(&S, 0)
    if S.out_of_budget:
        return S.best, None, S.nodes, False
    comp = tuple(tuple(S.best_comp[t][b] for b in range(n)) for t in range(T)) if S.have_best else None
    return S.best, comp, S.nodes, True
