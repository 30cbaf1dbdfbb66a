"""Counting formulas, volume bounds, and exact maximum sizes at desk scale.

Everything here is exact integer arithmetic; floating point is never
used.  One enumerator, `_agreements`, counts the rearrangements of a
multiset by how many positions agree with its sorted word, with plain
integers in O(n^2) operations by inclusion-exclusion over fixed points.
Multiset derangements are its zero-agreement term; sphere volumes are
its tail sums over the word space, where every type appears lambda times.
It refuses words longer than `_AGREEMENT_POSITIONS` before any arithmetic,
and so every count does.
`exact_max_size` is the independent oracle: a deterministic
branch-and-bound maximum-clique search over the word space, listed once
as one matrix; its witness is an array of that matrix's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import core
from .core import _AGREEMENT_POSITIONS, WorkLimitExceeded, _index, _ints
from .core import all_lambda_permutations, count_all


# ---------------------------------------------------------------------------
# agreement counts: multiset derangements and sphere volumes


def _agreements(counts: Sequence[int], repeat: int = 1) -> list[int]:
    """A[k]: rearrangements of the multiset with type counts `counts`, listed
    `repeat` times, that agree with its sorted word in exactly k positions.

    Fixing a_i of the c_i positions of type i gives C(c_i, a_i) position
    sets, and the n - j free positions of a j-set take
    (n-j)! / prod (c_i - a_i)! arrangements.  So with
    Q_i(x) = sum_a C(c_i, a) c_i!/(c_i-a)! x^a, the (rearrangement, j
    agreeing positions) pairs number N_j = (n-j)! [x^j] prod Q_i(x) / prod c_i!,
    an exact division.  Inclusion-exclusion gives the rearrangements with
    exactly k agreements, A_k = sum_{j>=k} (-1)^(j-k) C(j, k) N_j.
    """
    n = sum(counts) * repeat
    if n > _AGREEMENT_POSITIONS:
        raise WorkLimitExceeded(f"words over {_AGREEMENT_POSITIONS} positions are not counted")
    product, scale = [1], 1
    for c in tuple(counts) * repeat:
        q = [math.comb(c, a) * math.perm(c, a) for a in range(c + 1)]
        wider = [0] * (len(product) + c)
        for j, p in enumerate(product):
            for a, qa in enumerate(q):
                wider[j + a] += p * qa
        product, scale = wider, scale * math.factorial(c)
    pairs = [math.factorial(n - j) * p // scale for j, p in enumerate(product)]
    exact = [
        sum((-1) ** (j - k) * math.comb(j, k) * pairs[j] for j in range(k, n + 1))
        for k in range(n + 1)
    ]
    if min(exact) < 0 or sum(exact) != math.factorial(n) // scale:
        raise RuntimeError(f"agreement counts for {counts} fail their self-check")
    return exact


def multiset_derangements(counts: Sequence[int]) -> int:
    """Rearrangements of a typed multiset with no position keeping its type.

    `counts` gives the copies of each type; the layout being deranged is
    the sorted word (type 0 first).  The count is the zero-agreement term
    of `_agreements`.
    """
    tup = _ints([counts])[0]
    if not tup or any(c < 1 for c in tup):
        raise ValueError(f"counts must be positive, got {counts}")
    return _agreements(tup)[0]


def sphere_volume(n: int, lam: int, r: int) -> int:
    """Words within Hamming distance r of any fixed word, counted exactly.

    The space is vertex-transitive under position permutations, so the
    centre does not matter: the words with at least n - r agreements,
    from `_agreements` in O(n^2) integer operations.
    """
    n, lam, r = _index(n, "n"), _index(lam, "lam"), _index(r, "r")
    if n < 1 or lam < 1 or n % lam:
        raise ValueError(f"need lam >= 1 dividing n, got n={n} lam={lam}")
    if not 0 <= r <= n:
        raise ValueError(f"radius must lie in 0..{n}, got {r}")
    return sum(_agreements((lam,), n // lam)[n - r :])


# ---------------------------------------------------------------------------
# closed-form bounds


def gv_lower(n: int, lam: int, d: int) -> int:
    """Greedy covering guarantee: ceil(space / volume at radius d-1)."""
    _check_nd(n, lam, d)
    vol = sphere_volume(n, lam, d - 1)
    return -(-count_all(n, lam) // vol)


def hamming_upper(n: int, lam: int, d: int) -> int:
    """Packing bound: floor(space / volume at radius floor((d-1)/2))."""
    _check_nd(n, lam, d)
    vol = sphere_volume(n, lam, (d - 1) // 2)
    return count_all(n, lam) // vol


def plotkin_upper(n: int, lam: int, d: int) -> int | None:
    """floor(d / (d - n + lam)), defined only when d exceeds n - lam."""
    _check_nd(n, lam, d)
    if d <= n - lam:
        return None
    return d // (d - n + lam)


def trivial_upper(n: int, lam: int, d: int) -> int:
    """floor(n! / (lam * (d-1)!))."""
    _check_nd(n, lam, d)
    return math.factorial(n) // math.factorial(d - 1) // lam


def mofs_max(n: int, m: int) -> int:
    """Cap on mutually orthogonal frequency squares: (n-1)^2/(m-1)."""
    n, m = _index(n, "n"), _index(m, "m")
    if m < 2 or n < 2 or n % m:
        raise ValueError(f"need m >= 2 dividing n >= 2, got n={n} m={m}")
    return (n - 1) ** 2 // (m - 1)


def _check_nd(n: int, lam: int, d: int, **budgets: int) -> None:
    """Refuse a non-integer or out-of-range n, lam, d or budget."""
    for name, value in (("n", n), ("lam", lam), ("d", d), *budgets.items()):
        _index(value, name)
    if n < 1 or lam < 1 or n % lam:
        raise ValueError(f"need lam >= 1 dividing n, got n={n} lam={lam}")
    if not 1 <= d <= n:
        raise ValueError(f"distance must lie in 1..{n}, got {d}")
    for name, value in budgets.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


# ---------------------------------------------------------------------------
# exact maximum sizes by branch-and-bound clique search


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the clique search; `array`, claiming d, witnesses value."""

    proven: bool
    array: core.FrequencyPermutationArray

    @property
    def value(self) -> int:
        return self.array.size


# The search refuses word spaces whose V x V adjacency has more cells than
# this: its set-up takes O(V^2) time and V^2 / 8 bytes.  The 5 040 words of
# n = 7, lambda = 1 fit.
_ADJACENCY_CELLS = 1 << 25


def _bits(p: int) -> list[int]:
    """Indices of the set bits of p, ascending."""
    out = []
    while p:
        low = p & -p
        out.append(low.bit_length() - 1)
        p ^= low
    return out


def _adjacency(words: np.ndarray | Sequence[Sequence[int]], d: int) -> list[int]:
    """The search's table of open non-neighbour masks, top bit first.

    Word u sits at bit V-1-u of every mask, so the lowest-indexed word of
    a mask p is bit p.bit_length() - 1.  non[i] belongs to the word at bit
    i and holds the words closer than d to it, itself excluded: those that
    agree with it in t = n - d + 1 positions or more.  Agreements are
    counted bit-sliced from cell[p, s], the packed words with symbol s at
    position p.  Per block of about `core._BLOCK_CELLS` mask bytes, ge[k]
    holds the words that agree with each block word in k or more of the
    positions so far: O(V^2·n·min(t, d)/8) byte operations in all.
    """
    mat = np.asarray(words, dtype=np.intp)
    size, n = mat.shape
    t, pad, width = n - d + 1, -size % 8, (size + 7) // 8
    holds = mat.T[:, None] == np.arange(mat.max() + 1)[:, None]
    # leading zero bits put word u at bit V-1-u of each row's int
    cell = np.packbits(np.pad(holds, ((0, 0), (0, 0), (pad, 0))), axis=2, bitorder="big")
    rows = max(1, core._BLOCK_CELLS // width)
    non: list[int] = []
    for i in range(0, size, rows):
        block = mat[i : i + rows]
        ge = np.zeros((t + 1, len(block), width), dtype=np.uint8)
        ge[0] = 0xFF
        for p in range(n):
            agree = cell[p, block[:, p]]
            for k in range(min(t, p + 1), max(0, t - n + p), -1):  # k can still reach t
                ge[k] |= ge[k - 1] & agree
        at = np.arange(len(block))
        ge[t, at, (pad + i + at) // 8] &= ~(0x80 >> (pad + i + at) % 8).astype(np.uint8)
        raw = ge[t].tobytes()
        non.extend(int.from_bytes(raw[j : j + width], "big") for j in range(0, len(raw), width))
    return non[::-1]


def _greedy_clique(non: Sequence[int]) -> list[int]:
    """Keep taking the candidate that keeps the most candidates.

    Ties go to the top bit; pairwise adjacent candidates are taken at
    once.  lose[u] counts the candidates in non[u]; a vertex that left
    counts more than V.  After a pick, if fewer candidates stay than
    leave, those that stay are recounted against the candidate mask p;
    else the masks that leave are unpacked and subtracted, 64 at a time.
    """
    size = len(non)
    width = (size + 7) // 8
    dead = 1 << 62  # minus at most V^2 subtractions, still more than V

    def unpack(masks: list[int]) -> np.ndarray:
        """bits[j, u]: whether masks[j] holds bit u."""
        raw = b"".join(x.to_bytes(width, "little") for x in masks)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
        return np.unpackbits(rows, axis=1, count=size, bitorder="little")

    lose = np.array([x.bit_count() for x in non], dtype=np.int64)
    p, left = (1 << size) - 1, size
    clique: list[int] = []
    while left:
        v = size - 1 - int(lose[::-1].argmin())
        if lose[v] == 0 and np.count_nonzero(lose) == size - left:
            return clique + np.flatnonzero(lose == 0)[::-1].tolist()
        clique.append(v)
        out = (non[v] | 1 << v) & p
        p ^= out
        left -= out.bit_count()
        if left < out.bit_count():  # fewer stay than leave
            stay = np.flatnonzero(unpack([p])[0])
            lose = np.full(size, dead, dtype=np.int64)
            lose[stay] = [(p & non[c]).bit_count() for c in stay.tolist()]
            continue
        gone = _bits(out)
        lose[gone] = dead
        for start in range(0, len(gone), 64):  # 64 unpacked masks at a time
            bits = unpack([non[g] for g in gone[start : start + 64]])
            lose -= np.add.reduce(bits, axis=0, dtype=np.uint8)
    return clique


def _masks(non: list[int]) -> list[int]:
    """Rewrite `_adjacency`'s table in place as `_clique_search`'s, and return it.

    With V vertices and full = (1 << V) - 1, vertex u's mask becomes
    non[u] << V | full ^ 1 << u: ANDed into a colour class packed as
    avail << V | q, it keeps avail's non-neighbours of u and drops u from q.
    """
    size, full = len(non), (1 << len(non)) - 1
    for u, x in enumerate(non):
        non[u] = x << size | full ^ 1 << u
    return non


def _clique_search(masks: list[int], state: dict, node_budget: int) -> None:
    """Branch and bound from the incumbent in state, updating state.

    masks is `_masks`' table; vertex u is bit u, lowest-indexed word (top
    bit) first.  state holds "best", a clique, and gains "nodes" and
    "aborted".  Each node colours its candidates class by class, top bit
    first, on q = avail << V | q: one AND with at[q.bit_length()], the mask
    of avail's top vertex, colours it, and the class ends once q <= full.
    It branches in reverse colour order on the vertices whose colour can
    still beat the incumbent (BBMC's k_min).  Classes below k_min only
    decide which vertices are left; from k_min on, each pick goes straight
    onto the node's branch lists, as its bit length V + u + 1.  Candidates
    that take one colour each are pairwise adjacent and are taken at once.
    The node that exceeds node_budget aborts.
    """
    shift = len(masks)
    full = p = (1 << shift) - 1
    at = [0] * (shift + 1) + masks  # the mask of u at V + u + 1
    best = state["best"]
    bound = len(best)
    nodes, aborted = 0, False
    # frames[k] = [candidates, picks, colours] of the open node whose
    # clique is clique[:k]: its branches left, the next one last.  Each
    # pass of the loop enters one node.
    clique: list[int] = []
    frames: list[list] = []
    while True:
        nodes += 1
        if nodes > node_budget:
            aborted = True
            break
        size = len(clique)
        count = p.bit_count()
        if size + count > bound:
            k_min = bound - size + 1
            q, colour = p, 1
            while colour < k_min and q:
                q |= q << shift
                while q > full:
                    q &= at[q.bit_length()]
                colour += 1
            if colour >= k_min and q:
                picks: list[int] = []  # bit lengths
                colours: list[int] = []
                while q:
                    q |= q << shift
                    while q > full:
                        b = q.bit_length()
                        q &= at[b]
                        picks.append(b)
                        colours.append(colour)
                    colour += 1
                if colour - 1 == count:
                    best = clique + _bits(p)
                    bound = len(best)
                else:
                    frames.append([p, picks, colours])
            elif not p:
                best = list(clique)
                bound = size
        while frames:
            depth = len(frames) - 1
            frame = frames[-1]
            colours = frame[2]
            if colours and depth + colours[-1] > bound:
                colours.pop()
                b = frame[1].pop()
                del clique[depth:]
                clique.append(b - shift - 1)
                frame[0] &= at[b]
                p = frame[0] & ~(at[b] >> shift)
                break
            frames.pop()
        else:
            break
    state["nodes"], state["aborted"], state["best"] = nodes, aborted, best


def exact_max_size(
    n: int,
    lam: int,
    d: int,
    vertex_budget: int = 2000,
    node_budget: int = 200_000,
) -> ExactResult:
    """Maximum array size, proven by exhausting the word space.

    Vertices are the rows of `all_lambda_permutations(m, lam)`, all words
    in lexicographic order, and edges join words at distance >= d; the
    answer is the maximum clique, an array of its words in that order
    claiming d.  Position permutations act
    transitively on the words and keep distances, so all vertices have one
    degree: a degree sort would keep the lexicographic branching order.

    The first incumbent keeps taking the candidate that keeps the most
    candidates, the lowest index on ties.  The search then colours each
    node's candidates class by class in index order and branches only on
    the vertices whose colour can still beat the incumbent (BBMC's k_min),
    in reverse colour order, on an explicit stack.  Both read one table,
    the non-neighbour masks with word u at bit V-1-u, counted bit-sliced
    from agreements with no distance matrix; `_masks` rewrites it in place
    for the search, so that a colouring step is one AND.  Classes below
    k_min only colour, and from k_min on each pick is recorded as a branch
    as it is coloured; see `_adjacency` and `_clique_search`.  Negative
    budgets raise ValueError.  More than vertex_budget words or more than
    _ADJACENCY_CELLS adjacency cells raise before any set-up, and then the
    listing refuses words over _AGREEMENT_POSITIONS positions before it
    builds any; exceeding node_budget returns the best clique found with
    proven=False.
    """
    _check_nd(n, lam, d, vertex_budget=vertex_budget, node_budget=node_budget)
    m = n // lam
    # count_all is a product of n/lam - 1 terms C(a, lam) >= 2^lam, so >= 2^(n - lam)
    total = count_all(n, lam) if n - lam < int(vertex_budget).bit_length() else None
    if total is None or total > vertex_budget:
        raise WorkLimitExceeded(
            f"(n={n}, lambda={lam}) has more vertices than vertex_budget {vertex_budget}"
        )
    if total * total > _ADJACENCY_CELLS:
        raise WorkLimitExceeded(
            f"{total} vertices need {total * total} adjacency cells, "
            f"over the limit of {_ADJACENCY_CELLS}"
        )
    words = all_lambda_permutations(m, lam)
    # bench/tracing.py reads the node count from this local after the call
    state = {"best": [0], "aborted": False}
    if len(words) > 1:
        non = _adjacency(words, d)
        state["best"] = _greedy_clique(non)
        _clique_search(_masks(non), state, node_budget)
    rows = words[np.sort(len(words) - 1 - np.array(state["best"], dtype=np.intp))]
    return ExactResult(not state["aborted"], core.FrequencyPermutationArray(m, lam, rows, d))


# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class BoundsReport:
    """All bounds for one (n, lam, d), with optional exact search results."""

    n: int
    lam: int
    d: int
    total: int
    gv_lower: int
    hamming_upper: int
    plotkin_upper: int | None
    trivial_upper: int
    exact_value: int | None = None
    exact_proven: bool | None = None

    @property
    def m(self) -> int:
        return self.n // self.lam

    def best_upper(self) -> int:
        options = [self.hamming_upper, self.trivial_upper]
        if self.plotkin_upper is not None:
            options.append(self.plotkin_upper)
        return min(options)


def bounds_report(
    n: int,
    lam: int,
    d: int,
    with_exact: bool = False,
    vertex_budget: int = 2000,
    node_budget: int = 200_000,
) -> BoundsReport:
    """Assemble every bound; exact search only on request and in budget."""
    _check_nd(n, lam, d, vertex_budget=vertex_budget, node_budget=node_budget)
    gv = gv_lower(n, lam, d)  # refuses words too long to count before any factorial
    exact_value = exact_proven = None
    if d <= 2:
        # Two distinct words over the same symbol multiset always differ in
        # at least two positions, so the whole space is an optimal array.
        exact_value, exact_proven = count_all(n, lam), True
    elif with_exact:
        try:
            result = exact_max_size(n, lam, d, vertex_budget, node_budget)
            exact_value, exact_proven = result.value, result.proven
        except WorkLimitExceeded:
            pass
    return BoundsReport(
        n=n,
        lam=lam,
        d=d,
        total=count_all(n, lam),
        gv_lower=gv,
        hamming_upper=hamming_upper(n, lam, d),
        plotkin_upper=plotkin_upper(n, lam, d),
        trivial_upper=trivial_upper(n, lam, d),
        exact_value=exact_value,
        exact_proven=exact_proven,
    )
