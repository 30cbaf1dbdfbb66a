"""Counting formulas, size bounds, and the exact clique search."""

import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fparray import (
    BoundsReport,
    WorkLimitExceeded,
    all_lambda_permutations,
    bounds_report,
    count_all,
    exact_max_size,
    gv_lower,
    hamming_upper,
    mofs_max,
    multiset_derangements,
    plotkin_upper,
    sphere_volume,
    trivial_upper,
    verify,
    FrequencyPermutationArray,
)
from fparray import bounds, core
from fparray.cli import main
from fparray.bounds import (
    _adjacency,
    _clique_search,
    _agreements,
    _greedy_clique,
    _masks,
)
from fixtures import (
    DERANGEMENTS,
    SPHERE_VOLUMES,
    derangements_bruteforce,
    partitions,
    sphere_volume_bruteforce,
    tuples,
)

# ---------------------------------------------------------------------------
# typed-multiset derangements


def test_classical_derangement_numbers():
    for k in range(1, 10):
        assert multiset_derangements((1,) * k) == DERANGEMENTS[k]


def test_derangements_follow_the_classical_recurrence():
    # D_k = (k - 1)(D_{k-1} + D_{k-2}), from D_1 = 0 and D_2 = 1
    before, last = 0, 1
    for k in range(3, 41):
        before, last = last, (k - 1) * (last + before)
        assert multiset_derangements((1,) * k) == last, k


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=6))
def test_agreements_average_the_expected_fixed_points(counts):
    # a uniform rearrangement keeps type i at each of its c_i positions
    # with chance c_i / n, so sum_k k A_k = (n! / prod c_i!) sum c_i^2 / n
    n = sum(counts)
    total = math.factorial(n) // math.prod(math.factorial(c) for c in counts)
    agree = _agreements(counts)
    assert len(agree) == n + 1 and sum(agree) == total
    assert n * sum(k * a for k, a in enumerate(agree)) == total * sum(c * c for c in counts)


@pytest.mark.parametrize(
    "counts, expected",
    [((2,), 0), ((1,), 0), ((2, 1, 1), 2), ((2, 2), 1), ((2, 2, 2), 10), ((3, 3), 1)],
)
def test_known_multiset_values(counts, expected):
    assert multiset_derangements(counts) == expected
    assert derangements_bruteforce(counts) == expected


def test_derangement_input_validation():
    with pytest.raises(ValueError):
        multiset_derangements(())
    with pytest.raises(ValueError):
        multiset_derangements((2, 0))
    # 1.5 used to be truncated to 1 and counted
    with pytest.raises(ValueError, match="must be integers"):
        multiset_derangements((1.5, 2))
    assert multiset_derangements((np.int64(2), True)) == multiset_derangements((2, 1))


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
        lambda cs: sum(cs) <= 8
    )
)
def test_formula_matches_bruteforce_and_ignores_order(counts):
    value = multiset_derangements(counts)
    assert value == derangements_bruteforce(counts)
    assert value == multiset_derangements(sorted(counts, reverse=True))


# ---------------------------------------------------------------------------
# sphere volumes


@pytest.mark.parametrize("key, expected", sorted(SPHERE_VOLUMES.items()))
def test_pinned_sphere_volumes(key, expected):
    n, lam, r = key
    assert sphere_volume(n, lam, r) == expected
    assert sphere_volume_bruteforce(n, lam, r) == expected


def test_sphere_volume_extremes():
    for n, lam in ((4, 2), (6, 3), (6, 2), (8, 4), (6, 1)):
        assert sphere_volume(n, lam, 0) == 1
        assert sphere_volume(n, lam, 1) == 1  # no word sits at distance 1
        assert sphere_volume(n, lam, n) == count_all(n, lam)


def test_sphere_volume_is_monotone_in_radius():
    values = [sphere_volume(8, 2, r) for r in range(9)]
    assert values == sorted(values)
    assert values[-1] == count_all(8, 2)


def partition_sum_shells(n, lam):
    """Words at each exact distance, by the partition sum over displaced types.

    A word at distance k displaces, for each of t symbol types, some
    p_i <= lam copies with sum p_i = k: pick the types (m!/(m-t)! over the
    repeats among the parts), their displaced positions (prod C(lam, p_i)),
    and a derangement of the displaced multiset.
    """
    m = n // lam
    shells = [1]
    for k in range(1, n + 1):
        shell = 0
        for parts in partitions(k, lam):
            t = len(parts)
            if t > m:
                continue
            ways = math.perm(m, t)
            for repeats in Counter(parts).values():
                ways //= math.factorial(repeats)
            picks = math.prod(math.comb(lam, part) for part in parts)
            shell += ways * picks * multiset_derangements(parts)
        shells.append(shell)
    return shells


def test_distance_distribution_matches_the_partition_sum():
    for n in range(1, 25):
        for lam in (l for l in range(1, n + 1) if n % l == 0):
            shells = partition_sum_shells(n, lam)
            assert _agreements((lam,) * (n // lam))[::-1] == shells, (n, lam)
            volumes = list(itertools.accumulate(shells))
            assert [sphere_volume(n, lam, r) for r in range(n + 1)] == volumes


def test_distance_distribution_covers_the_space_up_to_n_120():
    for n in range(1, 121):
        for lam in (l for l in range(1, n + 1) if n % l == 0):
            dist = _agreements((lam,) * (n // lam))[::-1]
            assert len(dist) == n + 1
            assert sum(dist) == count_all(n, lam), (n, lam)
            assert dist[0] == 1 and dist[1] == 0
            assert min(dist) >= 0


def test_every_count_stops_at_the_word_length_limit(monkeypatch):
    limit = bounds._AGREEMENT_POSITIONS
    assert limit == 256
    # the accepted side: full spheres still hold the whole space
    assert sum(_agreements((1,) * limit)) == math.factorial(limit)
    assert sphere_volume(limit, 2, limit) == count_all(limit, 2)
    assert multiset_derangements((limit // 2, limit // 2)) == 1
    # the refused side, before any factorial is taken
    monkeypatch.setattr(math, "factorial", None)
    message = f"^words over {limit} positions are not counted$"
    refusals = [
        lambda: _agreements((1,) * (limit + 1)),
        lambda: _agreements((2,), limit // 2 + 1),
        lambda: multiset_derangements((1,) * (limit + 1)),
        lambda: multiset_derangements((limit, 1)),
        lambda: sphere_volume(limit + 1, 1, 2),
        lambda: sphere_volume(2000, 1, 2),
        lambda: sphere_volume(10**30, 10, 2),  # no 10^29-entry tuple is built
        lambda: gv_lower(2000, 1, 3),
        lambda: hamming_upper(2000, 1, 3),
        lambda: bounds_report(2000, 1, 3),
        lambda: bounds_report(10**30, 1, 2),
    ]
    for refuse in refusals:
        with pytest.raises(WorkLimitExceeded, match=message):
            refuse()


def test_bounds_command_refuses_long_words_at_once(capsys):
    assert main(["bounds", "--n", "2000", "--lambda", "1", "--d", "3"]) == 2
    message = "error: work limit exceeded: words over 256 positions are not counted\n"
    assert capsys.readouterr() == ("", message)
    assert main(["bounds", "--n", "256", "--lambda", "1", "--d", "3", "--machine"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("gv=")


# ---------------------------------------------------------------------------
# closed-form bounds


def test_bound_pins_for_the_six_three_family():
    assert gv_lower(6, 3, 4) == 2
    assert hamming_upper(6, 3, 4) == 20
    assert plotkin_upper(6, 3, 4) == 4
    assert trivial_upper(6, 3, 4) == 40
    assert plotkin_upper(6, 3, 3) is None  # needs d > n - lam
    assert plotkin_upper(6, 3, 6) == 2


def test_bounds_bracket_reality():
    # the doubling construction meets 2n - 2 = 14 at (8, 4, 4)
    assert gv_lower(8, 4, 4) <= 14 <= hamming_upper(8, 4, 4)
    assert plotkin_upper(8, 4, 4) is None
    assert trivial_upper(8, 4, 4) == 40320 // 6 // 4


def test_bound_input_validation():
    for fn in (gv_lower, hamming_upper, trivial_upper, plotkin_upper):
        with pytest.raises(ValueError):
            fn(6, 4, 3)  # lam does not divide n
        with pytest.raises(ValueError):
            fn(6, 3, 7)  # d out of range


# Each integer parameter of the bounds, with a call that is valid at `good`
INTEGER_PARAMETERS = [
    ("count_all", "n", lambda x: count_all(x, 2), 4),
    ("count_all", "lam", lambda x: count_all(4, x), 2),
    ("sphere_volume", "n", lambda x: sphere_volume(x, 2, 1), 4),
    ("sphere_volume", "lam", lambda x: sphere_volume(4, x, 1), 2),
    ("sphere_volume", "r", lambda x: sphere_volume(4, 2, x), 1),
    ("mofs_max", "n", lambda x: mofs_max(x, 2), 4),
    ("mofs_max", "m", lambda x: mofs_max(4, x), 2),
    ("plotkin_upper", "d", lambda x: plotkin_upper(4, 2, x), 3),
    ("gv_lower", "n", lambda x: gv_lower(x, 2, 3), 4),
    ("bounds_report", "lam", lambda x: bounds_report(4, x, 3), 2),
    ("exact_max_size", "vertex_budget", lambda x: exact_max_size(4, 2, 3, x), 2000),
    ("exact_max_size", "node_budget", lambda x: exact_max_size(4, 2, 3, 2000, x), 100),
]


@pytest.mark.parametrize(
    "call, good", [(call, good) for _, _, call, good in INTEGER_PARAMETERS],
    ids=[f"{fn}-{name}" for fn, name, _, _ in INTEGER_PARAMETERS],
)
def test_bound_parameters_must_be_integers(call, good, request):
    name = request.node.callspec.id.split("-")[1]
    for bad in (float(good), good + 0.5, str(good), None):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(bad)
    # numpy ints give the same answer as plain ints
    assert call(np.int64(good)) == call(np.int16(good)) == call(good)


def test_mofs_family_ceiling():
    assert mofs_max(4, 2) == 9
    assert mofs_max(3, 3) == 2
    assert mofs_max(9, 3) == 32


# ---------------------------------------------------------------------------
# exact maximum sizes


def test_exact_small_anchor_values():
    assert exact_max_size(6, 3, 4).value == 4
    assert exact_max_size(4, 2, 4).value == 2
    assert exact_max_size(4, 2, 2).value == 6
    # the even permutations hit the n!/(d-1)! ceiling at (4, 1, 3)
    assert exact_max_size(4, 1, 3).value == 12 == trivial_upper(4, 1, 3)
    for n, lam, d in ((6, 3, 4), (4, 2, 4), (4, 1, 3)):
        assert exact_max_size(n, lam, d).proven


def test_exact_witness_is_a_valid_array():
    result = exact_max_size(6, 3, 4)
    assert result.array.size == result.value
    rows = tuples(result.array.rows)
    assert rows == tuple(sorted(rows))
    fpa = FrequencyPermutationArray(2, 3, result.array.rows, 4)
    assert fpa == result.array
    report = verify(fpa)
    assert report.valid and report.actual_min_distance >= 4


@pytest.mark.parametrize(
    "n, lam, d, budget",
    [(4, 1, 3, 200_000), (6, 2, 4, 200_000), (6, 1, 5, 50), (6, 1, 5, 60_000), (7, 7, 3, 0)],
)
def test_exact_witness_rows_are_distinct_words_in_lexicographic_order(n, lam, d, budget):
    result = exact_max_size(n, lam, d, node_budget=budget)
    array = result.array
    assert (array.m, array.lam, array.min_distance_claim) == (n // lam, lam, d)
    assert array.rows.shape == (result.value, n) and not array.rows.flags.writeable
    rows = tuples(array.rows)
    # strictly increasing: lexicographic and distinct
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert set(rows) <= set(all_lambda_permutations(n // lam, lam))
    report = verify(array)
    assert report.valid and report.actual_min_distance >= d


def test_exact_single_vertex_space():
    result = exact_max_size(2, 2, 2)
    assert (result.value, result.proven) == (1, True)
    assert tuples(result.array.rows) == ((0, 0),)
    assert (result.array.m, result.array.lam, result.array.min_distance_claim) == (1, 2, 2)


def test_exact_respects_the_vertex_budget():
    with pytest.raises(WorkLimitExceeded):
        exact_max_size(8, 2, 4)  # 2520 words exceed the default budget
    with pytest.raises(WorkLimitExceeded):
        exact_max_size(6, 3, 4, vertex_budget=10)


def test_exact_refuses_huge_word_spaces_without_counting_them():
    # 2000! words could not be printed in the refusal
    message = r"^\(n=2000, lambda=1\) has more vertices than vertex_budget 2000$"
    with pytest.raises(WorkLimitExceeded, match=message):
        exact_max_size(2000, 1, 3)
    with pytest.raises(WorkLimitExceeded, match=f"vertex_budget {10**100}$"):
        exact_max_size(10**9, 10**8, 3, vertex_budget=10**100)


@pytest.mark.parametrize("n", [10**10, 257])
def test_exact_refuses_one_symbol_words_over_the_position_limit(n, monkeypatch):
    def unlisted(*args):
        raise AssertionError("the search listed the words")

    monkeypatch.setattr(bounds, "all_lambda_permutations", unlisted)
    with pytest.raises(WorkLimitExceeded, match="^words over 256 positions are not counted$"):
        exact_max_size(n, n, 3)


def test_exact_one_symbol_space_at_the_position_limit():
    result = exact_max_size(256, 256, 3)
    assert (result.proven, tuples(result.array.rows)) == (True, ((0,) * 256,))


@pytest.mark.parametrize("n,lam", [(4, 1), (4, 2), (6, 3), (3, 3)])
def test_vertex_budget_is_exact_at_the_word_count(n, lam):
    total = count_all(n, lam)
    assert exact_max_size(n, lam, 2, vertex_budget=total).proven
    if total > 1:
        with pytest.raises(WorkLimitExceeded, match=f"vertex_budget {total - 1}$"):
            exact_max_size(n, lam, 2, vertex_budget=total - 1)


def test_negative_budgets_are_refused():
    for call in (exact_max_size, bounds_report):
        with pytest.raises(ValueError, match=r"^node_budget must be >= 0, got -1$"):
            call(6, 1, 5, node_budget=-1)
        with pytest.raises(ValueError, match=r"^vertex_budget must be >= 0, got -5$"):
            call(6, 1, 5, vertex_budget=-5)
    result = exact_max_size(6, 1, 5, node_budget=0)
    assert not result.proven and result.value >= 2


def test_exact_node_budget_degrades_to_unproven():
    result = exact_max_size(6, 1, 5, node_budget=50)
    assert not result.proven
    assert result.value >= 2  # incumbent from the greedy pass survives
    fpa = FrequencyPermutationArray(6, 1, result.array.rows, 5)
    assert fpa == result.array and verify(fpa).valid


def test_exact_search_is_deterministic():
    a = exact_max_size(6, 2, 4)
    b = exact_max_size(6, 2, 4)
    assert a == b
    assert a.value == 15 and a.proven


def _bron_kerbosch_max(adj: dict[int, set[int]]) -> int:
    """Largest maximal clique, listing every maximal clique (Tomita pivot)."""
    best = 0

    def rec(size: int, p: set[int], x: set[int]) -> None:
        nonlocal best
        if not p and not x:
            best = max(best, size)
            return
        pivot = max(p | x, key=lambda u: len(p & adj[u]))
        for v in list(p - adj[pivot]):
            rec(size + 1, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    rec(0, set(adj), set())
    return best


def _small_spaces():
    """Every (n, lam, d) with at most 24 words, apart from the one-word
    spaces lam = n; beyond n = 8 only those have so few words."""
    for n in range(2, 9):
        for lam in range(1, n):
            if n % lam == 0 and count_all(n, lam) <= 24:
                for d in range(1, n + 1):
                    yield n, lam, d


def test_exact_matches_an_unpruned_bron_kerbosch():
    checked = 0
    for n, lam, d in _small_spaces():
        m = n // lam
        base = [s for s in range(m) for _ in range(lam)]
        words = sorted(set(itertools.permutations(base)))
        adj = {
            i: {j for j, b in enumerate(words)
                if sum(x != y for x, y in zip(a, b)) >= d}
            for i, a in enumerate(words)
        }
        result = exact_max_size(n, lam, d)
        assert result.proven, (n, lam, d)
        assert result.value == _bron_kerbosch_max(adj), (n, lam, d)
        fpa = FrequencyPermutationArray(m, lam, result.array.rows, d)
        assert fpa == result.array and verify(fpa).valid and fpa.size == result.value, (n, lam, d)
        checked += 1
    assert checked == 19  # (2,1), (3,1), (4,1), (4,2) and (6,3) at every d


@pytest.mark.parametrize("block_cells", [10_000_000, 10])
def test_adjacency_bitsets_match_pairwise_distances(monkeypatch, block_cells):
    # 10 cells stream one or two rows per block, so rows fill piecewise
    monkeypatch.setattr(core, "_BLOCK_CELLS", block_cells)
    for m, lam in ((3, 1), (4, 1), (3, 2), (2, 3), (2, 4)):
        words = list(all_lambda_permutations(m, lam))
        for d in range(1, m * lam + 1):
            want = [
                sum(1 << u for u, b in enumerate(words)
                    if sum(x != y for x, y in zip(a, b)) >= d)
                for a in words
            ]
            assert _adjacency(words, d) == _flip(want), (m, lam, d)


def _flip(masks: list[int]) -> list[int]:
    """Neighbour bitsets (vertex u at bit u) to the search's table, and back.

    Entry i of the table is the open non-neighbour mask of vertex V-1-i,
    with vertex u at bit V-1-u, so the map is its own inverse.
    """
    size = len(masks)
    full = (1 << size) - 1
    return [
        int(f"{full & ~masks[u] & ~(1 << u):0{size}b}"[::-1], 2)
        for u in reversed(range(size))
    ]


def _vertices(bits: list[int], size: int) -> list[int]:
    """The search's bits as vertex indices: bit i holds vertex size-1-i."""
    return [size - 1 - i for i in bits]


def _clique_search_reference(adj: list[int], state: dict, node_budget: int) -> None:
    """Reference search on neighbour bitsets, vertex u at bit u.

    It colours every class and tests every vertex against k_min;
    `_clique_search` must visit the same nodes and find the same cliques.
    """
    state["nodes"], state["aborted"] = 0, False

    def bits(p: int) -> list[int]:
        return [u for u in range(p.bit_length()) if p >> u & 1]

    def branches(p: int, k_min: int) -> list[tuple[int, int]]:
        out = []
        colour = 0
        while p:
            colour += 1
            avail = p
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~adj[v]
                avail ^= low
                p ^= low
                if colour >= k_min:
                    out.append((v, colour))
        return out

    clique: list[int] = []
    frames: list[list] = []
    p = (1 << len(adj)) - 1
    while True:
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            state["aborted"] = True
            return
        size = len(clique)
        if not p:
            if size > len(state["best"]):
                state["best"] = list(clique)
        elif size + p.bit_count() > len(state["best"]):
            todo = branches(p, len(state["best"]) - size + 1)
            if todo and todo[-1][1] == p.bit_count():
                state["best"] = clique + bits(p)
            else:
                frames.append([p, todo])
        while frames:
            depth = len(frames) - 1
            frame = frames[-1]
            todo = frame[1]
            if todo and depth + todo[-1][1] > len(state["best"]):
                v = todo.pop()[0]
                del clique[depth:]
                clique.append(v)
                p = frame[0] & adj[v]
                frame[0] ^= 1 << v
                break
            frames.pop()
        else:
            return


def _max_candidates_reference(adj: list[int], steps: list | None = None) -> list[int]:
    """The incumbent rule as a plain loop: recount every candidate each step.

    steps, if given, gains (candidates that stay, candidates that leave,
    the pick included) for each pick.
    """
    clique: list[int] = []
    p = (1 << len(adj)) - 1
    while p:
        cand = [u for u in range(len(adj)) if p >> u & 1]
        keeps = [(p & adj[u]).bit_count() for u in cand]
        if min(keeps) == len(cand) - 1:
            return clique + cand
        v = cand[keeps.index(max(keeps))]
        clique.append(v)
        p &= adj[v]
        if steps is not None:
            steps.append((p.bit_count(), len(cand) - p.bit_count()))
    return clique


def test_incumbent_matches_the_loop_rule_on_word_spaces():
    # up to 455 candidates leave at one step of (6,1), over several row
    # blocks; for lambda >= 2 the ties fall among words that are not
    # permutations
    for n, lam, d_min in [(6, 1, 2), (6, 2, 3), (6, 3, 3), (8, 4, 3), (9, 3, 3), (12, 6, 3)]:
        words = list(all_lambda_permutations(n // lam, lam))
        for d in range(d_min, n + 1):
            non = _adjacency(words, d)
            got = _vertices(_greedy_clique(non), len(words))
            assert got == _max_candidates_reference(_flip(non)), (n, lam, d)


@pytest.mark.parametrize(
    "n, d, size, digest",
    [
        (7, 3, 2520, "8b97bf158b2501ecd7d8afe5c0420a33b21a65963681ce61566290ddeb4786b2"),
        (6, 3, 360, "b763cfa161aa7ef9d76c322c6186063b77f3501d178adf90ea72fb01e8ab776e"),
    ],
)
def test_incumbent_pins(n, d, size, digest):
    # the picks in order, as the greedy pass that unpacked all V bits per
    # pick took them
    picks = _greedy_clique(_adjacency(list(all_lambda_permutations(n, 1)), d))
    assert len(picks) == size
    assert hashlib.sha256(repr(picks).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, d, recounts", [(7, 7, True), (6, 3, False)])
def test_incumbent_updates_its_counts_from_the_smaller_side(n, d, recounts):
    # a step recounts the candidates that stay when fewer stay than leave,
    # and otherwise unpacks each mask that leaves once
    unpacked: list[int] = []

    class Mask(int):
        def to_bytes(self, *args, **kwargs):
            unpacked.append(int(self))
            return int.to_bytes(self, *args, **kwargs)

    words = list(all_lambda_permutations(n, 1))
    non = [Mask(x) for x in _adjacency(words, d)]
    steps: list[tuple[int, int]] = []
    want = _max_candidates_reference(_flip(non), steps)
    assert _vertices(_greedy_clique(non), len(words)) == want
    assert len(unpacked) == sum(gone for stay, gone in steps if stay >= gone)
    # every step of (7,1,7) recounts, and every step of (6,1,3) unpacks
    assert {stay < gone for stay, gone in steps} == {recounts}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_clique_search_matches_bron_kerbosch_on_random_graphs(data):
    # On the word spaces above the first incumbent is already optimal, so
    # random graphs are what make the branch and bound find better cliques.
    size = data.draw(st.integers(1, 18), label="vertices")
    pairs = list(itertools.combinations(range(size), 2))
    edges = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = {v: set() for v in range(size)}
    for (a, b), edge in zip(pairs, edges):
        if edge:
            adj[a].add(b)
            adj[b].add(a)
    bitsets = [sum(1 << u for u in adj[v]) for v in range(size)]
    non = _flip(bitsets)
    want = _bron_kerbosch_max(adj)
    greedy = _vertices(_greedy_clique(non), size)
    assert greedy == _max_candidates_reference(bitsets)
    assert all(b in adj[a] for a, b in itertools.combinations(greedy, 2))
    for incumbent in ([], greedy):
        state = {"best": _vertices(incumbent, size)}
        _clique_search(_masks(list(non)), state, node_budget=10**6)
        assert not state["aborted"]
        best = _vertices(state["best"], size)
        assert len(best) == want
        assert all(b in adj[a] for a, b in itertools.combinations(best, 2))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_clique_search_visits_the_reference_nodes(data):
    # budgets up to 500 make many searches abort partway
    size = data.draw(st.integers(1, 40), label="vertices")
    density = data.draw(st.sampled_from([0.2, 0.5, 0.8, 0.95]), label="density")
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    bitsets = [0] * size
    for a, b in itertools.combinations(range(size), 2):
        if rng.random() < density:
            bitsets[a] |= 1 << b
            bitsets[b] |= 1 << a
    budget = data.draw(st.integers(0, 500), label="budget")
    non = _flip(bitsets)
    for incumbent in ([], _max_candidates_reference(bitsets)):
        want = {"best": list(incumbent)}
        _clique_search_reference(bitsets, want, budget)
        got = {"best": _vertices(incumbent, size)}
        _clique_search(_masks(list(non)), got, budget)
        assert got["nodes"] == want["nodes"]
        assert got["aborted"] == want["aborted"]
        assert set(_vertices(got["best"], size)) == set(want["best"])


# sha256 of the witness's sorted rows, one line each, symbols joined by spaces
_WITNESS_SHA256 = {
    (6, 1, 5, 60_000): "43a8a573c20485330a49786659a93f69660d623dda6d58eac77156aab0e51613",
    (6, 2, 5, 200_000): "bfa097feaafec54e001ddb3f470feac12c332ca12d7ec5b9726f7f8d6ec0f94d",
    (8, 4, 3, 200_000): "983ce1755217c0d9e82ca425053b235217f3c52e6cc32d7e416d1f30065e71fa",
    (9, 3, 6, 20_000): "143a100f81e64392023af08a518ef1a82a069a9ac652dbacb5182540b01da6a5",
    (8, 2, 4, 20_000): "3ebadb3a0ca362848043df0dd671d20cd2227dfdd3a613b7f35c82930cd9a051",
    (8, 2, 5, 20_000): "a6eae878897c2955bd4ac030efa4c470d15731dd4e42862fe7bd32cc5993e1d8",
    (8, 2, 3, 5_000): "6eff6ef211227b6505869e9f80e560747ba6007caca87bbec6dc3319390c0c8d",
    (9, 3, 3, 20_000): "43cd07f2cb31bf7c4b37b1f07888b412ccbbaa3923f506092799b81db023ec9b",
}


@pytest.mark.parametrize(
    "n, lam, d, budget, nodes, best, aborted",
    [
        (6, 1, 5, 60_000, 60_001, 18, True),
        (6, 2, 5, 200_000, 529, 3, False),
        (8, 4, 3, 200_000, 115, 14, False),
        (9, 3, 6, 20_000, 20_001, 24, True),
        (8, 2, 4, 20_000, 20_001, 134, True),
        (8, 2, 5, 20_000, 20_001, 36, True),
        (8, 2, 3, 5_000, 5_001, 662, True),
        (9, 3, 3, 20_000, 20_001, 236, True),
    ],
)
def test_word_space_search_pins(n, lam, d, budget, nodes, best, aborted):
    # measured with the neighbour-bitset search, from the greedy incumbent
    words = list(all_lambda_permutations(n // lam, lam))
    non = _adjacency(words, d)
    state = {"best": _greedy_clique(non)}
    _clique_search(_masks(list(non)), state, budget)
    assert (state["nodes"], len(state["best"]), state["aborted"]) == (nodes, best, aborted)
    rows = [words[v] for v in _vertices(state["best"], len(words))]
    assert all(
        sum(x != y for x, y in zip(a, b)) >= d for a, b in itertools.combinations(rows, 2)
    )
    text = "".join(" ".join(map(str, row)) + "\n" for row in sorted(rows))
    assert hashlib.sha256(text.encode()).hexdigest() == _WITNESS_SHA256[n, lam, d, budget]


def test_masks_pack_non_neighbours_over_the_other_vertices():
    # vertices 0 and 2 are the only non-adjacent pair; full = 0b111
    non = [0b100, 0b000, 0b001]
    assert _masks(non) is non
    assert non == [0b100_110, 0b000_101, 0b001_011]


def test_search_of_the_largest_word_space_keeps_one_table():
    # 5 040 masks of 10 080 bits take 6.4 MB; a second table beside them
    # (the non-neighbour masks, or one bit per vertex) would pass 8 MB
    tracemalloc.start()
    try:
        result = exact_max_size(7, 1, 7, vertex_budget=6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.value, result.proven) == (7, True)
    assert peak < 8_000_000


def test_exact_proves_six_one_four_at_the_root():
    # the first incumbent already has the 120 rows the root colouring allows
    result = exact_max_size(6, 1, 4, node_budget=1)
    assert (result.value, result.proven) == (120, True)


# ---------------------------------------------------------------------------
# the aggregated report


def test_report_pins_for_six_three_four():
    report = bounds_report(6, 3, 4, with_exact=True)
    assert isinstance(report, BoundsReport)
    assert (report.n, report.m, report.lam, report.d) == (6, 2, 3, 4)
    assert report.total == 20
    assert (report.gv_lower, report.hamming_upper) == (2, 20)
    assert (report.plotkin_upper, report.trivial_upper) == (4, 40)
    assert (report.exact_value, report.exact_proven) == (4, True)
    assert report.best_upper() == 4


def test_report_distance_two_needs_no_search():
    report = bounds_report(10, 5, 2)  # far beyond any search budget
    assert (report.exact_value, report.exact_proven) == (count_all(10, 5), True)


def test_report_odd_distance_is_exact_and_plotkin_bounded():
    report = bounds_report(4, 2, 3, with_exact=True)
    # balanced binary words sit at even distances, so d=3 behaves like d=4
    assert (report.exact_value, report.exact_proven) == (2, True)
    assert report.best_upper() == 3  # Plotkin: 3 // (3 - 4 + 2)


def test_report_without_exact_leaves_search_fields_empty():
    report = bounds_report(6, 3, 4)
    assert report.exact_value is None
    assert report.exact_proven is None


def test_report_survives_budget_exhaustion():
    report = bounds_report(8, 2, 4, with_exact=True, vertex_budget=100)
    assert report.exact_value is None  # search skipped, bounds still present
    assert report.gv_lower >= 1
    assert report.hamming_upper >= report.gv_lower
