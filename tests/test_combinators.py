"""Array-to-array transforms: padding, splitting, products, class products."""

import dataclasses
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fparray import combinators, core
from fparray import (
    FrequencyPermutationArray,
    SeparableArray,
    all_lambda_permutations,
    canonical_max_distance_fpa,
    compose_columns,
    count_all,
    direct_product,
    expand_to_pa,
    fpa_from_hadamard,
    fpa_from_mofs,
    fpa_from_oa,
    hadamard_matrix,
    juxtapose,
    mols_from_field,
    oa_from_mols,
    pad,
    reduce_mod,
    refine,
    sep_product,
    separable_from_mols,
    verify,
)
from fixtures import (
    CLASS_PRODUCT_FIRST8,
    DOUBLED_12_FIRST4,
    FULL_SPLIT_DISPLAY,
    HALF_SPLIT_DISPLAY,
    THREE_ROUTE_9_6,
    tuples,
)


def _nine_column_array() -> FrequencyPermutationArray:
    return FrequencyPermutationArray(3, 3, THREE_ROUTE_9_6, 6)


def _four_doubled_rows() -> FrequencyPermutationArray:
    return FrequencyPermutationArray(2, 6, DOUBLED_12_FIRST4, 6)


# ---------------------------------------------------------------------------
# pad / juxtapose


def test_pad_appends_a_fresh_symbol():
    out = pad(_nine_column_array())
    assert (out.n, out.m, out.lam, out.min_distance_claim, out.size) == (12, 4, 3, 6, 4)
    assert all(row[9:] == (3, 3, 3) for row in tuples(out.rows))
    assert verify(out).valid


def test_juxtapose_adds_lengths_and_claims():
    a = _nine_column_array()
    out = juxtapose(a, a)
    assert (out.n, out.m, out.lam, out.min_distance_claim, out.size) == (18, 3, 6, 12, 4)
    assert verify(out).valid


def test_juxtapose_rejects_symbol_mismatch():
    a = _nine_column_array()
    b = fpa_from_hadamard(hadamard_matrix(4))
    with pytest.raises(ValueError):
        juxtapose(a, b)


# ---------------------------------------------------------------------------
# symbol splitting: refine and expand_to_pa


def test_refine_reproduces_the_half_split_display():
    out = refine(_four_doubled_rows(), 3)
    assert (out.n, out.m, out.lam, out.min_distance_claim, out.size) == (12, 4, 3, 6, 8)
    assert verify(out).valid
    # the displayed rows are the unshifted substitution of each source row,
    # printed 1-based; each source row contributes lam/l = 2 output rows
    unshifted = tuples(out.rows[0::2])
    expected = tuple(tuple(e - 1 for e in row) for row in HALF_SPLIT_DISPLAY)
    assert unshifted == expected


def test_expand_reproduces_the_full_split_display():
    out = expand_to_pa(_four_doubled_rows())
    assert (out.n, out.m, out.lam, out.min_distance_claim, out.size) == (12, 12, 1, 6, 24)
    assert verify(out).valid
    unshifted = tuples(out.rows[0::6])
    expected = tuple(tuple(e - 1 for e in row) for row in FULL_SPLIT_DISPLAY)
    assert unshifted == expected


def test_refine_identity_and_expand_agreement():
    a = _nine_column_array()
    assert np.array_equal(refine(a, a.lam).rows, a.rows)
    assert refine(a, 1) == expand_to_pa(a)


def _occurrence_indices(symbols, m):
    """Occurrence index of each entry: how often its symbol appeared before."""
    seen = [0] * m
    out = []
    for s in symbols:
        out.append(seen[s])
        seen[s] += 1
    return out


def _refine_per_symbol(a, l):
    """refine as a per-symbol loop: the canonical max-distance array over
    lam/l symbols, applied row by row to occurrence indices."""
    per = a.lam // l
    patterns = tuples(canonical_max_distance_fpa(per, l).rows)
    rows = []
    for row in tuples(a.rows):
        occ = _occurrence_indices(row, a.m)
        for pattern in patterns:
            rows.append(tuple(s * per + pattern[j] for s, j in zip(row, occ)))
    return tuple(rows)


def _draw_words(data, m, lam):
    base = [s for s in range(m) for _ in range(lam)]
    return data.draw(st.lists(st.permutations(base), max_size=6), label="rows")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_expand_matches_a_per_symbol_loop(data):
    m = data.draw(st.integers(1, 4), label="m")
    lam = data.draw(st.integers(1, 4), label="lam")
    a = FrequencyPermutationArray(m, lam, _draw_words(data, m, lam), 1)
    out = expand_to_pa(a)
    assert tuples(out.rows) == _refine_per_symbol(a, 1)
    assert (out.m, out.lam, out.min_distance_claim) == (m * lam, 1, 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_refine_matches_a_per_symbol_loop(data):
    m = data.draw(st.integers(1, 4), label="m")
    lam = data.draw(st.sampled_from([1, 2, 3, 4, 6]), label="lam")
    a = FrequencyPermutationArray(m, lam, _draw_words(data, m, lam), 2)
    for l in (f for f in range(1, lam + 1) if lam % f == 0):
        out = refine(a, l)
        assert tuples(out.rows) == _refine_per_symbol(a, l)
        assert (out.m, out.lam, out.min_distance_claim) == (m * lam // l, l, 2)


def _compose_per_symbol(fpas, c):
    """compose_columns as a per-symbol loop over the coarse rows."""
    m, depth = fpas[0].m, min(f.size for f in fpas)
    rows = []
    for crow in tuples(c.rows):
        occ = _occurrence_indices(crow, len(fpas))
        for j in range(depth):
            rows.append(tuple(int(fpas[i].rows[j, t]) + i * m for i, t in zip(crow, occ)))
    return tuple(rows)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_columns_matches_a_per_symbol_loop(data):
    b = data.draw(st.integers(1, 3), label="b")
    m = data.draw(st.integers(1, 3), label="m")
    lam = data.draw(st.integers(1, 3), label="lam")
    fpas = [
        FrequencyPermutationArray(m, lam, _draw_words(data, m, lam), 1)
        for _ in range(b)
    ]
    coarse = FrequencyPermutationArray(b, m * lam, _draw_words(data, b, m * lam), b)
    out = compose_columns(fpas, coarse)
    assert tuples(out.rows) == _compose_per_symbol(fpas, coarse)
    assert (out.m, out.lam, out.min_distance_claim) == (b * m, lam, b)


def _bad_substitutions(bad):
    """Each substitution, fed [(0, 1, 1, 0), bad] as a 2-symbol, lam = 2
    array: as its input, its coarse array, or every ingredient."""
    rows = [(0, 1, 1, 0), bad]
    a = FrequencyPermutationArray(2, 2, rows, 2)
    pairs = FrequencyPermutationArray(2, 1, [(0, 1), (1, 0)], 1)
    coarse = canonical_max_distance_fpa(2, 4)
    return {
        "expand_to_pa": lambda: expand_to_pa(a),
        "refine": lambda: refine(a, 1),
        "compose_columns coarse": lambda: compose_columns([pairs, pairs], a),
        "compose_columns ingredient": lambda: compose_columns([a, a], coarse),
    }


@pytest.mark.parametrize(
    "bad", [(0, -1, 1, 0), (0, 2, 1, 1), (0, 0, 0, 1), (0, 1, 1), (0, 2**70, 1, 1)]
)
def test_expand_refuses_rows_that_are_not_lambda_permutations(bad):
    # a row of another length or with a symbol outside 0..m-1 is refused as
    # the array is built, before any substitution; a negative symbol once
    # wrapped to the last occurrence count and a symbol >= m raised IndexError
    stray = [s for s in bad if not 0 <= s < 2]
    if len(bad) != 4 or stray:
        why = f"has length {len(bad)}, expected 4" if len(bad) != 4 else (
            f"holds symbol {stray[0]}, outside 0..1"
        )
        with pytest.raises(ValueError, match=f"^row 1 {why}$"):
            FrequencyPermutationArray(2, 2, [(0, 1, 1, 0), bad], 2)
        return
    for name, substitute in _bad_substitutions(bad).items():
        with pytest.raises(ValueError, match="row 1 "):
            substitute()
            pytest.fail(f"{name} accepted {bad}")
    # a bad ingredient row is named with the ingredient that holds it
    a = FrequencyPermutationArray(2, 2, [(0, 1, 1, 0), bad], 2)
    good = FrequencyPermutationArray(2, 2, [(0, 1, 1, 0), (1, 0, 0, 1)], 2)
    for ingredients, holder in (([good, a], 1), ([a, good], 0), ([good, good, a], 2)):
        coarse = canonical_max_distance_fpa(len(ingredients), 4)
        with pytest.raises(ValueError, match=f"^ingredient {holder} row 1 "):
            compose_columns(ingredients, coarse)


def test_refine_requires_a_divisor_frequency():
    with pytest.raises(ValueError):
        refine(_four_doubled_rows(), 4)


def test_split_pipeline_scales_22_to_44_to_132():
    doubled = fpa_from_hadamard(hadamard_matrix(12))
    assert doubled.size == 22
    half = refine(doubled, 3)
    assert (half.n, half.m, half.lam, half.size) == (12, 4, 3, 44)
    full = expand_to_pa(half)
    assert (full.n, full.m, full.lam, full.size) == (12, 12, 1, 132)
    for stage in (doubled, half, full):
        report = verify(stage)
        assert report.valid and report.actual_min_distance >= 6


# ---------------------------------------------------------------------------
# symbol merging: reduce_mod


def test_reduce_mod_on_a_strength_two_derived_array():
    a = fpa_from_oa(oa_from_mols(mols_from_field(4)))
    assert (a.n, a.m, a.lam, a.min_distance_claim, a.size) == (16, 4, 4, 12, 5)
    out = reduce_mod(a, 2)
    assert (out.n, out.m, out.lam, out.min_distance_claim, out.size) == (16, 2, 8, 8, 5)
    report = verify(out)
    assert report.valid and report.equidistant
    assert report.actual_min_distance == 8


def test_reduce_mod_preconditions():
    a = fpa_from_oa(oa_from_mols(mols_from_field(4)))
    with pytest.raises(ValueError):
        reduce_mod(a, 3)  # 3 does not divide m = 4
    with pytest.raises(ValueError):
        reduce_mod(a, 1)  # all rows would collapse
    uneven = fpa_from_hadamard(hadamard_matrix(12))
    with pytest.raises(ValueError):
        reduce_mod(uneven, 2)  # no constant pair profile


# ---------------------------------------------------------------------------
# column composition and direct products


def test_compose_columns_on_canonical_ingredients():
    ingredient = canonical_max_distance_fpa(2, 2)  # 2 rows, distance 4
    coarse = canonical_max_distance_fpa(3, 4)  # 3 rows, distance 12
    out = compose_columns([ingredient] * 3, coarse)
    assert (out.n, out.m, out.lam, out.min_distance_claim, out.size) == (12, 6, 2, 12, 6)
    report = verify(out)
    assert report.valid and report.actual_min_distance == 12


def test_compose_columns_preconditions():
    ingredient = canonical_max_distance_fpa(2, 2)
    coarse = canonical_max_distance_fpa(3, 4)
    with pytest.raises(ValueError):
        compose_columns([], coarse)
    with pytest.raises(ValueError):
        compose_columns([ingredient, canonical_max_distance_fpa(2, 3)], coarse)
    with pytest.raises(ValueError):
        compose_columns([ingredient] * 2, coarse)  # coarse uses 3 symbols, not 2
    weak = FrequencyPermutationArray(3, 4, coarse.rows, 11)
    with pytest.raises(ValueError):
        compose_columns([ingredient] * 3, weak)  # claim 11 < b * d = 12


def test_direct_product_small():
    a = canonical_max_distance_fpa(2, 2)
    b = fpa_from_hadamard(hadamard_matrix(4))
    out = direct_product(a, b)
    assert (out.n, out.m, out.lam, out.min_distance_claim, out.size) == (8, 4, 2, 2, 12)
    assert verify(out).valid
    with pytest.raises(ValueError):
        direct_product(a, _nine_column_array())  # frequencies differ


def test_direct_product_squares_the_doubling_route():
    h = fpa_from_hadamard(hadamard_matrix(12))
    out = direct_product(h, h)
    assert (out.n, out.m, out.lam, out.min_distance_claim) == (24, 4, 6, 6)
    assert out.size == 22 * 22 == 484
    report = verify(out)
    assert report.valid and report.actual_min_distance == 6


def _product_per_row(a, b):
    return tuple(ra + tuple(s + a.m for s in rb) for ra in tuples(a.rows) for rb in tuples(b.rows))


def test_direct_product_matches_a_per_row_loop():
    a = canonical_max_distance_fpa(3, 2)
    b = fpa_from_hadamard(hadamard_matrix(4))
    assert tuples(direct_product(a, b).rows) == _product_per_row(a, b)
    # in-range rows that are not lam-permutations are concatenated as they are
    flat = FrequencyPermutationArray(2, 1, [(0, 0), (1, 1), (0, 1)], 1)
    pairs = FrequencyPermutationArray(2, 1, [(0, 1), (1, 0)], 1)
    for x, y in ((flat, pairs), (pairs, flat), (flat, flat)):
        assert tuples(direct_product(x, y).rows) == _product_per_row(x, y)
    # an input with a symbol outside 0..m-1 is refused before any product
    for rows, symbol in (([(0, 5), (1, -1)], 5), ([(0, 1), (1, -1)], -1)):
        with pytest.raises(ValueError, match=f"holds symbol {symbol}, outside 0..1$"):
            FrequencyPermutationArray(2, 1, rows, 1)


def test_direct_product_cell_limit_boundary():
    a = fpa_from_hadamard(hadamard_matrix(8))  # 14 rows of 8
    b = canonical_max_distance_fpa(2, 4)  # 2 rows of 8
    cells = 14 * 2 * 16

    def no_rows(*args):
        raise AssertionError("rows built before the refusal")

    with mock.patch.object(combinators, "_PRODUCT_CELLS", cells):
        assert tuples(direct_product(a, b).rows) == _product_per_row(a, b)
    with mock.patch.object(combinators, "_PRODUCT_CELLS", cells - 1), \
            mock.patch.object(combinators, "_concatenations", no_rows):
        with pytest.raises(core.WorkLimitExceeded, match=f"is {cells} cells, over the limit"):
            direct_product(a, b)
    # the order-32 array with itself: 3 844 rows of 64
    assert 62 * 62 * 64 <= combinators._PRODUCT_CELLS


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combinator_output_matrices_are_their_label_matrices(data):
    # refine, compose_columns and direct_product hand their numpy rows to
    # the array; what it keeps must be the label matrix the same rows as
    # tuples give
    m = data.draw(st.integers(1, 3), label="m")
    lam = data.draw(st.sampled_from([1, 2, 4]), label="lam")
    a = FrequencyPermutationArray(m, lam, _draw_words(data, m, lam), 1)
    b = FrequencyPermutationArray(2, lam, _draw_words(data, 2, lam), 1)
    coarse = FrequencyPermutationArray(2, m * lam, _draw_words(data, 2, m * lam), 2)
    outs = [refine(a, l) for l in (1, lam)]
    outs += [compose_columns([a, a], coarse), direct_product(a, b)]
    for out in outs:
        same = FrequencyPermutationArray(out.m, out.lam, tuples(out.rows), out.min_distance_claim)
        assert out.rows.dtype == same.rows.dtype == core._label_dtype(out.m)
        assert out.rows.shape == (out.size, out.n) and not out.rows.flags.writeable
        assert out == same and verify(out) == verify(same)


# ---------------------------------------------------------------------------
# separable arrays and their class-wise product


def test_separable_split_of_an_equidistant_array():
    a = _nine_column_array()
    sep = SeparableArray.from_fpa(a, 2)
    assert (sep.num_classes, sep.sizes) == (2, (2, 2))
    assert sep.array is a
    assert (sep.array.n, sep.array.m, sep.array.lam, sep.delta, sep.d) == (9, 3, 3, 6, 6)
    with pytest.raises(ValueError):
        SeparableArray.from_fpa(_nine_column_array(), 3)  # 3 does not split 4 rows


def test_separable_split_refuses_rows_shorter_than_n():
    # n = 300 needs uint16 counts, but the rows hold 4 symbols; the array
    # refuses them before any split could count distances over them
    with pytest.raises(ValueError, match="^row 0 has length 4, expected 300$"):
        FrequencyPermutationArray(300, 1, ((0, 1, 2, 3), (1, 0, 3, 2)), 1)


def test_class_product_reproduces_the_48_row_listing():
    squares = mols_from_field(4)
    sep = separable_from_mols(squares)
    assert (sep.array.n, sep.array.m, sep.array.lam, sep.sizes) == (4, 4, 1, (4, 4, 4))
    assert (sep.delta, sep.d) == (4, 3)
    assert sep.array == fpa_from_mofs(squares)
    out = sep_product([sep, sep])
    assert (out.n, out.m, out.lam, out.min_distance_claim, out.size) == (8, 4, 2, 4, 48)
    assert tuples(out.rows[:8]) == CLASS_PRODUCT_FIRST8
    report = verify(out)
    assert report.valid and report.actual_min_distance == 4


def _class_rows(sep):
    """The rows of each class, cut from the array by the class sizes."""
    cuts = list(itertools.accumulate(sep.sizes, initial=0))
    return [tuples(sep.array.rows[x:y]) for x, y in zip(cuts, cuts[1:])]


def _class_product_loop(inputs):
    """The class product as one Python loop over itertools.product."""
    return tuple(
        tuple(sym for part in combo for sym in part)
        for j in range(min(s.num_classes for s in inputs))
        for combo in itertools.product(*(_class_rows(s)[j] for s in inputs))
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sep_product_matches_the_product_loop(data):
    # 1-3 inputs of unequal class counts and sizes, empty and one-row classes
    m, lam = data.draw(st.sampled_from([(2, 2), (3, 1), (2, 3), (3, 2)]), label="m, lam")
    n, words = m * lam, _words(m, lam)
    drawn = []
    for i in range(data.draw(st.integers(1, 3), label="inputs")):
        sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4), label=f"sizes{i}")
        assume(sum(sizes) <= len(words))
        rows = data.draw(st.permutations(words), label=f"rows{i}")[: sum(sizes)]
        cuts = list(itertools.accumulate(sizes, initial=0))
        delta = min(_brute_min(rows[x:y], n) for x, y in zip(cuts, cuts[1:]))
        d = _brute_min(rows, n)
        drawn.append((FrequencyPermutationArray(m, lam, rows, d), tuple(sizes), delta))
    inputs = [SeparableArray(a, sizes) for a, sizes, _ in drawn]
    assert [(s.d, s.delta) for s in inputs] == [(a.min_distance_claim, x) for a, _, x in drawn]
    assume(sum(s.d for s in inputs) >= min(s.delta for s in inputs))
    out = sep_product(inputs)
    assert tuples(out.rows) == _class_product_loop(inputs)
    assert (out.m, out.lam) == (m, lam * len(inputs))
    assert out.min_distance_claim == min(s.delta for s in inputs)
    assert out.rows.dtype == core._label_dtype(m) and out.rows.shape == (out.size, out.n)


def test_class_product_cell_limit_boundary():
    square = separable_from_mols(mols_from_field(4)).array.rows[:4]  # 4 rows at distance 4

    def first(k):
        return SeparableArray(FrequencyPermutationArray(4, 1, square[:k], 3), (k,))

    def no_rows(*args):
        raise AssertionError("rows built before the refusal")

    # 3 x 1 rows of 8 symbols: 24 cells; 4 x 1 rows is one row over
    with mock.patch.object(combinators, "_PRODUCT_CELLS", 24):
        inputs = [first(3), first(1)]
        assert tuples(sep_product(inputs).rows) == _class_product_loop(inputs)
        with mock.patch.object(combinators, "_concatenations", no_rows):
            with pytest.raises(
                core.WorkLimitExceeded,
                match="class product of 4 rows of 8 symbols is 32 cells, over the limit of 24",
            ):
                sep_product([first(4), first(1)])


def test_separable_checks_both_claims_with_one_row_and_empty_classes():
    a = _nine_column_array()  # 4 rows of 9, pairwise at distance 6

    def rows(k, d):
        return FrequencyPermutationArray(3, 3, a.rows[:k], d)

    sep = SeparableArray(a, (1, 0, 3))
    assert (sep.num_classes, sep.d, sep.delta) == (3, 6, 6)
    # a class of fewer than two rows is at distance n
    one = SeparableArray(rows(1, 9), (1, 0))
    assert (one.d, one.delta) == (9, 9)
    empty = SeparableArray(rows(0, 9), (0,))
    assert (empty.num_classes, empty.d, empty.delta) == (1, 9, 9)
    assert SeparableArray(a, (1, 1, 2)).delta == 6
    assert SeparableArray(a, (1, 1, 1, 1)).delta == 9  # every class is one row
    with pytest.raises(ValueError, match="class union fails at d=7"):
        SeparableArray(rows(4, 7), (1, 0, 3))
    twice = FrequencyPermutationArray(3, 3, tuples(a.rows[:1]) * 2, 0)
    with pytest.raises(ValueError, match="class union fails at d=0"):
        SeparableArray(twice, (1, 1))  # a row in two classes


def test_separable_measures_the_union_distance_not_the_header_claim():
    a = FrequencyPermutationArray(3, 3, THREE_ROUTE_9_6, 1)  # rows are at distance 6
    for sep in (SeparableArray(a, (4,)), SeparableArray.from_fpa(a, 2)):
        assert (sep.d, sep.delta, sep.array.min_distance_claim) == (6, 6, 1)
    overstated = FrequencyPermutationArray(3, 3, THREE_ROUTE_9_6, 7)
    with pytest.raises(ValueError, match="class union fails at d=7: .*distance 6 below claim 7"):
        SeparableArray.from_fpa(overstated, 2)


def test_separable_split_scans_each_class_once_and_the_union_once():
    # 12 rows of 4 symbols, in 3 classes: one union scan (inside verify)
    # and one scan per class, k + 1 = 4 in all
    a = fpa_from_mofs(mols_from_field(4))
    with mock.patch.object(core, "_distance_scan", wraps=core._distance_scan) as scan:
        sep = SeparableArray.from_fpa(a, 3)
    assert scan.call_count == 4
    assert (sep.d, sep.delta) == (3, 4)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((), "need at least one class"),
        ((2, -1, 3), "class sizes"),
        ((1, 2), "class sizes"),  # one short of the 4 rows
        ((1, 4), "class sizes"),  # one over
        pytest.param((1.5, 2.5), "^class sizes must be integers", id="sizes4-must be integers"),
        pytest.param(4, "^class sizes must be integers", id="4-must be integers"),
    ],
)
def test_separable_refuses_sizes_that_do_not_split_its_rows(sizes, message):
    with pytest.raises(ValueError, match=message):
        SeparableArray(_nine_column_array(), sizes)


def test_separable_sizes_are_read_as_ints():
    sep = SeparableArray(_nine_column_array(), np.array([1, 3]))
    assert sep.sizes == (1, 3) and all(type(x) is int for x in sep.sizes)
    fields = [(f.name, f.init) for f in dataclasses.fields(SeparableArray)]
    assert fields == [("array", True), ("sizes", True), ("d", False), ("delta", False)]


def test_separable_from_non_orthogonal_squares_names_the_pair():
    square = mols_from_field(5)[0]
    with pytest.raises(ValueError, match="squares 0 and 1 are not orthogonal"):
        separable_from_mols([square, square])


def test_class_product_preconditions():
    full = FrequencyPermutationArray(
        2, 2, sorted(all_lambda_permutations(2, 2)), 2
    )
    assert full.size == count_all(4, 2)
    singletons = SeparableArray.from_fpa(full, full.size)
    # one input with across-class distance 2 < vacuous within-class delta 4
    with pytest.raises(ValueError):
        sep_product([singletons])
    sep4 = separable_from_mols(mols_from_field(4))
    sep5 = separable_from_mols(mols_from_field(5))
    with pytest.raises(ValueError):
        sep_product([sep4, sep5])  # mismatched (n, m, lam)
    with pytest.raises(ValueError):
        sep_product([])


# ---------------------------------------------------------------------------
# hypothesis: every transform's claim verifies on random small arrays


@functools.lru_cache(maxsize=None)
def _words(m, lam):
    return list(all_lambda_permutations(m, lam))


def _brute_min(rows, n):
    return min(
        (sum(x != y for x, y in zip(a, b)) for a, b in itertools.combinations(rows, 2)),
        default=n,
    )


def _draw_array(data, m, lam, label):
    words = _words(m, lam)
    rows = data.draw(
        st.lists(st.sampled_from(words), min_size=1, max_size=min(5, len(words)), unique=True),
        label=label,
    )
    return FrequencyPermutationArray(m, lam, rows, _brute_min(rows, m * lam))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_transforms_keep_their_claims(data):
    m = data.draw(st.integers(2, 3), label="m")
    lam = data.draw(st.integers(1, 3), label="lam")
    a = _draw_array(data, m, lam, "a")
    same_m = _draw_array(data, m, data.draw(st.integers(1, 2), label="lam_b"), "b")
    same_lam = _draw_array(data, data.draw(st.integers(2, 3), label="m_c"), lam, "c")
    l = data.draw(st.sampled_from([f for f in range(1, lam + 1) if lam % f == 0]), label="l")

    for out, size in [
        (pad(a), a.size),
        (juxtapose(a, same_m), min(a.size, same_m.size)),
        (expand_to_pa(a), a.size * lam),
        (refine(a, l), a.size * (lam // l)),
        (direct_product(a, same_lam), a.size * same_lam.size),
    ]:
        assert out.size == size
        assert verify(out).reasons == ()

    k = data.draw(st.sampled_from([f for f in range(1, a.size + 1) if a.size % f == 0]), label="k")
    sep = SeparableArray.from_fpa(a, k)
    chunk = a.size // k
    classes = [a.rows[i : i + chunk] for i in range(0, a.size, chunk)]
    assert np.array_equal(sep.array.rows, a.rows) and sep.sizes == (chunk,) * k
    assert sep.d == a.min_distance_claim
    assert sep.delta == min(_brute_min(rows, a.n) for rows in classes)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_separable_distances_match_the_oracle_across_kernel_blocks(data):
    # 12 rows in classes of 3, streamed 1, 2, 4, 5 or 7 rows to a kernel
    # block, so classes straddle block edges
    rows = data.draw(
        st.lists(st.sampled_from(_words(4, 1)), min_size=12, max_size=12, unique=True),
        label="rows",
    )
    rows_per_block = data.draw(st.sampled_from([1, 2, 4, 5, 7]), label="rows_per_block")
    with mock.patch.object(core, "_BLOCK_CELLS", rows_per_block * len(rows)):
        sep = SeparableArray.from_fpa(FrequencyPermutationArray(4, 1, rows, 1), 4)
    assert sep.d == _brute_min(rows, 4)
    assert sep.delta == min(_brute_min(rows[k : k + 3], 4) for k in range(0, 12, 3))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduce_mod_keeps_its_claim(data):
    # strength-2 rows have the all-ones pair profile, under any relabelling
    q = data.draw(st.sampled_from([3, 4, 5, 8, 9]), label="q")
    rows = tuples(fpa_from_oa(oa_from_mols(mols_from_field(q))).rows)
    picked = data.draw(st.lists(st.sampled_from(rows), min_size=2, unique=True), label="rows")
    relabel = data.draw(st.permutations(range(q)), label="relabel")
    columns = data.draw(st.permutations(range(q * q)), label="columns")
    words = [[relabel[row[c]] for c in columns] for row in picked]
    a = FrequencyPermutationArray(q, q, words, _brute_min(words, q * q))
    r = data.draw(st.sampled_from([f for f in range(2, q + 1) if q % f == 0]), label="r")
    out = reduce_mod(a, r)
    assert (out.m, out.lam, out.size) == (r, q * q // r, a.size)
    assert out.min_distance_claim == q * q - q * q // r
    assert verify(out).reasons == ()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compose_columns_keeps_its_claim(data):
    b = data.draw(st.integers(1, 3), label="b")
    m = data.draw(st.integers(2, 3), label="m")
    lam = data.draw(st.integers(1, 2), label="lam")
    fpas = [_draw_array(data, m, lam, f"ingredient{i}") for i in range(b)]
    # coarse rows at full distance b*n stay so under a column permutation
    full = tuples(canonical_max_distance_fpa(b, m * lam).rows)
    picked = data.draw(st.lists(st.sampled_from(full), min_size=1, unique=True), label="coarse")
    columns = data.draw(st.permutations(range(b * m * lam)), label="columns")
    coarse = FrequencyPermutationArray(
        b, m * lam, [[row[c] for c in columns] for row in picked], b * m * lam
    )
    out = compose_columns(fpas, coarse)
    assert (out.m, out.lam) == (b * m, lam)
    assert out.size == coarse.size * min(f.size for f in fpas)
    assert verify(out).reasons == ()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sep_product_keeps_its_claim(data):
    m = data.draw(st.integers(2, 3), label="m")
    lam = data.draw(st.integers(1, 2), label="lam")
    inputs = []
    for i in range(data.draw(st.integers(1, 2), label="inputs")):
        a = _draw_array(data, m, lam, f"a{i}")
        k = data.draw(st.sampled_from([f for f in range(1, a.size + 1) if a.size % f == 0]))
        inputs.append(SeparableArray.from_fpa(a, k))
    delta = min(s.delta for s in inputs)
    assume(sum(s.d for s in inputs) >= delta)
    out = sep_product(inputs)
    classes = min(s.num_classes for s in inputs)
    size = sum(math.prod(s.sizes[j] for s in inputs) for j in range(classes))
    assert (out.m, out.lam, out.size) == (m, lam * len(inputs), size)
    assert out.min_distance_claim == delta
    assert verify(out).reasons == ()
