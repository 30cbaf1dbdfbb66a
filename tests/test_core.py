"""Core row/array model, distance scanning, and the verifier."""

import collections
import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fparray import (
    FrequencySquare,
    HadamardMatrix,
    LinearizedPolynomial,
    OrthogonalArray,
    Polynomial,
    ResolvableDesign,
    SeparableArray,
    core,
    direct_product,
    expand_to_pa,
    field_of_order,
    fpa_from_hadamard,
    fpa_from_mds,
    hadamard_matrix,
    matrix_rank,
)
from fparray.cli import formats
from fparray.core import (
    FrequencyPermutationArray,
    _pair_counts,
    all_lambda_permutations,
    canonical_max_distance_fpa,
    count_all,
    hamming_distance,
    is_lambda_permutation,
    min_distance,
    pair_profile,
    verify,
)
from fixtures import TWO_SYMBOL_6_4, tuples


def brute_min_distance(rows):
    return min(
        sum(x != y for x, y in zip(a, b)) for a, b in itertools.combinations(rows, 2)
    )


# ---------------------------------------------------------------------------
# rows


def test_is_lambda_permutation():
    assert is_lambda_permutation((0, 1, 0, 1), 2, 2)
    assert is_lambda_permutation((2, 1, 0), 3, 1)
    assert not is_lambda_permutation((0, 0, 0, 1), 2, 2)
    assert not is_lambda_permutation((0, 1, 2, 1), 2, 2)  # symbol out of range
    assert not is_lambda_permutation((0, 1), 2, 2)  # wrong length


def test_hamming_distance_basics():
    assert hamming_distance((0, 1, 2), (0, 2, 1)) == 2
    assert hamming_distance((0, 1), (0, 1)) == 0
    with pytest.raises(ValueError):
        hamming_distance((0, 1), (0, 1, 2))


def test_multipermutation_validity_and_distance():
    row = (0, 1, 1, 0)
    assert is_lambda_permutation(row, 2, 2)
    assert len(row) == 4
    assert hamming_distance(row, (1, 0, 0, 1)) == 4
    assert not is_lambda_permutation((0, 0, 0, 1), 2, 2)


def test_constructor_normalises_to_int_tuples():
    fpa = FrequencyPermutationArray(
        2, 2, [[0, 1, 1, 0], np.array([1, 0, 0, 1], dtype=np.int16)], 4
    )
    assert fpa.rows.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1]]
    assert fpa.rows.dtype == core._label_dtype(2) and not fpa.rows.flags.writeable
    assert (fpa.n, fpa.size) == (4, 2)


@pytest.mark.parametrize("symbol", [1.5, 1.0, "1", Fraction(1), None, [1]])
def test_non_integer_symbols_are_never_truncated(symbol):
    # int64 conversion would read each of these as 1 or fail; the gate
    # refuses them where they come in, and the predicate rejects the row
    rows = ((0, symbol), (1, 0))
    assert not is_lambda_permutation(rows[0], 2, 1)
    with pytest.raises(ValueError, match="symbols must be integers"):
        FrequencyPermutationArray(2, 1, rows, 2)
    with pytest.raises(ValueError, match="symbols must be integers"):
        ResolvableDesign(2, 2, (((0, symbol),),))


# Every entry point that takes integers from a caller, fed the symbol s
# where a valid input holds a 1; each returns the integers it stored, as
# a read-only label matrix or as int tuples.
GATED = {
    "FrequencyPermutationArray": lambda s: FrequencyPermutationArray(
        2, 1, ((0, s), (1, 0)), 2
    ).rows,
    # row 1 is a 1-D numpy bool array, whose scalars have no __index__
    "FrequencyPermutationArray.bool_row": lambda s: FrequencyPermutationArray(
        2, 1, ((0, s), np.array([True, False])), 2
    ).rows,
    "FrequencySquare": lambda s: FrequencySquare(2, 1, ((0, s), (s, 0))).cells,
    "FrequencySquare.from_cells": lambda s: FrequencySquare.from_cells([[0, s], [s, 0]]).cells,
    "OrthogonalArray": lambda s: OrthogonalArray(4, 2, ((0, 0, s, s), (0, s, 0, s))).rows,
    "ResolvableDesign": lambda s: ResolvableDesign(2, 2, (((0, s),),)).classes[0],
    "HadamardMatrix": lambda s: HadamardMatrix(((s, s), (1, -1))).rows,
    # the two polynomial records keep their ids; their constructors are the gate
    "Polynomial.of": lambda s: (Polynomial(field_of_order(3), [0, s]).coeffs,),
    "LinearizedPolynomial.of": lambda s: (
        LinearizedPolynomial(field_of_order(9), 3, [s, 0]).alphas,
    ),
    "matrix_rank": lambda s: ((matrix_rank(field_of_order(3), [[s, 0], [0, s]]),),),
    "fpa_from_mds": lambda s: fpa_from_mds(field_of_order(3), [[s, s, s], [0, s, 2]]).rows,
}


@pytest.mark.parametrize("symbol", [1.5, 1.0, "1", Fraction(1), None, [1]])
@pytest.mark.parametrize("entry", sorted(GATED))
def test_every_entry_point_refuses_non_integer_symbols(entry, symbol):
    with pytest.raises(ValueError, match="symbols must be integers"):
        GATED[entry](symbol)


@pytest.mark.parametrize("symbol", [np.int16(1), np.int64(1), True])
@pytest.mark.parametrize("entry", sorted(GATED))
def test_every_entry_point_stores_integer_types_as_ints(entry, symbol):
    stored = GATED[entry](symbol)
    if isinstance(stored, np.ndarray):  # every matrix here holds symbols below 4, or signs
        want = np.int8 if entry == "HadamardMatrix" else core._label_dtype(4)
        assert stored.dtype == want and not stored.flags.writeable
        stored = stored.tolist()
    else:
        stored = [list(row) for row in stored]
    assert stored == np.asarray(GATED[entry](1)).tolist()
    assert all(type(v) is int for row in stored for v in row)


# Each integer parameter of the four symbol records, with a record that is
# valid at `good`
RECORD_PARAMETERS = [
    ("array", "m", lambda x: FrequencyPermutationArray(x, 1, [(0, 1), (1, 0)], 2), 2),
    ("array", "lam", lambda x: FrequencyPermutationArray(2, x, [(0, 1), (1, 0)], 2), 1),
    (
        "array", "min_distance_claim",
        lambda x: FrequencyPermutationArray(2, 1, [(0, 1), (1, 0)], x), 2,
    ),
    ("square", "m", lambda x: FrequencySquare(x, 1, [(0, 1), (1, 0)]), 2),
    ("square", "lam", lambda x: FrequencySquare(2, x, [(0, 1), (1, 0)]), 1),
    ("oa", "v", lambda x: OrthogonalArray(x, 2, [(0, 0, 1, 1), (0, 1, 0, 1)]), 4),
    ("oa", "s", lambda x: OrthogonalArray(4, x, [(0, 0, 1, 1), (0, 1, 0, 1)]), 2),
    ("design", "v", lambda x: ResolvableDesign(x, 2, [[(0, 1)]]), 2),
    ("design", "k", lambda x: ResolvableDesign(2, x, [[(0, 1)]]), 2),
    (
        "design", "lambda_d",
        lambda x: ResolvableDesign(4, 2, [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]], x),
        1,
    ),
]


@pytest.mark.parametrize(
    "name, build, good", [(name, build, good) for _, name, build, good in RECORD_PARAMETERS],
    ids=[f"{record}-{name}" for record, name, _, _ in RECORD_PARAMETERS],
)
def test_record_parameters_must_be_integers(name, build, good):
    for bad in (float(good), good + 0.5, str(good), Fraction(good), [good]):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build(bad)
    if name != "lambda_d":  # lambda_d=None declares no pair cover
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got None$"):
            build(None)
    # numpy ints, and True for 1, are stored as the plain int
    for value in (np.int64(good), np.uint8(good), *([True] if good == 1 else [])):
        record = build(value)
        assert record == build(good) and type(getattr(record, name)) is int


# ---------------------------------------------------------------------------
# rows given as one numpy matrix


def _same_array(from_matrix, from_tuples):
    assert from_matrix.rows.tolist() == from_tuples.rows.tolist()
    assert from_matrix == from_tuples
    assert hash(from_matrix) == hash(from_tuples)
    assert repr(from_matrix) == repr(from_tuples)
    assert verify(from_matrix) == verify(from_tuples)
    for array in (from_matrix, from_tuples):
        assert array.rows.shape == (from_tuples.size, from_tuples.n)  # also for no rows
        assert array.rows.dtype == core._label_dtype(from_tuples.m)
        assert not array.rows.flags.writeable


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64, np.uint64])
def test_matrix_rows_match_tuple_rows(dtype):
    rows = [row for row in all_lambda_permutations(3, 2)][::7]
    mat = np.array(rows, dtype=dtype)
    _same_array(FrequencyPermutationArray(3, 2, mat, 2), FrequencyPermutationArray(3, 2, rows, 2))
    # the matrix is the rows field: == and replace see the four fields
    fields = [f.name for f in dataclasses.fields(FrequencyPermutationArray)]
    assert fields == ["m", "lam", "rows", "min_distance_claim"]
    assert dataclasses.replace(FrequencyPermutationArray(3, 2, mat, 2), m=6, lam=1).m == 6


@pytest.mark.parametrize(
    "dtype, cells",
    [
        (np.int8, [[0, 1, 1, 0], [0, -1, 1, 0], [1, 0, -128, 1]]),  # negative symbols
        (np.uint8, [[1, 0, 0, 1], [0, 2, 1, 0], [1, 255, 0, 1]]),  # symbols m or more
        (np.int32, [[0, 1, 1, 0], [0, -7, 9, 0], [0, 1, 1, 0]]),  # both, and a repeat
        (np.uint64, [[0, 0, 1, 1], [0, 2**64 - 1, 1, 1], [2**63, 0, 1, 0]]),  # past int64
        (np.int64, np.zeros((0, 4))),  # no rows
        (np.int64, np.zeros((3, 0))),  # rows of no symbols
        (np.int16, [[0, 1, 0], [1, 0, 1]]),  # rows of odd width
    ],
)
def test_matrix_rows_out_of_range_match_tuple_rows(dtype, cells):
    mat = np.array(cells, dtype=dtype)
    rows = [tuple(int(s) for s in row) for row in mat]
    width = mat.shape[1]
    if not width:  # no (m, lam) has n = 0: both are refused alike
        for given in (mat, rows):
            with pytest.raises(ValueError, match="^row 0 has length 0, expected 4$"):
                FrequencyPermutationArray(2, 2, given, 1)
        return
    m, lam = (2, width // 2) if width % 2 == 0 else (width, 1)
    # the first row with a symbol outside 0..m-1, and its first such symbol,
    # refuse the matrix and its tuples alike
    stray = [(i, s) for i, row in enumerate(rows) for s in row if not 0 <= s < m]
    if stray:
        (i, s), *_ = stray
        for given in (mat, rows):
            with pytest.raises(ValueError, match=f"^row {i} holds symbol {s}, outside 0..{m - 1}$"):
                FrequencyPermutationArray(m, lam, given, 1)
    held = [all(0 <= s < m for s in row) for row in rows]
    _same_array(
        FrequencyPermutationArray(m, lam, mat[held], 1),
        FrequencyPermutationArray(m, lam, [row for row, ok in zip(rows, held) if ok], 1),
    )


@pytest.mark.parametrize(
    "rows",
    [
        np.array([0, 1]),
        np.zeros((2, 1, 2), dtype=np.int64),
        np.array(1),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
    ],
    ids=["1-D", "3-D", "0-D", "float"],
)
def test_other_numpy_rows_are_read_symbol_by_symbol(rows):
    with pytest.raises(ValueError, match="symbols must be integers"):
        FrequencyPermutationArray(2, 1, rows, 2)


@pytest.mark.parametrize(
    "build, bools",
    [
        (lambda rows: FrequencyPermutationArray(2, 1, rows, 2), [[False, True], [True, False]]),
        (lambda rows: FrequencySquare(2, 1, rows), [[False, True], [True, False]]),
        (lambda rows: OrthogonalArray(4, 2, rows), [[False, False, True, True], [False, True] * 2]),
        (lambda rows: ResolvableDesign(2, 2, [rows]), [[False, True]]),
    ],
    ids=["array", "square", "oa", "design"],
)
def test_numpy_bool_matrices_are_read_like_bool_symbols(build, bools):
    ints = [[int(b) for b in row] for row in bools]
    bool_rows = [np.array(row) for row in bools]  # 1-D bool arrays pass `_ints`
    assert build(np.array(bools)) == build(bools) == build(ints) == build(bool_rows)
    with pytest.raises(ValueError, match="^row 0 holds symbol 1, outside 0..0$"):
        FrequencyPermutationArray(1, 2, np.array([[False, True]]), 0)


def test_an_array_built_from_a_matrix_makes_no_per_row_objects():
    # 4 032 rows of 64 symbols in int64: 2.06 MB.  The array keeps them as
    # one uint16 label matrix (0.52 MB) and nothing per row.
    source = expand_to_pa(fpa_from_hadamard(hadamard_matrix(64)))
    mat = source.rows.astype(np.int64)
    assert mat.shape == (4032, 64) and mat.nbytes == 2_064_384
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        array = FrequencyPermutationArray(source.m, source.lam, mat, source.min_distance_claim)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < mat.nbytes
    assert array == source and array.rows.nbytes == mat.nbytes // 4


def test_rows_given_as_a_generator_are_read_once():
    # the refusal names the row from the rows already read
    rows = [(0, 1), (1, 0)]
    assert FrequencyPermutationArray(2, 1, iter(rows), 2).rows.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="^row 1 holds symbol 5, outside 0..1$"):
        FrequencyPermutationArray(2, 1, iter([(0, 1), (1, 5)]), 2)
    with pytest.raises(ValueError, match="^row 1 has length 1, expected 2$"):
        FrequencyPermutationArray(2, 1, iter([(0, 1), (1,)]), 2)
    design = ResolvableDesign(4, 2, iter([[(0, 1), (2, 3)], iter([(0, 2), (1, 3)])]))
    assert design.classes.tolist() == [[[0, 1], [2, 3]], [[0, 2], [1, 3]]]


def test_matrix_rows_are_copied():
    mat = np.array([[0, 1, 1, 0], [1, 0, 0, 1]], dtype=np.int64)
    fpa = FrequencyPermutationArray(2, 2, mat, 4)
    before = verify(fpa)
    mat[1] = mat[0]  # a duplicate row, had the array kept the caller's matrix
    mat[0, 0] = 7
    assert fpa.rows.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1]]
    assert verify(fpa) == before and before.valid
    with pytest.raises(ValueError):
        fpa.rows[0, 0] = 1  # read-only
    assert min_distance(fpa) == 4


def test_every_record_matrix_is_rows_by_width():
    # no rows give a (0, width) matrix, from a list or from a numpy matrix
    records = [
        (FrequencyPermutationArray(3, 2, [], 1), (0, 6)),
        (FrequencyPermutationArray(3, 2, np.zeros((0, 6), dtype=np.int64), 1), (0, 6)),
        (formats.parse_fpa("#fpa v1\nn=6 lambda=2 m=3 d=1 size=0\n"), (0, 6)),
        (canonical_max_distance_fpa(3, 2), (3, 6)),
        (FrequencyPermutationArray(2, 1, [[0, 0], [1, 1]], 1), (2, 2)),
        (FrequencySquare(2, 1, np.array([[0, 1], [1, 0]])), (2, 2)),
        (OrthogonalArray(4, 2, []), (0, 4)),
        (OrthogonalArray(4, 2, [[0, 0, 1, 1], [0, 1, 0, 1]]), (2, 4)),
    ]
    for record, shape in records:
        matrix = record.cells if isinstance(record, FrequencySquare) else record.rows
        assert matrix.shape == shape
        assert not matrix.flags.writeable
    design = ResolvableDesign(4, 2, [[[0, 1], [2, 3]], np.array([[0, 2], [1, 3]])])
    assert design.classes.shape == (2, 2, 2) and not design.classes.flags.writeable
    assert design._block_index.shape == (2, 4)
    assert ResolvableDesign(4, 2, []).classes.shape == (0, 2, 2)
    assert ResolvableDesign(4, 2, [])._block_index.shape == (0, 4)
    # a numpy matrix one column short or long is refused by each record
    for width in (5, 7):
        with pytest.raises(ValueError, match=f"^row 0 has length {width}, expected 6$"):
            FrequencyPermutationArray(3, 2, np.zeros((2, width), dtype=np.int64), 1)
    for width in (3, 5):
        with pytest.raises(ValueError, match="^rows must form an r x v grid$"):
            OrthogonalArray(4, 2, np.zeros((2, width), dtype=np.int64))
        with pytest.raises(ValueError, match="^cells must form an n x n grid$"):
            FrequencySquare(2, 2, np.zeros((4, width), dtype=np.int64))
    for width in (1, 3):
        with pytest.raises(ValueError, match="^class 0 has a malformed block$"):
            ResolvableDesign(4, 2, [np.zeros((2, width), dtype=np.int64)])
    # so is a symbol outside 0..m-1, which no record holds
    with pytest.raises(ValueError, match="^row 0 holds symbol 5, outside 0..1$"):
        FrequencyPermutationArray(2, 1, [[0, 5], [-1, 1]], 1)


@pytest.mark.parametrize("m", [3, 127, 255])
def test_symbols_past_the_range_are_refused_alike_before_any_pair(m):
    top = tuple(range(m))  # holds m - 1, which is accepted
    dtypes = [np.int8, np.uint8, np.int32, np.int64, np.uint64]
    for given in [[top, top[::-1]]] + [
        np.array([top, top[::-1]], dtype=dtype) for dtype in dtypes if np.iinfo(dtype).max >= m - 1
    ]:
        assert tuples(FrequencyPermutationArray(m, 1, given, 1).rows) == (top, top[::-1])
    work = mock.Mock(side_effect=AssertionError("pair or distance work"))
    for symbol in (m, -1, 2**63, 2**70):
        row = (top[0], symbol, *top[2:])
        givens = [[top, row]] + [
            np.array([top, row], dtype=dtype) for dtype in dtypes
            if np.iinfo(dtype).min <= symbol <= np.iinfo(dtype).max
            and np.iinfo(dtype).max >= m - 1
        ]
        with mock.patch.multiple(
            core, _distance_scan=work, _bit_planes=work, _unbalanced_pair=work,
            _pair_counts=work, _composed=work,
        ):
            for given in givens:
                with pytest.raises(ValueError) as info:
                    FrequencyPermutationArray(m, 1, given, 1)
                assert str(info.value) == f"row 1 holds symbol {symbol}, outside 0..{m - 1}"
    assert not work.called


def test_integer_symbols_of_any_type_keep_their_value():
    rows = ((0, np.int64(1)), (True, np.uint8(0)))
    assert core._symbols(core._read(rows), 2, 2).tolist() == [[0, 1], [1, 0]]
    assert verify(FrequencyPermutationArray(2, 1, rows, 2)).valid


# ---------------------------------------------------------------------------
# enumeration and counting


@pytest.mark.parametrize(
    "n,lam,expected",
    [(4, 2, 6), (6, 3, 20), (6, 2, 90), (6, 1, 720), (9, 3, 1680), (5, 5, 1)],
)
def test_count_all_matches_multinomial(n, lam, expected):
    assert count_all(n, lam) == expected
    m = n // lam
    direct = math.factorial(n) // math.factorial(lam) ** m
    assert count_all(n, lam) == direct


def test_count_all_is_the_multinomial_on_a_grid():
    for n in range(1, 80):
        for lam in range(1, n + 1):
            if n % lam == 0:
                direct = math.factorial(n) // math.factorial(lam) ** (n // lam)
                assert count_all(n, lam) == direct, (n, lam)


def _small_spaces(most=5040):
    """Every (m, lam) with at most `most` words, words of at most 14 symbols."""
    return [
        (m, lam)
        for m in range(1, 8)
        for lam in range(1, 15 // m + 1)
        if count_all(m * lam, lam) <= most
    ]


@pytest.mark.parametrize("m,lam", _small_spaces())
def test_enumeration_matches_sorted_distinct_permutations(m, lam):
    base = tuple(s for s in range(m) for _ in range(lam))
    if len(base) <= 9:
        want = sorted(set(itertools.permutations(base)))
    else:  # (2, 5..7) and (1, 10..14): 10! or more orderings, 2^14 words at most
        counts = [lam] * m
        want = [w for w in itertools.product(range(m), repeat=len(base))
                if [w.count(s) for s in range(m)] == counts]
    assert list(all_lambda_permutations(m, lam)) == want


@pytest.mark.parametrize("m,lam", [(1, 3), (2, 2), (3, 2), (2, 3), (4, 1), (3, 1)])
def test_enumeration_is_complete_sorted_and_valid(m, lam):
    words = list(all_lambda_permutations(m, lam))
    assert len(words) == count_all(m * lam, lam)
    assert words == sorted(words)
    assert len(set(words)) == len(words)
    assert all(is_lambda_permutation(w, m, lam) for w in words)
    assert words[0] == tuple(s for s in range(m) for _ in range(lam))


# ---------------------------------------------------------------------------
# canonical maximum-distance array


@pytest.mark.parametrize("m,lam", [(2, 1), (2, 3), (3, 2), (4, 3), (5, 1)])
def test_canonical_array_is_equidistant_at_n(m, lam):
    fpa = canonical_max_distance_fpa(m, lam)
    assert fpa.size == m
    report = verify(fpa)
    assert report.valid
    assert report.actual_min_distance == fpa.n
    assert report.equidistant


# ---------------------------------------------------------------------------
# verify


def test_verify_fixture_exact_distance():
    fpa = FrequencyPermutationArray(2, 3, TWO_SYMBOL_6_4, 4)
    report = verify(fpa)
    assert report.valid
    assert report.size == 4
    assert report.actual_min_distance == 4
    assert report.reasons == ()


def test_verify_rejects_overclaimed_distance():
    fpa = FrequencyPermutationArray(2, 3, TWO_SYMBOL_6_4, 5)
    report = verify(fpa)
    assert not report.valid
    assert report.actual_min_distance == 4
    assert any("claim" in r or "distance" in r for r in report.reasons)


def test_verify_rejects_bad_composition():
    fpa = FrequencyPermutationArray(2, 2, [(0, 0, 0, 1), (0, 1, 0, 1)], 1)
    report = verify(fpa)
    assert not report.valid


def test_verify_reports_symbols_beyond_int64():
    # a symbol past int64 is refused as the array is built, as one just past m is
    for symbol in (2**70, 7):
        with pytest.raises(ValueError, match=f"^row 0 holds symbol {symbol}, outside 0..1$"):
            FrequencyPermutationArray(2, 1, [[0, symbol], [0, 1]], 1)
    report = verify(FrequencyPermutationArray(2, 1, [[0, 0], [0, 1]], 1))
    assert not report.valid
    assert report.reasons == ("row 0 is not a 1-uniform word over 2 symbols",)
    assert report.actual_min_distance == 1


def test_min_distance_handles_huge_and_negative_symbols():
    rows = [
        [0, 2**70, -3, 5],
        [0, 1, -3, 5],
        [2**70, 0, 5, -3],
        [-(2**80), 2**70, -3, 0],
    ]
    # each row is refused by its first symbol outside 0..1, before any distance
    with mock.patch.object(core, "_distance_scan", side_effect=AssertionError("scanned")):
        for row in rows:
            symbol = next(s for s in row if not 0 <= s < 2)
            with pytest.raises(ValueError, match=f"^row 1 holds symbol {symbol}, outside 0..1$"):
                FrequencyPermutationArray(2, 2, [[0, 1, 1, 0], row], 1)
    # rows over 0..1 in the same pattern: rows 0 and 1 differ in one position
    held = [[0, 1, 0, 1], [0, 0, 0, 1], [1, 0, 1, 0], [1, 1, 0, 0]]
    fpa = FrequencyPermutationArray(2, 2, held, 1)
    assert min_distance(fpa) == brute_min_distance(fpa.rows) == 1
    assert verify(fpa).actual_min_distance == 1
    # symbols 0..m-1 beyond int64: rows far too short, refused as the array is built
    with pytest.raises(ValueError, match=f"^row 0 has length 2, expected {2**64}$"):
        FrequencyPermutationArray(2**64, 1, [[2**63, 5], [2**62, 2**63]], 1)


# ---------------------------------------------------------------------------
# hypothesis: the array composition check against the per-row predicate


def _symbols(m):
    """In range, just past m, negative, and beyond int64 either way."""
    return st.one_of(
        st.integers(0, m - 1),
        st.integers(m, m + 2),
        st.integers(-3, -1),
        st.sampled_from([2**63, 2**70, -(2**63) - 1, -(2**80)]),
    )


def _rows_of_width(m, lam, width):
    loose = st.lists(_symbols(m), min_size=width, max_size=width).map(tuple)
    if width != m * lam:
        return loose
    return st.one_of(st.permutations([s for s in range(m) for _ in range(lam)]), loose)


def array_of_held_rows(m, lam, rows):
    """The array of the rows of length n = m * lam with every symbol in
    0..m-1, once the array of all the rows is seen to refuse the first row
    of another length, and the array of the rows of length n the first row
    with a symbol outside 0..m-1, naming that symbol."""
    n = m * lam
    wrong = [(idx, len(row)) for idx, row in enumerate(rows) if len(row) != n]
    if wrong:
        idx, length = wrong[0]
        with pytest.raises(ValueError, match=f"^row {idx} has length {length}, expected {n}$"):
            FrequencyPermutationArray(m, lam, rows, 0)
    rows = [row for row in rows if len(row) == n]
    stray = [(idx, s) for idx, row in enumerate(rows) for s in row if not 0 <= s < m]
    if stray:
        idx, s = stray[0]
        with pytest.raises(ValueError, match=f"^row {idx} holds symbol {s}, outside 0..{m - 1}$"):
            FrequencyPermutationArray(m, lam, rows, 0)
    return FrequencyPermutationArray(m, lam, [r for r in rows if all(0 <= s < m for s in r)], 0)


def per_row_reasons(fpa):
    """verify's row reasons as a loop over is_lambda_permutation gives them."""
    reasons = []
    rows = tuples(fpa.rows)
    for idx, row in enumerate(rows):
        if not is_lambda_permutation(row, fpa.m, fpa.lam):
            reasons.append(f"row {idx} is not a {fpa.lam}-uniform word over {fpa.m} symbols")
    if len(set(rows)) != len(rows):
        reasons.append("rows are not pairwise distinct")
    return tuple(reasons)


def per_row_parse_error(lines, n, m, lam):
    """parse_fpa's error as a loop over _int_row and is_lambda_permutation gives it."""
    for idx, line in enumerate(lines):
        try:
            row = formats._int_row(line, n, f"row {idx}")
        except formats.FormatError as exc:
            return str(exc)
        if not is_lambda_permutation(row, m, lam):
            return f"row {idx} is not a frequency-{lam} word over {m} symbols"
    return None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_composition_check_matches_the_per_row_predicate(data):
    m = data.draw(st.integers(1, 4), label="m")
    lam = data.draw(st.integers(1, 3), label="lam")
    n = m * lam
    widths = [w for w in (n - 1, n, n + 1) if w > 0]
    width = data.draw(st.sampled_from(widths), label="width")
    rows = data.draw(st.lists(_rows_of_width(m, lam, width), max_size=6), label="rows")
    cells = data.draw(st.sampled_from([1, width, 2 * width + 1, 1 << 16]), label="cells")
    # rows with a symbol outside 0..m-1 get no label matrix; the rest are composed
    held = [row for row in rows if all(0 <= s < m for s in row)]
    assert (core._symbols(rows, m, width) is None) == (len(held) < len(rows))
    with mock.patch.object(core, "_BLOCK_CELLS", cells):
        mask = core._composed(core._symbols(held, m, width), m, lam)
    assert mask.tolist() == [is_lambda_permutation(row, m, lam) for row in held]

    ragged = data.draw(
        st.lists(st.sampled_from(widths).flatmap(lambda w: _rows_of_width(m, lam, w)), max_size=6),
        label="ragged",
    )
    fpa = array_of_held_rows(m, lam, ragged)
    assert verify(fpa).reasons == per_row_reasons(fpa)

    junk = data.draw(st.lists(st.integers(0, 4), min_size=len(ragged), max_size=len(ragged)))
    lines = [" ".join(map(str, row)) + (" x" if j == 0 else "") for row, j in zip(ragged, junk)]
    text = f"#fpa v1\nn={n} lambda={lam} m={m} d=0 size={len(lines)}\n" + "".join(
        line + "\n" for line in lines
    )
    expected = per_row_parse_error(lines, n, m, lam)
    try:
        parsed = formats.parse_fpa(text)
    except formats.FormatError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert tuples(parsed.rows) == tuple(map(tuple, ragged))


def _parse_outcome(text):
    """parse_fpa's array with its label dtype, or its FormatError text."""
    try:
        array = formats.parse_fpa(text)
    except formats.FormatError as exc:
        return str(exc)
    return array, array.rows.dtype, array.rows.tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bulk_reader_matches_the_row_reader(data):
    m = data.draw(st.integers(1, 12), label="m")
    lam = data.draw(st.integers(1, 3), label="lam")
    n = m * lam

    def spellings(s):  # ways to write s that int() reads as s
        digits = str(s)
        indic = "".join(chr(0x660 + int(c)) for c in digits)
        return st.sampled_from(
            [digits, f"{s:03d}", f"{s:020d}", f"+{s}", f"-{s}" if s == 0 else digits,
             "_".join(digits), indic]
        )

    base = [s for s in range(m) for _ in range(lam)]
    symbol = st.one_of(
        st.integers(0, m - 1).map(str),
        st.sampled_from([str(m), "65536", "9" * 20, "0" * 22, "-1", "1.0", "x", "0Ǿ1", "1ǿ"]),
    )
    width = st.sampled_from([w for w in (n - 1, n, n + 1) if w > 0])
    tokens = st.one_of(
        st.permutations(base).map(lambda word: [str(s) for s in word]),
        st.permutations(base).flatmap(lambda word: st.tuples(*map(spellings, word))),
        width.flatmap(lambda w: st.lists(symbol, min_size=w, max_size=w)),
    )
    row = st.builds(
        lambda lead, sep, cells, trail: lead + sep.join(cells) + trail,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from([" ", " ", "  ", "\t", " \t ", "\xa0", "Ǿ"]),
        tokens,
        st.sampled_from(["", "", " ", "\t", "\xa0", " # 1 2"]),
    )
    other = st.sampled_from(["", "  ", "\t", "# comment", "  # 0 1", "#"])
    lines = data.draw(st.lists(st.one_of(row, row, row, other), max_size=8), label="lines")
    body = [ln.rstrip() for ln in lines if formats._is_data(ln)]
    text = f"#fpa v1\nn={n} lambda={lam} m={m} d=0 size={len(body)}\n" + "".join(
        ln + "\n" for ln in lines
    )
    expected = per_row_parse_error(body, n, m, lam)
    cells = data.draw(st.sampled_from([1, n, 2 * n + 1]), label="cells")
    with mock.patch.object(core, "_BLOCK_CELLS", cells):
        bulk = _parse_outcome(text)
        with mock.patch.object(formats, "_bulk_matrix", return_value=None):
            by_rows = _parse_outcome(text)
        if body:  # the bodies read in bulk: ASCII, n decimal tokens a line, each fits
            top = np.iinfo(core._label_dtype(m)).max

            def fits(token):  # an optional + and zero padding are allowed
                digits = token.removeprefix("+")
                return digits.isdigit() and int(digits) <= top

            plain = all(
                ln.isascii() and len(ln.split()) == n and all(map(fits, ln.split()))
                for ln in body
            )
            assert (formats._bulk_matrix(body, n, m) is not None) == plain
    assert bulk == by_rows
    if expected is None:
        assert tuples(bulk[0].rows) == tuple(formats._int_row(ln, n, "") for ln in body)
    else:
        assert bulk == expected


@pytest.mark.parametrize(
    "lines",
    [
        ["0 1 1", "1 0 0 1 0"],  # n - 1 then n + 1 tokens: 2n in all
        ["0 1 1 0 1", "1 0 0"],
        ["0 1 1 0", "0 1", "1 0 1 0 0 1"],
    ],
)
def test_bulk_reader_counts_the_tokens_of_each_line(lines):
    text = f"#fpa v1\nn=4 lambda=2 m=2 d=0 size={len(lines)}\n" + "\n".join(lines) + "\n"
    assert formats._bulk_matrix(lines, 4, 2) is None
    assert _parse_outcome(text) == per_row_parse_error(lines, 4, 2, 2)


@pytest.mark.parametrize("m, dtype", [(2**16, np.uint16), (2**16 + 1, np.uint32)])
def test_bulk_reader_reads_every_symbol_its_label_type_holds(m, dtype):
    row = " ".join(map(str, range(m - 1, -1, -1)))
    text = f"#fpa v1\nn={m} lambda=1 m={m} d={m} size=1\n{row}\n"
    parsed = formats.parse_fpa(text)
    assert parsed.rows.tolist() == [list(range(m - 1, -1, -1))]
    assert parsed.rows.dtype == dtype
    assert formats._bulk_matrix([row], m, m).tolist() == [list(range(m - 1, -1, -1))]
    wrapped = row.replace(" 0", f" {2**32}")  # a value past uint32 must not wrap to 0
    with pytest.raises(formats.FormatError, match=f"^row 0 is not a frequency-1 word over {m} "):
        formats.parse_fpa(text.replace(row, wrapped))


def test_a_letter_that_numpy_reads_as_a_digit_is_refused():
    # np.loadtxt reads "0\u01fe1" as 4621, which completes this row; int() refuses it
    m = 5000
    row = " ".join("0\u01fe1" if s == 4621 else str(s) for s in range(m))
    text = f"#fpa v1\nn={m} lambda=1 m={m} d={m} size=1\n{row}\n"
    with pytest.raises(formats.FormatError, match="^row 0: non-integer entry in "):
        formats.parse_fpa(text)


def test_a_huge_width_with_a_short_row_is_refused_at_once():
    text = "#fpa v1\nn=1000000000 lambda=1 m=1000000000 d=0 size=1\n0 1\n"
    with pytest.raises(formats.FormatError) as info:
        formats.parse_fpa(text)
    assert str(info.value) == "row 0: expected 1000000000 entries, got 2"


def test_verify_rejects_duplicate_rows():
    fpa = FrequencyPermutationArray(2, 2, [(0, 1, 0, 1), (0, 1, 0, 1)], 1)
    report = verify(fpa)
    assert not report.valid
    assert report.actual_min_distance == 0


@pytest.mark.parametrize(
    "rows, claim",
    [
        ([(0, 1, 0, 1)] * 3, 1),  # one distinct row: every pair at distance 0
        ([(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1)], 0),
        ([(0, 1, 1, 0), (0, 1, 1, 1), (1, 1, 0, 0), (0, 1, 1, 1)], 2),  # a bad row repeats
    ],
)
def test_verify_skips_the_pair_scan_when_rows_repeat(rows, claim):
    fpa = FrequencyPermutationArray(2, 2, rows, claim)
    lo, hi = core._distance_scan(fpa.rows)  # what the scan would find
    below = (f"minimum distance {lo} below claim {claim}",) if lo < claim else ()
    with mock.patch.object(core, "_distance_scan", side_effect=AssertionError("scanned")):
        report = verify(fpa)
    assert report == core.VerificationReport(
        valid=False, actual_min_distance=lo, size=len(rows), equidistant=lo == hi,
        reasons=per_row_reasons(fpa) + below,
    )
    assert pair_profile(fpa) is None
    # the last row with symbol m instead is refused before any pair is scanned
    with mock.patch.object(core, "_distance_scan", side_effect=AssertionError("scanned")):
        with pytest.raises(ValueError, match=f"^row {len(rows) - 1} holds symbol 2, outside 0..1$"):
            FrequencyPermutationArray(2, 2, [*rows[:-1], (2, *rows[-1][1:])], claim)


def test_verify_rejects_inconsistent_parameters():
    # the array refuses what verify once reported
    with pytest.raises(ValueError, match="^row 1 has length 5, expected 4$"):
        FrequencyPermutationArray(2, 2, [(0, 1, 0, 1), (0, 1, 0, 1, 1)], 1)
    for m, lam in ((0, 2), (2, 0), (-1, -1)):
        with pytest.raises(ValueError, match=f"^need m >= 1 and lam >= 1, got m={m} lam={lam}$"):
            FrequencyPermutationArray(m, lam, [], 0)


def test_verify_single_row_is_vacuous():
    fpa = FrequencyPermutationArray(2, 2, [(0, 1, 0, 1)], 4)
    report = verify(fpa)
    assert report.valid
    assert report.actual_min_distance == 4  # n, by convention
    assert report.equidistant


def test_min_distance_requires_two_rows():
    fpa = FrequencyPermutationArray(2, 2, [(0, 1, 0, 1)], 1)
    with pytest.raises(ValueError):
        min_distance(fpa)


def test_a_short_row_and_an_out_of_range_row_are_refused():
    rows = [(0, 1, 1, 0), (1, 0, 0, 1)] * 32
    with pytest.raises(ValueError, match="^row 64 has length 3, expected 4$"):
        FrequencyPermutationArray(2, 2, rows + [(0, 1, 1)], 2)
    # a short row is named ahead of an earlier row out of range
    with pytest.raises(ValueError, match="^row 65 has length 3, expected 4$"):
        FrequencyPermutationArray(2, 2, rows + [(0, 1, 1, 2), (0, 1, 1)], 2)
    with pytest.raises(ValueError, match="^row 64 holds symbol 2, outside 0..1$"):
        FrequencyPermutationArray(2, 2, rows + [(0, 1, 1, 2)], 2)
    # a row in range that is not 2-uniform is held and reported
    rows.append((0, 1, 1, 1))
    fpa = FrequencyPermutationArray(2, 2, rows, 2)
    assert tuples(fpa.rows) == tuple(rows)
    report = verify(fpa)
    assert not report.valid
    assert report.reasons == (
        "row 64 is not a 2-uniform word over 2 symbols",
        "rows are not pairwise distinct",
        "minimum distance 0 below claim 2",
    )
    assert min_distance(fpa) == 0
    with pytest.raises(ValueError, match="^class union fails"):
        SeparableArray.from_fpa(fpa, 1)
    text = formats.write_fpa(fpa, offset=1)
    body = [" ".join(str(s + 1) for s in row) for row in rows]
    assert text.splitlines()[2:] == body
    other = FrequencyPermutationArray(1, 2, [(0, 0)], 4)
    assert tuples(direct_product(fpa, other).rows) == tuple(row + (2, 2) for row in rows)


# hypothesis: the verifier's distance agrees with a brute-force rescan


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_distance_matches_bruteforce(data):
    m = data.draw(st.integers(2, 3), label="m")
    lam = data.draw(st.integers(1, 2), label="lam")
    words = list(all_lambda_permutations(m, lam))
    size = data.draw(st.integers(2, min(6, len(words))), label="size")
    subset = data.draw(
        st.lists(st.sampled_from(words), min_size=size, max_size=size, unique=True),
        label="rows",
    )
    fpa = FrequencyPermutationArray(m, lam, subset, 1)
    report = verify(fpa)
    assert report.valid
    assert report.actual_min_distance == brute_min_distance(subset)
    assert report.equidistant == (
        len(
            {
                sum(x != y for x, y in zip(a, b))
                for a, b in itertools.combinations(subset, 2)
            }
        )
        == 1
    )


@functools.lru_cache(maxsize=None)
def _words(m, lam):
    return list(all_lambda_permutations(m, lam))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_distance_is_a_metric_on_rows(data):
    m = data.draw(st.integers(2, 4), label="m")
    lam = data.draw(st.integers(1, 3), label="lam")
    words = _words(m, lam)
    a = data.draw(st.sampled_from(words), label="a")
    b = data.draw(st.sampled_from(words), label="b")
    c = data.draw(st.sampled_from(words), label="c")
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert (hamming_distance(a, b) == 0) == (a == b)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
    if a != b:
        # distinct words over one symbol multiset differ in >= 2 positions
        assert hamming_distance(a, b) >= 2


# ---------------------------------------------------------------------------
# hypothesis: the symbol-pair kernel agrees with a plain dict count


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pair_counts_match_a_dict_count(data):
    mx = data.draw(st.integers(1, 4), label="mx")
    my = data.draw(st.integers(1, 4), label="my")
    n = data.draw(st.integers(0, 8), label="n")
    x = data.draw(st.lists(st.integers(0, mx - 1), min_size=n, max_size=n), label="x")
    y = data.draw(st.lists(st.integers(0, my - 1), min_size=n, max_size=n), label="y")
    dtype = data.draw(st.sampled_from([np.int64, np.uint8, np.uint16]), label="dtype")
    table = _pair_counts(np.array(x, dtype=dtype), np.array(y, dtype=dtype), mx, my)
    assert table.shape == (mx, my)
    counts = collections.Counter(zip(x, y))
    for a in range(mx):
        for b in range(my):
            assert table[a, b] == counts[(a, b)]


def test_pair_counts_of_narrow_labels_past_their_type():
    # m = 300 in uint16 labels: pair codes up to 89 999 overflow the labels' type
    m = 300
    x, y = np.divmod(np.arange(m * m), m)
    table = _pair_counts(x.astype(np.uint16), y.astype(np.uint16), m, m)
    assert (table == 1).all()


def _first_unbalanced_pair(rows, m, want):
    """The first pair a < b, in combinations order, whose dict count of
    symbol pairs differs from want (a number or an m x m table), or None."""
    for a, b in itertools.combinations(range(len(rows)), 2):
        counts = collections.Counter(zip(rows[a], rows[b]))
        for x in range(m):
            for y in range(m):
                cell = want if isinstance(want, int) else int(want[x][y])
                if counts[(x, y)] != cell:
                    return a, b
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_unbalanced_pair_matches_a_dict_count(data):
    m = data.draw(st.integers(1, 5), label="m")
    mult = data.draw(st.integers(0, 2), label="mult")
    v = mult * m * m + data.draw(st.sampled_from([0, 0, 0, 1]), label="extra")
    # rows of a strength-2 array over v points when the points allow one
    pool = []
    if v == mult * m * m:
        x, y = [j // mult // m for j in range(v)], [j // mult % m for j in range(v)]
        pool = [x, y] + [[(a + c * b) % m for a, b in zip(x, y)] for c in range(1, m)]
    size = data.draw(st.sampled_from(range(6)), label="size")
    symbol = st.integers(0, m - 1)
    rows = [
        list(data.draw(st.sampled_from(pool), label="row"))
        if pool and data.draw(st.sampled_from([True, True, True, False]), label="from pool")
        else data.draw(st.lists(symbol, min_size=v, max_size=v), label="row")
        for _ in range(size)
    ]
    order = data.draw(st.permutations(range(v)), label="columns")
    rows = [[row[j] for j in order] for row in rows]
    if rows and v and data.draw(st.sampled_from([True, False, False]), label="mutate"):
        row = data.draw(st.integers(0, size - 1), label="mutated row")
        rows[row][data.draw(st.integers(0, v - 1), label="cell")] = data.draw(symbol, label="to")
    kind = data.draw(
        st.sampled_from(["number", "table", "shifted", "first pair", "random"]), label="want"
    )
    if kind == "number":
        want = data.draw(st.sampled_from([mult, mult, mult + 1, 0]), label="number")
    elif kind == "table":
        want = np.full((m, m), data.draw(st.sampled_from([mult, mult + 1]), label="cell"))
    elif kind == "shifted":  # the right total, one cell negative when mult is 0
        want = np.full((m, m), mult)
        want.flat[0] -= 1
        want.flat[-1] += 1
    elif kind == "first pair" and size >= 2:
        pair = np.array(rows[:2], dtype=np.int64).reshape(2, v)
        want = _pair_counts(pair[0], pair[1], m, m)
    else:
        cells = st.lists(st.integers(-1, 3), min_size=m * m, max_size=m * m)
        want = np.array(data.draw(cells, label="table")).reshape(m, m)
    dtype = data.draw(st.sampled_from([np.int64, np.uint8, np.int32]), label="dtype")
    block = data.draw(st.sampled_from([1, max(1, v), 2 * v + 1, 1 << 16]), label="block")
    with mock.patch.object(core, "_BLOCK_CELLS", block):
        got = core._unbalanced_pair(np.array(rows, dtype=dtype).reshape(size, v), m, want)
    assert got == _first_unbalanced_pair(rows, m, want)


@pytest.mark.parametrize("broken", [False, True])
def test_unbalanced_pair_codes_past_16_bits(broken):
    # m = 300: 90 000 pair codes need uint32
    m = 300
    assert core._label_dtype(m * m) == np.uint32
    x, y = np.divmod(np.arange(m * m), m)
    rows = np.stack([x, y, (x + y) % m])
    if broken:
        rows[2, [0, 1]] = rows[2, [1, 0]]  # rows 0 and 2 stay balanced, 1 and 2 do not
    want = _first_unbalanced_pair(rows.tolist(), m, 1)
    assert want == ((1, 2) if broken else None)
    assert core._unbalanced_pair(rows, m, 1) == want
    assert core._unbalanced_pair(rows, m, 2) == (0, 1)  # totals 180 000, not v


def _profile_oracle(rows, m, lam):
    """pair_profile as one Counter per ordered row pair gives it: the table
    every pair shares, when at least two distinct lam-uniform rows over m
    symbols stay within the work bound; else None."""
    size = len(rows)
    if m * m * (size * (size - 1) // 2) > core._PROFILE_WORK or size < 2:
        return None
    if len(set(rows)) < size or not all(is_lambda_permutation(r, m, lam) for r in rows):
        return None
    tables = {
        tuple(collections.Counter(zip(x, y))[a, b] for a in range(m) for b in range(m))
        for x, y in itertools.permutations(rows, 2)
    }
    if len(tables) != 1:
        return None
    table = tables.pop()
    return {(a, b): table[a * m + b] for a in range(m) for b in range(m)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pair_profile_matches_a_counter_per_row_pair(data):
    m = data.draw(st.integers(1, 4), label="m")
    mult = data.draw(st.integers(1, 2), label="mult")
    # rows of a strength-2 array over mult * m * m points, each a
    # (mult * m)-uniform word; for prime m every pair shares one table
    x, y = zip(*(divmod(j // mult, m) for j in range(mult * m * m)))
    lines = [tuple((a + c * b) % m for a, b in zip(x, y)) for c in range(1, m)]
    pool = list(dict.fromkeys([x, y, *lines]))
    if data.draw(st.booleans(), label="pool only"):
        lam = mult * m
        rows = data.draw(
            st.lists(st.sampled_from(pool), min_size=min(2, len(pool)), unique=True), label="rows"
        )
        # one symbol map on every row: a bijection or a merge keeps a
        # shared table shared, but after a merge no row is lam-uniform
        merge = st.lists(st.integers(0, m - 1), min_size=m, max_size=m)
        relabel = data.draw(st.one_of(st.permutations(range(m)), merge), label="relabel")
        rows = [tuple(relabel[s] for s in row) for row in rows]
    else:
        lam = data.draw(st.sampled_from([mult * m, 1, 2]), label="lam")
        widths = [w for w in (m * lam - 1, m * lam, m * lam + 1) if w > 0]
        row = st.one_of(
            st.sampled_from(pool),
            st.sampled_from(widths).flatmap(lambda w: _rows_of_width(m, lam, w)),
        )
        rows = data.draw(st.lists(row, max_size=6), label="rows")
    if rows and data.draw(st.booleans(), label="repeat"):
        rows.append(data.draw(st.sampled_from(rows), label="repeated row"))
    order = data.draw(st.permutations(range(len(pool[0]))), label="columns")
    rows = [tuple(r[j] for j in order) if len(r) == len(order) else r for r in rows]
    fpa = array_of_held_rows(m, lam, rows)
    assert pair_profile(fpa) == _profile_oracle(tuples(fpa.rows), m, lam)


def test_pair_profile_checks_its_work_bound_before_reading_a_row():
    # m = 2: 2 236 rows are 9 994 920 units of work, 2 237 are 10 003 864
    rows = list(itertools.islice(all_lambda_permutations(2, 7), 2237))
    assert 4 * 2236 * 2235 // 2 <= core._PROFILE_WORK < 4 * 2237 * 2236 // 2
    fail = mock.Mock(side_effect=AssertionError("profiled"))
    over = FrequencyPermutationArray(2, 7, rows, 0)
    with mock.patch.object(core, "_pair_profile", fail):
        with mock.patch.object(core, "_composed", fail):
            assert pair_profile(over) is None
    assert not fail.called
    within = FrequencyPermutationArray(2, 7, rows[:-1], 0)
    with mock.patch.object(core, "_pair_profile", return_value={(0, 0): -1}) as kernel:
        assert pair_profile(within) == {(0, 0): -1}
    kernel.assert_called_once()


# ---------------------------------------------------------------------------
# hypothesis: the bit-plane distance kernel agrees with a pairwise loop


def _pairwise(rows):
    return [[sum(x != y for x, y in zip(a, b)) for b in rows] for a in rows]


@settings(max_examples=150, deadline=None)
@given(
    size=st.sampled_from([0, 1, 2, 3, 5, 9]),
    n=st.sampled_from([1, 5, 8, 63, 64, 65, 127, 128, 129, 130, 255, 256, 300]),
    symbols=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 64, 65, 256, 257]),
    cells=st.sampled_from([1, 7, 64, 200, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_distance_kernel_matches_a_pairwise_oracle(size, n, symbols, cells, seed):
    # rows copy one base row outside a random share of positions, so
    # distances spread over 0..n; the top label fixes the plane count
    rng = np.random.default_rng(seed)
    fresh = rng.random((size, n)) < rng.random((size, 1))
    mat = np.where(fresh, rng.integers(0, symbols, (size, n)), rng.integers(0, symbols, n))
    if size:
        mat[0, 0] = symbols - 1
    want = _pairwise(mat.tolist())
    with mock.patch.object(core, "_BLOCK_CELLS", cells):
        scan = core._distance_scan(mat)
    pairs = [want[i][j] for i, j in itertools.combinations(range(size), 2)]
    assert scan == ((min(pairs), max(pairs)) if pairs else (n, 0))


def test_distance_kernel_rejects_negative_labels():
    with pytest.raises(ValueError, match="non-negative"):
        core._distance_scan(np.array([[0, -1], [0, 1]]))


def _bit_planes_reference(mat):
    """The planes as built from whole-matrix int64 temporaries (mat >> k) & 1."""
    size, n = mat.shape
    depth = max(1, int(mat.max(initial=0)).bit_length())
    words = (n + 63) // 64
    planes = np.empty((depth, words, size), dtype=np.uint64)
    packed = np.zeros((size, words * 8), dtype=np.uint8)
    for k in range(depth):
        bits = np.packbits((mat >> k) & 1, axis=1, bitorder="little")
        packed[:, : bits.shape[1]] = bits
        planes[k] = packed.view(np.uint64).T
    return planes


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("depth", range(1, 11))
def test_bit_planes_match_the_whole_matrix_formula(n, depth):
    rng = np.random.default_rng(depth * 1000 + n)
    mat = rng.integers(0, 1 << depth, (7, n))
    mat[3, n // 2] = (1 << depth) - 1
    planes = core._bit_planes(mat)
    assert planes.shape[0] == depth
    assert np.array_equal(planes, _bit_planes_reference(mat))


def test_bit_planes_peak_stays_near_the_block_loop(monkeypatch):
    # on 4032 permutations of 64 the block loop's buffers take about 1.25 MB;
    # int64 temporaries of the whole matrix took about 2 MB more per plane
    rng = np.random.default_rng(0)
    mat = np.array([rng.permutation(64) for _ in range(4032)])
    peaks = {}
    bit_planes = core._bit_planes

    def traced(labels):
        planes = bit_planes(labels)
        peaks["planes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return planes

    monkeypatch.setattr(core, "_bit_planes", traced)
    tracemalloc.start()
    try:
        core._distance_scan(mat)
        peaks["loop"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peaks["planes"] < 1.5 * peaks["loop"]
