"""Direct construction routes: squares, fields, arrays, designs, codes."""

import collections
import dataclasses
import hashlib
import itertools
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fparray
from fparray import constructions, core, gf
from fparray.cli import main
from fparray.cli.formats import write_fpa
from fparray.gf import LinearizedPolynomial
from fparray import (
    BoundsReport,
    ExactResult,
    FrequencySquare,
    HadamardMatrix,
    OrthogonalArray,
    ResolvableDesign,
    affine_classes_from_mols,
    all_lambda_permutations,
    associate_matrix,
    are_orthogonal,
    bounds_report,
    census_permutation_polynomials,
    count_all,
    field_of_order,
    fpa_from_ard,
    fpa_from_hadamard,
    fpa_from_linearized,
    fpa_from_mds,
    fpa_from_mofs,
    fpa_from_oa,
    fpa_steiner_848,
    hadamard_matrix,
    linearized_monomial,
    linearized_subfield_kernel,
    linearized_trace,
    mofs_complete,
    mols_from_field,
    oa_from_mols,
    pair_profile,
    reed_solomon_generator,
    verify,
)
from fixtures import (
    DOUBLED_12_FIRST4,
    GENERATOR_3_2,
    LATIN_3,
    LATIN_4,
    ROTATION_8_FIRST,
    THREE_ROUTE_9_6,
    tuples,
)

# ---------------------------------------------------------------------------
# frequency squares and complete orthogonal families


def test_frequency_square_validation():
    assert FrequencySquare(2, 1, ((0, 1), (1, 0))).n == 2
    with pytest.raises(ValueError):
        FrequencySquare(2, 1, ((0, 1), (0, 1)))  # column not uniform
    with pytest.raises(ValueError):
        FrequencySquare(2, 1, ((0, 0), (1, 1)))  # row not uniform
    with pytest.raises(ValueError, match="cells must form an n x n grid"):
        FrequencySquare(3, 1, ((0, 1), (1, 0)))  # n = m * lam = 3
    with pytest.raises(ValueError):
        FrequencySquare.from_cells(((0, 1), (1, 0), (0, 1)))  # not square


def test_square_from_empty_rows_names_no_symbol_count():
    for cells in ([[], []], [[]], []):
        with pytest.raises(ValueError) as info:
            FrequencySquare.from_cells(cells)
        assert str(info.value) == "cell values do not determine a symbol count dividing n"


def test_ingredients_check_their_parameters_before_any_cell():
    read = mock.Mock(side_effect=AssertionError("cells read"))
    refused = {
        "need m >= 1 and lam >= 1, got m=0, lam=1": lambda: FrequencySquare(0, 1, [[1.5]]),
        "need s >= 1 and v >= 1, got s=0, v=4": lambda: OrthogonalArray(4, 0, [["x"]]),
        "index v/s^t = 8/9 is not integral": lambda: OrthogonalArray(8, 3, [["x"]]),
        "need v >= 1 points, got v=0": lambda: ResolvableDesign(0, 1, [[["x"]]]),
        "block size 3 must divide 4": lambda: ResolvableDesign(4, 3, [[["x"]]]),
    }
    with mock.patch.object(constructions, "_symbols", read):
        for message, build in refused.items():
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
    assert not read.called


# Each integer parameter of a builder, with a call that is valid at `good`
BUILDER_PARAMETERS = [
    ("mols_from_field", "q", lambda x: mols_from_field(x), 3),
    ("mofs_complete", "q", lambda x: mofs_complete(x, 1), 3),
    ("mofs_complete", "i", lambda x: mofs_complete(2, x), 2),
    ("all_lambda_permutations", "m", lambda x: list(all_lambda_permutations(x, 1)), 3),
    ("all_lambda_permutations", "lam", lambda x: list(all_lambda_permutations(2, x)), 2),
    ("canonical_max_distance_fpa", "m", lambda x: fparray.canonical_max_distance_fpa(x, 1), 3),
    ("canonical_max_distance_fpa", "lam", lambda x: fparray.canonical_max_distance_fpa(2, x), 2),
    ("refine", "l", lambda x: fparray.refine(fparray.canonical_max_distance_fpa(2, 4), x), 2),
    (
        "fpa_from_linearized", "d",
        lambda x: fpa_from_linearized(linearized_trace(field_of_order(9), 3, 1), x), 1,
    ),
    (
        "SeparableArray.from_fpa", "num_classes",
        lambda x: fparray.SeparableArray.from_fpa(fparray.canonical_max_distance_fpa(2, 2), x), 2,
    ),
    ("hadamard_matrix", "n", lambda x: hadamard_matrix(x), 4),
    ("reed_solomon_generator", "q", lambda x: reed_solomon_generator(x, 2, 4), 4),
    ("reed_solomon_generator", "k", lambda x: reed_solomon_generator(4, x, 4), 2),
    ("reed_solomon_generator", "n", lambda x: reed_solomon_generator(4, 2, x), 4),
    ("linearized_trace", "h", lambda x: linearized_trace(field_of_order(9), 3, x), 1),
    (
        "linearized_subfield_kernel", "n",
        lambda x: linearized_subfield_kernel(field_of_order(16), 2, x), 2,
    ),
    ("make_field", "p", lambda x: gf.make_field(x, 2), 2),
    ("make_field", "k", lambda x: gf.make_field(2, x), 2),
    ("field_of_order", "q", lambda x: field_of_order(x), 9),
    ("LinearizedPolynomial", "q", lambda x: LinearizedPolynomial(field_of_order(9), x, [1, 0]), 3),
    ("linearized_monomial", "q", lambda x: linearized_monomial(field_of_order(9), x), 3),
    (
        "reduce_mod", "r",
        lambda x: fparray.reduce_mod(fpa_from_oa(oa_from_mols(mols_from_field(4))), x), 2,
    ),
    (
        "census_permutation_polynomials", "max_degree",
        lambda x: census_permutation_polynomials(field_of_order(5), x), 3,
    ),
]


@pytest.mark.parametrize(
    "name, build, good", [(name, build, good) for _, name, build, good in BUILDER_PARAMETERS],
    ids=[f"{builder}-{name}" for builder, name, _, _ in BUILDER_PARAMETERS],
)
def test_builder_parameters_must_be_integers(name, build, good):
    # built first, so make_field's cache already holds the field a float
    # would hash to
    want = build(good)
    for bad in (float(good), good + 0.5, str(good), None, [good]):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build(bad)
    for value in (np.int64(good), np.uint8(good)):
        assert build(value) == want


def test_records_store_no_size_their_rows_fix():
    stored = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in (
        FrequencySquare, OrthogonalArray, HadamardMatrix, ExactResult, BoundsReport
    )}
    assert stored == {
        "FrequencySquare": ["m", "lam", "cells"],
        "OrthogonalArray": ["v", "s", "rows"],
        "HadamardMatrix": ["rows"],
        "ExactResult": ["proven", "array"],
        "BoundsReport": ["n", "lam", "d", "total", "gv_lower", "hamming_upper",
                         "plotkin_upper", "trivial_upper", "exact_value", "exact_proven"],
    }
    sq = mofs_complete(2, 2)[0]
    oa = oa_from_mols(mols_from_field(3))
    assert (sq.n, oa.r, hadamard_matrix(8).n) == (4, 4, 8)
    assert ExactResult(True, core.FrequencyPermutationArray(2, 1, ((0, 1), (1, 0)), 2)).value == 2
    assert bounds_report(6, 3, 4).m == 2


def _first_bad_line(cells, m, lam):
    """The message FrequencySquare owes, by one is_lambda_permutation per line."""
    for what, lines in (("row", cells), ("column", zip(*cells))):
        for idx, line in enumerate(lines):
            if not core.is_lambda_permutation(line, m, lam):
                return f"{what} {idx} is not {lam}-uniform"
    return None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_frequency_square_names_the_first_bad_line(data):
    m = data.draw(st.integers(1, 3), label="m")
    lam = data.draw(st.integers(1, 3), label="lam")
    n = m * lam
    symbols = st.integers(-1, m) if data.draw(st.booleans(), label="stray") else st.integers(0, m - 1)
    cells = data.draw(
        st.lists(st.lists(symbols, min_size=n, max_size=n), min_size=n, max_size=n), label="cells"
    )
    cells = tuple(map(tuple, cells))
    expected = _first_bad_line(cells, m, lam)
    if expected is None:
        assert tuples(FrequencySquare(m, lam, cells).cells) == cells
    else:
        with pytest.raises(ValueError) as err:
            FrequencySquare(m, lam, cells)
        assert str(err.value) == expected


def _same_record(from_matrix, from_tuples, field):
    matrix, want = getattr(from_matrix, field), getattr(from_tuples, field)
    assert matrix.tolist() == want.tolist() and matrix.dtype == want.dtype == np.uint16
    assert not matrix.flags.writeable and not want.flags.writeable
    assert from_matrix == from_tuples
    assert hash(from_matrix) == hash(from_tuples)
    assert repr(from_matrix) == repr(from_tuples)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
def test_ingredients_from_a_matrix_match_tuple_ingredients(dtype):
    squares = mols_from_field(5)
    for sq in squares[:2]:
        mat = np.array(sq.cells, dtype=dtype)
        square = FrequencySquare(sq.m, sq.lam, mat)
        _same_record(square, FrequencySquare(sq.m, sq.lam, tuples(sq.cells)), "cells")
        mat[:] = mat[::-1, ::-1]  # a caller's later write changes nothing
        assert np.array_equal(square.cells, sq.cells)
    rows = tuples(oa_from_mols(squares).rows)
    mat = np.array(rows, dtype=dtype)
    oa = OrthogonalArray(25, 5, mat)
    _same_record(oa, OrthogonalArray(25, 5, rows), "rows")
    mat[1] = mat[0]
    assert tuples(oa.rows) == rows
    assert fpa_from_oa(oa) == fpa_from_oa(OrthogonalArray(25, 5, rows))
    for kept in (square.cells, oa.rows):
        with pytest.raises(ValueError):
            kept[0, 0] = 1  # read-only
    lines = affine_classes_from_mols(squares)
    mats = [np.array(cls, dtype=dtype) for cls in lines.classes]
    given = [tuples(cls) for cls in lines.classes]
    design = ResolvableDesign(25, 5, mats, lines.lambda_d)
    for got in (design, ResolvableDesign(25, 5, given, lines.lambda_d)):
        assert got.classes.tolist() == lines.classes.tolist()
        assert got.classes.shape == (6, 5, 5) and got.classes.dtype == np.uint16
        assert got == lines and hash(got) == hash(lines) and repr(got) == repr(lines)
        assert np.array_equal(got._block_index, lines._block_index)
    for mat in mats:
        mat[:] = mat[::-1]  # a caller's later write changes nothing
    assert np.array_equal(design.classes, lines.classes)
    assert np.array_equal(design._block_index, lines._block_index)
    with pytest.raises(ValueError):
        design.classes[0, 0, 0] = 1  # read-only
    assert fpa_from_ard(design) == fpa_from_ard(lines)
    good = np.array(lines.classes[2], dtype=dtype)
    stray, twice = good.copy(), good.copy()
    stray[1, 3] = 25  # a point outside 0..v-1
    twice[1, 3] = twice[0, 0]  # a point in two blocks
    for bad in (stray, twice, good[:4], good[:, :4], [good[0], good[1][:4], *good[2:]]):
        errors = []
        for cls in (bad, [tuple(map(int, block)) for block in bad]):
            with pytest.raises(ValueError) as err:
                ResolvableDesign(25, 5, (*lines.classes[:2], cls, *lines.classes[3:]))
            errors.append(str(err.value))
        assert errors[0] == errors[1] and errors[0].startswith("class 2 ")


@pytest.mark.parametrize(
    "build",
    [
        lambda mat: FrequencySquare(2, 1, mat),
        lambda mat: OrthogonalArray(4, 2, np.concatenate([mat, mat], axis=-1)),
    ],
    ids=["square", "oa"],
)
@pytest.mark.parametrize("mat", [np.zeros((2, 2, 1), dtype=np.int64)], ids=["3-D"])
def test_ingredients_refuse_bool_and_3d_matrices(build, mat):
    # a bool matrix is read as its symbols 0 and 1, as Python bools are:
    # see test_numpy_bool_matrices_are_read_like_bool_symbols
    with pytest.raises(ValueError, match="symbols must be integers"):
        build(mat)


@pytest.mark.parametrize(
    "build, dtype, cells",
    [
        (lambda c: FrequencySquare(2, 1, c), np.int8, [[0, 1], [1, -1]]),
        (lambda c: FrequencySquare(2, 1, c), np.int64, [[0, 2], [2, 0]]),
        (lambda c: FrequencySquare(2, 1, c), np.uint64, [[0, 1], [1, 2**64 - 1]]),
        (lambda c: OrthogonalArray(4, 2, c), np.int8, [[0, 0, 1, 1], [0, 1, 0, -1]]),
        (lambda c: OrthogonalArray(4, 2, c), np.int64, [[0, 0, 1, 1], [0, 1, 0, 2]]),
        (lambda c: OrthogonalArray(4, 2, c), np.uint64, [[0, 0, 1, 1], [0, 1, 0, 2**64 - 1]]),
    ],
)
def test_ingredient_matrices_out_of_range_fail_like_tuples(build, dtype, cells):
    with pytest.raises(ValueError) as want:
        build(cells)
    with pytest.raises(ValueError) as got:
        build(np.array(cells, dtype=dtype))
    assert str(got.value) == str(want.value)


def test_mofs_complete_refuses_work_over_its_budget(monkeypatch, capsys):
    monkeypatch.setattr(constructions, "_MOFS_WORK", 18)
    assert len(mofs_complete(3, 1)) == 2  # two squares of 9 cells, at the budget
    monkeypatch.setattr(constructions, "_MOFS_WORK", 17)
    with pytest.raises(core.WorkLimitExceeded, match="^18 cells exceed max_work 17$"):
        mofs_complete(3, 1)
    assert main(["construct", "mofs", "--q", "3", "--i", "1"]) == 2
    assert "18 cells exceed max_work 17" in capsys.readouterr().err


def test_mofs_complete_budget_counts_cells_not_forms(monkeypatch):
    # GF(97) gives 96 squares of 97^2 cells, 903 264 in all; GF(101) has
    # 10 201 forms, far below the budget, but 1 020 100 cells
    assert len(mols_from_field(97)) == 96
    with pytest.raises(core.WorkLimitExceeded, match="^1020100 cells exceed max_work 1000000$"):
        mofs_complete(101, 1)
    monkeypatch.setattr(constructions, "_MOFS_WORK", 2592)
    assert len(mofs_complete(3, 2)) == 32  # 32 squares of 81 cells, at the budget
    monkeypatch.setattr(constructions, "_MOFS_WORK", 2591)
    with pytest.raises(core.WorkLimitExceeded, match="^2592 cells exceed max_work 2591$"):
        mofs_complete(3, 2)


def test_mofs_complete_refuses_huge_i_without_computing_the_power():
    # 3^(2 * 10^6) cells could not be printed in the refusal
    with pytest.raises(
        core.WorkLimitExceeded, match=r"^squares of 3\^2000000 cells exceed max_work 1000000$"
    ):
        mofs_complete(3, 10**6)


def test_from_cells_infers_parameters():
    sq = FrequencySquare.from_cells(((0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0)))
    assert (sq.n, sq.m, sq.lam) == (4, 2, 2)


def test_latin_squares_of_order_three():
    squares = mols_from_field(3)
    assert [tuples(sq.cells) for sq in squares] == list(LATIN_3)
    assert all((sq.n, sq.m, sq.lam) == (3, 3, 1) for sq in squares)
    assert are_orthogonal(squares[0], squares[1])


def test_latin_squares_of_order_four():
    squares = mols_from_field(4)
    assert [tuples(sq.cells) for sq in squares] == list(LATIN_4)
    for a, b in itertools.combinations(squares, 2):
        assert are_orthogonal(a, b)


@pytest.mark.parametrize("q", [5, 7, 8])
def test_full_latin_families_are_orthogonal(q):
    squares = mols_from_field(q)
    assert len(squares) == q - 1
    for a, b in itertools.combinations(squares, 2):
        assert are_orthogonal(a, b)


def test_field_latin_squares_are_a_times_x_plus_y():
    for q in (q for q in range(3, 50) if gf._prime_power(q)):
        field, xs = field_of_order(q), np.arange(q)
        expected = [field.add_val(field.mul_val(a, xs)[:, None], xs).tolist() for a in range(1, q)]
        squares = mols_from_field(q)
        assert [sq.cells.tolist() for sq in squares] == expected, q
        assert all((sq.n, sq.m, sq.lam) == (q, q, 1) for sq in squares)


def test_mols_rejects_bad_orders():
    with pytest.raises(ValueError):
        mols_from_field(2)
    with pytest.raises(ValueError):
        mols_from_field(6)


def test_are_orthogonal_negative_cases():
    sq = mols_from_field(3)[0]
    assert not are_orthogonal(sq, sq)
    other = FrequencySquare(2, 1, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        are_orthogonal(sq, other)


def test_are_orthogonal_with_different_symbol_counts():
    latin = FrequencySquare(4, 1, tuple(tuple((r + c) % 4 for c in range(4)) for r in range(4)))
    good = FrequencySquare(2, 2, ((0, 0, 1, 1), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0)))
    bad = FrequencySquare(2, 2, ((0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0)))
    for freq, expected in ((good, True), (bad, False)):
        pairs = collections.Counter(
            zip(itertools.chain(*freq.cells), itertools.chain(*latin.cells))
        )
        assert (len(pairs) == 8 and set(pairs.values()) == {2}) == expected
        assert are_orthogonal(freq, latin) == expected
        assert are_orthogonal(latin, freq) == expected


def test_complete_mofs_family():
    squares = mofs_complete(2, 2)
    assert len(squares) == 9  # (q^i - 1)^2 / (q - 1)
    assert all((sq.n, sq.m, sq.lam) == (4, 2, 2) for sq in squares)
    for a, b in itertools.combinations(squares, 2):
        assert are_orthogonal(a, b)


def test_mofs_complete_degenerates_to_latin_squares():
    assert [tuples(sq.cells) for sq in mofs_complete(3, 1)] == [
        tuples(sq.cells) for sq in mols_from_field(3)
    ]


def test_mofs_to_fpa():
    fpa = fpa_from_mofs(mofs_complete(2, 2))
    assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim, fpa.size) == (8, 4, 2, 4, 18)
    report = verify(fpa)
    assert report.valid and report.actual_min_distance == 4


def test_fpa_from_mofs_rejects_non_orthogonal_inputs():
    sq = mofs_complete(2, 2)[0]
    with pytest.raises(ValueError):
        fpa_from_mofs([sq, sq])


# ---------------------------------------------------------------------------
# orthogonal array / affine design / MDS code: one array, three routes


def test_triple_agreement_on_nine_columns():
    squares = mols_from_field(3)

    via_oa = fpa_from_oa(oa_from_mols(squares))
    via_ard = fpa_from_ard(affine_classes_from_mols(squares))
    via_mds = fpa_from_mds(field_of_order(3), GENERATOR_3_2)

    assert tuples(via_oa.rows) == THREE_ROUTE_9_6
    assert tuples(via_ard.rows) == THREE_ROUTE_9_6
    assert tuples(via_mds.rows) == THREE_ROUTE_9_6
    for fpa in (via_oa, via_ard, via_mds):
        assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim) == (9, 3, 3, 6)
        report = verify(fpa)
        assert report.valid and report.equidistant
        assert report.actual_min_distance == 6


def test_orthogonal_array_validation():
    rows = tuple(tuple(r) for r in THREE_ROUTE_9_6)
    oa = OrthogonalArray(9, 3, rows)
    assert oa.r == 4
    assert fpa_from_oa(oa).min_distance_claim == 9 - 9 // 3
    with pytest.raises(ValueError):
        OrthogonalArray(8, 3, tuple(r[:8] for r in rows))  # bad index
    with pytest.raises(ValueError, match="rows must form an r x v grid"):
        OrthogonalArray(9, 3, rows[:3] + (rows[3][:8],))
    broken = (rows[0], rows[0]) + rows[2:]
    with pytest.raises(ValueError, match="rows 0, 1 break strength-2 uniformity"):
        OrthogonalArray(9, 3, broken)
    with pytest.raises(ValueError, match="need s >= 1"):
        OrthogonalArray(9, 0, rows)
    # the symbol range is checked before any row pair, even an unbalanced one
    with pytest.raises(ValueError, match="symbol outside 0..s-1"):
        OrthogonalArray(9, 3, broken[:3] + ((3,) + rows[3][1:],))


def test_oa_rows_match_a_per_cell_oracle():
    for q in (3, 4, 5):
        squares = mols_from_field(q)
        cells = [(r, c) for r in range(q) for c in range(q)]
        expected = (
            tuple(r for r, _ in cells),
            tuple(c for _, c in cells),
            *(tuple(int(sq.cells[r, c]) for r, c in cells) for sq in squares),
        )
        oa = oa_from_mols(squares)
        assert tuples(oa.rows) == expected
        assert oa.rows.dtype == core._label_dtype(q) and not oa.rows.flags.writeable


def test_affine_design_route():
    design = affine_classes_from_mols(mols_from_field(3))
    assert (design.v, design.k, len(design.classes)) == (9, 3, 4)
    assert design.is_affine()

    repeated = ResolvableDesign(4, 2, (((0, 1), (2, 3)), ((0, 1), (2, 3))))
    assert not repeated.is_affine()
    with pytest.raises(ValueError):
        fpa_from_ard(repeated)


def test_resolvable_design_validation():
    with pytest.raises(ValueError):
        ResolvableDesign(4, 3, (((0, 1, 2), (3,)),))  # k must divide v
    with pytest.raises(ValueError):
        ResolvableDesign(4, 2, (((0, 1), (2, 2)),))  # not a partition
    with pytest.raises(ValueError):
        ResolvableDesign(4, 2, (((0, 1), (2, 3)),), lambda_d=1)  # pairs uncovered


def test_design_pair_cover_count_must_be_positive():
    singletons = (((0,), (1,), (2,)),)
    # with k = 1 no pair shares a block, yet lambda_d = 0 is still rejected
    for lambda_d in (0, -1):
        with pytest.raises(ValueError, match=f"covered exactly {lambda_d} times"):
            ResolvableDesign(3, 1, singletons, lambda_d=lambda_d)
    assert ResolvableDesign(1, 1, (((0,),),), lambda_d=0).lambda_d == 0
    one_factorisation = (
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    )
    assert ResolvableDesign(4, 2, one_factorisation, lambda_d=1).is_affine()
    with pytest.raises(ValueError, match="covered exactly 2 times"):
        ResolvableDesign(4, 2, one_factorisation, lambda_d=2)


def test_design_pair_cover_count_above_the_class_count_is_refused():
    # no pair can be covered more often than there are classes; the check
    # must refuse this before comparing a negative distance with the
    # kernel's unsigned counts
    one_factorisation = (
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    )
    lines = affine_classes_from_mols(mols_from_field(4))
    for v, k, classes in ((4, 2, one_factorisation), (lines.v, lines.k, lines.classes)):
        for lambda_d in (len(classes) + 1, len(classes) + 300):
            with mock.patch.object(constructions, "_distance_scan", side_effect=AssertionError):
                with pytest.raises(ValueError, match=f"covered exactly {lambda_d} times"):
                    ResolvableDesign(v, k, classes, lambda_d=lambda_d)
    assert ResolvableDesign(1, 1, (((0,),),), lambda_d=2).lambda_d == 2


def _pair_covers(v, classes):
    covers = collections.Counter()
    for cls in classes:
        for block in cls:
            covers.update(itertools.combinations(sorted(block), 2))
    return [covers[pair] for pair in itertools.combinations(range(v), 2)]


@pytest.mark.parametrize("cells", [1, 20, 1 << 16])
def test_design_pair_cover_check_across_kernel_blocks(monkeypatch, cells):
    # 1 and 20 cells stream the points of AG(2, q) one or two to a block
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    for q in (3, 4):
        lines = affine_classes_from_mols(mols_from_field(q))
        assert set(_pair_covers(lines.v, lines.classes)) == {1}
        assert ResolvableDesign(lines.v, lines.k, lines.classes, lambda_d=1).is_affine()
        for lambda_d in (0, 2, len(lines.classes)):
            with pytest.raises(ValueError, match="covered exactly"):
                ResolvableDesign(lines.v, lines.k, lines.classes, lambda_d=lambda_d)
        # swapping the last point into another block of the last class
        # breaks the pairs through the two swapped points
        *keep, last = lines.classes
        blocks = [list(blk) for blk in last]
        a = lines.v - 1
        ia = next(i for i, blk in enumerate(blocks) if a in blk)
        other = blocks[ia - 1]
        blocks[ia][blocks[ia].index(a)], other[0] = other[0], a
        classes = (*keep, tuple(tuple(blk) for blk in blocks))
        assert set(_pair_covers(lines.v, classes)) != {1}
        with pytest.raises(ValueError, match="covered exactly 1 times"):
            ResolvableDesign(lines.v, lines.k, classes, lambda_d=1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_design_pair_cover_check_matches_a_pair_count(data):
    v, k = data.draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 2), (6, 2), (6, 3), (9, 3)]))
    shuffles = data.draw(st.lists(st.permutations(range(v)), min_size=1, max_size=4))
    classes = tuple(
        tuple(tuple(order[b : b + k]) for b in range(0, v, k)) for order in shuffles
    )
    covers = _pair_covers(v, classes)
    lambda_d = data.draw(st.sampled_from(sorted({*covers, 0, 1, len(classes)})))
    accept = (v < 2 or lambda_d >= 1) and all(c == lambda_d for c in covers)
    cells = data.draw(st.sampled_from([1, 5, 1 << 16]))
    with mock.patch.object(core, "_BLOCK_CELLS", cells):
        try:
            ResolvableDesign(v, k, classes, lambda_d=lambda_d)
        except ValueError:
            assert not accept
        else:
            assert accept


def test_reed_solomon_generator_shape():
    field, rows = reed_solomon_generator(3, 2, 4)
    assert field.q == 3
    grid = [list(row) for row in rows]
    assert grid == [[1, 1, 1, 0], [0, 1, 2, 1]]
    with pytest.raises(ValueError):
        reed_solomon_generator(3, 2, 5)  # n > q + 1
    with pytest.raises(ValueError):
        reed_solomon_generator(3, 5, 4)  # k > n


def test_rs_generator_feeds_the_code_route():
    field, rows = reed_solomon_generator(4, 2, 4)
    fpa = fpa_from_mds(field, rows)
    assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim, fpa.size) == (16, 4, 4, 12, 4)
    assert verify(fpa).valid


def test_mds_route_rejects_dependent_columns():
    field = field_of_order(3)
    with pytest.raises(ValueError):
        fpa_from_mds(field, [[1, 2], [1, 2]])  # second column = 2 * first
    with pytest.raises(ValueError):
        fpa_from_mds(field, [[1, 2], [1]])  # ragged
    with pytest.raises(ValueError, match="nonempty rectangular"):
        fpa_from_mds(field, [[], []])  # no columns


def test_mds_route_refuses_the_wide_non_mds_generator():
    # all 40 projective points of GF(3)^4, first nonzero entry 1: pairwise
    # independent, but the first four span only a plane
    points = [
        p for p in itertools.product(range(3), repeat=4) if any(p) and next(e for e in p if e) == 1
    ]
    generator = [[p[t] for p in points] for t in range(4)]
    with pytest.raises(ValueError, match=r"^columns \(0, 1, 2, 3\) are dependent; not MDS$"):
        fpa_from_mds(field_of_order(3), generator)


def test_mds_refusal_peak_stays_near_its_rows():
    # the 2 047-column binary simplex generator: 16 MB of int32 rows, whose
    # first 11 columns are dependent.  The rows are summed one coordinate at
    # a time in blocks, and the k-set check keeps a bool zero table, so the
    # peak is the rows plus about two bool copies of them
    field = field_of_order(2)
    cols = [c for c in itertools.product((0, 1), repeat=11) if any(c)]
    generator = [[c[t] for c in cols] for t in range(11)]
    rows_bytes = len(cols) * 2**11 * 4
    field.mul_val(np.int32(1), np.int32(1))  # the field's tables, built once
    tracemalloc.start()
    try:
        rows = constructions._linear_forms(field, np.array(generator, dtype=np.int32).T)
        assert rows.nbytes == rows_bytes
        assert tracemalloc.get_traced_memory()[1] < 1.25 * rows_bytes
        del rows
        tracemalloc.reset_peak()
        with pytest.raises(ValueError, match=r"^columns \(0, 1, .*, 10\) are dependent; not MDS$"):
            fpa_from_mds(field, generator)
        assert tracemalloc.get_traced_memory()[1] < 2 * rows_bytes
    finally:
        tracemalloc.stop()


def _mds_reference(field, generator):
    """fpa_from_mds by rank and by hand: the first dependent pair, then the
    first dependent k-set, else the rows col . x over odometer-ordered x."""
    k, n = len(generator), len(generator[0])
    cols = [[row[j] for row in generator] for j in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        if gf.matrix_rank(field, [cols[a], cols[b]]) != 2:
            return f"columns {a} and {b} are linearly dependent"
    for subset in itertools.combinations(range(n), k):
        if gf.matrix_rank(field, [cols[j] for j in subset]) != k:
            return f"columns {subset} are dependent; not MDS"
    elements = range(field.q)
    add, mul = (
        np.array([[op(a, b) for b in elements] for a in elements])
        for op in (field.add_val, field.mul_val)
    )
    points = np.array(list(itertools.product(elements, repeat=k)))

    def form(col):
        total = np.zeros(len(points), dtype=int)
        for t in range(k):
            total = add[total, mul[col[t], points[:, t]]]
        return tuple(total.tolist())

    return tuple(map(form, cols))


def _mds_generators(rng):
    """Seeded generators over q <= 9, k <= 4, n <= q + 1: Reed-Solomon, RS
    with one entry changed, random, and random with a zero column."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in range(1, 5):
            for n in rng.sample(range(1, q + 2), min(3, q + 1)):
                rs = [list(row) for row in reed_solomon_generator(q, k, n)[1]] if k <= n else None
                changed = [list(row) for row in rs] if rs else None
                if changed:
                    changed[rng.randrange(k)][rng.randrange(n)] = rng.randrange(q)
                noise = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                hole, j = [row[:] for row in noise], rng.randrange(n)
                for row in hole:
                    row[j] = 0
                yield from ((q, g) for g in (rs, changed, noise, hole) if g)


def test_mds_route_matches_the_rank_reference():
    outcomes = set()
    for q, generator in _mds_generators(random.Random(2005)):
        field = field_of_order(q)
        expected = _mds_reference(field, generator)
        try:
            got = tuples(fpa_from_mds(field, generator).rows)
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (q, generator)
        outcomes.add("rows" if isinstance(expected, tuple) else expected.split()[-1])
    # every branch is reached: built, dependent pair, dependent k-set
    assert outcomes == {"rows", "dependent", "MDS"}


@pytest.mark.parametrize("q,k,n", [(2, 2, 3), (2, 3, 3), (3, 2, 4), (5, 3, 6), (4, 2, 5)])
def test_linear_forms_across_block_edges(q, k, n, monkeypatch):
    # q = 2 adds by XOR; one row per block at 1 and q^k +- 1 cells, and
    # two rows with a one-row remainder at 2 q^k + 1
    field, generator = reed_solomon_generator(q, k, n)
    coeffs = np.array(generator, dtype=np.int32).T
    whole = constructions._linear_forms(field, coeffs)
    assert tuple(map(tuple, whole.tolist())) == _mds_reference(field, generator)
    for cells in (1, q**k - 1, q**k + 1, 2 * q**k + 1):
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        assert np.array_equal(constructions._linear_forms(field, coeffs), whole), cells


def test_mds_pair_check_reads_zero_sets(monkeypatch):
    # no symbol-pair table is built: two nonzero columns are dependent iff
    # they vanish on the same x, and a zero column is dependent with all
    def no_tables(*args):
        raise AssertionError("the MDS pair check built symbol-pair tables")

    monkeypatch.setattr(constructions, "_unbalanced_pair", no_tables)
    cases = [
        (5, [[1, 0, 1, 0], [0, 1, 1, 2]], "columns 1 and 3"),  # col 3 = 2 * col 1
        (5, [[1, 0, 0, 4], [0, 1, 3, 0]], "columns 0 and 3"),  # (1, 2) comes later
        (5, [[1, 0, 0], [0, 1, 0]], "columns 0 and 2"),  # a zero column
        (3, [[0, 1, 2], [0, 2, 1]], "columns 0 and 1"),  # zero first, then 1 and 2
        (7, [[1, 1, 2], [1, 2, 4], [1, 3, 6]], "columns 1 and 2"),  # k = 3
    ]
    for q, generator, pair in cases:
        field = field_of_order(q)
        want = f"{pair} are linearly dependent"
        assert _mds_reference(field, generator) == want
        with pytest.raises(ValueError, match=f"^{want}$"):
            fpa_from_mds(field, generator)
    field, generator = reed_solomon_generator(5, 2, 6)
    assert tuples(fpa_from_mds(field, generator).rows) == _mds_reference(field, generator)


def test_mds_cell_limit_admits_its_boundary(monkeypatch):
    field = field_of_order(3)  # GENERATOR_3_2 builds 4 rows of 3^2 cells
    monkeypatch.setattr(constructions, "_MDS_CELLS", 36)
    assert tuples(fpa_from_mds(field, GENERATOR_3_2).rows) == THREE_ROUTE_9_6
    monkeypatch.setattr(constructions, "_MDS_CELLS", 35)
    with pytest.raises(core.WorkLimitExceeded, match="^36 cells exceed max_work 35$"):
        fpa_from_mds(field, GENERATOR_3_2)


# ---------------------------------------------------------------------------
# additive-map images over small fields


def test_trace_family_size_matches_census():
    field = field_of_order(9)
    fpa = fpa_from_linearized(linearized_trace(field, 3, 1), 1)
    assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim, fpa.size) == (9, 3, 3, 6, 24)
    census = census_permutation_polynomials(field, 1)
    assert fpa.size == census.total // 3  # kernel of the trace has 3 elements
    assert verify(fpa).valid


def test_subfield_kernel_family_size_matches_census():
    field = field_of_order(16)
    fpa = fpa_from_linearized(linearized_subfield_kernel(field, 2, 2), 1)
    assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim, fpa.size) == (16, 4, 4, 12, 60)
    census = census_permutation_polynomials(field, 1)
    assert fpa.size == census.total // 4  # kernel is the 4-element subfield
    assert verify(fpa).valid


def test_monomial_family_gives_plain_permutations():
    field = field_of_order(4)
    fpa = fpa_from_linearized(linearized_monomial(field, 2), 1)
    assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim, fpa.size) == (4, 4, 1, 2, 12)
    census = census_permutation_polynomials(field, 1)
    assert fpa.size == census.total  # trivial kernel, no row merging
    assert verify(fpa).valid


@pytest.mark.parametrize(
    "q,i,kind,d",
    [(3, 2, "trace", 1), (2, 4, "subfield", 2), (2, 3, "monomial", 1), (5, 2, "trace", 2)],
)
def test_linearized_rows_match_a_pointwise_oracle(q, i, kind, d, monkeypatch):
    # a few witnesses per chunk, so first-seen order must carry across chunks
    monkeypatch.setattr(core, "_BLOCK_CELLS", 3 * q**i)
    field = field_of_order(q**i)
    L = {
        "trace": lambda: linearized_trace(field, q, 1),
        "subfield": lambda: linearized_subfield_kernel(field, q, 2),
        "monomial": lambda: linearized_monomial(field, q),
    }[kind]()
    raw = []
    for f in census_permutation_polynomials(field, d).witnesses:
        row = tuple(L.evaluate(f.evaluate(x)) for x in range(field.q))
        if row not in raw:
            raw.append(row)
    labels = {}
    expected = [tuple(labels.setdefault(v, len(labels)) for v in row) for row in raw]
    assert tuples(constructions.fpa_from_linearized(L, d).rows) == tuple(expected)


@pytest.mark.parametrize(
    "kind,q,i,arg,d,digest",
    [
        # the linearized instances built by CI's console-script step
        ("trace", 3, 2, 1, 1,
         "685abb3e90ad87e5bebaac5caa848d572aac6cfe2ddbe0e4ee1863d985401d8c"),
        ("subfield", 2, 4, 2, 2,
         "7467e2b00be4bf5b540cc26e25001569686e636907bf82bc25c92c1993e7cc75"),
        ("monomial", 2, 3, None, 1,
         "102a26c331c94544932dcd29b7f261eb3e4e5b0f446559299e91f42dcf3369b5"),
        # and the other two of the `construct` benchmark workload
        ("trace", 3, 4, 1, 1,
         "2297ed964bf27afd2c93a6f33a92ccd0288f226c521169e5b5a5c7ecb73f32a8"),
        ("trace", 5, 2, 1, 2,
         "9f8173817c87c158808630f6fdb10be0d2b5e0460028dfcd147f79c7474b1380"),
    ],
)
def test_linearized_parameters_are_read_off_the_value_table(
    kind, q, i, arg, d, digest, monkeypatch
):
    field = field_of_order(q**i)
    L = {
        "trace": lambda: linearized_trace(field, q, arg),
        "subfield": lambda: linearized_subfield_kernel(field, q, arg),
        "monomial": lambda: linearized_monomial(field, q),
    }[kind]()
    _, rank, _ = associate_matrix(L)  # the paper's rank, before the oracle is cut off

    def no_rank(*args):
        raise AssertionError("the construction ran a row reduction")

    monkeypatch.setattr(gf, "matrix_rank", no_rank)
    monkeypatch.setattr(gf, "associate_matrix", no_rank)
    fpa = constructions.fpa_from_linearized(L, d)
    assert (fpa.m, fpa.lam) == (q**rank, q ** (i - rank))
    assert hashlib.sha256(write_fpa(fpa).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "build",
    [
        lambda: fpa_from_linearized(linearized_trace(field_of_order(81), 3, 1), 1),
        lambda: fpa_from_linearized(linearized_subfield_kernel(field_of_order(16), 2, 2), 2),
        lambda: fpa_from_linearized(linearized_monomial(field_of_order(8), 2), 1),
    ],
)
def test_linearized_construction_builds_one_value_table(monkeypatch, build):
    calls = []
    table = LinearizedPolynomial.value_table

    def counted(self):
        calls.append(self)
        return table(self)

    monkeypatch.setattr(LinearizedPolynomial, "value_table", counted)
    assert verify(build()).valid
    assert len(calls) == 1


@pytest.mark.parametrize(
    "order,d,build",
    [
        (9, 1, lambda: fpa_from_linearized(linearized_trace(field_of_order(9), 3, 1), 1)),
        (16, 2, lambda: fpa_from_linearized(
            linearized_subfield_kernel(field_of_order(16), 2, 2), 2
        )),
        (8, 1, lambda: fpa_from_linearized(linearized_monomial(field_of_order(8), 2), 1)),
    ],
)
def test_linearized_construction_evaluates_each_constant_free_candidate_once(
    monkeypatch, order, d, build
):
    rows = []
    evaluate = gf.evaluate_whole_field

    def counted(field, coeffs):
        rows.append(len(coeffs))
        return evaluate(field, coeffs)

    # a module that imported the function by name would dodge a patch of gf alone
    for module in (gf, constructions):
        monkeypatch.setattr(module, "evaluate_whole_field", counted, raising=False)
    assert verify(build()).valid
    # the polynomials of degree 1..d with c_0 = 0: q^d - 1 rows; their
    # translates f + c_0 are never evaluated
    assert sum(rows) == order**d - 1


def test_additive_map_degree_bound_is_enforced():
    field = field_of_order(9)
    with pytest.raises(ValueError):
        fpa_from_linearized(linearized_trace(field, 3, 1), 3)  # needs d < q^(i-l) = 3


def test_package_exports_resolve_once():
    names = fparray.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(fparray, name)] == []
    # a linearized array is built one way: fpa_from_linearized(linearized_<kind>(...), d)
    for name in ("fpa_from_trace", "fpa_from_subfield_kernel", "fpa_from_monomial"):
        assert name not in names and not hasattr(fparray, name)


# ---------------------------------------------------------------------------
# sign matrices and the doubling route


def test_sign_matrix_orders():
    for n in (1, 2, 4, 8, 12, 16, 20, 24, 28):
        H = hadamard_matrix(n)
        assert H.n == n
    with pytest.raises(ValueError):
        hadamard_matrix(6)
    with pytest.raises(ValueError):
        hadamard_matrix(3)


def test_sign_matrix_route_preference():
    # doubling wins over the quadratic residues (7, 23 and 31 are 3 mod 4)
    for n in (8, 24, 32):
        half = hadamard_matrix(n // 2).rows.tolist()
        doubled = [r + r for r in half] + [r + [-e for e in r] for r in half]
        assert hadamard_matrix(n).rows.tolist() == doubled
    # no doubling route: the quadratic residue matrix on q = n - 1
    for n in (12, 20, 28):
        assert hadamard_matrix(n).rows.tolist() == constructions._paley_rows(n - 1).tolist()


def _list_hadamard(n, memo, built):
    """Order n as lists, each product by the list Kronecker rule
    [[x * y for x in a for y in b] for a in left for b in right]."""
    if n not in built:
        route = constructions._hadamard_route(n, memo)
        if route == 0:
            built[n] = [[1]] if n == 1 else [[1, 1], [1, -1]]
        elif route == -1:
            built[n] = constructions._paley_rows(n - 1).tolist()
        else:
            left, right = _list_hadamard(route, memo, built), _list_hadamard(n // route, memo, built)
            built[n] = [[x * y for x in a for y in b] for a in left for b in right]
    return built[n]


def test_sign_matrices_match_the_list_kronecker_product():
    memo, built = {}, {}
    orders = [n for n in range(1, 257) if constructions._hadamard_route(n, memo) is not None]
    assert len(orders) == 48
    for n in orders + [784, 816]:  # the two product routes
        H = hadamard_matrix(n)
        assert H.rows.dtype == np.int8 and not H.rows.flags.writeable
        assert H.rows.tolist() == _list_hadamard(n, memo, built), n


def test_sign_matrix_from_a_numpy_matrix_equals_the_one_from_tuples():
    rows = hadamard_matrix(12).rows.tolist()
    mat = np.array(rows, dtype=np.int64)
    a, b = HadamardMatrix(mat), HadamardMatrix(tuple(map(tuple, rows)))
    assert a == b and hash(a) == hash(b)
    assert a.rows.dtype == np.int8 and not a.rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a.rows[0, 0] = -1
    mat[0, 0] = -1  # the caller's matrix, written after the build
    assert a.rows.tolist() == rows and a == b and hash(a) == hash(b)
    assert a != HadamardMatrix(-np.array(rows))  # -H is a different sign matrix


def test_sign_matrix_routes_up_to_the_cell_limit():
    memo = {}
    routes = {n: constructions._hadamard_route(n, memo) for n in range(1, 1025)}
    kinds = collections.Counter(
        {0: "base", 2: "doubling", -1: "paley"}.get(r, "product")
        for r in routes.values() if r is not None
    )
    assert kinds == {"doubling": 83, "paley": 65, "base": 2, "product": 2}
    # neither has a half with a route, and 783 and 815 are no prime powers
    assert {n: r for n, r in routes.items() if r is not None and r > 2} == {784: 28, 816: 12}


def test_hadamard_orders_over_the_cell_limit_are_refused_before_routing(monkeypatch, capsys):
    assert constructions._HADAMARD_CELLS == 1024 * 1024
    H = hadamard_matrix(1024)  # the largest accepted order
    assert H.n == 1024 and H.rows[1, :4].tolist() == [1, -1, 1, -1]
    with mock.patch.object(constructions, "_hadamard_route", side_effect=AssertionError):
        for n in (1028, 2048, 2**61):
            with pytest.raises(core.WorkLimitExceeded, match=f"^order {n} needs {n}\\^2 cells"):
                hadamard_matrix(n)
    assert main(["construct", "hadamard", "--order", str(2**61)]) == 2
    assert capsys.readouterr().err == (
        f"error: work limit exceeded: order {2**61} needs {2**61}^2 cells,"
        " over the limit of 1048576\n"
    )
    # both sides of a lowered limit
    monkeypatch.setattr(constructions, "_HADAMARD_CELLS", 144)
    assert hadamard_matrix(12).n == 12
    with pytest.raises(core.WorkLimitExceeded, match="^order 16 needs 16\\^2 cells"):
        hadamard_matrix(16)
    with pytest.raises(ValueError, match="impossible"):
        hadamard_matrix(18)  # not a multiple of 4, refused as before


def test_sign_matrix_validation():
    # each refusal, and the first that applies when several do
    refused = {
        "rows 0 and 1 are not orthogonal": [((1, 1), (1, 1)), np.ones((2, 2), dtype=np.int64)],
        "entries must be +1 or -1": [
            ((1, 0), (1, -1)), ((1, 0), (1, 1)), ((1, 2**64), (1, -1)), ((1, -2**63 - 1), (1, 1)),
            np.array([[1, 2**64 - 1], [1, 1]], dtype=np.uint64),
            np.array([[1, 257], [1, -1]], dtype=np.int64),  # 257 is 1 in int8
        ],
        "matrix must be square": [((1, 1),), ((1, 5),), np.ones((2, 3), dtype=np.int8)],
    }
    for message, cases in refused.items():
        for rows in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                HadamardMatrix(rows)


def test_sign_matrix_names_the_first_non_orthogonal_pair():
    # rows 1 and 3 copy rows 6 and 4, so exactly the pairs (1, 6) and
    # (3, 4) fail: (1, 6) comes first pair by pair, (3, 4) column by column
    rows = hadamard_matrix(8).rows.tolist()
    rows[1], rows[3] = rows[6], rows[4]
    for given in (rows, np.array(rows)):
        with pytest.raises(ValueError, match="rows 1 and 6 are not orthogonal"):
            HadamardMatrix(given)


def test_doubling_smallest_order_gives_every_balanced_word():
    fpa = fpa_from_hadamard(hadamard_matrix(4))
    assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim, fpa.size) == (4, 2, 2, 2, 6)
    assert fpa.size == count_all(4, 2)
    assert set(tuples(fpa.rows)) == set(all_lambda_permutations(2, 2))
    assert verify(fpa).valid


def test_doubling_order_twelve():
    fpa = fpa_from_hadamard(hadamard_matrix(12))
    assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim) == (12, 2, 6, 6)
    assert fpa.size == 2 * 12 - 2
    rows = tuples(fpa.rows)
    assert all(fixture_row in rows for fixture_row in DOUBLED_12_FIRST4)
    report = verify(fpa)
    assert report.valid and report.actual_min_distance == 6
    # complementary row pairs sit at distance 12, so the array is not
    # equidistant and no single symbol-pair profile can cover all pairs
    assert not report.equidistant
    assert pair_profile(fpa) is None


def test_block_listing_on_eight_columns():
    fpa = fpa_steiner_848()
    assert (fpa.n, fpa.m, fpa.lam, fpa.min_distance_claim, fpa.size) == (8, 2, 4, 4, 14)
    assert tuples(fpa.rows)[0] == ROTATION_8_FIRST
    report = verify(fpa)
    assert report.valid and report.actual_min_distance == 4


def _random_classes(data, v, k, count):
    shuffles = data.draw(st.lists(st.permutations(range(v)), min_size=count, max_size=count))
    return [[list(order[b : b + k]) for b in range(0, v, k)] for order in shuffles]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_design_block_index_matches_a_per_point_oracle(data):
    v, k = data.draw(
        st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 2), (6, 2), (6, 3), (9, 3), (12, 4)])
    )
    classes = _random_classes(data, v, k, data.draw(st.integers(0, 5)))
    design = ResolvableDesign(v, k, tuple(tuple(map(tuple, cls)) for cls in classes))
    expected = [[None] * v for _ in classes]
    for i, cls in enumerate(classes):
        for b, block in enumerate(cls):
            for p in block:
                expected[i][p] = b
    assert design._block_index.tolist() == expected
    if design.is_affine():
        assert fpa_from_ard(design).rows.tolist() == expected


def _first_class_error(v, k, classes):
    """The per-point check the class validation replaces, class by class."""
    for idx, cls in enumerate(classes):
        if len(cls) != v // k:
            return f"class {idx} has {len(cls)} blocks, expected {v // k}"
        seen = set()
        for block in cls:
            if len(block) != k or not all(0 <= x < v for x in block):
                return f"class {idx} has a malformed block"
            seen.update(block)
        if len(seen) != v:
            return f"class {idx} does not partition the points"
    return None


_CLASS_DAMAGE = {
    "none": lambda cls, v, b, j: None,
    "drop block": lambda cls, v, b, j: cls.pop(b),
    "extra block": lambda cls, v, b, j: cls.append(list(cls[b])),
    "short block": lambda cls, v, b, j: cls[b].pop(j),
    "long block": lambda cls, v, b, j: cls[b].append(cls[b][j]),
    "negative point": lambda cls, v, b, j: cls[b].__setitem__(j, -1),
    "point v": lambda cls, v, b, j: cls[b].__setitem__(j, v),
    "huge point": lambda cls, v, b, j: cls[b].__setitem__(j, 2**70),
    "repeated point": lambda cls, v, b, j: cls[b].__setitem__(j, cls[b - 1][0]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_design_names_the_first_failing_class(data):
    v, k = data.draw(st.sampled_from([(1, 1), (2, 1), (4, 2), (6, 2), (6, 3), (9, 3)]))
    classes = _random_classes(data, v, k, data.draw(st.integers(1, 4)))
    for cls in classes:
        damage = data.draw(st.sampled_from(sorted(_CLASS_DAMAGE)))
        b = data.draw(st.integers(0, len(cls) - 1))
        _CLASS_DAMAGE[damage](cls, v, b, data.draw(st.integers(0, k - 1)))
    frozen = tuple(tuple(map(tuple, cls)) for cls in classes)
    expected = _first_class_error(v, k, frozen)
    if expected is None:
        ResolvableDesign(v, k, frozen)
    else:
        with pytest.raises(ValueError) as info:
            ResolvableDesign(v, k, frozen)
        assert str(info.value) == expected
