"""Counting formulas, size bounds, and the exact clique search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fparray import (
    BoundsReport,
    WorkLimitExceeded,
    bounds_report,
    count_all,
    exact_max_size,
    gv_lower,
    hamming_upper,
    laguerre,
    mofs_max,
    multiset_derangements,
    plotkin_upper,
    sphere_volume,
    trivial_upper,
    verify,
    FrequencyPermutationArray,
)
from fixtures import DERANGEMENTS, SPHERE_VOLUMES

# ---------------------------------------------------------------------------
# typed-multiset derangements


def test_laguerre_coefficients():
    assert laguerre(0).coeffs == (Fraction(1),)
    assert laguerre(1).coeffs == (Fraction(1), Fraction(-1))
    assert laguerre(2).coeffs == (Fraction(1), Fraction(-2), Fraction(1, 2))
    with pytest.raises(ValueError):
        laguerre(-1)


def test_classical_derangement_numbers():
    for k in range(1, 10):
        assert multiset_derangements((1,) * k) == DERANGEMENTS[k]


@pytest.mark.parametrize(
    "counts, expected",
    [((2,), 0), ((1,), 0), ((2, 1, 1), 2), ((2, 2), 1), ((2, 2, 2), 10), ((3, 3), 1)],
)
def test_known_multiset_values(counts, expected):
    assert multiset_derangements(counts) == expected
    assert multiset_derangements(counts, method="bruteforce") == expected


def test_derangement_input_validation():
    with pytest.raises(ValueError):
        multiset_derangements(())
    with pytest.raises(ValueError):
        multiset_derangements((2, 0))
    with pytest.raises(ValueError):
        multiset_derangements((2, 2), method="magic")
    with pytest.raises(WorkLimitExceeded):
        multiset_derangements((4, 4, 4), method="bruteforce", max_work=10)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
        lambda cs: sum(cs) <= 8
    )
)
def test_formula_matches_bruteforce_and_ignores_order(counts):
    value = multiset_derangements(counts)
    assert value == multiset_derangements(counts, method="bruteforce")
    assert value == multiset_derangements(sorted(counts, reverse=True))


# ---------------------------------------------------------------------------
# sphere volumes


@pytest.mark.parametrize("key, expected", sorted(SPHERE_VOLUMES.items()))
def test_pinned_sphere_volumes(key, expected):
    n, lam, r = key
    assert sphere_volume(n, lam, r) == expected
    assert sphere_volume(n, lam, r, method="bruteforce") == expected


def test_sphere_volume_extremes():
    for n, lam in ((4, 2), (6, 3), (6, 2), (8, 4), (6, 1)):
        assert sphere_volume(n, lam, 0) == 1
        assert sphere_volume(n, lam, 1) == 1  # no word sits at distance 1
        assert sphere_volume(n, lam, n) == count_all(n, lam)


def test_sphere_volume_is_monotone_in_radius():
    values = [sphere_volume(8, 2, r) for r in range(9)]
    assert values == sorted(values)
    assert values[-1] == count_all(8, 2)


def test_sphere_volume_bruteforce_budget():
    with pytest.raises(WorkLimitExceeded):
        sphere_volume(8, 2, 4, method="bruteforce", max_work=10)


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
    assert len(result.rows) == result.value
    assert result.rows == tuple(sorted(result.rows))
    fpa = FrequencyPermutationArray.from_rows(result.rows, 2, 3, 4)
    report = verify(fpa)
    assert report.valid and report.actual_min_distance >= 4


def test_exact_single_vertex_space():
    result = exact_max_size(2, 2, 2)
    assert (result.value, result.proven) == (1, True)
    assert result.rows == ((0, 0),)


def test_exact_respects_the_vertex_budget():
    with pytest.raises(WorkLimitExceeded):
        exact_max_size(8, 2, 4)  # 2520 words exceed the default budget
    with pytest.raises(WorkLimitExceeded):
        exact_max_size(6, 3, 4, vertex_budget=10)


def test_exact_node_budget_degrades_to_unproven():
    result = exact_max_size(6, 1, 5, node_budget=50)
    assert not result.proven
    assert result.value >= 2  # incumbent from the greedy pass survives
    fpa = FrequencyPermutationArray.from_rows(result.rows, 6, 1, 5)
    assert verify(fpa).valid


def test_exact_search_is_deterministic():
    a = exact_max_size(6, 2, 4)
    b = exact_max_size(6, 2, 4)
    assert a == b
    assert a.value == 15 and a.proven


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
