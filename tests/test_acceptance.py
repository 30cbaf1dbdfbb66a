"""The ten acceptance checks, one test each, printing one PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
alongside pytest's own verdicts.
"""

import contextlib
import itertools
import time

from fparray import (
    FrequencyPermutationArray,
    WorkLimitExceeded,
    associate_matrix,
    bounds_report,
    census_permutation_polynomials,
    count_all,
    exact_max_size,
    expand_to_pa,
    field_of_order,
    fpa_from_ard,
    fpa_from_hadamard,
    fpa_from_linearized,
    fpa_from_mds,
    fpa_from_mofs,
    fpa_from_oa,
    fpa_steiner_848,
    affine_classes_from_mols,
    gv_lower,
    hadamard_matrix,
    hamming_upper,
    linearized_monomial,
    linearized_subfield_kernel,
    linearized_trace,
    mofs_complete,
    mols_from_field,
    multiset_derangements,
    oa_from_mols,
    plotkin_upper,
    refine,
    sep_product,
    separable_from_mols,
    sphere_volume,
    trivial_upper,
    verify,
)
from fparray.cli import main
from fixtures import (
    CLASS_PRODUCT_FIRST8,
    DOUBLED_12_FIRST4,
    FULL_SPLIT_DISPLAY,
    GENERATOR_3_2,
    HALF_SPLIT_DISPLAY,
    ROTATION_8_FIRST,
    THREE_ROUTE_9_6,
    TWO_SYMBOL_6_4,
    derangements_bruteforce,
    partitions,
    sphere_volume_bruteforce,
    tuples,
)


@contextlib.contextmanager
def reported(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL - {label}")
        raise
    print(f"criterion {number:02d}: PASS - {label}")


def test_criterion_01_fixture_array_and_exact_bound(capsys):
    with reported(1, "4x6 fixture verifies at distance 4; exact = Plotkin = 4"):
        fpa = FrequencyPermutationArray(2, 3, TWO_SYMBOL_6_4, 4)
        report = verify(fpa)
        assert report.valid and report.size == 4
        assert report.actual_min_distance == 4

        assert main(
            ["bounds", "--n", "6", "--lambda", "3", "--d", "4", "--exact", "--machine"]
        ) == 0
        stdout = capsys.readouterr().out
        assert stdout.rstrip().endswith("gv=2 hamming=20 plotkin=4 trivial=40 exact=4")

        rep = bounds_report(6, 3, 4, with_exact=True)
        assert rep.exact_proven and rep.exact_value == 4 == rep.plotkin_upper


def test_criterion_02_triple_agreement():
    with reported(2, "OA, design, and code routes agree byte-exactly on the 4x9 array"):
        squares = mols_from_field(3)
        routes = (
            fpa_from_oa(oa_from_mols(squares)),
            fpa_from_ard(affine_classes_from_mols(squares)),
            fpa_from_mds(field_of_order(3), GENERATOR_3_2),
        )
        for fpa in routes:
            assert tuples(fpa.rows) == THREE_ROUTE_9_6
            report = verify(fpa)
            assert report.valid and report.equidistant
            assert report.actual_min_distance == 6
            assert (fpa.n, fpa.m, fpa.lam) == (9, 3, 3)


def test_criterion_03_square_family_sizes():
    with reported(3, "order-5 squares give 20 = q(q-1) rows; 9 squares give 18 = mE rows"):
        pa = fpa_from_mofs(mols_from_field(5))
        assert (pa.n, pa.m, pa.lam, pa.size) == (5, 5, 1, 20)
        assert pa.size == 5 * 4
        report = verify(pa)
        assert report.valid and report.actual_min_distance >= 4

        fpa = fpa_from_mofs(mofs_complete(2, 2))
        assert (fpa.n, fpa.m, fpa.lam, fpa.size) == (8, 4, 2, 18)
        assert fpa.size == 2 * 9
        report = verify(fpa)
        assert report.valid and report.actual_min_distance >= 4


def test_criterion_04_additive_map_family_sizes():
    with reported(4, "additive-map arrays of sizes 24/60/12 match the census totals"):
        cases = (
            (field_of_order(9), linearized_trace(field_of_order(9), 3, 1),
             fpa_from_linearized(linearized_trace(field_of_order(9), 3, 1), 1), 24, 6),
            (field_of_order(16), linearized_subfield_kernel(field_of_order(16), 2, 2),
             fpa_from_linearized(linearized_subfield_kernel(field_of_order(16), 2, 2), 1), 60, 12),
            (field_of_order(4), linearized_monomial(field_of_order(4), 2),
             fpa_from_linearized(linearized_monomial(field_of_order(4), 2), 1), 12, 2),
        )
        for field, poly, fpa, size, dist in cases:
            _, rank, kernel = associate_matrix(poly)
            census = census_permutation_polynomials(field, 1)
            assert fpa.size == size == census.total // kernel
            assert fpa.lam == kernel
            report = verify(fpa)
            assert report.valid and report.actual_min_distance >= dist


def test_criterion_05_substitution_displays():
    with reported(5, "split displays match byte-exactly; sizes run 22 -> 44 -> 132"):
        four = FrequencyPermutationArray(2, 6, DOUBLED_12_FIRST4, 6)
        half = refine(four, 3)
        shown = tuple(
            tuple(e + 1 for e in row) for row in half.rows[0::2]
        )
        assert shown == HALF_SPLIT_DISPLAY

        full = expand_to_pa(four)
        shown = tuple(
            tuple(e + 1 for e in row) for row in full.rows[0::6]
        )
        assert shown == FULL_SPLIT_DISPLAY

        stage = fpa_from_hadamard(hadamard_matrix(12))
        sizes = [stage.size]
        stage_half = refine(stage, 3)
        sizes.append(stage_half.size)
        stage_full = expand_to_pa(stage_half)
        sizes.append(stage_full.size)
        assert sizes == [22, 44, 132]
        for array in (stage, stage_half, stage_full):
            report = verify(array)
            assert report.valid and report.actual_min_distance >= 6


def test_criterion_06_class_product_listing():
    with reported(6, "class product of the order-4 squares: 48 rows, first 8 byte-exact"):
        sep = separable_from_mols(mols_from_field(4))
        out = sep_product([sep, sep])
        assert (out.n, out.m, out.lam, out.size) == (8, 4, 2, 48)
        assert tuples(out.rows[:8]) == CLASS_PRODUCT_FIRST8
        report = verify(out)
        assert report.valid and report.actual_min_distance >= 4


def test_criterion_07_doubling_block_listing_and_exact_14():
    with reported(7, "order-12 doubling gives 22 rows; block listing checks; exact(8,4,4)=14"):
        doubled = fpa_from_hadamard(hadamard_matrix(12))
        assert doubled.size == 2 * 12 - 2 == 22
        assert verify(doubled).valid

        steiner = fpa_steiner_848()
        assert (steiner.n, steiner.m, steiner.lam, steiner.size) == (8, 2, 4, 14)
        assert tuples(steiner.rows)[0] == ROTATION_8_FIRST == (1, 0, 1, 1, 0, 0, 0, 1)
        assert verify(steiner).valid

        start = time.perf_counter()
        result = exact_max_size(8, 4, 4)
        elapsed = time.perf_counter() - start
        assert result.proven and result.value == 14
        assert elapsed < 5.0, f"search took {elapsed:.2f}s, budgeted at 5s"


def test_criterion_08_counting_oracle_equivalence():
    with reported(8, "derangement and sphere-volume formulas match brute force everywhere"):
        vectors = 0
        for total in range(1, 10):
            for counts in partitions(total, total):
                assert multiset_derangements(counts) == derangements_bruteforce(counts)
                vectors += 1
        assert vectors == 96  # partitions of 1..9

        grids = 0
        for n in range(2, 9):
            for lam in range(1, n + 1):
                if n % lam:
                    continue
                for r in range(n + 1):
                    assert sphere_volume(n, lam, r) == sphere_volume_bruteforce(n, lam, r)
                    grids += 1
        assert grids > 100


def test_criterion_09_bound_sandwich_sweep():
    proven = unproven = skipped = 0
    for n in range(2, 9):
        for lam in (l for l in range(1, n + 1) if n % l == 0):
            for d in range(2, n + 1):
                try:
                    result = exact_max_size(n, lam, d)
                except WorkLimitExceeded:
                    skipped += 1
                    continue
                if not result.proven:
                    unproven += 1
                    continue
                proven += 1
                uppers = [hamming_upper(n, lam, d), trivial_upper(n, lam, d)]
                pk = plotkin_upper(n, lam, d)
                if pk is not None:
                    uppers.append(pk)
                assert gv_lower(n, lam, d) <= result.value <= min(uppers), (n, lam, d)
                if d == 2:
                    assert result.value == count_all(n, lam), (n, lam, d)
                if d == n:
                    assert result.value == n // lam, (n, lam, d)
    with reported(9, f"sandwich held on all {proven} proven instances "
                     f"({unproven} unproven, {skipped} over budget)"):
        assert proven >= 50
        assert proven + unproven == 63  # every in-budget instance was attempted


def test_criterion_10_odd_distance_collapse():
    with reported(10, "two-symbol arrays: odd d and d+1 give the same maximum"):
        checked = 0
        for n in (4, 6, 8):
            lam = n // 2
            for d in range(3, n, 2):
                odd = exact_max_size(n, lam, d)
                even = exact_max_size(n, lam, d + 1)
                assert odd.proven and even.proven
                assert odd.value == even.value, (n, lam, d)
                checked += 1
        assert checked == 6
