"""Finite fields, polynomials, linearized maps, and the bijection census."""

import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fparray import WorkLimitExceeded, core, gf
from fparray.gf import (
    LinearizedPolynomial,
    Polynomial,
    associate_matrix,
    census_permutation_polynomials,
    evaluate_whole_field,
    field_of_order,
    is_permutation_polynomial,
    linearized_monomial,
    linearized_subfield_kernel,
    linearized_trace,
    make_field,
    matrix_rank,
)
from fixtures import FIELD_MODULI

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


# ---------------------------------------------------------------------------
# field construction


@pytest.mark.parametrize("p,k", list(FIELD_MODULI))
def test_modulus_is_smallest_encoding(p, k):
    field = make_field(p, k)
    encoding = sum(c * p**i for i, c in enumerate(field.modulus))
    assert encoding == FIELD_MODULI[(p, k)]


def test_make_field_rejects_bad_orders():
    with pytest.raises(ValueError):
        make_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        field_of_order(12)  # not a prime power


def test_the_order_guardrail_comes_before_factoring(monkeypatch):
    # trial division of the prime 2^61 - 1 would run for minutes
    factor = gf._prime_power

    def guarded(q):
        assert q <= gf._ORDER_GUARDRAIL, f"factored {q}, above the guardrail"
        return factor(q)

    monkeypatch.setattr(gf, "_prime_power", guarded)
    with pytest.raises(ValueError, match="^field order 2305843009213693951 above guardrail 1048576$"):
        field_of_order(2**61 - 1)
    with pytest.raises(ValueError, match=r"^field order 2305843009213693951\^1 above guardrail"):
        make_field(2**61 - 1)
    # k alone settles it: 2^(10^7) is neither computed nor printed
    with pytest.raises(ValueError, match=r"^field order 2\^10000000 above guardrail 1048576$"):
        make_field(2, 10**7)
    with pytest.raises(ValueError, match=r"^field order 1025\^2 above guardrail"):
        make_field(1025, 2)
    assert make_field(2, 20).q == gf._ORDER_GUARDRAIL


def test_field_of_order_prime_power_decomposition():
    assert field_of_order(8).p == 2 and field_of_order(8).k == 3
    assert field_of_order(49).p == 7 and field_of_order(49).k == 2
    assert field_of_order(7).k == 1


# ---------------------------------------------------------------------------
# arithmetic axioms (sampled)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_field_axioms(data):
    p, k = data.draw(st.sampled_from(SMALL_FIELDS), label="field")
    field = make_field(p, k)
    q = field.q
    add, mul = field.add_val, field.mul_val
    a = data.draw(st.integers(0, q - 1), label="a")
    b = data.draw(st.integers(0, q - 1), label="b")
    c = data.draw(st.integers(0, q - 1), label="c")
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a
    assert mul(a, 1) == a
    assert field.sub_val(a, a) == 0
    if a:
        assert mul(a, field.inv_val(a)) == 1
        assert mul(a, field.pow_val(a, q - 2)) == 1  # explicit inverse


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_frobenius_is_an_additive_field_automorphism(data):
    p, k = data.draw(st.sampled_from([f for f in SMALL_FIELDS if f[1] > 1]))
    field = make_field(p, k)
    a = data.draw(st.integers(0, field.q - 1))
    b = data.draw(st.integers(0, field.q - 1))
    def frobenius(x):
        return field.pow_val(x, field.p)

    fa, fb = frobenius(a), frobenius(b)
    assert frobenius(field.add_val(a, b)) == field.add_val(fa, fb)
    assert frobenius(field.mul_val(a, b)) == field.mul_val(fa, fb)
    assert fa == functools.reduce(field.mul_val, [a] * field.p)


def test_multiplicative_group_is_cyclic_of_order_q_minus_1():
    field = make_field(2, 4)
    orders = set()
    for v in range(1, 16):
        order, cur = 1, v
        while cur != 1:
            cur = field.mul_val(cur, v)
            order += 1
        orders.add(order)
        assert 15 % order == 0
    assert 15 in orders  # a generator exists


# ---------------------------------------------------------------------------
# table arithmetic on ints and arrays (exp/log tables, the digit formula)

FIELDS_UP_TO_256 = [q for q in range(2, 257) if gf._prime_power(q)]


def _digit_matrix(field, values):
    return np.array([[v // field.p**j % field.p for j in range(field.k)] for v in values])


def _convolution_products(field):
    """Every product a*b as a q x q table: digit convolution, then reduction
    by the monic modulus from the top degree down."""
    p, k, q = field.p, field.k, field.q
    digits = _digit_matrix(field, range(q))
    conv = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            conv[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
    for t in range(2 * k - 2, k - 1, -1):
        top = conv[:, :, t] % p
        for j, m in enumerate(field.modulus[:-1]):
            conv[:, :, t - k + j] -= top * m
    return (conv[:, :, :k] % p * p ** np.arange(k)).sum(axis=2)


@pytest.mark.parametrize("q", FIELDS_UP_TO_256)
def test_array_arithmetic_matches_a_digit_convolution(q):
    field = field_of_order(q)
    xs = np.arange(q, dtype=np.int32)
    products = _convolution_products(field)
    assert (field.mul_val(xs[:, None], xs) == products).all()
    digits = _digit_matrix(field, range(q))
    places = field.p ** np.arange(field.k)
    sums = ((digits[:, None, :] + digits[None, :, :]) % field.p * places).sum(axis=2)
    assert (field.add_val(xs[:, None], xs) == sums).all()
    assert (field.add_val(xs, field.neg_val(xs)) == 0).all()
    # powers by repeated table-free products, across the wrap at q - 1
    power = xs.astype(np.int64)
    for e in range(1, min(q, 40) + 2):
        assert (field.pow_val(xs, e) == power).all()
        power = products[power, xs]


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 16, 25, 27, 81])
def test_primitive_element_is_the_smallest_generator(q):
    field = field_of_order(q)
    products = _convolution_products(field)

    def order(g):
        cur, n = g, 1
        while cur != 1:
            cur, n = products[cur, g], n + 1
        return n

    g = field.primitive_element()
    assert order(g) == q - 1
    assert all(order(h) < q - 1 for h in range(1, g))


# q -> the smallest generator of GF(q)^*, as the exp/log tables read it
PRIMITIVE_ELEMENTS = {
    2: 1, 3: 2, 4: 2, 5: 2, 7: 3, 8: 2, 9: 4, 16: 2, 25: 6, 27: 3, 49: 9,
    121: 15, 125: 9, 343: 22, 4096: 3, 2**16: 3, 17**4: 307, 3**12: 14,
    999_983: 5, 2**20 - 3: 2, 2**20: 2,
}


@pytest.mark.parametrize("q", sorted(PRIMITIVE_ELEMENTS))
def test_primitive_element_is_pinned(q):
    assert field_of_order(q).primitive_element() == PRIMITIVE_ELEMENTS[q]


def test_one_trial_division_factors_every_small_integer():
    for q in range(1, 2000):
        primes = [r for r in range(2, q + 1) if q % r == 0 and all(r % f for f in range(2, r))]
        powers = [max(k for k in range(1, 12) if q % r**k == 0) for r in primes]
        assert list(gf._factors(q)) == list(zip(primes, powers)), q
        assert gf._prime_power(q) == ((primes[0], powers[0]) if len(primes) == 1 else None), q


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_add_formula_is_shared_by_ints_and_arrays(data):
    field = field_of_order(data.draw(st.sampled_from([2, 3, 8, 9, 25, 49, 125, 243])))
    a = data.draw(st.integers(0, field.q - 1), label="a")
    b = data.draw(st.integers(0, field.q - 1), label="b")
    total, neg = field.add_val(a, b), field.neg_val(b)
    assert type(total) is int and type(neg) is int
    assert field.add_val(np.int32(a), np.array(b, dtype=np.int32)) == total
    assert field.neg_val(np.array(b, dtype=np.int32)) == neg
    assert field.sub_val(total, b) == a
    empty = np.array([], dtype=np.int32)
    assert field.add_val(empty, empty).shape == (0,)
    assert field.neg_val(empty).shape == (0,)
    assert field.mul_val(empty, empty).shape == (0,)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mul_and_pow_are_shared_by_ints_and_arrays(data):
    field = field_of_order(data.draw(st.sampled_from([2, 3, 8, 9, 25, 49, 125, 243])))
    a = data.draw(st.integers(0, field.q - 1), label="a")
    b = data.draw(st.integers(0, field.q - 1), label="b")
    e = data.draw(st.integers(0, 3 * field.q), label="e")
    product, power = field.mul_val(a, b), field.pow_val(a, e)
    assert type(product) is int and type(power) is int
    assert field.mul_val(np.array([a], dtype=np.int32), np.int32(b)).tolist() == [product]
    assert field.pow_val(np.array([[a]], dtype=np.int32), e).tolist() == [[power]]
    assert power == functools.reduce(field.mul_val, [a] * e, 1)
    if a:
        assert field.pow_val(a, e + (field.q - 1) * 2**70) == power  # e is reduced first
        inverse = field.inv_val(a)
        assert type(inverse) is int and field.mul_val(a, inverse) == 1
        assert field.pow_val(a, -e) == field.pow_val(inverse, e)
        assert field.inv_val(np.array([a], dtype=np.int32)).tolist() == [inverse]
    empty = np.array([], dtype=np.int32)
    assert field.pow_val(empty, e).shape == (0,)
    assert field.pow_val(empty, -1).shape == (0,)
    assert field.inv_val(empty.reshape(0, 2)).shape == (0, 2)


@pytest.mark.parametrize("q", [2, 3, 16, 49])
def test_powers_of_zero(q):
    field = field_of_order(q)
    assert field.pow_val(0, 0) == 1
    assert all(field.pow_val(0, e) == 0 for e in (1, 2, q - 1, q, 5 * q))
    zeros = np.zeros(3, dtype=np.int32)
    assert field.pow_val(zeros, 0).tolist() == [1, 1, 1]
    assert field.pow_val(zeros, q).tolist() == [0, 0, 0]
    for bad in (lambda: field.pow_val(0, -1), lambda: field.inv_val(0),
                lambda: field.pow_val(np.array([1, 0]), -3),
                lambda: field.inv_val(np.array([1, 0]))):
        with pytest.raises(ZeroDivisionError):
            bad()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_whole_field_evaluation_matches_horner_point_by_point(data):
    field = field_of_order(data.draw(st.sampled_from([2, 3, 4, 5, 9, 16, 27])))
    q = field.q
    chunk = data.draw(st.integers(1, 4 * q), label="chunk cells")
    width = data.draw(st.integers(0, 5), label="width")
    coeffs = data.draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=width, max_size=width), max_size=12),
        label="coeffs",
    )
    matrix = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CELLS", chunk)  # rows per block: max(1, chunk // q)
        images = evaluate_whole_field(field, matrix)
    assert images.dtype == np.int32 and images.shape == (len(coeffs), q)
    for row, values in zip(coeffs, images.tolist()):
        poly = Polynomial(field, row)
        assert values == [poly.evaluate(x) for x in range(q)]


@pytest.mark.parametrize(
    "q,coeffs,message",
    [
        (3, [[0, 1.5]], "symbols must be integers: coefficients have dtype float64"),
        (3, [[0, -1]], "field element -1 outside 0..2"),
        (3, [[0, 1], [0, 5]], "field element 5 outside 0..2"),
        (4, [[0, -1]], "field element -1 outside 0..3"),
        (4, np.array([[0, 2**40]]), f"field element {2**40} outside 0..3"),
    ],
    ids=["float", "negative", "above q", "negative in GF(4)", "beyond int32"],
)
def test_whole_field_evaluation_refuses_what_it_would_misread(q, coeffs, message):
    # these evaluated as [[0, 1]], [[0, 2]], [[0, 2]] and images [0, 3, 1, 2]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_whole_field(field_of_order(q), coeffs)


@pytest.mark.parametrize("q,max_degree", [(3, 3), (4, 2), (5, 2), (8, 1)])
def test_census_witnesses_come_in_encoding_order_across_chunks(q, max_degree, monkeypatch):
    field = field_of_order(q)
    monkeypatch.setattr(core, "_BLOCK_CELLS", 3 * q)  # three candidates per block
    census = census_permutation_polynomials(field, max_degree)
    expected = []
    for degree in range(1, max_degree + 1):
        for v in range(q**degree, q ** (degree + 1)):
            coeffs = tuple(v // q**t % q for t in range(degree + 1))
            poly = Polynomial(field, coeffs)
            if len({poly.evaluate(x) for x in range(q)}) == q:
                expected.append(poly)
    assert list(census.witnesses) == expected


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 25, 27, 81, 211])
def test_sweep_translates_match_whole_field_evaluation(q, monkeypatch):
    # the highest degree up to 3 the work limit admits: 3 up to q = 25, 2 at
    # 27, 1 at 81 and at 211, the largest prime it admits; two upper parts
    # per block, so a block's translates span several hits
    field = field_of_order(q)
    max_degree = max(d for d in (1, 2, 3) if (q ** (d + 1) - q) * q <= gf._CENSUS_WORK)
    monkeypatch.setattr(core, "_BLOCK_CELLS", 2 * q * q)
    counts = dict.fromkeys(range(1, max_degree + 1), 0)
    for d, coeffs, images in gf._permutation_polynomials(field, max_degree):
        assert coeffs.shape == (len(images), d + 1) and len(images) % q == 0
        assert (images == evaluate_whole_field(field, coeffs)).all()
        assert gf._bijective_rows(images).all()
        counts[d] += len(images)
    census = census_permutation_polynomials(field, max_degree)
    assert census.counts == counts
    assert all(count % q == 0 for count in census.counts.values())


# ---------------------------------------------------------------------------
# polynomials over a field


def test_polynomial_evaluation_horner_matches_powers():
    field = make_field(3, 2)
    poly = Polynomial(field, [2, 0, 1, 1])  # 2 + x^2 + x^3
    for x in range(9):
        expected = field.add_val(2, field.add_val(field.pow_val(x, 2), field.pow_val(x, 3)))
        assert poly.evaluate(x) == expected
        assert poly(x) == expected


@pytest.mark.parametrize("bad", [9, -1])
def test_coefficients_outside_the_field_are_rejected(bad):
    field = make_field(3, 2)
    with pytest.raises(ValueError):
        Polynomial(field, [1, bad])
    with pytest.raises(ValueError):
        LinearizedPolynomial(field, 3, [bad, 1])


def test_polynomial_constructors_gate_their_coefficients():
    gf3, gf9 = field_of_order(3), field_of_order(9)
    with pytest.raises(ValueError, match="^symbols must be integers: "):
        Polynomial(gf3, (1.5, 7))
    with pytest.raises(ValueError, match="^field element 7 outside 0..2$"):
        Polynomial(gf3, (1, 7))
    with pytest.raises(ValueError, match="^symbols must be integers: "):
        LinearizedPolynomial(gf9, 3, (1.5, 0))
    image = LinearizedPolynomial(gf9, 3, (np.int64(1), 0)).evaluate(2)
    assert type(image) is int and image == 2
    assert Polynomial(gf3, [1, 2, 0, 0]).coeffs == (1, 2)


def test_permutation_polynomial_detection():
    gf3 = make_field(3, 1)
    assert is_permutation_polynomial(Polynomial(gf3, [0, 1]))  # x
    assert is_permutation_polynomial(Polynomial(gf3, [1, 2]))  # 1 + 2x
    assert not is_permutation_polynomial(Polynomial(gf3, [0, 0, 1]))  # x^2
    assert not is_permutation_polynomial(Polynomial(gf3, [2]))  # constant
    gf4 = make_field(2, 2)
    assert is_permutation_polynomial(Polynomial(gf4, [0, 0, 1]))  # x^2


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_census_counts_linear_bijections(q):
    field = field_of_order(q)
    census = census_permutation_polynomials(field, 1)
    assert census.counts[1] == q * (q - 1)
    assert census.total == q * (q - 1)
    for witness in census.witnesses:
        assert is_permutation_polynomial(witness)


def test_census_refuses_work_over_its_budget():
    # (16^6 - 16) * 16 candidate evaluations, well over the budget
    with pytest.raises(WorkLimitExceeded, match="exceeds max_work"):
        census_permutation_polynomials(field_of_order(16), 5)


def test_census_refuses_huge_degrees_without_computing_the_power():
    # 4^(10^8 + 1) took seconds to compute and could not be printed
    message = r"^census of degree 100000000 over GF\(2\^2\) exceeds max_work 10000000$"
    with pytest.raises(WorkLimitExceeded, match=message):
        census_permutation_polynomials(field_of_order(4), 10**8)
    # below the cut-off the cost itself decides: at q = 2, degrees 22 and
    # 23 cost (2^(d+1) - 2) * 2 > 10^7 evaluations
    with pytest.raises(WorkLimitExceeded, match=r"^census of degree 23 over GF\(2\) exceeds"):
        census_permutation_polynomials(field_of_order(2), 23)
    with pytest.raises(WorkLimitExceeded, match=r"^census of degree 22 over GF\(2\) exceeds"):
        census_permutation_polynomials(field_of_order(2), 22)


@pytest.mark.parametrize("q,max_degree", [(3, 2), (4, 2), (5, 3)])
def test_census_matches_independent_bruteforce(q, max_degree):
    field = field_of_order(q)
    census = census_permutation_polynomials(field, max_degree)
    for degree in range(1, max_degree + 1):
        expected = 0
        for tail in itertools.product(range(q), repeat=degree):
            for lead in range(1, q):
                coeffs = list(tail) + [lead]
                values = set()
                for x in range(q):
                    terms = (field.mul_val(c, field.pow_val(x, t)) for t, c in enumerate(coeffs))
                    values.add(functools.reduce(field.add_val, terms))
                if len(values) == q:
                    expected += 1
        assert census.counts[degree] == expected


# ---------------------------------------------------------------------------
# linearized polynomials


def test_trace_maps_onto_prime_subfield():
    field = make_field(3, 2)
    relative_trace = linearized_trace(field, field.p, 1).evaluate
    values = set()
    for v in range(9):
        t = relative_trace(v)
        assert t in (0, 1, 2)
        assert t == field.add_val(v, field.pow_val(v, 3))  # x + x^3
        values.add(t)
    assert values == {0, 1, 2}
    for v in range(9):
        for w in range(9):
            assert relative_trace(field.add_val(v, w)) == field.add_val(
                relative_trace(v), relative_trace(w)
            )


@pytest.mark.parametrize(
    "q,i,builder,kwargs",
    [
        (3, 2, linearized_trace, {"h": 1}),
        (2, 4, linearized_subfield_kernel, {"n": 2}),
        (2, 4, linearized_subfield_kernel, {"n": 1}),
        (4, 2, linearized_trace, {"h": 1}),
        (3, 2, linearized_monomial, {}),
        (2, 3, linearized_monomial, {}),
    ],
)
def test_value_table_matches_direct_evaluation(q, i, builder, kwargs):
    # sum over s of alpha_s * x^(q^s), with table-free products and powers
    # by repeated products
    field = field_of_order(q**i)
    products = _convolution_products(field)
    poly = builder(field, q, **kwargs)
    expected = []
    for x in range(field.q):
        total = 0
        for s, alpha in enumerate(poly.alphas):
            power = functools.reduce(lambda acc, _: products[acc, x], range(q**s), 1)
            total = field.add_val(total, int(products[alpha, power]))
        expected.append(total)
    table = poly.value_table()
    assert table.dtype == np.int32 and table.tolist() == expected
    assert [poly.evaluate(x) for x in range(field.q)] == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_linearized_maps_are_additive(data):
    q, i = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]))
    field = field_of_order(q**i)
    alphas = [
        data.draw(st.integers(0, field.q - 1), label=f"alpha{s}") for s in range(i)
    ]
    if not any(alphas):
        alphas[0] = 1
    poly = LinearizedPolynomial(field, q, alphas)
    a = data.draw(st.integers(0, field.q - 1), label="a")
    b = data.draw(st.integers(0, field.q - 1), label="b")
    image_of_sum = poly.evaluate(field.add_val(a, b))
    sum_of_images = field.add_val(poly.evaluate(a), poly.evaluate(b))
    assert image_of_sum == sum_of_images


def test_associate_matrix_ranks():
    gf9 = field_of_order(9)
    _, rank, kernel = associate_matrix(linearized_trace(gf9, 3, 1))
    assert (rank, kernel) == (1, 3)

    gf16 = field_of_order(16)
    _, rank, kernel = associate_matrix(linearized_subfield_kernel(gf16, 2, 2))
    assert (rank, kernel) == (2, 4)  # image GF(4)-sized, kernel = subfield

    _, rank, kernel = associate_matrix(linearized_monomial(gf16, 2))
    assert (rank, kernel) == (4, 1)  # a bijection


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_associate_matrix_entries_are_conjugates(data):
    q, i = data.draw(st.sampled_from([(2, 4), (3, 2), (4, 3), (2, 3)]), label="q, i")
    field = field_of_order(q**i)
    products = _convolution_products(field)
    alphas = [data.draw(st.integers(0, field.q - 1), label=f"alpha{s}") for s in range(i)]
    matrix, _, _ = associate_matrix(LinearizedPolynomial(field, q, alphas))
    for j, col in itertools.product(range(i), repeat=2):
        # alphas[(j - col) mod i] ** (q ** col) by repeated table-free products
        alpha = alphas[(j - col) % i]
        power = functools.reduce(lambda acc, _: products[acc, alpha], range(q**col), 1)
        assert matrix[j][col] == power


def test_kernel_size_counts_zero_preimages():
    field = field_of_order(16)
    poly = linearized_subfield_kernel(field, 2, 2)
    zeros = sum(1 for v in poly.value_table() if v == 0)
    _, _, kernel = associate_matrix(poly)
    assert zeros == kernel == 4


# ---------------------------------------------------------------------------
# linear algebra helpers


def test_matrix_rank():
    field = make_field(3, 1)
    assert matrix_rank(field, [[1, 2], [0, 1]]) == 2
    # second row is 2 * first row over GF(3), so the matrix is singular
    assert matrix_rank(field, [[1, 2], [2, 1]]) == 1
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_rank(field, identity) == 3


@pytest.mark.parametrize("entry", [-1, 5])
def test_matrix_entries_outside_the_field_are_rejected(entry):
    # -1 used to loop forever in add_val, 5 to die with an IndexError
    field = make_field(3, 1)
    with pytest.raises(ValueError, match=f"field element {entry} outside 0..2"):
        matrix_rank(field, [[1, 2], [entry, 0]])
