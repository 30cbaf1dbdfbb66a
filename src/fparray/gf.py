"""Finite fields GF(p^k) with a pinned-down, reproducible presentation.

Everything downstream (row orderings, column orderings, symbol labels)
depends on two conventions fixed here once and for all:

* the modulus is the monic irreducible of degree k whose coefficient
  vector has the smallest integer encoding sum(c_i * p^i), matching the
  classical small-field tables (x^2+x+1, x^3+x+1, x^4+x+1, ...);
* elements are the plain integers v = sum(a_i * p^i) over the polynomial
  basis, with the constant term as the least significant digit, and are
  always enumerated as v = 0, 1, ..., q-1 (so 0 first, 1 second); every
  function here takes and returns elements in that form.

There is one multiplication: `mul_val` reads a*b as exp[log a + log b]
from exp/log tables that each field fills on first use with one walk over
the powers of its primitive element (O(q) entries); `pow_val`,
`inv_val` and `neg_val` (a multiply by p - 1) read the same tables.
Polynomial arithmetic on digit tuples only builds fields: the
irreducibility test, the primitive-element test and that walk.  Every
element operation, `add_val` with its digit formula included, takes
Python ints and returns an int, or numpy int arrays and returns an array.

Also here: plain and linearized polynomials, the associate matrix of a
linearized map with its rank/kernel bookkeeping, and one sweep over the
permutation polynomials up to a given degree d: it evaluates each candidate
with c_0 = 0 once (q^d - 1 rows), gathers its q translates f + c_0 from
one addition table, and both the census and the linearized construction
consume it.  Its work limit still counts every candidate's q images.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import core
from .core import WorkLimitExceeded, _index, _ints

_ORDER_GUARDRAIL = 2**20
# a permutation-polynomial census refuses more candidate images (candidates
# times q, translates included) than this
_CENSUS_WORK = 10_000_000


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z_p on low-to-high coefficient tuples


def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> tuple[int, ...]:
    # f need not be monic; reduce by its lead inverse
    rem = list(a)
    df, lead = len(f) - 1, f[-1]
    inv_lead = pow(lead, p - 2, p)
    while len(rem) - 1 >= df and rem:
        if rem[-1]:
            factor = rem[-1] * inv_lead % p
            shift = len(rem) - 1 - df
            for j, fj in enumerate(f):
                rem[shift + j] = (rem[shift + j] - factor * fj) % p
        rem.pop()
    return _trim(rem)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = tuple(a), tuple(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base: Sequence[int], e: int, f: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    acc = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), f, p)
        acc = _pmod(_pmul(acc, acc, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Monic f of degree >= 1 has no factor of degree <= deg(f)//2."""
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = (0, 1)
    for d in range(1, k // 2 + 1):
        # x^(p^d) - x collects every irreducible of degree dividing d
        xpd = _ppowmod(x, p**d, f, p)
        diff = list(xpd) + [0] * max(0, 2 - len(xpd))
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(f, _trim(diff), p)) > 1:
            return False
    return True


def _factors(q: int) -> Iterator[tuple[int, int]]:
    """(p, k) for each prime p dividing q >= 1, p ascending, with p^k the
    largest power of p that divides q; one trial division, found lazily."""
    f = 2
    while f * f <= q:
        if q % f == 0:
            k = 0
            while q % f == 0:
                q, k = q // f, k + 1
            yield f, k
        f += 1
    if q > 1:
        yield q, 1


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k for a prime p, or None if q is no prime power."""
    p, k = next(_factors(q), (q, 0))
    return (p, k) if q >= 2 and p**k == q else None


# ---------------------------------------------------------------------------
# fields


class FiniteField:
    """GF(p^k) whose elements are the plain ints 0..q-1; build via `make_field`.

    Every element operation takes Python ints and returns an int, or takes
    numpy int arrays (broadcast together) and returns an array.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # low-to-high, length k+1, monic

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def add_val(self, a, b):
        """a + b digit by digit."""
        if self.p == 2:
            return a ^ b
        p, out = self.p, 0
        for j in range(self.k):
            w = p**j
            out = out + ((a // w + b // w) % p) * w
        return out

    def neg_val(self, a):
        """-a as (p - 1) * a: the int p - 1 is the field element -1."""
        return self.mul_val(self.p - 1, a)

    def sub_val(self, a, b):
        return self.add_val(a, self.neg_val(b))

    def mul_val(self, a, b):
        """a * b as exp[log a + log b]."""
        exp, log = _tables(self)
        product = exp[log[a] + log[b]]
        return int(product) if isinstance(a, int) and isinstance(b, int) else product

    def pow_val(self, a, e: int):
        """a ** e as exp[log a * (e mod q-1)], with 0 ** 0 = 1.

        A negative e inverts, so it raises ZeroDivisionError on a zero a.
        """
        exp, log = _tables(self)
        zero = np.equal(a, 0)
        if e < 0 and zero.any():
            raise ZeroDivisionError("inverse of zero field element")
        power = exp[log[a] * np.int64(e % (self.q - 1)) % (self.q - 1)]
        power = np.where(zero, int(e == 0), power)
        return int(power) if isinstance(a, int) else power

    def inv_val(self, a):
        return self.pow_val(a, -1)

    def primitive_element(self) -> int:
        """The smallest g with g^((q-1)/r) != 1 for every prime r | q-1."""
        p, order = self.p, self.q - 1
        primes = [r for r, _ in _factors(order)]
        return next(
            g for g in range(1, self.q)
            if all(
                _ppowmod(_coefficients(g, p, self.k), order // r, self.modulus, p) != (1,)
                for r in primes
            )
        )


@functools.lru_cache(maxsize=None)
def _tables(field: FiniteField) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) of a field for its primitive element g, built on first use.

    exp[i] = g^i for 0 <= i <= 2q-4 and 0 beyond; log[0] is the
    sentinel 2q-3, so any log sum involving a zero lands in the zero
    tail and exp[log a + log b] = a*b for every pair.
    """
    p, q = field.p, field.q
    g = _coefficients(field.primitive_element(), p, field.k)
    places = [p**j for j in range(field.k)]
    powers, power = [], (1,)
    for _ in range(q - 1):
        powers.append(sum(c * w for c, w in zip(power, places)))
        power = _pmod(_pmul(power, g, p), field.modulus, p)
    exp = np.zeros(4 * q - 5, dtype=np.int32)
    exp[: q - 1] = powers
    exp[q - 1 : 2 * q - 3] = powers[: q - 2]
    log = np.full(q, 2 * q - 3, dtype=np.int32)
    log[powers] = np.arange(q - 1)
    return exp, log


def _coefficients(v: int, p: int, k: int) -> tuple[int, ...]:
    """The k base-p digits of v, constant term first."""
    return tuple(v // p**j % p for j in range(k))


def make_field(p: int, k: int = 1) -> FiniteField:
    """GF(p^k) with the deterministic modulus, cached; checked against the guardrail first."""
    return _make_field(_index(p, "p"), _index(k, "k"))  # before the cache, which keys 2.0 as 2


@functools.lru_cache(maxsize=None)
def _make_field(p: int, k: int) -> FiniteField:
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if p > _ORDER_GUARDRAIL or (
        p >= 2 and (k >= _ORDER_GUARDRAIL.bit_length() or p**k > _ORDER_GUARDRAIL)
    ):
        raise ValueError(f"field order {p}^{k} above guardrail {_ORDER_GUARDRAIL}")
    if _prime_power(p) != (p, 1):
        raise ValueError(f"{p} is not prime")
    if k == 1:
        return FiniteField(p, 1, (0, 1))
    for v in range(p**k):
        candidate = _coefficients(v, p, k) + (1,)
        if _is_irreducible(candidate, p):
            return FiniteField(p, k, candidate)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def field_of_order(q: int) -> FiniteField:
    """GF(q) for a prime power q, factored deterministically below the guardrail."""
    q = _index(q, "q")
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    if q > _ORDER_GUARDRAIL:
        raise ValueError(f"field order {q} above guardrail {_ORDER_GUARDRAIL}")
    factors = _prime_power(q)
    if factors is None:
        raise ValueError(f"{q} is not a prime power")
    return make_field(*factors)


# ---------------------------------------------------------------------------
# plain polynomials


def _check_range(field: FiniteField, values: Iterable[int]) -> None:
    for v in values:
        if not 0 <= v < field.q:
            raise ValueError(f"field element {v} outside 0..{field.q - 1}")


@dataclass(frozen=True)
class Polynomial:
    """Coefficients low-to-high over one field, trailing zeros trimmed;
    () is the zero polynomial.  Coefficients other than integer field
    elements 0..q-1 raise ValueError."""

    field: FiniteField
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = list(_ints([self.coeffs])[0])
        _check_range(self.field, coeffs)
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.field.add_val(self.field.mul_val(acc, x), c)
        return acc

    __call__ = evaluate


def evaluate_whole_field(field: FiniteField, coeffs) -> np.ndarray:
    """f(x) at x = 0, 1, ..., q-1 for each row f of `coeffs` (low to high).

    Returns an int32 array with one row per polynomial.  Horner's rule
    runs over the whole field at once, on blocks of rows of about
    `core._BLOCK_CELLS` images, so temporaries stay small however many
    rows come.
    Coefficients that are not a 2-D matrix, or other than integer field
    elements 0..q-1, raise ValueError.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise ValueError(f"coeffs must be 2-D, a row per polynomial, got shape {coeffs.shape}")
    q = field.q
    if coeffs.size and coeffs.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers: coefficients have dtype {coeffs.dtype}")
    if coeffs.size and (coeffs.min() < 0 or coeffs.max() >= q):
        _check_range(field, coeffs.ravel().tolist())  # names the first one out of range
    coeffs = coeffs.astype(np.int32)
    xs = np.arange(q, dtype=np.int32)
    rows, width = coeffs.shape
    out = np.zeros((rows, q), dtype=np.int32)
    step = max(1, core._BLOCK_CELLS // q)
    for lo in range(0, rows if width else 0, step):  # width 0: the zero polynomial
        block = coeffs[lo : lo + step]
        acc = block[:, -1, None]  # Horner starts from the top coefficient
        for t in range(width - 2, -1, -1):
            acc = field.add_val(field.mul_val(acc, xs), block[:, t, None])
        out[lo : lo + step] = acc
    return out


def _bijective_rows(images: np.ndarray) -> np.ndarray:
    """Per row of whole-field images, whether it lists every element once."""
    return (np.sort(images, axis=1) == np.arange(images.shape[1])).all(axis=1)


@dataclass(frozen=True)
class PermPolyCensus:
    """Exhaustive count of permutation polynomials up to a degree bound."""

    field: FiniteField
    max_degree: int
    counts: dict[int, int]
    witnesses: tuple[Polynomial, ...]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _permutation_polynomials(
    field: FiniteField, max_degree: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Every permutation polynomial of degree 1..max_degree, in encoding order.

    A degree-d candidate is encoded as v = sum(c_t * q^t) with c_d != 0, so
    the sweep v = q^d .. q^(d+1)-1 enumerates exactly the degree-d
    polynomials in increasing encoding order.  Since f + c permutes the
    field exactly when f does, only the upper parts u = v // q (c_0 = 0)
    are evaluated, q^d - 1 rows per call; each bijective u stands for the
    q candidates u*q + c_0, whose images are its own plus c_0, gathered
    from one q x q addition table built per call.  Blocks of upper parts
    expand to about `core._BLOCK_CELLS` images; each yields (d, coeffs,
    images) for its permutation polynomials.  The work limit still counts
    every candidate: candidates times q images over `_CENSUS_WORK` raises
    on the call, before any block or field table, and so bounds q at 215.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    q = field.q
    # q >= 2: from degree bit_length(_CENSUS_WORK) on, over budget uncomputed
    if max_degree >= _CENSUS_WORK.bit_length() or (q ** (max_degree + 1) - q) * q > _CENSUS_WORK:
        raise WorkLimitExceeded(
            f"census of degree {max_degree} over {field} exceeds max_work {_CENSUS_WORK}"
        )
    return _sweep(field, max_degree)


def _sweep(field: FiniteField, max_degree: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    q = field.q
    step = max(1, core._BLOCK_CELLS // (q * q))
    c0 = np.arange(q, dtype=np.int32)
    plus = field.add_val(c0[:, None], c0)  # plus[c, x] = x + c
    for d in range(1, max_degree + 1):
        places = q ** np.arange(d + 1, dtype=np.int64)
        for lo in range(q ** (d - 1), q**d, step):
            upper = np.arange(lo, min(lo + step, q**d), dtype=np.int64)
            images = evaluate_whole_field(field, upper[:, None] * q // places % q)
            hits = _bijective_rows(images)
            codes = (upper[hits, None] * q + c0).ravel()
            translates = plus[c0[:, None], images[hits, None, :]]
            yield d, codes[:, None] // places % q, translates.reshape(-1, q)


def census_permutation_polynomials(field: FiniteField, max_degree: int) -> PermPolyCensus:
    """Count and list every permutation polynomial of degree 1..max_degree.

    Witnesses come in encoding order (see `_permutation_polynomials`);
    over the work budget it raises without a partial census.
    """
    max_degree = _index(max_degree, "max_degree")
    counts: dict[int, int] = {}
    witnesses: list[Polynomial] = []
    for d, coeffs, _ in _permutation_polynomials(field, max_degree):
        counts[d] = counts.get(d, 0) + len(coeffs)
        witnesses.extend(Polynomial(field, c) for c in coeffs.tolist())
    return PermPolyCensus(field, max_degree, counts, tuple(witnesses))


# ---------------------------------------------------------------------------
# linearized polynomials


@dataclass(frozen=True)
class LinearizedPolynomial:
    """Map x -> sum alphas[s] * x^(q^s) on GF(q^i), with declared base q.

    The field has order p^K; q = p^a must satisfy a | K, and exactly
    i = K/a coefficients are declared.  The map is additive and commutes
    with scalar multiplication from the prime field.
    """

    field: FiniteField
    q: int
    alphas: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _index(self.q, "q"))
        object.__setattr__(self, "alphas", _ints([self.alphas])[0])
        a = _base_exponent(self.field, self.q)
        if len(self.alphas) != self.field.k // a:
            raise ValueError(
                f"need {self.field.k // a} coefficients, got {len(self.alphas)}"
            )
        _check_range(self.field, self.alphas)

    @property
    def i(self) -> int:
        return len(self.alphas)

    @property
    def top_exponent(self) -> int:
        """Largest s with alphas[s] nonzero; the map's degree is q^s."""
        for s in range(self.i - 1, -1, -1):
            if self.alphas[s]:
                return s
        raise ValueError("linearized polynomial is identically zero")

    def evaluate(self, x):
        """L(x) for an int, or elementwise for a numpy int array."""
        field = self.field
        return functools.reduce(field.add_val, (
            field.mul_val(alpha, field.pow_val(x, self.q**s))
            for s, alpha in enumerate(self.alphas)
        ))

    __call__ = evaluate

    def value_table(self) -> np.ndarray:
        """L(x) for every x in enumeration order, as one int32 array."""
        return self.evaluate(np.arange(self.field.q, dtype=np.int32))


def _base_exponent(field: FiniteField, q: int) -> int:
    """a with q = p^a, for a dividing the field's extension degree."""
    factors = _prime_power(_index(q, "q"))
    if factors is None or factors[0] != field.p or field.k % factors[1]:
        raise ValueError(f"base {q} is not a power of {field.p} dividing the extension")
    return factors[1]


def linearized_trace(field: FiniteField, q: int, h: int) -> LinearizedPolynomial:
    """Relative trace onto the subfield of order q^h as a linearized map."""
    h, i = _index(h, "h"), field.k // _base_exponent(field, q)
    if h < 1 or i % h:
        raise ValueError(f"trace subfield degree {h} must divide {i}")
    values = [1 if s % h == 0 else 0 for s in range(i)]
    return LinearizedPolynomial(field, q, values)


def linearized_subfield_kernel(field: FiniteField, q: int, n: int) -> LinearizedPolynomial:
    """The map x^(q^n) - x, whose kernel is the order-q^n subfield."""
    n, i = _index(n, "n"), field.k // _base_exponent(field, q)
    if not 0 < n < i or i % n:
        raise ValueError(f"subfield exponent {n} must properly divide {i}")
    values = [0] * i
    values[0] = field.p - 1  # the element -1, read without the field's tables
    values[n] = field.add_val(values[n], 1)
    return LinearizedPolynomial(field, q, values)


def linearized_monomial(field: FiniteField, q: int) -> LinearizedPolynomial:
    """The full-rank map x^(q^(i-1))."""
    i = field.k // _base_exponent(field, q)
    values = [0] * i
    values[i - 1] = 1
    return LinearizedPolynomial(field, q, values)


# ---------------------------------------------------------------------------
# linear algebra over a field (small dense matrices)


def matrix_rank(field: FiniteField, rows: Sequence[Sequence[int]]) -> int:
    """Row-reduction rank over the field."""
    rows = _ints(rows)
    _check_range(field, (v for row in rows for v in row))
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv_val(mat[rank][col])
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                factor = field.mul_val(mat[r][col], inv)
                mat[r] = [
                    field.sub_val(v, field.mul_val(factor, w))
                    for v, w in zip(mat[r], mat[rank])
                ]
        rank += 1
    return rank


def associate_matrix(
    L: LinearizedPolynomial,
) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(matrix, rank, kernel_size) for a linearized map.

    Entry (j, col) is alphas[(j - col) mod i] raised to the q^col power.
    The kernel size q^(i - rank) is cross-checked against a full value
    table whenever the field is small enough to afford one.
    """
    field, i = L.field, L.i
    matrix = tuple(
        tuple(field.pow_val(L.alphas[(j - col) % i], L.q**col) for col in range(i))
        for j in range(i)
    )
    rank = matrix_rank(field, matrix)
    kernel_size = L.q ** (i - rank)
    if field.q <= 2**16:
        observed = int(np.count_nonzero(L.value_table() == 0))
        if observed != kernel_size:
            raise RuntimeError(
                f"kernel cross-check failed: rank says {kernel_size}, table says {observed}"
            )
    return matrix, rank, kernel_size
