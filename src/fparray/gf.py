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

Also here: plain and linearized polynomials, the associate matrix of a
linearized map with its rank/kernel bookkeeping, and a brute-force census
of permutation polynomials up to a given degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import WorkLimitExceeded

_ORDER_GUARDRAIL = 2**20


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


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k for a prime p, or None if q is no prime power."""
    if q < 2:
        return None
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


# ---------------------------------------------------------------------------
# fields


class FiniteField:
    """GF(p^k) whose elements are the plain ints 0..q-1; build via `make_field`."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # low-to-high, length k+1, monic
        # x^(k+t) mod modulus for t = 0..k-2, as length-k digit tuples
        red = []
        cur = [(-m) % p for m in modulus[:-1]]
        red.append(tuple(cur))
        for _ in range(k - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for j in range(k):
                    nxt[j] = (nxt[j] + top * red[0][j]) % p
            cur = nxt
            red.append(tuple(cur))
        self._red = red
        self._digits: list[tuple[int, ...]] | None = None
        if self.q <= 2**16:
            self._digits = [self._decode_slow(v) for v in range(self.q)]

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def _decode_slow(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def decode(self, v: int) -> tuple[int, ...]:
        if self._digits is not None:
            return self._digits[v]
        return self._decode_slow(v)

    def encode(self, digits: Iterable[int]) -> int:
        v, mult = 0, 1
        for d in digits:
            v += (d % self.p) * mult
            mult *= self.p
        return v

    def add_val(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        v, mult = 0, 1
        while a or b:
            v += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return v

    def neg_val(self, a: int) -> int:
        if self.p == 2:
            return a
        v, mult = 0, 1
        while a:
            d = a % self.p
            if d:
                v += (self.p - d) * mult
            a //= self.p
            mult *= self.p
        return v

    def sub_val(self, a: int, b: int) -> int:
        return self.add_val(a, self.neg_val(b))

    def mul_val(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        da, db = self.decode(a), self.decode(b)
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        out = conv[:k]
        for t in range(k, 2 * k - 1):
            c = conv[t]
            if c:
                row = self._red[t - k]
                for j in range(k):
                    if row[j]:
                        out[j] = (out[j] + c * row[j]) % p
        return self.encode(out)

    def pow_val(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_val(self.inv_val(a), -e)
        result, acc = 1, a
        while e:
            if e & 1:
                result = self.mul_val(result, acc)
            acc = self.mul_val(acc, acc)
            e >>= 1
        return result

    def inv_val(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow_val(a, self.q - 2)

    def frobenius_val(self, a: int, times: int = 1) -> int:
        for _ in range(times):
            a = self.pow_val(a, self.p)
        return a


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FiniteField:
    """GF(p^k) with the deterministic modulus; instances are cached."""
    if _prime_power(p) != (p, 1):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if p**k > _ORDER_GUARDRAIL:
        raise ValueError(f"field order {p**k} above guardrail {_ORDER_GUARDRAIL}")
    if k == 1:
        return FiniteField(p, 1, (0, 1))
    for v in range(p**k):
        digits = []
        vv = v
        for _ in range(k):
            digits.append(vv % p)
            vv //= p
        candidate = tuple(digits) + (1,)
        if _is_irreducible(candidate, p):
            return FiniteField(p, k, candidate)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def field_of_order(q: int) -> FiniteField:
    """GF(q) for a prime power q, factoring q deterministically."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
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
    """Coefficients low-to-high over one field; () is the zero polynomial."""

    field: FiniteField
    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, field: FiniteField, values: Sequence[int]) -> "Polynomial":
        vals = [int(v) for v in values]
        _check_range(field, vals)
        while vals and vals[-1] == 0:
            vals.pop()
        return cls(field, tuple(vals))

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.field.add_val(self.field.mul_val(acc, x), c)
        return acc

    __call__ = evaluate


def _field_images(f: Polynomial) -> Iterator[int]:
    """f(x) for x = 0, 1, ..., q-1 by Horner's rule, computed as consumed."""
    field, coeffs = f.field, f.coeffs[::-1]
    for x in range(field.q):
        acc = 0
        for c in coeffs:
            acc = field.add_val(field.mul_val(acc, x), c)
        yield acc


def is_permutation_polynomial(f: Polynomial) -> bool:
    """True iff f hits every field element exactly once."""
    seen = bytearray(f.field.q)
    for v in _field_images(f):
        if seen[v]:
            return False
        seen[v] = 1
    return True


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


def census_permutation_polynomials(
    field: FiniteField, max_degree: int, max_work: int = 10_000_000
) -> PermPolyCensus:
    """Test every polynomial of degree 1..max_degree, in encoding order.

    A degree-d candidate is encoded as v = sum(c_t * q^t) with c_d != 0, so
    the sweep v = q^d .. q^(d+1)-1 enumerates exactly the degree-d
    polynomials in increasing encoding order.  Work is candidates times q
    evaluations; exceeding `max_work` raises without a partial census.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    q = field.q
    work = (q ** (max_degree + 1) - q) * q
    if work > max_work:
        raise WorkLimitExceeded(
            f"census cost {work} exceeds max_work {max_work}"
        )
    counts: dict[int, int] = {}
    witnesses: list[Polynomial] = []
    for d in range(1, max_degree + 1):
        found = 0
        for v in range(q**d, q ** (d + 1)):
            vals = []
            vv = v
            for _ in range(d + 1):
                vals.append(vv % q)
                vv //= q
            f = Polynomial(field, tuple(vals))
            if is_permutation_polynomial(f):
                found += 1
                witnesses.append(f)
        counts[d] = found
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
        a = _base_exponent(self.field, self.q)
        if len(self.alphas) != self.field.k // a:
            raise ValueError(
                f"need {self.field.k // a} coefficients, got {len(self.alphas)}"
            )
        _check_range(self.field, self.alphas)

    @classmethod
    def of(cls, field: FiniteField, q: int, values: Sequence[int]) -> "LinearizedPolynomial":
        return cls(field, q, tuple(int(v) for v in values))

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

    def evaluate(self, x: int) -> int:
        field, a = self.field, _base_exponent(self.field, self.q)
        acc = 0
        for s, alpha in enumerate(self.alphas):
            if s:
                x = field.frobenius_val(x, a)
            if alpha:
                acc = field.add_val(acc, field.mul_val(alpha, x))
        return acc

    __call__ = evaluate

    def value_table(self) -> list[int]:
        """L(x) for every x in enumeration order, via additivity.

        Images of the p-power basis elements are combined digit by digit,
        so the table costs O(q) field additions instead of O(q) full
        evaluations.
        """
        field = self.field
        p, k, order = field.p, field.k, field.q
        basis_img = [self.evaluate(p**j) for j in range(k)]
        scaled = [[0] * p for _ in range(k)]
        for j in range(k):
            for c in range(1, p):
                scaled[j][c] = field.add_val(scaled[j][c - 1], basis_img[j])
        table = [0] * order
        for v in range(1, order):
            j, vv = 0, v
            while vv % p == 0:
                vv //= p
                j += 1
            c = vv % p
            # digitwise: v = (v - c*p^j) + c * p^j as field elements
            table[v] = field.add_val(table[v - c * p**j], scaled[j][c])
        return table


def _base_exponent(field: FiniteField, q: int) -> int:
    """a with q = p^a, for a dividing the field's extension degree."""
    factors = _prime_power(q)
    if factors is None or factors[0] != field.p or field.k % factors[1]:
        raise ValueError(f"base {q} is not a power of {field.p} dividing the extension")
    return factors[1]


def linearized_trace(field: FiniteField, q: int, h: int) -> LinearizedPolynomial:
    """Relative trace onto the subfield of order q^h as a linearized map."""
    i = field.k // _base_exponent(field, q)
    if h < 1 or i % h:
        raise ValueError(f"trace subfield degree {h} must divide {i}")
    values = [1 if s % h == 0 else 0 for s in range(i)]
    return LinearizedPolynomial.of(field, q, values)


def linearized_subfield_kernel(field: FiniteField, q: int, n: int) -> LinearizedPolynomial:
    """The map x^(q^n) - x, whose kernel is the order-q^n subfield."""
    i = field.k // _base_exponent(field, q)
    if not 0 < n < i or i % n:
        raise ValueError(f"subfield exponent {n} must properly divide {i}")
    values = [0] * i
    values[0] = field.neg_val(1)
    values[n] = field.add_val(values[n], 1)
    return LinearizedPolynomial.of(field, q, values)


def linearized_monomial(field: FiniteField, q: int) -> LinearizedPolynomial:
    """The full-rank map x^(q^(i-1))."""
    i = field.k // _base_exponent(field, q)
    values = [0] * i
    values[i - 1] = 1
    return LinearizedPolynomial.of(field, q, values)


def relative_trace(E: FiniteField, h: int, x: int) -> int:
    """Trace of x onto the subfield GF(p^h); h must divide the degree.

    Evaluates x + x^(p^h) + x^(p^2h) + ... over all K/h conjugates as the
    base-p trace map.  Callers thinking in terms of a base power q = p^a
    use h_prime = a * h_base.
    """
    return linearized_trace(E, E.p, h).evaluate(x)


# ---------------------------------------------------------------------------
# linear algebra over a field (small dense matrices)


def matrix_rank(field: FiniteField, rows: Sequence[Sequence[int]]) -> int:
    """Row-reduction rank over the field."""
    _check_range(field, (v for row in rows for v in row))
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv_val(mat[rank][col])
        mat[rank] = [field.mul_val(inv, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [
                    field.sub_val(v, field.mul_val(factor, w))
                    for v, w in zip(mat[r], mat[rank])
                ]
        rank += 1
        if rank == len(mat):
            break
    return rank


def matrix_det(field: FiniteField, rows: Sequence[Sequence[int]]) -> int:
    """Determinant by elimination (square matrices only)."""
    _check_range(field, (v for row in rows for v in row))
    mat = [list(row) for row in rows]
    nrows = len(mat)
    if any(len(r) != nrows for r in mat):
        raise ValueError("determinant needs a square matrix")
    det = 1
    for col in range(nrows):
        pivot = next((r for r in range(col, nrows) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = field.neg_val(det)
        det = field.mul_val(det, mat[col][col])
        inv = field.inv_val(mat[col][col])
        for r in range(col + 1, nrows):
            if mat[r][col]:
                factor = field.mul_val(mat[r][col], inv)
                mat[r] = [
                    field.sub_val(v, field.mul_val(factor, w))
                    for v, w in zip(mat[r], mat[col])
                ]
    return det


def associate_matrix(
    L: LinearizedPolynomial,
) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(matrix, rank, kernel_size) for a linearized map.

    Entry (j, col) is alphas[(j - col) mod i] raised to the q^col power.
    The kernel size q^(i - rank) is cross-checked against a full value
    table whenever the field is small enough to afford one.
    """
    field, i, a = L.field, L.i, _base_exponent(L.field, L.q)
    matrix = tuple(
        tuple(field.frobenius_val(L.alphas[(j - col) % i], a * col) for col in range(i))
        for j in range(i)
    )
    rank = matrix_rank(field, matrix)
    kernel_size = L.q ** (i - rank)
    if field.q <= 2**16:
        table = L.value_table()
        observed = sum(1 for v in table if v == 0)
        if observed != kernel_size:
            raise RuntimeError(
                f"kernel cross-check failed: rank says {kernel_size}, table says {observed}"
            )
    return matrix, rank, kernel_size
