"""Direct constructions of frequency permutation arrays.

Ingredient objects (frequency squares, orthogonal arrays, resolvable
designs, Hadamard matrices) validate their own defining properties at
construction time; the fpa_from_* converters then only have to claim the
distance each classical argument guarantees.  Squares, orthogonal arrays
and each class of a resolvable design take their cells as rows of ints
or as one integer numpy matrix and read them once through
`core._symbols`, after their parameters are checked; it gives the read-only
rows x width matrix of symbols, or none for a row of another width or a
symbol outside the ingredient's range (0..m-1, 0..s-1, 0..v-1), which the
ingredient then refuses.  That matrix is the field itself: a square's
`cells`, an orthogonal array's `rows`, and a design's `classes`, one
classes x (v/k) x k array from which the design derives its block index.
Their checks, the producers that build them and the converters that read
them all work on those matrices, and strength 2 is checked by
`core._unbalanced_pair`'s sort of pair codes.  A Hadamard matrix's rows
are one read-only int8 matrix too, built by `np.kron` on product routes.
Sizes the rows fix are derived, not stored: a square's n is m * lam, an
orthogonal array's r and a Hadamard matrix's n count rows, strength is 2.
Additive-map images share `gf`'s permutation-polynomial sweep with the
census, which evaluates each candidate with c_0 = 0 once (q^d - 1 rows)
and takes its translates in one gather from a q x q addition table.
Orderings are pinned everywhere: field elements by their integer
encoding, tuples odometer-style with the first coordinate most
significant, grids row-major.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import core
from .bounds import mofs_max
from .core import (
    FrequencyPermutationArray,
    WorkLimitExceeded,
    _composed,
    _distance_scan,
    _index,
    _ints,
    _label_dtype,
    _pair_counts,
    _read,
    _symbols,
    _SymbolRecord,
    _unbalanced_pair,
    is_lambda_permutation,
)
from .gf import (
    FiniteField,
    LinearizedPolynomial,
    _check_range,
    _permutation_polynomials,
    _prime_power,
    field_of_order,
)


# ---------------------------------------------------------------------------
# frequency squares


@dataclass(frozen=True, eq=False)
class FrequencySquare(_SymbolRecord):
    """n x n grid, n = m * lam, where every row and column holds each symbol lam times.

    `cells` is the read-only n x n matrix from `core._symbols`; it may be
    given as rows of ints or as a 2-D integer numpy array.
    """

    m: int
    lam: int
    cells: np.ndarray

    def __post_init__(self) -> None:
        self._set_ints("m", "lam")
        if self.m < 1 or self.lam < 1:
            raise ValueError(f"need m >= 1 and lam >= 1, got m={self.m}, lam={self.lam}")
        n = self.n
        cells = _read(self.cells)
        grid = _symbols(cells, self.m, n)
        if len(cells) != n or grid is None and any(len(row) != n for row in cells):
            raise ValueError("cells must form an n x n grid")
        if grid is None:  # a symbol out of range: some row is not uniform, and rows come first
            idx = [is_lambda_permutation(r, self.m, self.lam) for r in cells].index(False)
            raise ValueError(f"row {idx} is not {self.lam}-uniform")
        object.__setattr__(self, "cells", grid)
        # rows 0..n-1, then columns as rows n..2n-1
        bad = np.flatnonzero(~_composed(np.concatenate([grid, grid.T]), self.m, self.lam))
        if bad.size:
            what, idx = divmod(int(bad[0]), n)
            raise ValueError(f"{('row', 'column')[what]} {idx} is not {self.lam}-uniform")

    @property
    def n(self) -> int:
        return self.m * self.lam

    @classmethod
    def from_cells(cls, cells: Sequence[Sequence[int]]) -> "FrequencySquare":
        grid = _ints(cells)
        n = len(grid)
        m = max(itertools.chain.from_iterable(grid), default=-1) + 1
        if m < 1 or n % m:
            raise ValueError("cell values do not determine a symbol count dividing n")
        return cls(m, n // m, grid)


def are_orthogonal(a: FrequencySquare, b: FrequencySquare) -> bool:
    """Superimposing must show every ordered symbol pair lam_a*lam_b times."""
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    counts = _pair_counts(a.cells.ravel(), b.cells.ravel(), a.m, b.m)
    return bool((counts == a.lam * b.lam).all())


def _symbol_cells(flat: np.ndarray, m: int) -> np.ndarray:
    """Per row of `flat` (one square's row-major cells) and per symbol
    0..m-1, the ascending indices of the cells that hold it, as the rows of
    one matrix; every symbol must fill the same number of cells.  One
    stable sort per row."""
    return np.argsort(flat, axis=-1, kind="stable").reshape(-1, flat.shape[-1] // m)


def _latin_order(squares: Sequence[FrequencySquare]) -> int:
    """The order n shared by a nonempty list of latin squares."""
    if not squares:
        raise ValueError("need at least one square")
    n = squares[0].n
    if any(sq.lam != 1 or sq.n != n for sq in squares):
        raise ValueError("need latin squares of one common order")
    return n


def mols_from_field(q: int) -> list[FrequencySquare]:
    """The q-1 pairwise orthogonal latin squares x, y -> a*x + y, a != 0,
    which are exactly `mofs_complete(q, 1)`."""
    if _index(q, "q") < 3:  # mofs_complete reads q through _index again
        raise ValueError(f"need a prime power q >= 3, got {q}")
    return mofs_complete(q, 1)


# `mofs_complete` refuses to build more cells than this: (q^i - 1)^2 / (q - 1)
# squares of q^(2i) cells each.  GF(97) squares (903 264 cells) fit.
_MOFS_WORK = 1_000_000


def mofs_complete(q: int, i: int) -> list[FrequencySquare]:
    """The complete set of (q^i - 1)^2 / (q - 1) orthogonal frequency squares.

    Linear forms in 2i variables over GF(q) whose first i and last i
    coefficients are both nonzero somewhere, deduplicated by scaling the
    first nonzero coefficient of the *last* block to 1 (this convention
    makes mofs_complete(3, 1) return the classical pair x+y, 2x+y rather
    than their transposes).  Rows are indexed by the first variable block,
    columns by the second, both odometer-ordered.
    """
    q, i = _index(q, "q"), _index(i, "i")
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    if q >= 2:  # field_of_order refuses the rest
        # each square has q^(2i) >= 2^(2i floor(log2 q)) cells: over budget uncomputed
        if 2 * i * (q.bit_length() - 1) >= _MOFS_WORK.bit_length():
            raise WorkLimitExceeded(f"squares of {q}^{2 * i} cells exceed max_work {_MOFS_WORK}")
        count = mofs_max(q**i, q)
        cells = count * q ** (2 * i)
        if cells > _MOFS_WORK:
            raise WorkLimitExceeded(f"{cells} cells exceed max_work {_MOFS_WORK}")
    field = field_of_order(q)
    n = q**i
    vectors = _odometer(q, i)[1:]
    leads = vectors[np.arange(n - 1), (vectors != 0).argmax(axis=1)]
    left = _linear_forms(field, vectors)
    right = _linear_forms(field, vectors[leads == 1])
    squares = [
        FrequencySquare(q, n // q, field.add_val(lv[:, None], rv))
        for lv in left
        for rv in right
    ]
    if len(squares) != count:
        raise RuntimeError(f"built {len(squares)} squares, expected {count}")
    return squares


def _odometer(q: int, k: int) -> np.ndarray:
    """All q^k vectors over 0..q-1 as int32 rows, first coordinate most
    significant."""
    codes = np.arange(q**k, dtype=np.int64)[:, None]
    return (codes // q ** np.arange(k - 1, -1, -1) % q).astype(np.int32)


def _linear_forms(field: FiniteField, coeffs: np.ndarray) -> np.ndarray:
    """Row r, column x: coeffs[r] . x for every x in odometer order.

    One coordinate of the points at a time, added into blocks of about
    `core._BLOCK_CELLS` cells, so no temporary is larger than a block.
    """
    q, k = field.q, coeffs.shape[1]
    codes = np.arange(q**k, dtype=np.int64)
    out = np.zeros((coeffs.shape[0], q**k), dtype=np.int32)
    step = max(1, core._BLOCK_CELLS // len(codes))
    for t in range(k):
        digit = (codes // q ** (k - 1 - t) % q).astype(np.int32)
        for i in range(0, len(out), step):
            term = field.mul_val(coeffs[i : i + step, t, None], codes[:q])[:, digit]
            out[i : i + step] = field.add_val(out[i : i + step], term)
    return out


def fpa_from_mofs(squares: Sequence[FrequencySquare]) -> FrequencyPermutationArray:
    """List, per square and symbol, the columns holding that symbol.

    E mutually orthogonal F(n; lam) squares over m symbols give m*E rows of
    length n*lam over n column-symbols: distance is exactly n*lam within a
    square and at least n*lam - lam^2 across squares.
    """
    if not squares:
        raise ValueError("need at least one square")
    first = squares[0]
    if any((s.m, s.lam) != (first.m, first.lam) for s in squares):
        raise ValueError("squares must share (n, m, lam)")
    flat = np.stack([sq.cells.ravel() for sq in squares])
    pair = _unbalanced_pair(flat, first.m, first.lam * first.lam)
    if pair:
        raise ValueError(f"squares {pair[0]} and {pair[1]} are not orthogonal")
    n, lam = first.n, first.lam
    rows = _symbol_cells(flat, first.m) % n
    return FrequencyPermutationArray(n, lam, rows, n * lam - lam * lam)


# ---------------------------------------------------------------------------
# linearized-polynomial images


def fpa_from_linearized(L: LinearizedPolynomial, d: int) -> FrequencyPermutationArray:
    """Rows L(f(x)) over all permutation polynomials f of degree <= d.

    Both parameters are read off L's value table: lam is the kernel size
    (the number of zeros) and m = q^i / lam is the image size.  Adding a
    kernel constant to f reproduces the same row, so distinct rows number
    (permutation polynomials of degree <= d) / lam; the construction keeps
    first-seen rows and checks that count, and that the rows use m
    symbols.  Symbols are relabeled to 0..m - 1 by first appearance,
    scanning rows left to right.
    """
    d, field = _index(d, "d"), L.field
    l = L.top_exponent
    q, i = L.q, L.i
    if not 0 < d < q ** (i - l):
        raise ValueError(f"need 0 < d < {q ** (i - l)} for this map, got {d}")
    table = L.value_table()
    lam = int(np.count_nonzero(table == 0))
    # each permutation polynomial's images, once; first-seen rows by their bytes
    seen: dict[bytes, None] = {}
    total = 0
    for _, _, images in _permutation_polynomials(field, d):
        total += len(images)
        seen.update(dict.fromkeys(map(bytes, table[images])))
    if len(seen) * lam != total:
        raise RuntimeError(f"row dedup gave {len(seen)} rows of {total}, kernel size {lam}")
    order = field.q
    raw = np.frombuffer(b"".join(seen), dtype=table.dtype).reshape(-1, order)
    # symbol labels by first appearance, scanning rows left to right
    values, first = np.unique(raw, return_index=True)
    labels = np.zeros(order, dtype=np.int32)
    labels[values[np.argsort(first)]] = np.arange(len(values))
    m = order // lam
    if len(values) * lam != order:
        raise RuntimeError(f"image used {len(values)} symbols, expected {m}")
    return FrequencyPermutationArray(m, lam, labels[raw], order - d * q**l)


# ---------------------------------------------------------------------------
# orthogonal arrays


@dataclass(frozen=True, eq=False)
class OrthogonalArray(_SymbolRecord):
    """r x v array over s symbols, r = len(rows); strength-2 uniformity is validated.

    `rows` is the read-only r x v matrix from `core._symbols`; it may be
    given as rows of ints or as a 2-D integer numpy array.
    """

    v: int
    s: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        self._set_ints("v", "s")
        if self.s < 1 or self.v < 1:
            raise ValueError(f"need s >= 1 and v >= 1, got s={self.s}, v={self.v}")
        if self.v % self.s**2:
            raise ValueError(f"index v/s^t = {self.v}/{self.s ** 2} is not integral")
        rows = _read(self.rows)
        mat = _symbols(rows, self.s, self.v)
        if mat is None:
            grid = all(len(row) == self.v for row in rows)
            raise ValueError("symbol outside 0..s-1" if grid else "rows must form an r x v grid")
        object.__setattr__(self, "rows", mat)
        pair = _unbalanced_pair(mat, self.s, self.v // self.s**2)
        if pair:
            raise ValueError(f"rows {pair[0]}, {pair[1]} break strength-2 uniformity")

    @property
    def r(self) -> int:
        return len(self.rows)


def oa_from_mols(squares: Sequence[FrequencySquare]) -> OrthogonalArray:
    """OA[n^2, m+2, n, 2]: cell row index, cell column index, one row per square."""
    n = _latin_order(squares)
    cells = np.arange(n * n)
    flat = (sq.cells.ravel() for sq in squares)
    return OrthogonalArray(n * n, n, np.stack([cells // n, cells % n, *flat]))


def fpa_from_oa(oa: OrthogonalArray) -> FrequencyPermutationArray:
    """Read the r OA rows as an equidistant array at distance v - v/s."""
    lam = oa.v // oa.s
    return FrequencyPermutationArray(oa.s, lam, oa.rows, oa.v - lam)


# ---------------------------------------------------------------------------
# resolvable designs


@dataclass(frozen=True, eq=False)
class ResolvableDesign(_SymbolRecord):
    """Parallel classes of k-subsets of 0..v-1; pair balance optional.

    `lambda_d` may be None for class systems (nets) that are resolvable and
    carry the affine intersection property without being a 2-design; when a
    value is declared, the every-pair count is validated against it.
    `classes` is one read-only classes x (v/k) x k array; each class may be
    given as rows of ints or as a blocks x k integer numpy matrix, and is
    read and checked on its own before the next.
    """

    v: int
    k: int
    classes: np.ndarray
    lambda_d: int | None = None

    def __post_init__(self) -> None:
        self._set_ints("v", "k")
        if self.lambda_d is not None:
            self._set_ints("lambda_d")
        if self.v < 1:
            raise ValueError(f"need v >= 1 points, got v={self.v}")
        if self.k < 1 or self.v % self.k:
            raise ValueError(f"block size {self.k} must divide {self.v}")
        per_class = self.v // self.k
        blocks = []
        for idx, cls in enumerate(list(map(_read, self.classes))):
            if len(cls) != per_class:
                raise ValueError(f"class {idx} has {len(cls)} blocks, expected {per_class}")
            points = _symbols(cls, self.v, self.k)
            if points is None:  # a block of another size, or a point outside 0..v-1
                raise ValueError(f"class {idx} has a malformed block")
            if not _composed(points.reshape(1, self.v), self.v, 1)[0]:
                raise ValueError(f"class {idx} does not partition the points")
            blocks.append(points)
        classes = np.array(blocks, dtype=_label_dtype(self.v)).reshape(-1, per_class, self.k)
        classes.flags.writeable = False
        object.__setattr__(self, "classes", classes)
        # rows[i, p] = index of point p's block in class i
        rows = np.zeros((len(classes), self.v), dtype=np.int64)
        rows[np.arange(len(classes))[:, None, None], classes] = np.arange(per_class)[:, None]
        object.__setattr__(self, "_block_index", rows)
        if self.lambda_d is not None:
            # points x, y share a block in every class where columns x, y of
            # the class rows agree.  Distances alone would accept lambda_d = 0
            # when k = 1, so a covering count outside 1..classes is rejected
            # outright; that also keeps `apart` in range of the unsigned counts.
            cols = np.ascontiguousarray(rows.T)
            apart = len(classes) - self.lambda_d
            if self.v >= 2 and (
                not 0 <= apart < len(classes) or _distance_scan(cols) != (apart, apart)
            ):
                raise ValueError(f"point pairs are not covered exactly {self.lambda_d} times")

    def is_affine(self) -> bool:
        """k^2/v integral and non-parallel blocks always meet in k^2/v points."""
        if (self.k * self.k) % self.v:
            return False
        lam = self.k * self.k // self.v
        return _unbalanced_pair(self._block_index, self.v // self.k, lam) is None


def affine_classes_from_mols(squares: Sequence[FrequencySquare]) -> ResolvableDesign:
    """Row class, column class, and one class per latin square, on n^2 points."""
    n = _latin_order(squares)
    grid = np.arange(n * n).reshape(n, n)
    classes = [grid, grid.T, *(_symbol_cells(sq.cells.ravel(), sq.m) for sq in squares)]
    lambda_d = 1 if len(squares) == n - 1 else None
    return ResolvableDesign(n * n, n, classes, lambda_d)


def fpa_from_ard(design: ResolvableDesign) -> FrequencyPermutationArray:
    """One row per parallel class: point p maps to the index of its block.

    The v - k distance guarantee needs the affine intersection property,
    which is checked here.
    """
    if not design.is_affine():
        raise ValueError("design is not affine; the v - k distance claim needs k^2/v-point intersections")
    m = design.v // design.k
    return FrequencyPermutationArray(m, design.k, design._block_index, design.v - design.k)


# ---------------------------------------------------------------------------
# MDS codes


def reed_solomon_generator(
    q: int, k: int, n: int
) -> tuple[FiniteField, tuple[tuple[int, ...], ...]]:
    """Vandermonde generator on the first n evaluation points; n = q+1 adds
    the column (0, ..., 0, 1)."""
    q, k, n = _index(q, "q"), _index(k, "k"), _index(n, "n")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > q + 1:
        raise ValueError(f"need n <= q+1 = {q + 1}, got {n}")
    field = field_of_order(q)
    points = np.arange(min(n, q), dtype=np.int32)
    rows = [[1] * len(points)] + [field.pow_val(points, t).tolist() for t in range(1, k)]
    if n == q + 1:
        for t, row in enumerate(rows):
            row.append(int(t == k - 1))
    return field, tuple(map(tuple, rows))


# `fpa_from_mds` refuses arrays of more cells (n rows of q^k) than this
_MDS_CELLS = 1 << 22
# `hadamard_matrix` refuses orders whose matrix has more cells than this
_HADAMARD_CELLS = 1 << 20


def fpa_from_mds(
    field: FiniteField, generator: Sequence[Sequence[int]]
) -> FrequencyPermutationArray:
    """One row per generator column: entries col . x over all x, odometer order.

    Needs entries in 0..q-1 and n * q^k cells at most `_MDS_CELLS`.  The rows
    are checked as built, column x being the codeword of x: columns a, b are
    dependent iff one of them is zero or rows a, b have the same zeros (the
    hyperplane each nonzero column vanishes on), and k columns are dependent
    iff a nonzero codeword vanishes on them all.
    """
    rows_in = _ints(generator)
    if not rows_in or not rows_in[0] or len({len(r) for r in rows_in}) != 1:
        raise ValueError("generator must be a nonempty rectangular matrix")
    _check_range(field, (e for row in rows_in for e in row))
    q, k, n = field.q, len(rows_in), len(rows_in[0])
    # q^k >= 2^(k floor(log2 q)): over the limit uncomputed
    if k * (q.bit_length() - 1) >= _MDS_CELLS.bit_length():
        raise WorkLimitExceeded(f"rows of {q}^{k} cells exceed max_work {_MDS_CELLS}")
    if n * q**k > _MDS_CELLS:
        raise WorkLimitExceeded(f"{n * q**k} cells exceed max_work {_MDS_CELLS}")
    rows = _linear_forms(field, np.array(rows_in, dtype=np.int32).T)
    zero = rows == 0
    first: dict[bytes, int] = {}  # each zero set's first column
    keys = map(bytes, np.packbits(zero, axis=1))
    pairs = [(first.setdefault(key, b), b) for b, key in enumerate(keys)]
    # a zero column z is dependent with all others: its first pair is (0, z), or (0, 1)
    pairs += [(0, int(z) or 1) for z in np.flatnonzero(zero.all(axis=1))[:1] if n > 1]
    pair = min((ab for ab in pairs if ab[0] < ab[1]), default=None)
    if pair:
        raise ValueError(f"columns {pair[0]} and {pair[1]} are linearly dependent")
    zero = zero[:, 1:]
    # first dependent k-set in combinations order: the least first k zeros of
    # a nonzero codeword with k zeros or more, chosen one coordinate at a time
    # among the codewords that tie on the coordinates chosen so far
    cols = np.flatnonzero(zero.sum(axis=0) >= k)
    least: list[int] = []
    while cols.size and len(least) < k:
        start = least[-1] + 1 if least else 0
        nxt = start + zero[start:, cols].argmax(axis=0)
        least.append(int(nxt.min()))
        cols = cols[nxt == least[-1]]
    if least:
        raise ValueError(f"columns {tuple(least)} are dependent; not MDS")
    return FrequencyPermutationArray(q, q ** (k - 1), rows, q ** (k - 1) * (q - 1))


# ---------------------------------------------------------------------------
# Hadamard matrices


@dataclass(frozen=True, eq=False)
class HadamardMatrix(_SymbolRecord):
    """n = len(rows) rows of +-1 with pairwise orthogonal rows (H H^T = n I), held
    as a read-only int8 matrix; given as rows of ints or a 2-D integer numpy array."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = _read(self.rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        mat = np.asarray(rows).reshape(n, n)  # floats or objects past int64, never +-1
        if not (np.abs(mat) == 1).all():
            raise ValueError("entries must be +1 or -1")
        object.__setattr__(self, "rows", mat.astype(np.int8))  # a copy, made read-only
        self.rows.flags.writeable = False
        # float64 takes the BLAS product and stays exact: each Gram entry is
        # a sum of n terms +-1, an integer far below 2^53
        signs = mat.astype(np.float64)
        bad = np.argwhere(np.triu(signs @ signs.T, 1))  # row-major: combinations order
        if bad.size:
            a, b = bad[0].tolist()
            raise ValueError(f"rows {a} and {b} are not orthogonal")

    @property
    def n(self) -> int:
        return len(self.rows)


def _hadamard_route(n: int, memo: dict[int, int | None]) -> int | None:
    """How to build order n: 0 for the base orders 1 and 2, -1 for the
    quadratic residue matrix on q = n - 1, a >= 2 for the Kronecker product
    of orders a and n/a (a = 2 is doubling), None when no route exists."""
    if n not in memo:
        if n in (1, 2):
            memo[n] = 0
        elif n % 4:
            memo[n] = None
        elif _hadamard_route(n // 2, memo) is not None:
            memo[n] = 2
        elif (n - 1) % 4 == 3 and _prime_power(n - 1) is not None:
            memo[n] = -1
        else:
            memo[n] = next((
                a for a in range(3, math.isqrt(n) + 1)
                if n % a == 0 and _hadamard_route(a, memo) is not None
                and _hadamard_route(n // a, memo) is not None
            ), None)
    return memo[n]


def _paley_rows(q: int) -> np.ndarray:
    field = field_of_order(q)
    xs = np.arange(q, dtype=np.int32)
    # quadratic character: 0 at 0, 1 on nonzero squares, -1 elsewhere
    chi = np.full(q, -1, dtype=np.int8)
    chi[field.mul_val(xs, xs)] = 1
    chi[0] = 0
    rows = np.zeros((q + 1, q + 1), dtype=np.int8)
    rows[0, 1:] = 1
    rows[1:, 0] = -1
    rows[1:, 1:] = chi[field.sub_val(xs[:, None], xs)]
    rows += np.eye(q + 1, dtype=np.int8)
    # rows with a leading -1 flip so the matrix comes out normalized
    rows[rows[:, 0] == -1] *= -1
    return rows


def _build_hadamard(n: int, memo: dict[int, int | None]) -> np.ndarray:
    route = _hadamard_route(n, memo)
    if route == 0:
        return np.array([[1]] if n == 1 else [[1, 1], [1, -1]], dtype=np.int8)
    if route == -1:
        return _paley_rows(n - 1)
    return np.kron(_build_hadamard(route, memo), _build_hadamard(n // route, memo))


def hadamard_matrix(n: int) -> HadamardMatrix:
    """Deterministic construction preferring doubling, then the quadratic
    residue route, then Kronecker products of smaller orders.  Orders with
    more than _HADAMARD_CELLS cells are refused before any routing."""
    n = _index(n, "n")
    if n < 1 or (n > 2 and n % 4):
        raise ValueError(f"order {n} impossible (must be 1, 2, or a multiple of 4)")
    if n * n > _HADAMARD_CELLS:
        raise WorkLimitExceeded(f"order {n} needs {n}^2 cells, over the limit of {_HADAMARD_CELLS}")
    memo: dict[int, int | None] = {}
    if _hadamard_route(n, memo) is None:
        raise ValueError(f"no construction route implemented for order {n}")
    return HadamardMatrix(_build_hadamard(n, memo))


def fpa_from_hadamard(H: HadamardMatrix) -> FrequencyPermutationArray:
    """Non-leading rows of H and -H under +1 -> 0, -1 -> 1.

    After column-normalizing against the first row, the remaining rows are
    balanced words; orthogonality puts any two of the 2n-2 rows at distance
    exactly n/2 or n.
    """
    if H.n < 2 or H.n % 2:
        raise ValueError(f"order {H.n} has no balanced rows")
    flips = H.rows[1:] != H.rows[0]  # each entry times the first row's sign, +1 -> 0 and -1 -> 1
    return FrequencyPermutationArray(2, H.n // 2, np.concatenate([flips, ~flips]), H.n // 2)


# ---------------------------------------------------------------------------
# the 14-row length-8 block listing


def fpa_steiner_848() -> FrequencyPermutationArray:
    """Fourteen words from the cyclic development of two base blocks.

    Seven shifts of 1011000 with 1 appended, then seven shifts of 0100111
    with 0 appended; rows are pairwise at distance >= 4 because any two of
    the underlying 4-sets share at most two points.
    """
    rows = []
    for base, tail in (((1, 0, 1, 1, 0, 0, 0), 1), ((0, 1, 0, 0, 1, 1, 1), 0)):
        for t in range(7):
            rows.append([base[(idx - t) % 7] for idx in range(7)] + [tail])
    return FrequencyPermutationArray(2, 4, rows, 4)
