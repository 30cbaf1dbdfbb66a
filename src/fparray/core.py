"""Uniform-frequency words and the distance-verified arrays built from them.

A lambda-permutation over m symbols is a word of length n = m * lambda in
which every symbol 0..m-1 occurs exactly lambda times.  An array of such
words whose rows are pairwise at Hamming distance >= d is the package's
central object.  Its rows are one read-only size x n integer matrix,
and it keeps nothing beside it.  Every record that holds symbols (arrays
here, squares, orthogonal arrays and design classes in `constructions`)
reads them once through `_symbols`, which gives that matrix, in
`_label_dtype(m)`, or None when a row has another width or holds a symbol
outside 0..m-1.  A 2-D integer or bool numpy array is copied as it is, so
a caller who writes to it later changes nothing the record holds; other
rows pass the one gate `_ints`, which refuses non-integers.  The records
compare and hash by value through `_SymbolRecord`.  Only the array
carries (m, lambda), and n is always m * lambda: an array refuses m or
lambda below 1, any row whose length is not n and any symbol outside
0..m-1, so its matrix is always size x n, also for no rows, and holds
the symbols themselves.  Constructions elsewhere in the package only
ever *claim* parameters; `verify` re-derives all of them from the rows.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np


class WorkLimitExceeded(RuntimeError):
    """An exhaustive computation would exceed its declared work budget."""


def _ints(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows as tuples of Python ints, each symbol read through
    `operator.index`: numpy ints and bool become plain ints (a numpy row
    through `tolist`, as numpy bools have no index), and a non-integer
    (1.5, 1.0, "1", None) raises ValueError naming its type."""
    try:
        rows = (row.tolist() if isinstance(row, np.ndarray) else row for row in rows)
        return tuple(tuple(map(operator.index, row)) for row in rows)
    except TypeError as exc:
        raise ValueError(f"symbols must be integers: {exc}") from None


def _index(value: int, name: str) -> int:
    """`operator.index(value)`, or a ValueError naming `name` for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class _SymbolRecord:
    """== and hash by value for the frozen dataclasses (eq=False) that hold
    a read-only symbol matrix, which counts by its shape and contents;
    nothing is kept for them between calls.  The dataclass repr shows it."""

    def _set_ints(self, *names: str) -> None:
        for name in names:
            object.__setattr__(self, name, _index(getattr(self, name), name))

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def is_lambda_permutation(symbols: Sequence[int], m: int, lam: int) -> bool:
    """True iff `symbols` uses each of 0..m-1 exactly lam times."""
    if m < 1 or lam < 1 or len(symbols) != m * lam:
        return False
    counts = [0] * m
    for s in symbols:
        if not isinstance(s, numbers.Integral) or not 0 <= s < m:
            return False
        counts[s] += 1
    return all(c == lam for c in counts)


@dataclass(frozen=True, eq=False)
class FrequencyPermutationArray(_SymbolRecord):
    """Rows of lambda-permutations with a claimed pairwise minimum distance.

    `rows` is the read-only size x n matrix from `_symbols`, whatever the
    rows were given as.  ValueError is raised for a non-integer m, lam or
    claim, for a non-integer symbol, for m or lam below 1, for the first
    row whose length is not n, and then for the first row holding a symbol
    outside 0..m-1; rows that are not lam-uniform and duplicate rows are
    still held, for `verify` to report.
    """

    m: int
    lam: int
    rows: np.ndarray
    min_distance_claim: int

    def __post_init__(self) -> None:
        self._set_ints("m", "lam", "min_distance_claim")
        if self.m < 1 or self.lam < 1:
            raise ValueError(f"need m >= 1 and lam >= 1, got m={self.m} lam={self.lam}")
        rows = _read(self.rows)
        mat = _symbols(rows, self.m, self.n)
        if mat is None:  # a row of another length, else a symbol out of range
            for idx, row in enumerate(rows):
                if len(row) != self.n:
                    raise ValueError(f"row {idx} has length {len(row)}, expected {self.n}")
            idx, s = next((i, s) for i, row in enumerate(rows) for s in row if not 0 <= s < self.m)
            raise ValueError(f"row {idx} holds symbol {int(s)}, outside 0..{self.m - 1}")
        object.__setattr__(self, "rows", mat)

    @property
    def n(self) -> int:
        return self.m * self.lam

    @property
    def size(self) -> int:
        return len(self.rows)

    def summary(self) -> str:
        return (
            f"FPA(n={self.n}, m={self.m}, lambda={self.lam}, "
            f"d={self.min_distance_claim}, size={self.size})"
        )


@dataclass(frozen=True)
class VerificationReport:
    """Everything `verify` re-derived from the raw rows."""

    valid: bool
    actual_min_distance: int
    size: int
    equidistant: bool
    reasons: tuple[str, ...]


def count_all(n: int, lam: int) -> int:
    """Number of lambda-permutations of length n, exactly."""
    n, lam = _index(n, "n"), _index(lam, "lam")
    if n < 1 or lam < 1 or n % lam:
        raise ValueError(f"need lam >= 1 dividing n >= 1, got n={n} lam={lam}")
    # the j-th symbol's lam positions among the first j * lam
    return math.prod(math.comb(j * lam, lam) for j in range(2, n // lam + 1))


# Words over this many positions are neither listed here nor counted by
# `bounds._agreements`, whose big-integer work grows faster than n^3: a
# bounds report at n = 512 takes seconds.
_AGREEMENT_POSITIONS = 256

# The word listing and both products in `combinators` refuse an output of
# more than this many cells.
_PRODUCT_CELLS = 1 << 20


def _check_cells(what: str, rows: int, width: int) -> None:
    """Refuse `what` rows of width symbols over _PRODUCT_CELLS cells."""
    cells = rows * width
    if cells > _PRODUCT_CELLS:
        raise WorkLimitExceeded(
            f"{what} rows of {width} symbols is {cells} cells, over the limit of {_PRODUCT_CELLS}"
        )


def all_lambda_permutations(m: int, lam: int) -> np.ndarray:
    """All lambda-permutations over m symbols in lexicographic order, as one
    read-only, C-ordered size x n matrix in `_label_dtype(m)`.

    Position by position, every prefix is extended by each symbol it has
    left: `np.nonzero` on the prefixes' symbol counts gives prefixes, then
    symbols, in ascending order.  Each word is then read back through its
    chain of prefixes.  Words over _AGREEMENT_POSITIONS positions, then
    listings over _PRODUCT_CELLS cells, are refused before any is built.
    """
    m, lam = _index(m, "m"), _index(lam, "lam")
    if m < 1 or lam < 1:
        raise ValueError(f"need m >= 1 and lam >= 1, got m={m} lam={lam}")
    n = m * lam
    if n > _AGREEMENT_POSITIONS:
        raise WorkLimitExceeded(f"words over {_AGREEMENT_POSITIONS} positions are not counted")
    # count_all is a product of m - 1 terms C(a, lam) >= 2^lam, so >= 2^(n - lam)
    if n - lam >= _PRODUCT_CELLS.bit_length():
        raise WorkLimitExceeded(
            f"listing of (m={m}, lambda={lam}) is over the limit of {_PRODUCT_CELLS} cells"
        )
    total = count_all(n, lam)
    _check_cells(f"listing of {total}", total, n)
    left = np.full((1, m), lam, dtype=np.int16)
    links = []  # per position: each prefix's parent prefix and last symbol
    for _ in range(n):
        parent, symbol = np.nonzero(left)
        left = left[parent]
        left[np.arange(len(parent)), symbol] -= 1
        links.append((parent, symbol))
    words = np.empty((len(left), n), dtype=_label_dtype(m))
    at = np.arange(len(left))
    for p in range(n - 1, -1, -1):
        parent, symbol = links[p]
        words[:, p] = symbol[at]
        at = parent[at]
    words.flags.writeable = False
    return words


def canonical_max_distance_fpa(m: int, lam: int) -> FrequencyPermutationArray:
    """m rows at full distance n: row k is the blocks k, k+1, ... mod m."""
    m, lam = _index(m, "m"), _index(lam, "lam")
    if m < 1 or lam < 1:  # before m empty rows are built for lam < 1
        raise ValueError(f"need m >= 1 and lam >= 1, got m={m} lam={lam}")
    rows = [[(k + j) % m for j in range(m) for _ in range(lam)] for k in range(m)]
    return FrequencyPermutationArray(m, lam, rows, m * lam)


# One distance block holds at most this many 64-position words per
# buffer (512 KiB), or one row against its strip when that is larger.
# A composition block sorts about this many symbols at a time.
_BLOCK_CELLS = 1 << 16


def _bit_planes(mat: np.ndarray) -> np.ndarray:
    """planes[k, w, r]: bit k of row r's labels at positions 64w..64w+63.

    Labels must be non-negative.  Two rows differ at a position exactly
    when some plane differs there; positions past n are 0 in every row.
    Each plane is cut from a copy of the labels in the narrowest unsigned
    type that holds them, so no temporary is wider than that copy.
    """
    size, n = mat.shape
    if mat.size and mat.min() < 0:
        raise ValueError("distance kernel needs non-negative labels")
    top = int(mat.max(initial=0))
    depth = max(1, top.bit_length())
    words = (n + 63) // 64
    planes = np.empty((depth, words, size), dtype=np.uint64)
    packed = np.zeros((size, words * 8), dtype=np.uint8)
    labels = mat.astype(np.min_scalar_type(top))
    bit = np.empty_like(labels)
    for k in range(depth):
        np.right_shift(labels, k, out=bit)
        bit &= 1
        packed[:, : (n + 7) // 8] = np.packbits(bit, axis=1, bitorder="little")
        planes[k] = packed.view(np.uint64).T
    return planes


def _distance_scan(mat: np.ndarray) -> tuple[int, int]:
    """(min, max) Hamming distance over all row pairs; (n, 0) for fewer
    than two rows.

    Each strip is a block of rows against itself and every later row, so
    each unordered pair is computed once.  A strip ORs the XORs of every
    bit plane and counts the set bits per word; it covers at most
    max(_BLOCK_CELLS, words * width) words, where width is the strip's,
    so blocks grow as strips shrink.  Counts have the narrowest unsigned
    type that holds n, in buffers allocated once per call.  The strip's
    square head pairs the block with itself and is symmetric: its
    diagonal (each row against itself) is set to n before the minimum.
    """
    planes = _bit_planes(mat)
    depth, words, size = planes.shape
    n = mat.shape[1]
    per_row = max(1, words)
    cells = min(size * size, max(_BLOCK_CELLS // per_row, size))  # largest block
    acc = np.empty(words * cells, dtype=np.uint64)
    tmp = np.empty_like(acc) if depth > 1 else acc
    bits = np.empty(words * cells if words != 1 else 0, dtype=np.uint8)
    out = np.empty(cells, dtype=np.min_scalar_type(n))
    lo, hi = n, 0
    i = 0
    while i < size:
        width = size - i
        rows = min(width, max(1, _BLOCK_CELLS // (per_row * width)))
        shape = (words, rows, width)
        x = acc[: words * rows * width].reshape(shape)
        y = tmp[: words * rows * width].reshape(shape)
        np.bitwise_xor(planes[0, :, i : i + rows, None], planes[0, :, None, i:], out=x)
        for k in range(1, depth):
            np.bitwise_xor(planes[k, :, i : i + rows, None], planes[k, :, None, i:], out=y)
            x |= y
        dists = out[: rows * width].reshape(rows, width)
        if words == 1:
            np.bitwise_count(x[0], out=dists)
        else:
            counts = bits[: words * rows * width].reshape(shape)
            np.bitwise_count(x, out=counts)
            np.add.reduce(counts, axis=0, dtype=dists.dtype, out=dists)
        hi = max(hi, int(dists.max()))
        np.fill_diagonal(dists, n)
        lo = min(lo, int(dists.min()))
        i += rows
    return lo, hi


def _label_dtype(m: int) -> np.dtype:
    """The narrowest unsigned type of 16 bits or more that holds 0..m-1;
    int64 past 2^32 symbols.  (numpy sorts 8-bit rows far slower.)"""
    if not 1 <= m <= 1 << 32:
        return np.dtype(np.int64)
    return np.promote_types(np.min_scalar_type(m - 1), np.uint16)


def _read(given: Iterable[Iterable[int]]) -> np.ndarray | tuple[tuple[int, ...], ...]:
    """A 2-D integer or bool numpy array as it is; other rows through `_ints`."""
    if isinstance(given, np.ndarray) and given.ndim == 2 and given.dtype.kind in "biu":
        return given
    return _ints(given)


def _symbols(
    rows: np.ndarray | Sequence[Sequence[int]], m: int, width: int
) -> np.ndarray | None:
    """The read-only, C-ordered rows x width matrix of `rows` (from `_read`)
    in `_label_dtype(m)`, or None when a row's length is not width or a
    symbol lies outside 0..m-1.

    The range is checked by the min and max before the cast, and the
    matrix is always a copy, so a caller's later writes change nothing.
    """
    if not isinstance(rows, np.ndarray):
        if any(len(row) != width for row in rows):
            return None
        try:
            rows = np.array(rows, dtype=_label_dtype(m)).reshape(len(rows), width)
        except OverflowError:  # negative, or too large for the type
            return None
    if len(rows) and rows.shape[1] != width:
        return None
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        return None
    mat = rows.astype(_label_dtype(m), order="C").reshape(len(rows), width)
    mat.flags.writeable = False
    return mat


def _composed(mat: np.ndarray, m: int, lam: int) -> np.ndarray:
    """Row mask of `is_lambda_permutation` over a matrix of width n.

    A row qualifies iff, sorted, it equals the sorted base word 0^lam 1^lam ...
    Rows are sorted in blocks of about _BLOCK_CELLS symbols, so the sorted
    copy stays small next to the matrix.  m and lam must be at least 1.
    """
    if mat.shape[1:] != (m * lam,) or not len(mat):
        return np.zeros(len(mat), dtype=bool)
    base = np.repeat(np.arange(m), lam)
    ok = np.empty(len(mat), dtype=bool)
    step = max(1, _BLOCK_CELLS // mat.shape[1])
    for i in range(0, len(mat), step):
        ok[i : i + step] = (np.sort(mat[i : i + step], axis=1) == base).all(axis=1)
    return ok


def min_distance(array: FrequencyPermutationArray) -> int:
    """Smallest pairwise Hamming distance; needs at least two rows."""
    if array.size < 2:
        raise ValueError("min_distance needs at least two rows")
    return _distance_scan(array.rows)[0]


def _pair_counts(x: np.ndarray, y: np.ndarray, mx: int, my: int) -> np.ndarray:
    """The symbol-pair table of rows x and y: counts[a, b] is the number
    of positions p where x[p] == a and y[p] == b.  Symbols must already
    lie in 0..mx-1 (x) and 0..my-1 (y)."""
    codes = x.astype(np.int64) * my + y
    return np.bincount(codes, minlength=mx * my).reshape(mx, my)


def _unbalanced_pair(
    mat: np.ndarray, m: int, want: int | np.ndarray
) -> tuple[int, int] | None:
    """First row pair a < b whose symbol-pair table is not `want` in every
    cell, or None.  `want` is a number or an m*m table; symbols must lie
    in 0..m-1.  Pairs come in combinations order: a ascending, then b.

    A pair is balanced iff its codes x * m + y, sorted, equal the sorted
    target: each code c repeated want (or want[c]) times.  A target whose
    length is not v balances no pair.  The cost is one sort of v codes
    per row pair, in the narrowest type of 16 bits or more that holds
    m*m codes; the rows after a are coded in blocks of about _BLOCK_CELLS
    codes, or one row when a row is longer.
    """
    size, v = mat.shape
    if size < 2:
        return None
    counts = np.broadcast_to(want, (m, m)).ravel()
    if counts.min(initial=0) < 0 or counts.sum() != v:
        return 0, 1
    target = np.repeat(np.arange(m * m), counts)
    labels = mat.astype(_label_dtype(m * m), copy=False)
    step = max(1, _BLOCK_CELLS // max(1, v))
    for a in range(size - 1):
        head = labels[a] * m
        for b in range(a + 1, size, step):
            codes = labels[b : b + step] + head
            codes.sort(axis=1)
            bad = np.flatnonzero((codes != target).any(axis=1))
            if bad.size:
                return a, b + int(bad[0])
    return None


# `pair_profile` returns None, before reading any row, when its m*m*pairs
# work exceeds this.
_PROFILE_WORK = 10_000_000


def _pair_profile(mat: np.ndarray, m: int) -> dict[tuple[int, int], int] | None:
    """The m*m table shared by every ordered pair of distinct rows, or None.

    `mat` holds at least two rows of symbols 0..m-1.  A table shared by
    every ordered pair must equal its own transpose; the other pairs are
    compared with it by `_unbalanced_pair`.
    """
    table = _pair_counts(mat[0], mat[1], m, m)
    if not (table == table.T).all() or _unbalanced_pair(mat, m, table) is not None:
        return None
    return {(a, b): int(table[a, b]) for a in range(m) for b in range(m)}


def pair_profile(array: FrequencyPermutationArray) -> dict[tuple[int, int], int] | None:
    """Ordered symbol-pair counts, if identical across every row pair.

    For rows x, y the profile counts positions where x holds symbol a and y
    holds symbol b.  It is returned only for at least two distinct rows,
    each a lam-uniform word over m symbols, when the same m*m table arises
    for every ordered pair of distinct rows.  An array whose m*m*pairs work
    exceeds `_PROFILE_WORK` gets None before any row is read.
    """
    size, m = array.size, array.m
    if m * m * (size * (size - 1) // 2) > _PROFILE_WORK or size < 2:
        return None
    mat = array.rows
    if not _composed(mat, m, array.lam).all() or len(set(map(bytes, mat))) < size:
        return None
    return _pair_profile(mat, m)


def verify(array: FrequencyPermutationArray) -> VerificationReport:
    """Re-derive composition, distinctness, and distances from the raw rows.

    Never raises: the array already holds rows of length n over 0..m-1 for
    m, lam >= 1, and every other problem (a row that is not a lam-uniform word, a
    repeated row, a distance below the claim) comes back as `reasons` with
    valid=False.  For arrays with fewer than two rows the distance claim is
    vacuous: actual_min_distance reports n and equidistant is True.  When
    rows repeat, no pair is scanned: the minimum distance is 0, and the
    array is equidistant only if all its rows are one row.  The symbol-pair
    profile, a second pass over the row pairs, is left to `pair_profile`.
    """
    mat = array.rows
    reasons = [
        f"row {idx} is not a {array.lam}-uniform word over {array.m} symbols"
        for idx in np.flatnonzero(~_composed(mat, array.m, array.lam)).tolist()
    ]
    distinct = len(set(map(bytes, mat)))  # rows are C-ordered
    if distinct != array.size:
        reasons.append("rows are not pairwise distinct")

    actual = array.n
    equidistant = True
    if array.size >= 2:
        if distinct < array.size:  # a repeated row is at distance 0 from its copy
            actual, equidistant = 0, distinct == 1
        else:
            lo, hi = _distance_scan(mat)
            actual, equidistant = lo, lo == hi

    if actual < array.min_distance_claim:
        reasons.append(
            f"minimum distance {actual} below claim {array.min_distance_claim}"
        )
    return VerificationReport(
        valid=not reasons,
        actual_min_distance=actual,
        size=array.size,
        equidistant=equidistant,
        reasons=tuple(reasons),
    )
