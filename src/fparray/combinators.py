"""Array-to-array operations: padding, products, substitutions, quotients.

Substitution operators work on occurrence indices: the j-th appearance of
a symbol (left to right) is what gets remapped, so distances never drop
below the source array's and usually grow.  Every array's rows are its
read-only size x n matrix of symbols 0..m-1, and every operator here
reads and builds such matrices, with no loop over rows or symbols.  All
three substitutions (`refine`, `expand_to_pa`, which is exactly
refine(a, 1), and `compose_columns`) read one occurrence rank and refuse,
with a ValueError naming the row, any row that is not a lam-permutation.
Quotient and product operators re-verify what they claim instead of
trusting the algebra.  Both products build their rows with one kernel and
refuse, before reading any row, an output over one cell limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import core
from .core import FrequencyPermutationArray
from .constructions import FrequencySquare, _latin_order, fpa_from_mofs


def pad(a: FrequencyPermutationArray) -> FrequencyPermutationArray:
    """Append lam copies of a brand-new symbol to every row."""
    tail = np.full((a.size, a.lam), a.m, dtype=core._label_dtype(a.m + 1))
    rows = np.concatenate([a.rows, tail], axis=1)
    return FrequencyPermutationArray(a.m + 1, a.lam, rows, a.min_distance_claim)


def juxtapose(
    a: FrequencyPermutationArray, b: FrequencyPermutationArray
) -> FrequencyPermutationArray:
    """Concatenate rows pairwise by index, up to the shorter array."""
    if a.m != b.m:
        raise ValueError(f"symbol counts differ: {a.m} vs {b.m}")
    rows = np.concatenate([a.rows[: b.size], b.rows[: a.size]], axis=1)
    return FrequencyPermutationArray(
        a.m, a.lam + b.lam, rows, a.min_distance_claim + b.min_distance_claim
    )


def _occurrence_rank(
    a: FrequencyPermutationArray, where: str = "", depth: int | None = None
) -> np.ndarray:
    """rank[r, p] = s*lam + j where row r of a (of its first depth rows)
    holds occurrence j (left to right) of symbol s at position p.

    Raises ValueError naming (after the prefix `where`) the first row that
    is not a lam-permutation over 0..m-1; rows past depth go unread.
    """
    m, lam, n = a.m, a.lam, a.n
    mat = a.rows[:depth]
    composed = core._composed(mat, m, lam)
    if not composed.all():
        idx = int(composed.argmin())
        raise ValueError(f"{where}row {idx} is not a {lam}-uniform word over {m} symbols")
    # a stable sort puts occurrence j of symbol s at sorted position s*lam + j
    rank = np.empty(mat.shape, dtype=np.intp)
    order = np.argsort(mat, axis=1, kind="stable")
    np.put_along_axis(rank, order, np.arange(n), axis=1)
    return rank


def refine(a: FrequencyPermutationArray, l: int) -> FrequencyPermutationArray:
    """Split every symbol into lam/l symbols of frequency l.

    With per = lam/l, occurrence j of symbol s becomes s*per + ((j//l + k)
    mod per) in pattern row k = 0..per-1: the canonical max-distance array
    over per symbols, applied to occurrence indices.  Each source row yields
    per rows, emitted source-row-major, so refine(a, lam) is the identity
    and refine(a, 1) is exactly expand_to_pa(a).  Distance claims carry
    over unchanged.  Raises ValueError for a row that is not a
    lam-permutation over 0..m-1.
    """
    l = core._index(l, "l")
    if l < 1 or a.lam % l:
        raise ValueError(f"new frequency {l} must divide {a.lam}")
    lam, per = a.lam, a.lam // l
    symbol, occ = np.divmod(_occurrence_rank(a), lam)
    base, block = symbol * per, occ // l
    # rows[r, k]: source row r under pattern row k, in the output's label type
    rows = np.empty((a.size, per, a.n), dtype=core._label_dtype(a.m * per))
    for k in range(per):
        rows[:, k] = base + (block + k) % per
    return FrequencyPermutationArray(a.m * per, l, rows.reshape(-1, a.n), a.min_distance_claim)


def expand_to_pa(a: FrequencyPermutationArray) -> FrequencyPermutationArray:
    """Split every symbol into lam singletons: exactly refine(a, 1), as documented there."""
    return refine(a, 1)


def reduce_mod(a: FrequencyPermutationArray, r: int) -> FrequencyPermutationArray:
    """Take every symbol mod r, for arrays with a constant pair profile.

    Requires a to pass `verify` and to have a `pair_profile` whose m*m
    counts all equal one value t; the result is equidistant at n - t*m^2/r.
    """
    r = core._index(r, "r")
    if r < 1 or a.m % r:
        raise ValueError(f"modulus {r} must divide the symbol count {a.m}")
    if r == 1 and a.size > 1:
        raise ValueError("modulus 1 collapses all rows together")
    report = core.verify(a)
    if not report.valid:
        raise ValueError(f"input fails verification: {report.reasons}")
    profile = core.pair_profile(a)
    if profile is None:
        raise ValueError("input has no constant pair profile")
    values = set(profile.values())
    if len(values) != 1:
        raise ValueError("pair profile is not a single constant")
    t = values.pop()
    claim = a.n - t * a.m * a.m // r
    rows = a.rows % r
    out = FrequencyPermutationArray(r, a.n // r, rows, claim)
    check = core.verify(out)
    if not check.valid:
        raise RuntimeError(f"reduction self-check failed: {check.reasons}")
    return out


def compose_columns(
    fpas: Sequence[FrequencyPermutationArray],
    c: FrequencyPermutationArray,
) -> FrequencyPermutationArray:
    """Substitute ingredient rows for the symbol occurrences of a coarse row.

    c must be an array of b symbols, each at frequency n; its symbol-i
    occurrences receive, in order, the entries of the i-th ingredient's
    row j (relabeled onto disjoint symbol blocks).  One output row per
    (c row, shared row index j) pair; needs c's distance claim >= b*d.
    Raises ValueError for a coarse row, or one of the depth ingredient rows
    used, that is not a lam-permutation; an ingredient row is named with
    its ingredient, as in "ingredient 1 row 1 ...".
    """
    if not fpas:
        raise ValueError("need at least one ingredient array")
    n, m, lam = fpas[0].n, fpas[0].m, fpas[0].lam
    if any((f.m, f.lam) != (m, lam) for f in fpas):
        raise ValueError("ingredient arrays must share (n, m, lam)")
    b = len(fpas)
    d = min(f.min_distance_claim for f in fpas)
    if (c.m, c.lam) != (b, n):
        raise ValueError(
            f"coarse array must use {b} symbols at frequency {n}, has "
            f"m={c.m}, lam={c.lam}"
        )
    if c.min_distance_claim < b * d:
        raise ValueError(
            f"coarse distance {c.min_distance_claim} below required {b * d}"
        )
    depth = min(f.size for f in fpas)
    coarse = _occurrence_rank(c)
    # column i*n + t of table row j: entry t of ingredient i's row j, relabeled
    table = np.concatenate(
        [
            _occurrence_rank(f, f"ingredient {i} ", depth) // lam + i * m
            for i, f in enumerate(fpas)
        ],
        axis=1,
    )
    # coarse rank i*n + t marks occurrence t of symbol i
    rows = table[:, coarse].transpose(1, 0, 2).reshape(-1, b * n)
    return FrequencyPermutationArray(b * m, lam, rows, b * d)


# Both products refuse an output of more than this many cells.
_PRODUCT_CELLS = 1 << 20


def _check_cells(what: str, rows: int, width: int) -> None:
    """Refuse `what` rows of width symbols over _PRODUCT_CELLS cells."""
    cells = rows * width
    if cells > _PRODUCT_CELLS:
        raise core.WorkLimitExceeded(
            f"{what} rows of {width} symbols is {cells} cells, over the limit of {_PRODUCT_CELLS}"
        )


def _concatenations(mats: Sequence[np.ndarray], shifts: Sequence[int], m: int) -> np.ndarray:
    """Every concatenation of one row from each matrix, in `itertools.product`
    order, as one matrix in `_label_dtype(m)`; the symbols of mats[i] are
    shifted by shifts[i]."""
    counts = [len(x) for x in mats]
    out = np.empty((*counts, sum(x.shape[1] for x in mats)), dtype=core._label_dtype(m))
    end = 0
    for i, (x, shift) in enumerate(zip(mats, shifts)):
        part = out[..., end : end + x.shape[1]]  # x's rows run along axis i
        part[...] = x.reshape(x.shape[:1] + (1,) * (len(mats) - 1 - i) + x.shape[1:])
        if shift:
            part += shift
        end += x.shape[1]
    return out.reshape(math.prod(counts), end)


def direct_product(
    a: FrequencyPermutationArray, b: FrequencyPermutationArray
) -> FrequencyPermutationArray:
    """All concatenations over disjoint symbol sets, at the weaker distance.

    Raises WorkLimitExceeded for more than _PRODUCT_CELLS output cells.
    """
    if a.lam != b.lam:
        raise ValueError(f"frequencies differ: {a.lam} vs {b.lam}")
    _check_cells(f"direct product of {a.size} x {b.size}", a.size * b.size, a.n + b.n)
    rows = _concatenations([a.rows, b.rows], (0, a.m), a.m + b.m)
    return FrequencyPermutationArray(
        a.m + b.m, a.lam, rows, min(a.min_distance_claim, b.min_distance_claim)
    )


# ---------------------------------------------------------------------------
# separable arrays and their products


@dataclass(frozen=True)
class SeparableArray:
    """An array whose rows fall into classes with a stronger within-class distance.

    `array` holds every row, class after class, and `sizes` lists the
    class sizes in order.  Both distances are measured, once, as the
    record checks the array: d, the minimum over the whole union, by
    `verify`, and delta, the least within-class minimum, by one distance
    scan of each class's slice of the array's rows.
    """

    array: FrequencyPermutationArray
    sizes: tuple[int, ...]
    d: int = field(init=False)
    delta: int = field(init=False)

    def __post_init__(self) -> None:
        try:
            (sizes,) = core._ints([self.sizes])
        except ValueError:
            raise ValueError(f"class sizes must be integers: {self.sizes!r}") from None
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("need at least one class")
        if min(sizes) < 0 or sum(sizes) != self.array.size:
            raise ValueError(f"class sizes {sizes} do not split {self.array.size} rows")
        report = core.verify(self.array)
        if not report.valid:
            raise ValueError(
                f"class union fails at d={self.array.min_distance_claim}: {report.reasons}"
            )
        object.__setattr__(self, "d", report.actual_min_distance)
        # n for an empty or one-row class
        delta = min(core._distance_scan(mat)[0] for mat in self._class_rows())
        object.__setattr__(self, "delta", delta)

    @property
    def num_classes(self) -> int:
        return len(self.sizes)

    def _class_rows(self) -> list[np.ndarray]:
        """Each class's rows as a view of the array's rows, size x n."""
        return np.split(self.array.rows, list(itertools.accumulate(self.sizes))[:-1])

    @classmethod
    def from_fpa(
        cls, fpa: FrequencyPermutationArray, num_classes: int
    ) -> "SeparableArray":
        """Split rows into consecutive equal classes; the record measures d and delta."""
        num_classes = core._index(num_classes, "num_classes")
        if num_classes < 1 or fpa.size % num_classes:
            raise ValueError(
                f"{num_classes} classes do not evenly split {fpa.size} rows"
            )
        return cls(fpa, (fpa.size // num_classes,) * num_classes)


def separable_from_mols(squares: Sequence[FrequencySquare]) -> SeparableArray:
    """r latin squares give r classes of n full-distance permutation rows.

    The rows are fpa_from_mofs's: per square and symbol, the column
    positions of that symbol, so each class is at distance n; orthogonality,
    which fpa_from_mofs checks, keeps rows from different squares at
    distance n-1.
    """
    n = _latin_order(squares)
    return SeparableArray(fpa_from_mofs(squares), (n,) * len(squares))


def sep_product(inputs: Sequence[SeparableArray]) -> FrequencyPermutationArray:
    """Concatenate one row from each input, staying inside one class index.

    For each class index j (truncated to the smallest class count), take
    all combinations of a class-j row from every input; the union over j
    keeps the within-class distance delta = min over inputs.  Requires the
    across-class distances to add up to at least delta.  Raises
    WorkLimitExceeded, before reading any row, for more than
    _PRODUCT_CELLS output cells.
    """
    if not inputs:
        raise ValueError("need at least one separable array")
    m, lam = inputs[0].array.m, inputs[0].array.lam
    if any((s.array.m, s.array.lam) != (m, lam) for s in inputs):
        raise ValueError("inputs must share (m, lam)")
    delta = min(s.delta for s in inputs)
    across = sum(s.d for s in inputs)
    if across < delta:
        raise ValueError(f"across-class distances sum to {across} < delta {delta}")
    k = len(inputs)
    # zip stops at the smallest class count
    size = sum(math.prod(sizes) for sizes in zip(*(s.sizes for s in inputs)))
    _check_cells(f"class product of {size}", size, m * lam * k)
    classes = zip(*(s._class_rows() for s in inputs))
    rows = np.concatenate([_concatenations(mats, [0] * k, m) for mats in classes])
    out = FrequencyPermutationArray(m, lam * k, rows, delta)
    report = core.verify(out)
    if not report.valid:
        raise RuntimeError(f"product self-check failed: {report.reasons}")
    return out
