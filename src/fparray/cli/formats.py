"""Line-oriented text formats for arrays and construction ingredients.

Array files:  line 1 `#fpa v1`; line 2 `n=.. lambda=.. m=.. d=.. size=..`;
then `size` rows of `n` space-separated 0-based integers.  A row's entries
are read as `int` reads them.  An ASCII body of n integers a line that
fit the label type is read in bulk by `numpy.loadtxt`; any other body,
and any with a non-ASCII character (loadtxt reads some letters as
digits), is read row by row.  The files accepted and the errors raised
are the same either way: the first row that is not a frequency-lambda
word over 0..m-1, a row with a symbol outside that range included, is
refused ahead of any later row that cannot be read.

Ingredient files: line 1 `#ing v1 <fsq|oa|ard|had>`; a kind-specific
key=value header line; then the grid body.  Blank lines separate grids
(fsq) or block classes (ard).  MDS generator files have neither magic
nor header: each data line is one row of integers.

A data line is neither blank nor a `#` comment.  One reader checks the
magic line and kind tag, parses the first data line after them as the
header and returns the lines that follow; one writer emits the canonical
byte-exact form (magic line, header, body, closing newline).  Parsers
accept extra blank and comment lines but reject unknown keys, shape
mismatches, and rows that are not uniform-frequency words, with a
`FormatError`.  Header counts must match the body, n must be m * lambda
and `t` must be 2; writers read these from the records, which derive them.
A record's symbols are its read-only matrix: one formatter, `_lines`,
writes every body from it through a label table, and `parse_fpa` hands
the matrix it reads straight to the array.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

from .. import core
from ..core import FrequencyPermutationArray, _composed, _label_dtype, _symbols
from ..constructions import FrequencySquare, HadamardMatrix, OrthogonalArray, ResolvableDesign

ARRAY_MAGIC = "#fpa v1"
INGREDIENT_MAGIC = "#ing v1"

# kind tag -> what errors call its header line; the tag "" is an array file
_HEADER_NAMES = {
    "": "array", "fsq": "square", "oa": "orthogonal-array", "ard": "design", "had": "Hadamard"
}


class FormatError(ValueError):
    """Raised when a file does not conform to its declared format."""


# ---------------------------------------------------------------------------
# the reader and the writer


def _is_data(line: str) -> bool:
    """The blank/comment rule: a data line has text that does not start with #."""
    text = line.lstrip()
    return text != "" and text[0] != "#"


def _groups(lines: Iterable[str]) -> list[list[str]]:
    """Runs of data lines separated by blank lines; comments are dropped."""
    out: list[list[str]] = []
    current: list[str] = []
    for ln in lines:
        if _is_data(ln):
            current.append(ln)
        elif current and not ln.strip():
            out.append(current)
            current = []
    if current:
        out.append(current)
    return out


def _read(
    text: str, kind: str, required: Sequence[str], optional: Sequence[str] = ()
) -> tuple[dict[str, int], list[str]]:
    """(header, the lines after it) of a file with this kind tag."""
    magic = INGREDIENT_MAGIC if kind else ARRAY_MAGIC
    lines = [ln.rstrip() for ln in text.splitlines()]
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise FormatError("empty file")
    first = lines[start].strip()
    if not first.startswith(magic):
        raise FormatError(f"first line must start with {magic!r}, got {first!r}")
    tag = first[len(magic) :].strip()
    if tag != kind:
        raise FormatError(
            f"expected ingredient kind {kind!r}, file says {tag!r}" if kind
            else f"unsupported array format tag {first!r}"
        )
    head = next((i for i in range(start + 1, len(lines)) if _is_data(lines[i])), None)
    if head is None:
        raise FormatError(f"missing {_HEADER_NAMES[kind]} header line")
    allowed = set(required) | set(optional)
    header: dict[str, int] = {}
    for token in lines[head].split():
        key, eq, raw = token.partition("=")
        if not eq or not key or key not in allowed:
            raise FormatError(f"bad header token {token!r}")
        if key in header:
            raise FormatError(f"duplicate header key {key!r}")
        try:
            header[key] = int(raw)
        except ValueError:
            raise FormatError(f"non-integer header value {token!r}") from None
    missing = [k for k in required if k not in header]
    if missing:
        raise FormatError(f"header missing keys: {', '.join(missing)}")
    return header, lines[head + 1 :]


def _write(kind: str, header: dict[str, int | None]) -> str:
    """Magic line and header line (None values left out), each with its newline."""
    magic = f"{INGREDIENT_MAGIC} {kind}" if kind else ARRAY_MAGIC
    keys = " ".join(f"{key}={value}" for key, value in header.items() if value is not None)
    return f"{magic}\n{keys}\n"


def _check_sizes(n: int, m: int, lam: int) -> None:
    if n < 1 or lam < 1 or m < 1 or m * lam != n:
        raise FormatError(f"inconsistent parameters n={n} lambda={lam} m={m}")


def _count(header: dict[str, int], key: str, found: int, what: str) -> None:
    if found != header[key]:
        raise FormatError(f"header says {key}={header[key]}, found {found} {what}")


def _int_row(line: str, width: int, what: str) -> tuple[int, ...]:
    try:
        row = tuple(map(int, line.split()))
    except ValueError:
        raise FormatError(f"{what}: non-integer entry in {line!r}") from None
    if len(row) != width:
        raise FormatError(f"{what}: expected {width} entries, got {len(row)}")
    return row


def _build(make, *fields, where: str = ""):
    """make(*fields), an invalid ingredient's ValueError raised as a FormatError."""
    try:
        return make(*fields)
    except ValueError as exc:
        raise FormatError(f"{where}{exc}") from None


# ---------------------------------------------------------------------------
# array files


def _lines(mat: np.ndarray, labels: Sequence, sep: str = " ") -> str:
    """Row r of mat as str(labels[s]) for its entries s joined by sep, one line each
    with its newline, about `core._BLOCK_CELLS` bytes of cells at a time, from
    one label table; a 3-D mat's blocks of rows each follow a blank line."""
    codes = np.array([f"{sep}{label}".encode("ascii") for label in labels])
    table = codes.view(np.uint8).reshape(len(codes), -1)  # row s: sep and label s, zero-padded
    width = mat.shape[-1] * table.shape[1]  # bytes of a row's cells
    step = max(1, core._BLOCK_CELLS // max(1, width))  # rows at a time
    out = []
    for group in mat if mat.ndim == 3 else mat[None]:
        out.append("\n" * (mat.ndim - 2))
        for i in range(0, len(group), step):
            rows = group[i : i + step]
            line = np.full((len(rows), width + 1), ord("\n"), dtype=np.uint8)
            line[:, :-1] = np.take(table, rows, axis=0).reshape(len(rows), width)
            line[:, : len(sep)] = 0  # a line starts after its first sep
            out.append(str(line[line != 0], "ascii"))
    return "".join(out)


def write_fpa(array: FrequencyPermutationArray, offset: int = 0) -> str:
    """Canonical text for an array; offset shifts printed symbols only."""
    header = {"n": array.n, "lambda": array.lam, "m": array.m,
              "d": array.min_distance_claim, "size": array.size}
    return _write("", header) + _lines(array.rows, range(offset, offset + array.m))


def _bulk_matrix(lines: Sequence[str], n: int, m: int) -> np.ndarray | None:
    """The data lines as one len(lines) x n matrix of `_label_dtype(m)`,
    read by `np.loadtxt`; None unless every line is ASCII and holds n
    integers that fit the type (symbols m or more are kept for `_composed`
    to refuse).  `int` refuses letters that loadtxt reads as digits (to it
    "0\u01fe1" is 4621), hence the ASCII gate.
    """
    if not all(map(str.isascii, lines)):
        return None
    try:
        with warnings.catch_warnings():  # older numpy warns and reads "1.0" as 1: refuse it
            warnings.simplefilter("error", DeprecationWarning)
            mat = np.loadtxt(lines, dtype=_label_dtype(m), ndmin=2, comments=None)
    except ValueError:  # a token that is not an integer of the type, or a ragged line
        return None
    return mat if mat.shape == (len(lines), n) else None


def parse_fpa(text: str) -> FrequencyPermutationArray:
    header, rest = _read(text, "", ("n", "lambda", "m", "d", "size"))
    n, lam, m = header["n"], header["lambda"], header["m"]
    _check_sizes(n, m, lam)
    body = list(filter(_is_data, rest))
    del rest
    _count(header, "size", len(body), "rows")
    mat = _bulk_matrix(body, n, m) if body else None
    unreadable = None
    if mat is None:  # the row reader: every other body, and every refusal's wording
        rows: list[tuple[int, ...]] = []
        for idx, line in enumerate(body):
            try:
                rows.append(_int_row(line, n, f"row {idx}"))
            except FormatError as exc:
                unreadable = exc
                break
        # A badly composed row ahead of the first unreadable one is reported
        # first; a symbol outside 0..m-1 reads as -1, which no composed row holds.
        mat = _symbols(rows, m, n)
        if mat is None:
            mat = np.array([[s if 0 <= s < m else -1 for s in row] for row in rows])
        del rows
    del body  # free the lines and any tuples before the array builds its rows
    composed = _composed(mat, m, lam)
    if not composed.all():
        idx = int(composed.argmin())
        raise FormatError(f"row {idx} is not a frequency-{lam} word over {m} symbols")
    if unreadable is not None:
        raise unreadable
    # every symbol is in 0..m-1, so mat is the rows as they were read
    return FrequencyPermutationArray(m, lam, mat, header["d"])


# ---------------------------------------------------------------------------
# frequency squares


def write_squares(squares: Sequence[FrequencySquare]) -> str:
    if not squares:
        raise FormatError("cannot write an empty square list")
    first = squares[0]
    if any((sq.m, sq.lam) != (first.m, first.lam) for sq in squares):
        raise FormatError("squares in one file must share n, m, lambda")
    header = {"n": first.n, "m": first.m, "lambda": first.lam, "count": len(squares)}
    return _write("fsq", header) + _lines(np.stack([sq.cells for sq in squares]), range(first.m))


def parse_squares(text: str) -> list[FrequencySquare]:
    header, rest = _read(text, "fsq", ("n", "m", "lambda", "count"))
    n, m, lam = header["n"], header["m"], header["lambda"]
    _check_sizes(n, m, lam)
    grids = _groups(rest)
    _count(header, "count", len(grids), "grids")
    squares = []
    for g_idx, grid in enumerate(grids):
        _count(header, "n", len(grid), f"lines in grid {g_idx}")
        cells = tuple(_int_row(ln, n, f"grid {g_idx}") for ln in grid)
        squares.append(_build(FrequencySquare, m, lam, cells, where=f"grid {g_idx}: "))
    return squares


# ---------------------------------------------------------------------------
# orthogonal arrays


def write_oa(oa: OrthogonalArray) -> str:
    return _write("oa", {"v": oa.v, "r": oa.r, "s": oa.s, "t": 2}) + _lines(oa.rows, range(oa.s))


def parse_oa(text: str) -> OrthogonalArray:
    header, rest = _read(text, "oa", ("v", "r", "s", "t"))
    if header["t"] != 2:
        raise FormatError("only strength 2 is supported")
    body = list(filter(_is_data, rest))
    _count(header, "r", len(body), "rows")
    rows = tuple(_int_row(ln, header["v"], f"row {i}") for i, ln in enumerate(body))
    return _build(OrthogonalArray, header["v"], header["s"], rows)


# ---------------------------------------------------------------------------
# resolvable designs


def write_design(design: ResolvableDesign) -> str:
    header = {"v": design.v, "k": design.k, "classes": len(design.classes),
              "lambda_d": design.lambda_d}
    return _write("ard", header) + _lines(design.classes, range(design.v))


def parse_design(text: str) -> ResolvableDesign:
    header, rest = _read(text, "ard", ("v", "k", "classes"), optional=("lambda_d",))
    groups = _groups(rest)
    _count(header, "classes", len(groups), "classes")
    classes = tuple(
        tuple(_int_row(ln, header["k"], f"class {c_idx} block") for ln in lines)
        for c_idx, lines in enumerate(groups)
    )
    return _build(ResolvableDesign, header["v"], header["k"], classes, header.get("lambda_d"))


# ---------------------------------------------------------------------------
# Hadamard matrices


def write_hadamard(matrix: HadamardMatrix) -> str:
    return _write("had", {"n": matrix.n}) + _lines(matrix.rows < 0, ["+", "-"], sep="")


# ---------------------------------------------------------------------------
# MDS generator files


def parse_generator(text: str) -> list[list[int]]:
    """The rows of a generator-matrix file: one per data line, as integers."""
    try:
        return [[int(tok) for tok in ln.split()] for ln in filter(_is_data, text.splitlines())]
    except ValueError as exc:
        raise FormatError(str(exc)) from None
