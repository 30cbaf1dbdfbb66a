"""Line-oriented text formats for arrays and construction ingredients.

Array files:  line 1 `#fpa v1`; line 2 `n=.. lambda=.. m=.. d=.. size=..`;
then `size` rows of `n` space-separated 0-based integers.

Ingredient files: line 1 `#ing v1 <fsq|oa|ard|had>`; a kind-specific
key=value header line; then the grid body.  Blank lines separate grids
(fsq) or block classes (ard); `#` lines after the first are comments.

Writers emit the canonical byte-exact form; parsers accept extra blank
and comment lines but reject unknown keys, shape mismatches, and rows
that are not uniform-frequency words.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core import FrequencyPermutationArray, _composed, _label_matrix
from ..constructions import (
    FrequencySquare,
    HadamardMatrix,
    OrthogonalArray,
    ResolvableDesign,
)

ARRAY_MAGIC = "#fpa v1"
INGREDIENT_MAGIC = "#ing v1"
INGREDIENT_KINDS = ("fsq", "oa", "ard", "had")


class FormatError(ValueError):
    """Raised when a file does not conform to its declared format."""


# ---------------------------------------------------------------------------
# shared plumbing


def _lines(text: str) -> list[str]:
    return [ln.rstrip() for ln in text.splitlines()]


def _split_magic(text: str, expected_magic: str) -> tuple[str, list[str]]:
    """Return (magic line, remaining lines); the magic must come first."""
    lines = _lines(text)
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise FormatError("empty file")
    magic = lines[0].strip()
    if not magic.startswith(expected_magic):
        raise FormatError(f"first line must start with {expected_magic!r}, got {magic!r}")
    return magic, lines[1:]


def _data_lines(lines: Iterable[str]) -> list[str]:
    """Non-blank, non-comment lines, in order."""
    return [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _groups(lines: Iterable[str]) -> list[list[str]]:
    """Runs of data lines separated by blank lines; comments are dropped."""
    out: list[list[str]] = []
    current: list[str] = []
    for ln in lines:
        if not ln.strip():
            if current:
                out.append(current)
                current = []
        elif not ln.lstrip().startswith("#"):
            current.append(ln)
    if current:
        out.append(current)
    return out


def _parse_header(
    line: str, required: Sequence[str], optional: Sequence[str] = ()
) -> dict[str, int]:
    allowed = set(required) | set(optional)
    values: dict[str, int] = {}
    for token in line.split():
        key, eq, raw = token.partition("=")
        if not eq or not key or key not in allowed:
            raise FormatError(f"bad header token {token!r}")
        if key in values:
            raise FormatError(f"duplicate header key {key!r}")
        try:
            values[key] = int(raw)
        except ValueError:
            raise FormatError(f"non-integer header value {token!r}") from None
    missing = [k for k in required if k not in values]
    if missing:
        raise FormatError(f"header missing keys: {', '.join(missing)}")
    return values


def _groups_after_header(lines: list[str]) -> list[list[str]]:
    """`_groups` of lines whose first data line is the header; the header is
    dropped from the first group, and so is that group if nothing is left."""
    groups = _groups(lines)
    del groups[0][0]
    if not groups[0]:
        groups.pop(0)
    return groups


def _int_row(line: str, width: int, what: str) -> tuple[int, ...]:
    parts = line.split()
    try:
        row = tuple(map(int, parts))
    except ValueError:
        raise FormatError(f"{what}: non-integer entry in {line!r}") from None
    if len(row) != width:
        raise FormatError(f"{what}: expected {width} entries, got {len(row)}")
    return row


# ---------------------------------------------------------------------------
# array files


def write_fpa(array: FrequencyPermutationArray, offset: int = 0) -> str:
    """Canonical text for an array; offset shifts printed symbols only."""
    out = [
        ARRAY_MAGIC,
        f"n={array.n} lambda={array.lam} m={array.m} "
        f"d={array.min_distance_claim} size={array.size}",
    ]
    labels = [str(s + offset) for s in range(array.m)]
    for row in array.rows:
        try:
            if min(row, default=0) >= 0:  # a negative index would pick a label
                out.append(" ".join([labels[s] for s in row]))
                continue
        except (IndexError, TypeError):
            pass
        out.append(" ".join([str(s + offset) for s in row]))
    return "\n".join(out) + "\n"


def parse_fpa(text: str) -> FrequencyPermutationArray:
    magic, rest = _split_magic(text, ARRAY_MAGIC)
    if magic != ARRAY_MAGIC:
        raise FormatError(f"unsupported array format tag {magic!r}")
    data = _data_lines(rest)
    if not data:
        raise FormatError("missing array header line")
    header = _parse_header(data[0], ("n", "lambda", "m", "d", "size"))
    n, lam, m = header["n"], header["lambda"], header["m"]
    if n < 1 or lam < 1 or m < 1 or m * lam != n:
        raise FormatError(f"inconsistent parameters n={n} lambda={lam} m={m}")
    body = data[1:]
    if len(body) != header["size"]:
        raise FormatError(f"header says size={header['size']}, found {len(body)} rows")
    rows: list[tuple[int, ...]] = []
    unreadable = None
    for idx, line in enumerate(body):
        try:
            rows.append(_int_row(line, n, f"row {idx}"))
        except FormatError as exc:
            unreadable = exc
            break
    # A badly composed row ahead of the first unreadable one is reported first.
    composed = _composed(_label_matrix(rows, m), m, lam)
    if not composed.all():
        idx = int(composed.argmin())
        raise FormatError(f"row {idx} is not a frequency-{lam} word over {m} symbols")
    if unreadable is not None:
        raise unreadable
    return FrequencyPermutationArray(m, lam, tuple(rows), header["d"])


# ---------------------------------------------------------------------------
# frequency squares


def write_squares(squares: Sequence[FrequencySquare]) -> str:
    if not squares:
        raise FormatError("cannot write an empty square list")
    first = squares[0]
    for sq in squares[1:]:
        if (sq.n, sq.m, sq.lam) != (first.n, first.m, first.lam):
            raise FormatError("squares in one file must share n, m, lambda")
    out = [
        f"{INGREDIENT_MAGIC} fsq",
        f"n={first.n} m={first.m} lambda={first.lam} count={len(squares)}",
    ]
    for sq in squares:
        out.append("")
        for row in sq.cells:
            out.append(" ".join(str(c) for c in row))
    return "\n".join(out) + "\n"


def parse_squares(text: str) -> list[FrequencySquare]:
    magic, rest = _split_magic(text, INGREDIENT_MAGIC)
    _require_kind(magic, "fsq")
    data = _data_lines(rest)
    if not data:
        raise FormatError("missing square header line")
    header = _parse_header(data[0], ("n", "m", "lambda", "count"))
    n = header["n"]
    grids = _groups_after_header(rest)
    if len(grids) != header["count"]:
        raise FormatError(f"header says count={header['count']}, found {len(grids)} grids")
    squares = []
    for g_idx, grid in enumerate(grids):
        if len(grid) != n:
            raise FormatError(f"grid {g_idx}: expected {n} lines, got {len(grid)}")
        cells = tuple(_int_row(ln, n, f"grid {g_idx}") for ln in grid)
        try:
            squares.append(
                FrequencySquare(n, header["m"], header["lambda"], cells)
            )
        except ValueError as exc:
            raise FormatError(f"grid {g_idx}: {exc}") from None
    return squares


# ---------------------------------------------------------------------------
# orthogonal arrays


def write_oa(oa: OrthogonalArray) -> str:
    out = [
        f"{INGREDIENT_MAGIC} oa",
        f"v={oa.v} r={oa.r} s={oa.s} t={oa.t}",
    ]
    for row in oa.rows:
        out.append(" ".join(str(c) for c in row))
    return "\n".join(out) + "\n"


def parse_oa(text: str) -> OrthogonalArray:
    magic, rest = _split_magic(text, INGREDIENT_MAGIC)
    _require_kind(magic, "oa")
    data = _data_lines(rest)
    if not data:
        raise FormatError("missing orthogonal-array header line")
    header = _parse_header(data[0], ("v", "r", "s", "t"))
    body = data[1:]
    if len(body) != header["r"]:
        raise FormatError(f"header says r={header['r']}, found {len(body)} rows")
    rows = tuple(_int_row(ln, header["v"], f"row {i}") for i, ln in enumerate(body))
    try:
        return OrthogonalArray(header["v"], header["r"], header["s"], header["t"], rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# resolvable designs


def write_design(design: ResolvableDesign) -> str:
    header = f"v={design.v} k={design.k} classes={len(design.classes)}"
    if design.lambda_d is not None:
        header += f" lambda_d={design.lambda_d}"
    out = [f"{INGREDIENT_MAGIC} ard", header]
    for cls in design.classes:
        out.append("")
        for block in cls:
            out.append(" ".join(str(p) for p in block))
    return "\n".join(out) + "\n"


def parse_design(text: str) -> ResolvableDesign:
    magic, rest = _split_magic(text, INGREDIENT_MAGIC)
    _require_kind(magic, "ard")
    data = _data_lines(rest)
    if not data:
        raise FormatError("missing design header line")
    header = _parse_header(data[0], ("v", "k", "classes"), optional=("lambda_d",))
    groups = _groups_after_header(rest)
    if len(groups) != header["classes"]:
        raise FormatError(
            f"header says classes={header['classes']}, found {len(groups)} classes"
        )
    classes = []
    for c_idx, lines in enumerate(groups):
        blocks = []
        for ln in lines:
            blocks.append(_int_row(ln, header["k"], f"class {c_idx} block"))
        classes.append(tuple(blocks))
    try:
        return ResolvableDesign(
            header["v"], header["k"], tuple(classes), header.get("lambda_d")
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Hadamard matrices


def write_hadamard(matrix: HadamardMatrix) -> str:
    out = [f"{INGREDIENT_MAGIC} had", f"n={matrix.n}"]
    for row in matrix.rows:
        out.append("".join("+" if c == 1 else "-" for c in row))
    return "\n".join(out) + "\n"


def parse_hadamard(text: str) -> HadamardMatrix:
    magic, rest = _split_magic(text, INGREDIENT_MAGIC)
    _require_kind(magic, "had")
    data = _data_lines(rest)
    if not data:
        raise FormatError("missing Hadamard header line")
    header = _parse_header(data[0], ("n",))
    n = header["n"]
    body = data[1:]
    if len(body) != n:
        raise FormatError(f"header says n={n}, found {len(body)} rows")
    rows = []
    for idx, ln in enumerate(body):
        signs = ln.strip()
        if len(signs) != n or any(c not in "+-" for c in signs):
            raise FormatError(f"row {idx} must be {n} characters of + or -")
        rows.append(tuple(1 if c == "+" else -1 for c in signs))
    try:
        return HadamardMatrix(n, tuple(rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _require_kind(magic: str, kind: str) -> None:
    tag = magic[len(INGREDIENT_MAGIC) :].strip()
    if tag != kind:
        raise FormatError(f"expected ingredient kind {kind!r}, file says {tag!r}")
