"""Frozen expected values shared across the test suite.

Every literal here was either computed by an independent oracle (brute
force, counting formula) or transcribed from a published reference
display, then pinned.  Tests compare library output against these
constants byte-for-byte; none of them are derived from the code under
test.  `partitions` is a plain generator the counting tests enumerate
their inputs with, and `derangements_bruteforce` and
`sphere_volume_bruteforce` are the counting formulas' enumeration oracles.
`tuples` reads a record's symbol matrix as the int tuples the listings
here are pinned as.  `hamming_distance`, `are_orthogonal`,
`is_permutation_polynomial` and `parse_hadamard` are small oracles that no
command, construction or bound calls, so they live here and not in the
package.
"""

from collections import Counter

from fparray import all_lambda_permutations
from fparray.cli.formats import FormatError, _build, _count, _is_data, _read
from fparray.constructions import HadamardMatrix


def tuples(mat):
    """A record's symbol matrix as a tuple of int tuples."""
    return tuple(map(tuple, mat.tolist()))


class Unbuilt:
    """Stands in for a module's numpy: any use means an array was built."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called before the refusal")


def hamming_distance(a, b):
    """Number of positions where the two words differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def are_orthogonal(a, b):
    """Whether superimposing two squares shows every ordered symbol pair
    lam_a * lam_b times."""
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    pairs = Counter(zip(a.cells.ravel().tolist(), b.cells.ravel().tolist()))
    return len(pairs) == a.m * b.m and set(pairs.values()) == {a.lam * b.lam}


def is_permutation_polynomial(f):
    """Whether f hits every field element exactly once, point by point."""
    q = f.field.q
    return sorted(f.evaluate(x) for x in range(q)) == list(range(q))


def parse_hadamard(text):
    """The Hadamard matrix of a `had` ingredient file, whose rows are + and -."""
    header, rest = _read(text, "had", ("n",))
    n = header["n"]
    body = list(filter(_is_data, rest))
    _count(header, "n", len(body), "rows")
    rows = []
    for idx, ln in enumerate(body):
        signs = ln.strip()
        if len(signs) != n or any(c not in "+-" for c in signs):
            raise FormatError(f"row {idx} must be {n} characters of + or -")
        rows.append(tuple(1 if c == "+" else -1 for c in signs))
    return _build(HadamardMatrix, tuple(rows))

# 4 x 6 binary array over two symbols at frequency 3; every pair of rows
# is at Hamming distance exactly 4.
TWO_SYMBOL_6_4 = (
    (1, 1, 1, 0, 0, 0),
    (1, 0, 0, 1, 1, 0),
    (0, 1, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1),
)

# The 4 x 9 equidistant array on 3 symbols at frequency 3 (distance 6)
# that all three field routes (side-by-side squares, strength-2 array,
# code generator columns) must reproduce row-for-row.
THREE_ROUTE_9_6 = (
    (0, 0, 0, 1, 1, 1, 2, 2, 2),
    (0, 1, 2, 0, 1, 2, 0, 1, 2),
    (0, 1, 2, 1, 2, 0, 2, 0, 1),
    (0, 1, 2, 2, 0, 1, 1, 2, 0),
)

# Generator matrix over GF(3) whose four columns give THREE_ROUTE_9_6.
GENERATOR_3_2 = ((1, 0, 1, 2), (0, 1, 1, 1))

# The two order-3 latin squares L_a(x, y) = a*x + y over GF(3).
LATIN_3 = (
    ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    ((0, 1, 2), (2, 0, 1), (1, 2, 0)),
)

# The three order-4 latin squares L_a(x, y) = a*x + y over GF(4).
LATIN_4 = (
    ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    ((0, 1, 2, 3), (2, 3, 0, 1), (3, 2, 1, 0), (1, 0, 3, 2)),
    ((0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2), (2, 3, 0, 1)),
)

# First four rows of the doubling-construction array on 12 positions,
# two symbols at frequency 6, distance 6.
DOUBLED_12_FIRST4 = (
    (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1),
    (1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0),
    (1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0),
)

# Those four rows after splitting each symbol into two symbols of
# frequency 3 (published 1-based display).
HALF_SPLIT_DISPLAY = (
    (3, 1, 3, 1, 3, 4, 4, 1, 2, 2, 4, 2),
    (3, 1, 1, 3, 1, 3, 4, 4, 2, 2, 2, 4),
    (3, 3, 1, 1, 3, 1, 4, 4, 4, 2, 2, 2),
    (3, 1, 3, 1, 1, 3, 2, 4, 4, 4, 2, 2),
)

# Those four rows after splitting every symbol occurrence into its own
# symbol (published 1-based display).
FULL_SPLIT_DISPLAY = (
    (7, 1, 8, 2, 9, 10, 11, 3, 4, 5, 12, 6),
    (7, 1, 2, 8, 3, 9, 10, 11, 4, 5, 6, 12),
    (7, 8, 1, 2, 9, 3, 10, 11, 12, 4, 5, 6),
    (7, 1, 8, 2, 3, 9, 4, 10, 11, 12, 5, 6),
)

# First eight rows of the 48-row class-product array on 8 positions,
# four symbols at frequency 2, distance 4.
CLASS_PRODUCT_FIRST8 = (
    (0, 1, 2, 3, 0, 1, 2, 3),
    (0, 1, 2, 3, 1, 0, 3, 2),
    (0, 1, 2, 3, 2, 3, 0, 1),
    (0, 1, 2, 3, 3, 2, 1, 0),
    (1, 0, 3, 2, 0, 1, 2, 3),
    (1, 0, 3, 2, 1, 0, 3, 2),
    (1, 0, 3, 2, 2, 3, 0, 1),
    (1, 0, 3, 2, 3, 2, 1, 0),
)

# First row of the 14-row rotation-generated array on 8 positions.
ROTATION_8_FIRST = (1, 0, 1, 1, 0, 0, 0, 1)

def partitions(k, max_part):
    """Descending partitions of k with parts at most max_part, the one with
    the largest first part first."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def derangements_bruteforce(counts):
    """Rearrangements of the sorted multiset word with no position keeping
    its type, counted by backtracking."""
    original = [t for t, c in enumerate(counts) for _ in range(c)]
    remaining = list(counts)
    n = len(original)

    def rec(i):
        if i == n:
            return 1
        acc = 0
        for t in range(len(remaining)):
            if remaining[t] and t != original[i]:
                remaining[t] -= 1
                acc += rec(i + 1)
                remaining[t] += 1
        return acc

    return rec(0)


def sphere_volume_bruteforce(n, lam, r):
    """Words of the (n, lam) space within distance r of the sorted word,
    counted over the whole space."""
    m = n // lam
    centre = tuple(s for s in range(m) for _ in range(lam))
    return sum(
        1 for w in tuples(all_lambda_permutations(m, lam)) if hamming_distance(w, centre) <= r
    )


# Classical single-type derangement numbers D_0 .. D_9.
DERANGEMENTS = (1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496)

# Hand-checked sphere volumes V(n, lam, r).
SPHERE_VOLUMES = {
    (4, 2, 0): 1,
    (4, 2, 1): 1,
    (4, 2, 2): 5,
    (4, 2, 4): 6,
    (6, 3, 3): 10,
    (6, 1, 2): 16,
    (6, 1, 3): 56,
}

# Smallest-encoding irreducible moduli, as integer encodings of the
# low-to-high coefficient vector in base p.
FIELD_MODULI = {
    (2, 2): 7,  # 1 + x + x^2
    (2, 3): 11,  # 1 + x + x^3
    (2, 4): 19,  # 1 + x + x^4
    (3, 2): 10,  # 1 + x^2
    (3, 3): 34,  # 1 + 2x + x^3
}
