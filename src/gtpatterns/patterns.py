"""Gelfand-Tsetlin patterns for the orthogonal group.

A pattern with k rows has row i of length (i+1)//2.  Even rows are weakly
decreasing non-negative integer vectors; odd rows may carry a sign on their
last entry.  Consecutive rows interlace after taking absolute values.

Rows are plain tuples of ints throughout; all counting is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import ge, le
from typing import Iterator

Row = tuple[int, ...]
Pattern = tuple[Row, ...]


def row_length(i: int) -> int:
    """Length of row i of a pattern (rows are 1-indexed)."""
    return (i + 1) // 2


def abs_row(row: Row) -> Row:
    return tuple(map(abs, row))


def is_weakly_decreasing(row: Row) -> bool:
    return all(map(ge, row, row[1:]))


def is_nonneg_row(row: Row) -> bool:
    # a weakly decreasing row is non-negative when its last entry is
    return is_weakly_decreasing(row) and (not row or row[-1] >= 0)


def is_signed_row(row: Row) -> bool:
    """A weakly decreasing non-negative row whose last entry may be negative."""
    head, last = row[:-1], row[-1]
    if not is_nonneg_row(head):
        return False
    if head and abs(last) > head[-1]:
        return False
    return True


def row_value_ok(i: int, row: Row) -> bool:
    """Shape and sign constraints for a free-standing value of row i."""
    if len(row) != row_length(i):
        return False
    return is_signed_row(row) if i % 2 == 1 else is_nonneg_row(row)


def interlaces(lower: Row, upper: Row) -> bool:
    """Interlacing lower <= upper, with one extra inequality when the upper
    row is longer by one entry.

    Raises ValueError when the length gap is outside {0, 1}.
    """
    n = len(lower)
    if len(upper) not in (n, n + 1):
        raise ValueError(
            f"length gap must be 0 or 1, got lower={n}, upper={len(upper)}"
        )
    if not (is_weakly_decreasing(lower) and is_weakly_decreasing(upper)):
        raise ValueError("interlacing is defined for weakly decreasing rows")
    # lower_i <= upper_i, and upper_{i+1} <= lower_i wherever upper_{i+1} exists
    return all(map(le, lower, upper)) and all(map(ge, lower, upper[1:]))


def pattern_is_valid(pattern: Pattern) -> bool:
    """True iff shapes match and all consecutive absolute rows interlace."""
    k = len(pattern)
    if k < 1:
        return False
    for i, row in enumerate(pattern, start=1):
        if not row_value_ok(i, row):
            return False
    for i in range(1, k):
        if not interlaces(abs_row(pattern[i - 1]), abs_row(pattern[i])):
            return False
    return True


def interlacing_ranges(length: int, *uppers: Row) -> list[range]:
    """Per coordinate, the values of a non-negative row of the given length
    that interlaces every row in uppers.  Each upper row must be non-negative
    and weakly decreasing, of the given length or one longer.

    Coordinate i ranges over [max_u u_{i+1}, min_u u_i], with u_{i+1} = 0
    past the end of u; these ranges make every product row weakly decreasing.
    """
    return [
        range(
            max(u[i + 1] if i + 1 < len(u) else 0 for u in uppers),
            min(u[i] for u in uppers) + 1,
        )
        for i in range(length)
    ]


def lower_rows(length: int, *uppers: Row) -> Iterator[Row]:
    """The rows of interlacing_ranges(length, *uppers), in lexicographic order."""
    return itertools.product(*interlacing_ranges(length, *uppers))


def enumerate_lower_rows(upper: Row, length: int, signed_last: bool) -> list[Row]:
    """All rows x of the given length with |x| interlacing upper, in
    lexicographic order.  With signed_last, every row whose last entry is
    m > 0 appears both as +m and -m: the last range [lo, hi] becomes
    -hi..-lo followed by max(lo, 1)..hi.
    """
    if not is_nonneg_row(upper):
        raise ValueError(f"upper row must be non-negative weakly decreasing: {upper}")
    n = len(upper)
    if length not in (n - 1, n):
        raise ValueError(f"target length must be {n - 1} or {n}, got {length}")
    ranges: list = interlacing_ranges(length, upper)
    if signed_last and ranges:
        lo, hi = ranges[-1].start, ranges[-1].stop - 1
        ranges[-1] = [*range(-hi, 1 - lo), *range(max(lo, 1), hi + 1)]
    return list(itertools.product(*ranges))


@lru_cache(maxsize=None)
def count_patterns(k: int, lam: Row) -> int:
    """Number of Gelfand-Tsetlin patterns with k rows and top row lam: a sum
    over unsigned rows mu below |lam|, weight 2 when row k-1 is signed and
    mu ends in m > 0, for the rows ending in +m and -m."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not row_value_ok(k, lam):
        raise ValueError(f"invalid row-{k} value: {lam}")
    if k == 1:
        return 1
    return sum(
        count_patterns(k - 1, mu) * (2 if k % 2 == 0 and mu[-1] else 1)
        for mu in lower_rows(row_length(k - 1), abs_row(lam))
    )


def enumerate_patterns(k: int, lam: Row) -> Iterator[Pattern]:
    """All patterns with top row lam, by backtracking the counting recursion."""
    if not row_value_ok(k, lam):
        raise ValueError(f"invalid row-{k} value: {lam}")
    if k == 1:
        yield (lam,)
        return
    signed = (k - 1) % 2 == 1
    for mu in enumerate_lower_rows(abs_row(lam), row_length(k - 1), signed):
        for body in enumerate_patterns(k - 1, mu):
            yield body + (lam,)


def zero_pattern(k: int) -> Pattern:
    return tuple((0,) * row_length(i) for i in range(1, k + 1))


def weyl_dimension(d: int, lam: Row) -> int:
    """Dimension of the SO(d) irreducible with highest weight lam, by the
    Weyl product formula.  Independent of the pattern-counting recursion;
    the two must agree since dim V_lam = s_{d-1}(lam).
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    r = d // 2
    if len(lam) != r:
        raise ValueError(f"lam must have length {r} for d={d}")
    if d % 2 == 1:
        if not is_nonneg_row(lam):
            raise ValueError(f"invalid SO({d}) highest weight: {lam}")
        # doubled weights keep everything integral: l_i = 2 lam_i + 2(r-i)+1
        l = [2 * lam[i] + 2 * (r - 1 - i) + 1 for i in range(r)]
        m = [2 * (r - 1 - i) + 1 for i in range(r)]
        # the short roots contribute prod l_i / m_i
        dim = Fraction(math.prod(l), math.prod(m))
    else:
        if not is_signed_row(lam):
            raise ValueError(f"invalid SO({d}) highest weight: {lam}")
        l = [lam[i] + (r - 1 - i) for i in range(r)]
        m = [r - 1 - i for i in range(r)]
        dim = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            dim *= Fraction(l[i] ** 2 - l[j] ** 2, m[i] ** 2 - m[j] ** 2)
    if dim.denominator != 1:
        raise AssertionError(f"non-integer Weyl dimension for d={d}, lam={lam}")
    return int(dim)
