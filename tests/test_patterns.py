"""Pattern combinatorics: interlacing, enumeration, counting, dimensions."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpatterns.kernels import states_in_box
from gtpatterns.patterns import (
    count_patterns,
    enumerate_lower_rows,
    enumerate_patterns,
    interlaces,
    is_nonneg_row,
    lower_rows,
    pattern_is_valid,
    row_length,
    weyl_dimension,
)
from oracles import zero_pattern


def test_row_length():
    assert [row_length(i) for i in range(1, 8)] == [1, 1, 2, 2, 3, 3, 4]


class TestInterlacing:
    def test_equal_length(self):
        assert interlaces((1,), (2,))
        assert interlaces((2,), (2,))
        assert not interlaces((3,), (2,))
        # upper_{i+1} <= lower_i
        assert interlaces((2, 1), (3, 2))
        assert interlaces((2, 0), (3, 2))
        assert not interlaces((1, 1), (3, 2))
        assert not interlaces((2, 2), (2, 1))

    def test_upper_longer(self):
        assert interlaces((2,), (3, 1))
        assert not interlaces((2,), (3, 3))
        assert interlaces((), (1,))

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            interlaces((1, 2), (3, 3))  # not weakly decreasing
        with pytest.raises(ValueError):
            interlaces((1,), (3, 2, 1))  # length gap 2


class TestPatternValidity:
    def test_zero_pattern(self):
        for k in range(1, 7):
            pat = zero_pattern(k)
            assert len(pat) == k
            assert pattern_is_valid(pat)

    def test_signed_odd_rows(self):
        # rows 1 and 3 may carry a signed last entry
        assert pattern_is_valid(((1,), (1,), (2, -1)))
        assert pattern_is_valid(((1,), (1,), (2, 1)))
        assert pattern_is_valid(((-1,), (1,)))
        # row 2 may not
        assert not pattern_is_valid(((0,), (-1,)))
        # and row 4 may not
        assert not pattern_is_valid(((0,), (1,), (1, 0), (1, -1)))

    def test_interlacing_enforced(self):
        assert not pattern_is_valid(((2,), (1,)))
        assert pattern_is_valid(((1,), (2,), (2, 0)))


@given(length=st.integers(0, 3), n_uppers=st.integers(1, 3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_lower_rows_is_the_interlacing_filter(length, n_uppers, data):
    """lower_rows gives exactly the brute-force filter of all rows with
    entries up to the largest upper entry, in the same order."""
    uppers = []
    for _ in range(n_uppers):
        n = data.draw(st.sampled_from([length, length + 1]))
        entries = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        uppers.append(tuple(sorted(entries, reverse=True)))
    top = max((e for u in uppers for e in u), default=0)
    brute = [
        row
        for row in itertools.product(range(top + 1), repeat=length)
        if is_nonneg_row(row) and all(interlaces(row, u) for u in uppers)
    ]
    assert list(lower_rows(length, *uppers)) == brute


def test_enumerate_lower_rows_signed_duplicates():
    rows = enumerate_lower_rows((2, 1), 2, signed_last=True)
    assert (2, 1) in rows and (2, -1) in rows
    assert (2, 0) in rows and (1, 1) in rows and (1, -1) in rows
    # zero last entry appears once
    assert sum(1 for r in rows if r == (2, 0)) == 1


def test_enumerate_lower_rows_grid_is_pinned():
    """Rows and their order for every small upper row, both target lengths
    and both sign modes: signed rows come in lexicographic order without a
    sort."""
    lines = []
    for n in range(4):
        for upper in itertools.product(range(5), repeat=n):
            if not is_nonneg_row(upper):
                continue
            for length in (n - 1, n):
                if length < 0:
                    continue
                for signed in (False, True):
                    rows = enumerate_lower_rows(upper, length, signed)
                    lines.append(f"{upper}:{length}:{signed}:{rows}")
    assert len(lines) == 222
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "cc519329bf5d994a037847ca80e3b3c10ae008fe1994b36bb549563f2996b425"
    )


def test_count_and_enumeration_order_are_pinned():
    lines = [
        f"{k}:{top}:{count_patterns(k, top)}:"
        f"{list(enumerate_patterns(k, top)) if k <= 5 else ''}"
        for k in range(1, 7)
        for top in states_in_box(k, 3)
    ]
    assert len(lines) == 68
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "64c853949c5130a9ed0fc92f630d758d02724c71dd5008edeadae8f35a65a356"
    )


def test_count_small_cases():
    # row 1 is signed, so below (n) there are 2n+1 choices -n..n
    assert count_patterns(2, (3,)) == 7
    # k=1: any single signed top row is one pattern
    assert count_patterns(1, (5,)) == 1
    assert count_patterns(1, (-5,)) == 1
    assert count_patterns(3, (1, 0)) == 4


def test_count_matches_enumeration():
    cases = [
        (2, (3,)),
        (3, (2, 1)),
        (3, (2, -1)),
        (4, (3, 1)),
        (5, (2, 1, 0)),
        (5, (2, 2, -1)),
        (6, (2, 1, 1)),
    ]
    for k, lam in cases:
        pats = list(enumerate_patterns(k, lam))
        assert all(pattern_is_valid(p) for p in pats)
        assert len(set(pats)) == len(pats)
        assert count_patterns(k, lam) == len(pats)


@given(
    k=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_count_consistent_with_branching(k, data):
    """count(k, lam) = sum over next rows down of count(k-1, .)."""
    m = row_length(k)
    vals = sorted(
        data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)),
        reverse=True,
    )
    lam = tuple(vals)
    if k % 2 == 1 and lam[-1] > 0 and data.draw(st.booleans()):
        lam = lam[:-1] + (-lam[-1],)
    below = enumerate_lower_rows(
        tuple(abs(v) for v in lam), row_length(k - 1), signed_last=(k - 1) % 2 == 1
    )
    assert count_patterns(k, lam) == sum(count_patterns(k - 1, b) for b in below)


class TestWeylDimension:
    def test_known_dimensions(self):
        # vector representations: dim = d
        assert weyl_dimension(3, (1,)) == 3
        assert weyl_dimension(4, (1, 0)) == 4
        assert weyl_dimension(5, (1, 0)) == 5
        assert weyl_dimension(7, (1, 0, 0)) == 7
        # SO(3) spin-l: dim = 2l + 1
        assert [weyl_dimension(3, (l,)) for l in range(5)] == [1, 3, 5, 7, 9]
        # SO(5) adjoint
        assert weyl_dimension(5, (1, 1)) == 10

    def test_sign_symmetric_for_even_d(self):
        assert weyl_dimension(4, (2, 1)) == weyl_dimension(4, (2, -1))
        assert weyl_dimension(6, (3, 1, 1)) == weyl_dimension(6, (3, 1, -1))

    @given(d=st.integers(2, 24), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_product_in_order(self, d, data):
        """Against the Weyl product over every positive root, multiplied one
        Fraction factor at a time with rho in half-integers; rows up to
        length 12 with entries up to 10^6 take the balanced product past its
        runs of 8."""
        r = d // 2
        lam = sorted(data.draw(st.lists(st.integers(0, 10**6), min_size=r, max_size=r)), reverse=True)
        if d % 2 == 0 and r and data.draw(st.booleans()):
            lam[-1] = -lam[-1]
        l = [v + Fraction(d - 2 - 2 * i, 2) for i, v in enumerate(lam)]
        rho = [Fraction(d - 2 - 2 * i, 2) for i in range(r)]
        value = Fraction(1)
        for i, j in itertools.combinations(range(r), 2):
            value *= (l[i] ** 2 - l[j] ** 2) / (rho[i] ** 2 - rho[j] ** 2)
        if d % 2:
            for li, ri in zip(l, rho):
                value *= li / ri
        assert weyl_dimension(d, tuple(lam)) == value

    def test_matches_pattern_count(self):
        cases = [
            (3, [(0,), (1,), (2,), (5,)]),
            (4, [(0, 0), (1, 0), (2, 1), (2, -1), (3, 3)]),
            (5, [(0, 0), (1, 0), (2, 2), (3, 1)]),
            (6, [(1, 0, 0), (2, 1, 0), (2, 2, -2)]),
            (7, [(1, 0, 0), (2, 1, 1), (3, 2, 0)]),
        ]
        for d, weights in cases:
            for lam in weights:
                assert count_patterns(d - 1, lam) == weyl_dimension(d, lam)
