"""Random-matrix side: spectra of antisymmetric sums, the continuous
transition density, and its Monte Carlo oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from gtpatterns.spectra import (
    h_d,
    h_d_degree,
    m_d,
    m_d_monte_carlo,
    p_d_density,
    sample_increment,
    simulate_eigen_chain,
    top_spectrum,
)


class TestSpectrum:
    def test_increment_is_antisymmetric_rank_two(self):
        rng = np.random.default_rng(0)
        a = sample_increment(6, rng)
        assert np.allclose(a, -a.T)
        assert np.linalg.matrix_rank(a) == 2

    def test_top_spectrum_matches_eigensolver(self):
        rng = np.random.default_rng(1)
        for d in range(2, 9):
            a = sum(sample_increment(d, rng) for _ in range(3))
            eigs = np.linalg.eigvalsh(1j * a)[::-1][: d // 2]
            assert np.allclose(top_spectrum(a), eigs, atol=1e-10)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            top_spectrum(np.eye(3))

    def test_chain_shape_and_ordering(self):
        out = simulate_eigen_chain(5, 4, 50, seed=2)
        assert out.shape == (4, 50, 2)
        assert np.all(out[:, :, 0] >= out[:, :, 1])
        assert np.all(out >= 0)

    def test_chain_rejects_d_below_two(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            simulate_eigen_chain(1, 2, 10, seed=0)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_chain_rejects_no_paths(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            simulate_eigen_chain(4, 2, n_paths, seed=0)


class TestHd:
    def test_positive_inside_cone(self):
        assert h_d(4, (3.0, 1.0)) > 0
        assert h_d(5, (3.0, 1.0)) > 0
        assert h_d(3, (2.0,)) > 0

    def test_vanishes_on_boundary(self):
        assert h_d(4, (2.0, 2.0)) == 0.0
        assert h_d(5, (2.0, 0.0)) == 0.0  # odd d vanishes at the wall

    def test_homogeneity(self):
        x = np.array([3.0, 1.5, 0.5])
        for d in (6, 7):
            deg = h_d_degree(d)
            ratio = h_d(d, 2 * x) / h_d(d, x)
            assert abs(ratio - 2**deg) < 1e-9


class TestMd:
    @pytest.mark.parametrize(
        "d,x,y",
        [
            (3, (1.5,), (2.0,)),
            (3, (1.5,), (0.5,)),
            (4, (2.0, 0.7), (2.5, 0.3)),
            (5, (2.0, 0.7), (1.5, 1.0)),
            (6, (3.0, 1.5, 0.4), (2.5, 2.0, 0.2)),
            (7, (3.0, 1.5, 0.4), (3.5, 1.0, 0.8)),
        ],
    )
    def test_against_monte_carlo(self, d, x, y):
        exact = m_d(d, x, y)
        approx = m_d_monte_carlo(d, x, y, n_samples=400_000, seed=5)
        assert exact > 0
        assert abs(approx - exact) / exact < 1e-2

    def test_d3_is_reflected_heat_like_factor(self):
        # r = 1, odd: integral of e^{-(x+y)+2z} over [0, min(x,y)]
        x, y = 1.2, 0.7
        expected = quad(lambda z: math.exp(-(x + y) + 2 * z), 0, min(x, y))[0]
        assert abs(m_d(3, (x,), (y,)) - expected) < 1e-12

    def test_zero_without_overlap(self):
        assert m_d(5, (3.0, 2.5), (2.0, 0.5)) == 0.0


class TestDensity:
    def test_d3_integrates_to_one(self):
        x = (1.0,)
        total = quad(lambda y: p_d_density(3, x, (y,)), 0, 40)[0]
        assert abs(total - 1.0) < 1e-6

    def test_d4_integrates_to_one(self):
        x = (1.4, 0.6)
        total = integrate_over_cone(lambda y1, y2: p_d_density(4, x, (y1, y2)), x, 30)
        assert abs(total - 1.0) < 1e-4

    def test_d5_integrates_to_one(self):
        x = (1.4, 0.6)
        total = integrate_over_cone(lambda y1, y2: p_d_density(5, x, (y1, y2)), x, 30)
        assert abs(total - 1.0) < 1e-4

    def test_matches_one_step_of_matrix_chain(self):
        """The d = 3 density against the empirical law of the top eigenvalue
        one increment after x, via a histogram comparison."""
        d, x = 3, 1.0
        rng = np.random.default_rng(8)
        n = 200_000
        base = np.zeros((d, d))
        base[0, 1], base[1, 0] = x, -x
        v = rng.standard_normal((n, d))
        w = rng.standard_normal((n, d))
        acc = base[None] + np.einsum("pi,pj->pij", v, w) - np.einsum(
            "pi,pj->pij", w, v
        )
        tops = np.linalg.svd(acc, compute_uv=False)[:, 0]
        edges = np.linspace(0, 8, 41)
        hist, _ = np.histogram(tops, bins=edges, density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dens = np.array([p_d_density(d, (x,), (m,)) for m in mids])
        assert np.max(np.abs(hist - dens)) < 0.02

    def test_matches_matrix_chain_even_d(self):
        """Pointwise check of the d = 4 density against an empirical joint
        histogram of the two eigenvalues one increment after x."""
        d, x = 4, (1.4, 0.6)
        rng = np.random.default_rng(12)
        n = 400_000
        base = np.zeros((d, d))
        base[0, 1], base[1, 0] = x[0], -x[0]
        base[2, 3], base[3, 2] = x[1], -x[1]
        v = rng.standard_normal((n, d))
        w = rng.standard_normal((n, d))
        acc = base[None] + np.einsum("pi,pj->pij", v, w) - np.einsum(
            "pi,pj->pij", w, v
        )
        s = np.linalg.svd(acc, compute_uv=False)
        lam = s[:, ::2][:, :2]
        h = 0.15
        for pt in [(2.0, 0.5), (3.0, 1.0), (2.5, 0.2)]:
            mask = (np.abs(lam[:, 0] - pt[0]) < h / 2) & (
                np.abs(lam[:, 1] - pt[1]) < h / 2
            )
            emp = mask.mean() / (h * h)
            assert abs(emp - p_d_density(d, x, pt)) < 0.02

    def test_raises_on_cone_boundary(self):
        with pytest.raises(ValueError):
            p_d_density(4, (1.0, 1.0), (2.0, 0.5))

    @pytest.mark.parametrize("x", [(math.nan, 0.5), (0.6, 1.4)])
    def test_raises_outside_open_cone(self, x):
        with pytest.raises(ValueError, match="interior of the spectral cone"):
            p_d_density(4, x, (2.0, 0.5))

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: h_d(4, (1.0,)), "lam must have length 2"),
            (lambda: m_d(5, (2.0, 1.0), (1.0,)), "x, y must have length 2"),
            (lambda: p_d_density(4, (2.0, 1.0, 0.5), (1.0, 0.5)), "lam must have length 2"),
            (lambda: p_d_density(4, (2.0, 1.0), [1.0]), "lam must have length 2"),
        ],
    )
    def test_wrong_length_message(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


def integrate_over_cone(f, x, hi):
    """The integral of f(y1, y2) over 0 <= y2 <= y1 <= hi, summed over the
    pieces cut at y1, y2 in {x1, x2}: m_d has kinks where its min/max
    bounds switch, and quadrature over one piece converges cleanly."""
    edges = (0.0, *sorted(x), hi)
    total = 0.0
    for i in range(len(edges) - 1):
        for j in range(i + 1):
            # y2 ranges over the j-th cell, up to the diagonal y2 = y1 when
            # that cell is the same as y1's
            top = (lambda y1: y1) if j == i else edges[j + 1]
            total += dblquad(
                lambda y2, y1: f(y1, y2), edges[i], edges[i + 1], edges[j], top
            )[0]
    return total


def _h_d_mp(d, lam):
    r = d // 2
    v = mpmath.mpf(1)
    for i in range(r):
        for j in range(i + 1, r):
            v *= (lam[i] - lam[j]) * (lam[i] + lam[j])
    c = mpmath.mpf(1)
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            c *= (j - i) * (d - j - i)
    if d % 2:
        for i in range(1, r + 1):
            v *= lam[i - 1]
            c *= r + mpmath.mpf(1) / 2 - i
    return v / c


def _m_d_mp(d, x, y):
    r = d // 2
    # coordinate i of z runs over [max(x_{i+1}, y_{i+1}), min(x_i, y_i)],
    # with a wall at 0 below the last coordinate when d is odd
    n_free = r if d % 2 else r - 1
    v = mpmath.mpf(1)
    for i in range(n_free):
        lo = max(x[i + 1], y[i + 1]) if i + 1 < r else mpmath.mpf(0)
        hi = min(x[i], y[i])
        if hi < lo:
            return mpmath.mpf(0)
        v *= mpmath.exp(-(x[i] + y[i])) * (mpmath.exp(2 * hi) - mpmath.exp(2 * lo)) / 2
    if d % 2 == 0:
        v *= (mpmath.exp(-abs(x[-1] - y[-1])) + mpmath.exp(-(x[-1] + y[-1]))) / 2
    return v


def _cone_point(r):
    # coordinates on a 1/16 grid in (0, 10]: each interlacing interval of
    # m_d is then empty or at least 1/16 long, so the float difference of
    # exponentials keeps a relative error far below 1e-12
    return st.lists(
        st.integers(1, 160), min_size=r, max_size=r, unique=True
    ).map(lambda v: tuple(c / 16 for c in sorted(v, reverse=True)))


@st.composite
def _density_case(draw):
    d = draw(st.integers(2, 8))
    return d, draw(_cone_point(d // 2)), draw(_cone_point(d // 2))


@given(case=_density_case())
@settings(max_examples=200, deadline=None)
def test_density_matches_fifty_digit_closed_form(case):
    """p_d_density against h_d(y) m_d(x, y) / h_d(x) written out again in
    mpmath at 50 digits; list, tuple and ndarray inputs give one float."""
    d, x, y = case
    value = p_d_density(d, x, y)
    with mpmath.workdps(50):
        xm = [mpmath.mpf(c) for c in x]
        ym = [mpmath.mpf(c) for c in y]
        hy, m = _h_d_mp(d, ym), _m_d_mp(d, xm, ym)
        exact = hy * m / _h_d_mp(d, xm)
        assert abs(value - exact) <= 1e-12 * abs(exact)
        # the normalizer of h_d cancels in the density; check it directly
        assert abs(h_d(d, y) - hy) <= 1e-12 * abs(hy)
        assert abs(m_d(d, x, y) - m) <= 1e-12 * abs(m)
    for cast in (list, np.array):
        assert p_d_density(d, cast(x), cast(y)) == value
        assert h_d(d, cast(y)) == h_d(d, y)
        assert m_d(d, cast(x), cast(y)) == m_d(d, x, y)
