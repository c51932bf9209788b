"""Random-matrix side: spectra of antisymmetric sums, the continuous
transition density, and its Monte Carlo oracle."""

import hashlib
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from gtpatterns import spectra
from gtpatterns.spectra import (
    check_chain_budget,
    h_d,
    m_d,
    p_d_density,
    simulate_eigen_chain,
)
from oracles import h_d_degree, m_d_monte_carlo, sample_increment, top_spectrum


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_chain_matches_svd_of_rebuilt_matrices(self, d, seed):
        """d <= 4 is closed form, d >= 5 the SVD loop; both must equal the SVD
        of the accumulated matrices, rebuilt here in the chain's draw order."""
        n_steps, n_paths = 3, 2000
        out = simulate_eigen_chain(d, n_steps, n_paths, seed)
        rng = np.random.default_rng(seed)
        acc = np.zeros((n_paths, d, d))
        for n in range(n_steps):
            v = rng.standard_normal((n_paths, d))
            w = rng.standard_normal((n_paths, d))
            acc += v[:, :, None] * w[:, None, :] - w[:, :, None] * v[:, None, :]
            expected = np.linalg.svd(acc, compute_uv=False)[..., ::2][..., : d // 2]
            s1 = expected[:, :1]
            assert np.all(np.abs(out[n] - expected) <= 1e-12 * s1)
            assert np.all(out[n, :, 0] >= out[n, :, -1])
            assert np.all(out[n] >= 0)

    def test_chain_rejects_d_below_two(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            simulate_eigen_chain(1, 2, 10, seed=0)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_chain_rejects_no_paths(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            simulate_eigen_chain(4, 2, n_paths, seed=0)

    def test_chain_budget_comes_first(self, monkeypatch):
        """100 times the largest chains of the suite and the benchmark (2e5
        paths at d = 4, 2,000 at d = 6) are within the budget; a chain over
        it is refused before any draw or allocation."""
        check_chain_budget(4, 2, 100 * 200_000, "d=4")
        check_chain_budget(6, 3, 100 * 2000, "d=6")

        def drawn(*args):
            raise AssertionError("allocated before the budget was checked")

        monkeypatch.setattr(np.random, "default_rng", drawn)
        monkeypatch.setattr(np, "empty", drawn)
        with pytest.raises(ValueError, match="n_steps=10000 with 200000 paths .*budget"):
            simulate_eigen_chain(4, 10_000, 200_000, seed=0)
        # at d >= 5 the d x d accumulator dominates, even at one step
        with pytest.raises(ValueError, match="n_steps=1 with 10000000 paths .*budget"):
            simulate_eigen_chain(9, 1, 10**7, seed=0)

    @pytest.mark.parametrize(
        "d, n_steps, digest",
        [
            (2, 3, "9948df326bf5a63a1cd4c84beec6185068383dd1936c70e7f6c71c6bd421527a"),
            (3, 3, "b4ceea37fae5dfc91a1f5e5b15f43ac7ddb123afe2f7fb1725ba41e565195cdf"),
            (4, 3, "9d48e47382f6b98c0c69383eef4836b07d1fa7c58b75e23597a26129aa5dff0a"),
            (5, 2, "ca71601968657fd74ef0c190b2489c3e8bbf7bd297d136a5f6c199e568018426"),
            (6, 2, "f603cf9d8dc0b98bfcd70c7dbc8f10fafacab441d120ecea6ee0f4340ff4b68e"),
        ],
    )
    def test_chain_digest_is_pinned(self, d, n_steps, digest):
        """Every float of the chain, bit for bit, over one full block and one
        path more; recorded when the chain was one batch of all paths.  The
        d = 4, 5, 6 pins were re-recorded when the coordinates past the rank
        bound became +0.0: only those entries changed, each from a rounding
        residue of at most 3.5e-15."""
        out = simulate_eigen_chain(d, n_steps, spectra.CHAIN_BLOCK + 1, seed=d)
        assert out.shape == (n_steps, 4097, d // 2)
        assert hashlib.sha256(out.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_coordinates_past_the_rank_are_exact_zeros(self, d):
        """After n increments the accumulator has rank <= 2n, so spectrum
        coordinates c >= n are +0.0, as the discrete model's are, and the
        ones below are positive."""
        n_steps = d // 2
        out = simulate_eigen_chain(d, n_steps, 500, seed=d + 30)
        for n in range(n_steps):
            past = out[n, :, n + 1:]
            assert np.all(past == 0.0) and not np.signbit(past).any()
            assert np.all(out[n, :, : n + 1] > 0)

    @pytest.mark.parametrize("d, name, per_block", [(4, "norm", 2), (5, "svd", 1)])
    def test_each_call_sees_one_block_of_paths(self, d, name, per_block, monkeypatch):
        """The d <= 4 norms (two per block) and the d >= 5 SVD (one per
        block) each see at most CHAIN_BLOCK paths, and each step's calls
        cover every path once per norm or SVD: an SVD of the whole
        accumulator per block, or norms over all paths, fail here."""
        n_steps, n_paths = 2, 2 * spectra.CHAIN_BLOCK + 1
        real = getattr(np.linalg, name)
        rows = []

        def counted(a, *args, **kwargs):
            rows.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        simulate_eigen_chain(d, n_steps, n_paths, seed=0)
        assert 0 < max(rows) <= spectra.CHAIN_BLOCK
        per_step = np.reshape(rows, (n_steps, -1)).sum(axis=1)
        assert per_step.tolist() == [per_block * n_paths] * n_steps

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_chain_does_not_depend_on_the_block(self, d, monkeypatch):
        n_steps, n_paths = 3, 50
        outs = []
        for block in (1, 7, n_paths):
            monkeypatch.setattr(spectra, "CHAIN_BLOCK", block)
            outs.append(simulate_eigen_chain(d, n_steps, n_paths, seed=d + 20))
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])

    @pytest.mark.parametrize(
        "d, n_paths, bound_mb",
        [
            # draws 12.8 MB, accumulator 9.6 MB, output 6.4 MB; traced peak
            # 29.7 MB in blocks, 57.6 MB as one batch
            (4, 200_000, 40),
            # draws 1.9 MB, accumulator 5.8 MB, output 1.0 MB; traced peak
            # 11.0 MB in blocks, 21.1 MB as one batch
            (6, 20_000, 14),
        ],
    )
    def test_chain_memory_is_its_arrays_and_one_block(self, d, n_paths, bound_mb):
        """Beyond the step's draws, the accumulator and the output, the chain
        holds only temporaries of one block of paths."""
        simulate_eigen_chain(d, 1, 10, seed=0)  # first-use allocations
        tracemalloc.start()
        try:
            simulate_eigen_chain(d, 2, n_paths, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


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

    @pytest.mark.parametrize("width", [2.0**-10, 2.0**-30, 2.0**-50])
    @pytest.mark.parametrize("d", [4, 5])
    def test_narrow_interval_keeps_its_precision(self, d, width):
        """An interval of z as narrow as `width` costs no relative precision:
        within 4 ulp of the closed form in 50-digit mpmath.  A difference of
        two exponentials there loses about log2(1/width) bits."""
        x, y = (2.0, 1.0), (1.0 + width, 0.5)
        value = m_d(d, x, y)
        with mpmath.workdps(50):
            exact = _m_d_mp(d, [mpmath.mpf(c) for c in x], [mpmath.mpf(c) for c in y])
            assert abs(value - exact) <= 4 * 2.0**-52 * exact

    def test_large_coordinates_do_not_overflow(self):
        # (e^{-1} - e^{-801}) / 2, although e^{2 min(x, y)} = e^800 is past
        # the float range
        assert m_d(3, (400.0,), (401.0,)) == 0.18393972058572117


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

    @pytest.mark.parametrize(
        "d, x",
        [
            pytest.param(4, (math.nan, 0.5), id="x0"),
            pytest.param(4, (0.6, 1.4), id="x1"),
            # h_d(x) > 0 from an even number of negative factors
            pytest.param(5, (-1.4, -0.6), id="x2"),
            pytest.param(4, (-1.4, 0.6), id="x3"),
        ],
    )
    def test_raises_outside_open_cone(self, d, x):
        with pytest.raises(ValueError, match="interior of the spectral cone"):
            p_d_density(d, x, (2.0, 0.5))

    def test_density_grid_is_pinned(self):
        """Every float of p_d_density over a grid, bit for bit, at d = 2..9."""
        lines = [
            f"{d}:{x}:{y}:{p_d_density(d, x, y).hex()}"
            for d in range(2, 10)
            for x in itertools.combinations((4.0, 2.5, 1.25, 0.5), d // 2)
            for y in itertools.combinations_with_replacement((5.0, 3.0, 2.0, 1.0, 0.0), d // 2)
        ]
        assert len(lines) == 640
        assert sum(not line.endswith(":0x0.0p+0") for line in lines) == 167
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "0b1cc98210e62df63ace78b77c25291f625b47512257aa68b6000a866efe12ac"
        )

    @pytest.mark.parametrize("x", [(math.nan, 0.5), (1.0, 1.0), (0.6, 1.4)])
    def test_refused_start_is_refused_again(self, x):
        """A start outside the open cone raises on every call; the cache of
        checked starts keeps none of them."""
        spectra._start.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="interior of the spectral cone"):
                p_d_density(4, x, (2.0, 0.5))
        assert spectra._start.cache_info().currsize == 0

    @pytest.mark.parametrize("first", [tuple, list, np.array])
    def test_start_of_any_sequence_gives_one_float(self, first):
        """Whichever type of x fills the cache, every type reads one float."""
        spectra._start.cache_clear()
        y = (2.0, 0.5)
        value = p_d_density(4, first((2, 1.25)), y)
        for cast in (tuple, list, np.array):
            assert p_d_density(4, cast((2.0, 1.25)), y) == value
        spectra._start.cache_clear()
        assert p_d_density(4, (2.0, 1.25), y) == value

    def test_start_cache_is_bounded(self):
        bound = spectra._start.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 10):
            p_d_density(4, (3.0 + i, 1.0), (2.0, 0.5))
        assert spectra._start.cache_info().currsize <= bound

    @pytest.mark.parametrize("d", [1, 0])
    def test_density_rejects_d_below_two(self, d):
        with pytest.raises(ValueError, match="d must be >= 2"):
            p_d_density(d, (), ())

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


@given(case=_density_case(), shift=st.sampled_from((0, 1000)))
@settings(max_examples=200, deadline=None)
def test_density_matches_fifty_digit_closed_form(case, shift):
    """p_d_density against h_d(y) m_d(x, y) / h_d(x) written out again in
    mpmath at 50 digits; list, tuple and ndarray inputs give one float.
    Shifted by 1000 (still on the 1/16 grid), every e^{2 min(x_i, y_i)} is
    past the float range."""
    d, x, y = case
    x, y = (tuple(c + shift for c in v) for v in (x, y))
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


@given(d=st.integers(2, 8), data=st.data())
@settings(max_examples=300, deadline=None)
def test_density_from_the_cached_start_is_the_formula(d, data):
    """p_d_density reads h_d(x) and m_d's bounds of x from its cached start;
    they give, to the last bit, the value built from h_d and m_d afresh, for
    y in the cone and for y in any order."""
    r = d // 2
    x = data.draw(_cone_point(r))
    y = data.draw(
        _cone_point(r) | st.lists(st.floats(0.0, 12.0), min_size=r, max_size=r).map(tuple)
    )
    assert p_d_density(d, x, y) == h_d(d, y) * m_d(d, x, y) / h_d(d, x)


def _weyl_sum_density(d, x, y):
    """(h_d(y)/h_d(x)) sum_w sgn(w) prod_i e^{-|y_i - (wx)_i|}/2 over the Weyl
    group W of SO(d): the signed permutations w, with
    sgn(w) = sgn(perm) (-1)^#flips, for odd d; for even d only those with an
    even number of flips, summed also over y with y_r negated when y_r > 0.
    A reflection sum, independent of the interlacing integral m_d."""
    r = d // 2
    ys = [y] if d % 2 or y[-1] == 0 else [y, (*y[:-1], -y[-1])]
    total = 0.0
    for perm in itertools.permutations(range(r)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        for flips in itertools.product((1, -1), repeat=r):
            sign = (-1) ** inversions * math.prod(flips)
            if d % 2 == 0 and math.prod(flips) < 0:
                continue
            wx = [f * x[p] for f, p in zip(flips, perm)]
            for yy in ys:
                total += sign * math.prod(math.exp(-abs(a - b)) / 2 for a, b in zip(yy, wx))
    return h_d(d, y) / h_d(d, x) * total


@given(d=st.integers(2, 9), data=st.data())
@settings(max_examples=300, deadline=None)
def test_density_matches_weyl_group_sum(d, data):
    """p_d_density against the reflection sum over the Weyl group on the 1/16
    grid: within 1e-10 relative where p > 0; where p = 0 the sum cancels to
    at most 1e-7, since the support is decided by m_d's interlacing."""
    x, y = data.draw(_cone_point(d // 2)), data.draw(_cone_point(d // 2))
    value, oracle = p_d_density(d, x, y), _weyl_sum_density(d, x, y)
    if value > 0:
        assert abs(oracle - value) <= 1e-10 * value
    else:
        assert abs(oracle) <= 1e-7
