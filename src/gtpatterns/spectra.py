"""Random-matrix limit objects: the antisymmetric Gaussian matrix chain,
its top eigenvalues, and the continuous transition density they follow.

The chain for d <= 4 is sampled in closed form through
so(4) = so(3) + so(3), with no d x d matrix; for d >= 5 it accumulates the
matrices and takes a batched SVD per step.  A step draws for all paths,
then updates and measures them in blocks of CHAIN_BLOCK paths.  The
single-matrix SVD spectrum, the oracle of both, and the Monte Carlo
integral behind m_d are kept in tests/oracles.py.

Everything here is floating point; tolerances are stated per test. The
scalar functions h_d, m_d and p_d_density take any sequence of coordinates
(tuple, list or ndarray), convert it once and compute on Python floats:
they sit inside quadratures, where numpy scalar arithmetic would cost more
than the arithmetic itself.  A quadrature holds the start x fixed, so
p_d_density checks x and computes h_d(x) and m_d's interval bounds of x
(with the odd-d wall at 0) once per (d, x), in a bounded cache; each call
converts y and does only the work that y decides.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from math import exp, expm1
from operator import index

import numpy as np

from gtpatterns.patterns import check_budget


# Budget of the eigenvalue chain's arrays, in floats, checked in O(1) before
# any allocation and at least 100 times the largest chain in the test suite
# and the benchmark (2e5 paths at d = 4 for 2 steps, 7.2e6 floats).  A chain
# holds its (n_steps, n_paths, d//2) output, its two (n_paths, d) draws and
# its accumulator (6 floats per path at d <= 4, d^2 at d >= 5); any other
# array holds CHAIN_BLOCK paths.  The estimate, an upper bound, counts 32
# floats per path at d <= 4 and 4 d^2 at d >= 5.
MAX_CHAIN_FLOATS = 10**9
CHAIN_BLOCK = 4096  # paths per block of the chain's update


def check_chain_budget(d: int, n_steps: int, n_paths: int, what: str) -> None:
    """Refuse a chain whose arrays are over MAX_CHAIN_FLOATS; `what` names
    the arguments that set n_steps and n_paths, counted as Python ints so
    that a numpy count cannot wrap."""
    floats = index(n_paths) * (index(n_steps) * (d // 2) + (32 if d <= 4 else 4 * d * d))
    check_budget(floats, MAX_CHAIN_FLOATS, f"{what} holds", "floats in the eigenvalue chain")


def simulate_eigen_chain(
    d: int, n_steps: int, n_paths: int, seed: int
) -> np.ndarray:
    """Sample paths of the top-eigenvalue chain.

    Returns an array of shape (n_steps, n_paths, d//2): the spectrum after
    each accumulated increment.  Each step draws v, then w, with shape
    (n_paths, d), whatever d is, then updates and measures CHAIN_BLOCK paths
    at a time; the output does not depend on CHAIN_BLOCK, bit for bit.

    For d <= 4 the spectrum is in closed form.  Padded with zero rows and
    columns to 4 x 4, the accumulator A splits by so(4) = so(3) + so(3)
    into the 3-vectors u+ = (a01 + a23, a02 - a13, a03 + a12) and
    u- = (a01 - a23, a02 + a13, a03 - a12), and its top spectrum is
    ((|u+| + |u-|)/2, ||u+| - |u-||/2).  No difference of squares is
    taken, so the absolute error stays at eps * s1, as for the SVD.  For
    d >= 5 each step takes the SVD of the (n_paths, d, d) accumulator.
    A has rank <= 2n after n increments, so coordinates c >= n are written +0.0.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    check_chain_budget(d, n_steps, n_paths, f"n_steps={n_steps} with {n_paths} paths")
    rng = np.random.default_rng(seed)
    out = np.empty((n_steps, n_paths, d // 2))
    # the step's draws, filled in place: the stream of a fresh array each step
    v = np.empty((n_paths, d))
    w = np.empty((n_paths, d))
    blocks = [slice(lo, min(lo + CHAIN_BLOCK, n_paths)) for lo in range(0, n_paths, CHAIN_BLOCK)]
    if d <= 4:
        plus = np.zeros((n_paths, 3))
        minus = np.zeros((n_paths, 3))
        # one block of v and w padded to 4 x 4: columns d..3 stay zero
        padded = np.zeros((2, min(CHAIN_BLOCK, n_paths), 4))
        for n in range(n_steps):
            rng.standard_normal(out=v)
            rng.standard_normal(out=w)
            for b in blocks:
                p, r = padded[:, : b.stop - b.start]
                p[:, :d], r[:, :d] = v[b], w[b]
                # with v = (v0, p) and w = (w0, r), the increment has
                # (a01, a02, a03) = v0 r - w0 p and (a23, -a13, a12) = p x r
                first = p[:, :1] * r[:, 1:] - r[:, :1] * p[:, 1:]
                cross = np.cross(p[:, 1:], r[:, 1:])
                plus[b] += first + cross
                minus[b] += first - cross
                norm_plus = np.linalg.norm(plus[b], axis=1)
                norm_minus = np.linalg.norm(minus[b], axis=1)
                out[n, b, 0] = (norm_plus + norm_minus) / 2
                if d == 4:
                    out[n, b, 1] = np.abs(norm_plus - norm_minus) / 2
            out[n, :, n + 1:] = 0.0
        return out
    acc = np.zeros((n_paths, d, d))
    for n in range(n_steps):
        rng.standard_normal(out=v)
        rng.standard_normal(out=w)
        for b in blocks:
            acc[b] += np.einsum("pi,pj->pij", v[b], w[b]) - np.einsum("pi,pj->pij", w[b], v[b])
            out[n, b] = np.linalg.svd(acc[b], compute_uv=False)[:, ::2][:, : d // 2]
        out[n, :, n + 1:] = 0.0
    return out


@cache
def _h_table(d: int) -> tuple[tuple[tuple[int, int], ...], float]:
    """h_d's coordinate pairs i < j and its normalizer, once per d."""
    r = d // 2
    c = 1.0
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            c *= (j - i) * (d - j - i)
        if d % 2:
            c *= r + 0.5 - i
    return tuple((i, j) for i in range(r) for j in range(i + 1, r)), c


def _floats(v, r: int, name: str) -> tuple[float, ...]:
    """The sequence v as a tuple of Python floats, which must number r."""
    v = tuple(map(float, v))
    if len(v) != r:
        raise ValueError(f"{name} must have length {r}")
    return v


def _h(d: int, lam: tuple[float, ...]) -> float:
    """h_d on coordinates already converted by _floats."""
    pairs, norm = _h_table(d)
    v = 1.0
    for i, j in pairs:
        v *= (lam[i] - lam[j]) * (lam[i] + lam[j])
    if d % 2:
        v *= math.prod(lam)
    return v / norm


def h_d(d: int, lam) -> float:
    """The continuous dimension function: a normalized product of spectral
    differences and sums, with a linear factor per coordinate when d is odd."""
    return _h(d, _floats(lam, d // 2, "lam"))


def _bounds(d: int, x: tuple[float, ...]) -> tuple[tuple[int, float, float], ...]:
    """m_d's interval bounds that x decides, (i, x_i, x_{i+1}) for each free
    coordinate i of z, with a wall at 0 below the last one when d is odd."""
    x += (0.0,) * (d % 2)
    return tuple((i, x[i], x[i + 1]) for i in range(len(x) - 1))


def _m(d: int, x: tuple[float, ...], y: tuple[float, ...], bounds) -> float:
    """m_d on coordinates already converted by _floats, with x's bounds."""
    if d % 2:
        value, y = 1.0, y + (0.0,)  # y's wall at 0
    else:
        # the halved two-sided factor is what normalizes the density; it is
        # the continuum limit of the discrete wall weight 1/(1+q)
        xr, yr = x[-1], y[-1]
        value = (exp(-abs(xr - yr)) + exp(-(xr + yr))) / 2
    for i, xi, a in bounds:
        # max(a, b) and min(xi, yi) as the builtins decide, ties and NaN too
        yi, b = y[i], y[i + 1]
        lo = b if b > a else a
        hi = yi if yi < xi else xi
        if hi < lo:
            return 0.0
        # e^{-x_i-y_i} (e^{2 hi} - e^{2 lo}) / 2 with exponents <= 0, so that
        # no coordinate overflows it; through expm1 where the difference would
        # cancel, e^t > 1/2 with t = 2 (lo - hi); 0.0 - keeps +0.0 at lo = hi
        xy, t = xi + yi, 2 * (lo - hi)
        if t > -0.6931471805599453:
            value *= exp(2 * hi - xy) * (0.0 - expm1(t)) / 2
        else:
            value *= (exp(2 * hi - xy) - exp(2 * lo - xy)) / 2
    return value


def m_d(d: int, x, y) -> float:
    """Closed form of the interlacing integral in the transition density.

    The integral over z with z interlacing both x and y factorizes into
    per-coordinate integrals of e^{2z} over [L_i, U_i]."""
    x, y = (_floats(v, d // 2, "x, y") for v in (x, y))
    return _m(d, x, y, _bounds(d, x))


@lru_cache(maxsize=64)
def _start(d: int, x: tuple) -> tuple[tuple[float, ...], float, tuple]:
    """x as floats, h_d(x) and m_d's bounds of x, for x in the open cone; cached
    per (d, x), since a quadrature over y calls p_d_density with one x."""
    if d < 2:
        raise ValueError("d must be >= 2")
    # a wrong length is reported as h_d reports it
    x = _floats(x, d // 2, "lam")
    hx = _h(d, x)
    # h_d(x) > 0 alone passes an even number of negative factors
    if not (hx > 0.0 and x[-1] >= 0.0 and all(map(float.__gt__, x, x[1:]))):
        raise ValueError("x must lie in the interior of the spectral cone")
    return x, hx, _bounds(d, x)


def p_d_density(d: int, x, y) -> float:
    """Transition density of the top-eigenvalue chain:
    p_d(x, y) = h_d(y) m_d(x, y) / h_d(x), for x in the open cone.

    The start x is checked, and h_d(x) and m_d's bounds of x computed, once
    per (d, x), in a bounded cache; y is converted on every call."""
    x, hx, bounds = _start(d, tuple(x))
    y = _floats(y, d // 2, "lam")
    return _h(d, y) * _m(d, x, y, bounds) / hx
