"""Random-matrix limit objects: the antisymmetric Gaussian matrix chain,
its top eigenvalues, and the continuous transition density they follow.

Everything here is floating point; tolerances are stated per test. The
scalar functions h_d, m_d and p_d_density take any sequence of coordinates
(tuple, list or ndarray), convert it once and compute on Python floats:
they sit inside quadratures, where numpy scalar arithmetic would cost more
than the arithmetic itself.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def sample_increment(d: int, rng: np.random.Generator) -> np.ndarray:
    """One real antisymmetric increment A = v w^T - w v^T with v, w
    independent standard Gaussian vectors; the Hermitian accumulator is iA."""
    if d < 2:
        raise ValueError("d must be >= 2")
    v = rng.standard_normal(d)
    w = rng.standard_normal(d)
    return np.outer(v, w) - np.outer(w, v)


def top_spectrum(a: np.ndarray) -> np.ndarray:
    """The d//2 largest eigenvalues of iA, i.e. the leading singular values
    of the antisymmetric matrix A, sorted decreasingly."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.allclose(a, -a.T):
        raise ValueError("matrix must be antisymmetric")
    d = a.shape[0]
    s = np.linalg.svd(a, compute_uv=False)
    # eigenvalues of iA come in +-pairs, so each distinct magnitude shows
    # up twice among the singular values of A; take every other one
    return s[::2][: d // 2]


def simulate_eigen_chain(
    d: int, n_steps: int, n_paths: int, seed: int
) -> np.ndarray:
    """Sample paths of the top-eigenvalue chain.

    Returns an array of shape (n_steps, n_paths, d//2): the spectrum after
    each accumulated increment.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = np.random.default_rng(seed)
    acc = np.zeros((n_paths, d, d))
    out = np.empty((n_steps, n_paths, d // 2))
    for n in range(n_steps):
        v = rng.standard_normal((n_paths, d))
        w = rng.standard_normal((n_paths, d))
        acc += np.einsum("pi,pj->pij", v, w) - np.einsum("pi,pj->pij", w, v)
        s = np.linalg.svd(acc, compute_uv=False)
        out[n] = s[:, ::2][:, : d // 2]
    return out


_H_D_NORMS: dict[int, float] = {}


def _h_d_norm(d: int) -> float:
    """The normalizer of h_d, which depends on d only; computed once per d."""
    c = _H_D_NORMS.get(d)
    if c is None:
        r = d // 2
        c = 1.0
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                c *= (j - i) * (d - j - i)
            if d % 2:
                c *= r + 0.5 - i
        _H_D_NORMS[d] = c
    return c


def _floats(v, r: int, name: str) -> tuple[float, ...]:
    """The sequence v as a tuple of Python floats, which must number r."""
    v = tuple(map(float, v))
    if len(v) != r:
        raise ValueError(f"{name} must have length {r}")
    return v


def _h(d: int, lam: tuple[float, ...]) -> float:
    """h_d on coordinates already converted by _floats."""
    v = 1.0
    for a, b in combinations(lam, 2):
        v *= (a - b) * (a + b)
    if d % 2:
        v *= math.prod(lam)
    return v / _h_d_norm(d)


def h_d(d: int, lam) -> float:
    """The continuous dimension function: a normalized product of spectral
    differences and sums, with a linear factor per coordinate when d is odd."""
    return _h(d, _floats(lam, d // 2, "lam"))


def h_d_degree(d: int) -> int:
    """Homogeneity degree of h_d."""
    r = d // 2
    return r * (r - 1) + (d % 2) * r


def _m(d: int, x: tuple[float, ...], y: tuple[float, ...]) -> float:
    """m_d on coordinates already converted by _floats."""
    r = len(x)
    if d % 2 == 1:
        value, n = 1.0, r
    else:
        # the halved two-sided factor is what normalizes the density; it is
        # the continuum limit of the discrete wall weight 1/(1+q)
        value = (math.exp(-abs(x[-1] - y[-1])) + math.exp(-(x[-1] + y[-1]))) / 2
        n = r - 1
    for i in range(n):
        lo = max(x[i + 1], y[i + 1]) if i + 1 < r else 0.0
        hi = min(x[i], y[i])
        if hi < lo:
            return 0.0
        value *= math.exp(-(x[i] + y[i])) * (math.exp(2 * hi) - math.exp(2 * lo)) / 2
    return value


def m_d(d: int, x, y) -> float:
    """Closed form of the interlacing integral in the transition density.

    The integral over z with z interlacing both x and y factorizes into
    per-coordinate integrals of e^{2z} over [L_i, U_i]."""
    r = d // 2
    return _m(d, _floats(x, r, "x, y"), _floats(y, r, "x, y"))


def p_d_density(d: int, x, y) -> float:
    """Transition density of the top-eigenvalue chain:
    p_d(x, y) = h_d(y) m_d(x, y) / h_d(x), for x in the open cone."""
    if d < 2:
        raise ValueError("d must be >= 2")
    # a wrong length is reported as h_d reports it
    x = _floats(x, d // 2, "lam")
    hx = _h(d, x)
    # h_d(x) > 0 alone passes an even number of negative factors
    if not (hx > 0.0 and x[-1] >= 0.0 and all(map(float.__gt__, x, x[1:]))):
        raise ValueError("x must lie in the interior of the spectral cone")
    y = _floats(y, d // 2, "lam")
    return _h(d, y) * _m(d, x, y) / hx


def m_d_monte_carlo(
    d: int, x, y, n_samples: int, seed: int
) -> float:
    """Monte Carlo estimate of the defining integral of m_d, as an
    independent oracle for the closed form."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    r = d // 2
    if d % 2 == 1:
        dims = r
        lows = np.array([max(x[i + 1] if i < r - 1 else 0.0,
                             y[i + 1] if i < r - 1 else 0.0) for i in range(r)])
        highs = np.array([min(x[i], y[i]) for i in range(r)])
    else:
        dims = r - 1
        lows = np.array([max(x[i + 1], y[i + 1]) for i in range(r - 1)])
        highs = np.array([min(x[i], y[i]) for i in range(r - 1)])
    # sample z uniformly on the bounding box of the interlacing region;
    # the box IS the region because the constraints factorize per coordinate
    if np.any(highs < lows):
        return 0.0
    if dims == 0:
        vol, mean = 1.0, 1.0
        z = None
    else:
        z = lows + (highs - lows) * rng.random((n_samples, dims))
        vol = float(np.prod(highs - lows))
        expo = np.sum(
            (x[:dims] + y[:dims])[None, :] - 2 * z, axis=1
        )
        mean = float(np.mean(np.exp(-expo)))
    value = vol * mean
    if d % 2 == 0:
        value *= (
            math.exp(-abs(x[r - 1] - y[r - 1])) + math.exp(-(x[r - 1] + y[r - 1]))
        ) / 2
    return value
