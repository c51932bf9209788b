"""Independent oracles for the package, used only by the tests; pytest
collects only test_*.py, so this module holds no tests itself.  Each is a
slower or more literal form of what the package computes, and none imports
a private name from it.  The scalar discrete step takes its noise as a pair
(xi_half, xi_full) of particle-keyed dicts and reads it row by row;
`DiscreteSimulation.step` takes the same draws as two sequences in
`particles(k)` order.  The scalar step finds each particle's neighbours by
row and column, not through `dynamics.neighbours`, so it stays independent
of the table both simulators read.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gtpatterns.dynamics import ctmc_simulate
from gtpatterns.patterns import Pattern, Row, row_length


def half_step_left(x: Pattern, noise: tuple[dict, dict]) -> Pattern:
    """Leftward half-step: rows updated downward; free particles jump left
    blocked by the old configuration; pushed particles take the min with the
    upper-left neighbour's new position; wall particles only move if pushed."""
    xi_half, _ = noise
    k = len(x)
    new: list[Row] = []
    for l in range(1, k + 1):
        m = row_length(l)
        old = x[l - 1]
        upper_new = new[l - 2] if l >= 2 else None
        tilde = [
            min(old[i], upper_new[i - 1]) if (i >= 1 and upper_new is not None) else old[i]
            for i in range(m)
        ]
        row = list(tilde)
        blockers = x[l - 2] if l >= 2 else None
        for i in range(l // 2):
            row[i] = max(blockers[i], tilde[i] - xi_half[(l, i + 1)])
        # odd rows: the wall particle keeps its pushed position
        new.append(tuple(row))
    return tuple(new)


def full_step_right(x_half: Pattern, noise: tuple[dict, dict]) -> Pattern:
    """Rightward full-step from the half-step configuration.  Wall particles
    move by |x + xi - xi'| using the pre-drawn pair, blocked above-left."""
    xi_half, xi_full = noise
    k = len(x_half)
    new: list[Row] = []
    for l in range(1, k + 1):
        m = row_length(l)
        half = x_half[l - 1]
        upper_new = new[l - 2] if l >= 2 else None
        tilde = []
        for i in range(m):
            pushed_from = (
                upper_new[i] if upper_new is not None and i < len(upper_new) else 0
            )
            tilde.append(max(pushed_from, half[i]))
        row = list(tilde)
        upper_half = x_half[l - 2] if l >= 2 else None
        for i in range(l // 2):
            cap = upper_half[i - 1] if i >= 1 else math.inf
            row[i] = int(min(cap, tilde[i] + xi_full[(l, i + 1)]))
        if l % 2 == 1:
            j = m - 1
            moved = abs(half[j] + xi_full[(l, m)] - xi_half[(l, m)])
            cap = upper_half[m - 2] if upper_half is not None else math.inf
            row[j] = int(min(moved, cap))
        new.append(tuple(row))
    return tuple(new)


def discrete_step(x: Pattern, noise: tuple[dict, dict]) -> tuple[Pattern, Pattern]:
    """One full discrete step: (state at n+1/2, state at n+1)."""
    x_half = half_step_left(x, noise)
    return x_half, full_step_right(x_half, noise)


def geometric_pmf(q: Fraction, x: int) -> Fraction:
    """P(xi = x) = q^x (1-q) for x >= 0."""
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0,1), got {q}")
    if x < 0:
        raise ValueError("x must be >= 0")
    return q**x * (1 - q)


def geometric_draws_where(rng: np.random.Generator, q: float, size) -> np.ndarray:
    """Inverse-CDF geometric draws through fresh arrays: the u == 0 guard by
    np.where, then floor(log(u) / log(q)) in one expression."""
    u = rng.random(size)
    u = np.where(u == 0.0, 0.5, u)
    return np.floor(np.log(u) / np.log(q)).astype(np.int64)


def estimate_wall_rate(t_max: float, n_paths: int, seed: int) -> float:
    """Empirical jump rate 0 -> 1 of the single-particle model, which the
    wall reflection doubles to 2."""
    res = ctmc_simulate(1, t_max, n_paths, seed)
    time_at_zero = res.top_row_time.get((0,), 0.0)
    jumps = res.top_row_jumps.get(((0,), (1,)), 0)
    if time_at_zero == 0.0:
        raise RuntimeError("no occupation time at zero; increase n_paths")
    return jumps / time_at_zero


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


def h_d_degree(d: int) -> int:
    """Homogeneity degree of h_d."""
    r = d // 2
    return r * (r - 1) + (d % 2) * r


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
