"""Independent oracles for the package, used only by the tests; pytest
collects only test_*.py, so this module holds no tests itself.  Each is a
slower or more literal form of what the package computes, and none imports
a private name from it.  The scalar discrete step takes its noise as a pair
(xi_half, xi_full) of particle-keyed dicts and reads it row by row;
`DiscreteSimulation.step` takes the same draws as two sequences in
`particles(k)` order.  The scalar step finds each particle's neighbours by
row and column, not through `dynamics.neighbours`, so it stays independent
of the table both simulators read.  The continuous-time top row's rates
come twice: `generator_rate` in closed form, and `top_row_rates` read off
the event rule `dynamics.ctmc_apply_event`; a test holds them equal.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gtpatterns.dynamics import ctmc_apply_event, particle_count
from gtpatterns.kernels import gamma_row, nu_pmf, pieri_decompose
from gtpatterns.patterns import (
    Pattern, Row, enumerate_patterns, is_nonneg_row, row_length, weyl_dimension,
)


def zero_pattern(k: int) -> Pattern:
    return tuple((0,) * row_length(i) for i in range(1, k + 1))


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


def check_q(q: Fraction) -> Fraction:
    """q as a Fraction, refused unless 0 < q < 1."""
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0,1), got {q}")
    return q


def geometric_pmf(q: Fraction, x: int) -> Fraction:
    """P(xi = x) = q^x (1-q) for x >= 0."""
    q = check_q(q)
    if x < 0:
        raise ValueError("x must be >= 0")
    return q**x * (1 - q)


def geometric_draws_where(rng: np.random.Generator, q: float, size) -> np.ndarray:
    """Inverse-CDF geometric draws through fresh arrays: the u == 0 guard by
    np.where, then floor(log(u) / log(q)) in one expression."""
    u = rng.random(size)
    u = np.where(u == 0.0, 0.5, u)
    return np.floor(np.log(u) / np.log(q)).astype(np.int64)


def nu_tail_bound(q: Fraction, d: int, m_max: int) -> Fraction:
    """Rigorous upper bound on sum_{m > m_max} nu(m).

    Uses s_{d-1}(gamma_m) = C(m+d-2, d-2) + C(m+d-3, d-2).  From m to m+1
    the two binomials grow by (m+d-1)/(m+1) and (m+d-2)/m, so for m >= 1
    the sum grows by at most (m+d-2)/m, a ratio decreasing in m; the tail
    from m on is dominated by a geometric series once q (m+d-2)/m < 1,
    which is why q >= 1 is refused first.
    """
    q = check_q(q)
    m = m_max + 1
    rho = q * Fraction(m + d - 2, m)
    while rho >= 1:
        m += 1
        rho = q * Fraction(m + d - 2, m)
    head = sum((nu_pmf(q, d, j) for j in range(m_max + 1, m)), Fraction(0))
    return head + nu_pmf(q, d, m) / (1 - rho)


def mu_pmf(d: int, lam: Row, m: int, beta: Row) -> Fraction:
    """mu_m(lam, beta) = s_{d-1}(beta) M_{lam,gamma_m}(beta)
    / (s_{d-1}(lam) s_{d-1}(gamma_m))."""
    mult = pieri_decompose(d, lam, m).get(beta, 0)
    if mult == 0:
        return Fraction(0)
    dims = weyl_dimension(d, lam) * weyl_dimension(d, gamma_row(d, m))
    return Fraction(weyl_dimension(d, beta) * mult, dims)


def p_d_series(
    q: Fraction, d: int, lam: Row, beta: Row, m_max: int
) -> tuple[Fraction, Fraction]:
    """Series form P_d = sum_m mu_m(lam, beta) nu(m), truncated at m_max,
    with a rigorous bound on the neglected tail: the oracle of
    `kernels.p_d_closed`."""
    q = check_q(q)
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    partial = sum(
        (mu_pmf(d, lam, m, beta) * nu_pmf(q, d, m) for m in range(m_max + 1)), Fraction(0)
    )
    return partial, nu_tail_bound(q, d, m_max)


def generator_rate(k: int, lam: Row, beta: Row) -> Fraction:
    """Jump rate of the continuous-time top-row process from lam to
    beta = lam +- e_i: dim(beta) / dim(lam) for SO(k+1).

    Wall reflection doubles the rate out of a zero wall coordinate when k
    is odd.  Rows that leave the weight cone get rate 0.
    """
    r = row_length(k)
    if len(lam) != r or len(beta) != r:
        raise ValueError(f"rows must have length {r}")
    if sorted(abs(b - a) for a, b in zip(lam, beta)) != [0] * (r - 1) + [1]:
        raise ValueError("beta must be a unit-step neighbour of lam")
    if not is_nonneg_row(beta):
        return Fraction(0)
    rate = Fraction(weyl_dimension(k + 1, beta), weyl_dimension(k + 1, lam))
    if k % 2 == 1 and lam[-1] == 0 and beta[-1] == 1:
        rate *= 2
    return rate


def top_row_rates(k: int, lam: Row) -> dict[Row, Fraction]:
    """The continuous-time top row's jump rates out of lam, read exactly off
    the event rule: every rate-1 clock (p, right) rung once on every
    pattern with top row lam, its particles at the entries' absolute
    values, counting the rings that move the top row to each beta, over
    the number of patterns.  Given its top row, the pattern is uniform
    under the Gibbs law the dynamics keeps, so these are the top row's
    rates, which `generator_rate` gives in closed form."""
    top = particle_count(k - 1)  # the top row's first index
    moves: dict[Row, int] = {}
    n_patterns = 0
    for pat in enumerate_patterns(k, lam):
        n_patterns += 1
        start = [abs(v) for row in pat for v in row]
        for p in range(particle_count(k)):
            for right in (True, False):
                y = start.copy()
                ctmc_apply_event(y, p, right, k)
                if (beta := tuple(y[top:])) != lam:
                    moves[beta] = moves.get(beta, 0) + 1
    return {beta: Fraction(n, n_patterns) for beta, n in moves.items()}


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
