"""Acceptance suite: one test per headline property of the model.

Each test prints a single [PASS]/[FAIL] line (visible even under pytest
capture) and then asserts.  Statistical tests use pinned seeds; the stated
tolerances account for Monte Carlo noise at the pinned sample sizes.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from gtpatterns.experiments import (
    experiment_ctmc_marginal,
    experiment_large_q,
    experiment_markov_marginal,
    experiment_small_q,
)
from gtpatterns.kernels import (
    check_desintegration,
    check_intertwining,
    n_step_law,
    nu_pmf,
    p_d_closed,
    pieri_decompose,
    gamma_row,
)
from gtpatterns.patterns import count_patterns, row_length, weyl_dimension
from gtpatterns.patterns import weyl_dimension as s_dim
from gtpatterns.spectra import m_d, p_d_density
from oracles import (
    m_d_monte_carlo,
    nu_tail_bound,
    p_d_series,
    sample_increment,
    top_row_rates,
    top_spectrum,
)

Q = Fraction


def announce(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def signed_rows(length: int, bound: int, signed: bool):
    for head in itertools.combinations_with_replacement(
        range(bound, -1, -1), length
    ):
        row = tuple(sorted(head, reverse=True))
        yield row
        if signed and row[-1] > 0:
            yield row[:-1] + (-row[-1],)


def test_01_pattern_count_equals_weyl_dimension(capsys):
    """Pattern counting agrees with the Weyl dimension product formula."""
    checked = 0
    ok = True
    # the one-row count is 1, and so is every SO(2) dimension
    for lam in signed_rows(1, 4, signed=True):
        checked += 1
        ok = ok and count_patterns(1, lam) == 1 == weyl_dimension(2, lam)
    # at k >= 7 the rows have long zero tails
    for k, bound in [(k, 4) for k in range(2, 7)] + [(k, 2) for k in range(7, 11)]:
        signed = k % 2 == 1
        for lam in signed_rows(row_length(k), bound, signed=signed):
            checked += 1
            if count_patterns(k, lam) != weyl_dimension(k + 1, lam):
                ok = False
    announce(
        capsys, ok,
        f"dimension oracle: {checked} weights, k <= 6 at entries <= 4, k <= 10 at entries <= 2",
    )


def test_02_jump_law_certified_normalization(capsys):
    """The jump-size law sums to 1 up to a certified tail below 1e-12."""
    ok = True
    worst = Q(0)
    for d in (3, 4, 5):
        for q in (Q(1, 3), Q(1, 2), Q(2, 3)):
            m_max = 250
            total = sum(nu_pmf(q, d, m) for m in range(m_max + 1))
            tail = nu_tail_bound(q, d, m_max)
            worst = max(worst, 1 - total, tail)
            ok = ok and 1 - tail <= total <= 1 and tail < Q(1, 10**12)
    announce(
        capsys, ok, f"jump-law normalization: deficit <= {float(worst):.2e} < 1e-12"
    )


def test_03_tensor_decomposition_consistency(capsys):
    """Multiplicities preserve total dimension; series and closed forms of
    the weight kernel agree within the certified tail."""
    ok = True
    checked = 0
    for d in (3, 4, 5):
        signed = d % 2 == 0
        for lam in signed_rows(d // 2, 3, signed=signed):
            for m in range(7):
                mult = pieri_decompose(d, lam, m)
                lhs = s_dim(d, lam) * s_dim(d, gamma_row(d, m))
                rhs = sum(c * s_dim(d, b) for b, c in mult.items())
                checked += 1
                ok = ok and lhs == rhs
    rng = np.random.default_rng(42)
    series_checked = 0
    while series_checked < 50:
        d = int(rng.integers(3, 6))
        r = d // 2
        lam = tuple(sorted(rng.integers(0, 4, size=r), reverse=True))
        beta = tuple(sorted(rng.integers(0, 4, size=r), reverse=True))
        lam = tuple(int(v) for v in lam)
        beta = tuple(int(v) for v in beta)
        if d % 2 == 0 and rng.integers(2) and lam[-1] > 0:
            lam = lam[:-1] + (-lam[-1],)
        q = Q(int(rng.integers(1, 5)), 5)
        closed = p_d_closed(q, d, lam, beta)
        series, tail = p_d_series(q, d, lam, beta, 80)
        ok = ok and abs(closed - series) <= tail
        series_checked += 1
    announce(
        capsys,
        ok,
        f"tensor decomposition: {checked} dimension identities, "
        f"{series_checked} series-vs-closed comparisons",
    )


def test_04_summation_identities_exact(capsys):
    """The four elementary-kernel summation identities hold exactly."""
    total_checked = 0
    ok = True
    for q in (Q(1, 3), Q(1, 2), Q(2, 3)):
        report = check_desintegration(q, 6)
        total_checked += report.checked
        ok = ok and report.ok
    announce(
        capsys, ok, f"summation identities: {total_checked} cases, entries <= 6, exact"
    )


@pytest.mark.parametrize("k,bound", [(2, 4), (3, 4), (4, 3), (5, 3)])
def test_05_intertwining_exact(capsys, k, bound):
    """L_k Q_k = S_k L_k with exact rational discrepancy zero."""
    ok = True
    checked = 0
    for q in (Q(1, 3), Q(1, 2)):
        report = check_intertwining(q, k, bound)
        checked += report.checked
        ok = ok and report.ok and report.max_discrepancy == 0
    announce(
        capsys,
        ok,
        f"intertwining k={k}: {checked} transitions, bound {bound}, discrepancy 0",
    )


@pytest.mark.parametrize(
    "k,n,radius,tol,seed",
    [(1, 1, 40, 0.01, 101), (2, 2, 25, 0.02, 102), (3, 1, 20, 0.02, 103)],
)
def test_06_top_row_is_markov_with_exact_kernel(capsys, k, n, radius, tol, seed):
    """Empirical top-row law of the full dynamics matches the exact n-step
    law of its autonomous kernel."""
    rep = experiment_markov_marginal(
        k=k,
        horizon=n,
        q=Q(1, 2),
        n_paths=100_000,
        seed=seed,
        radius=radius,
        threshold=tol,
    )
    announce(
        capsys,
        rep.passed,
        f"top-row marginal (k={k}, n={n}): tv={rep.value:.4f} < {tol}, "
        f"deficit {rep.truncation_deficit:.1e}",
    )


def test_07_continuous_time_generator(capsys):
    """The exponential-clock top row follows the ratio-of-dimensions
    generator: law at t=1 matches its exact Weyl-group law, and the doubled
    wall rate, read exactly off the event rule, is 2."""
    tv = experiment_ctmc_marginal(
        k=2, t_max=1.0, n_paths=100_000, seed=201, radius=25, threshold=0.02
    ).value
    rate = top_row_rates(1, (0,))[(1,)]
    ok = tv < 0.02 and rate == 2
    announce(
        capsys,
        ok,
        f"continuous-time generator: tv={tv:.4f} < 0.02, wall rate {rate} == 2",
    )


def test_08_small_q_limit_is_continuous_time_model(capsys):
    """With q = 1/N, N steps of the discrete model approximate unit time of
    the continuous-time model, improving with N."""
    ok = True
    values = {}
    for k in (1, 2):
        rep = experiment_small_q(
            k=k,
            big_n=200,
            t_max=1.0,
            n_paths_discrete=10_000,
            n_paths_ctmc=10_000,
            seed=301 + k,
            threshold=0.06,
        )
        values[k] = rep.value
        ok = ok and rep.passed
    trend = []
    for big_n in (50, 400):
        rep = experiment_small_q(
            k=2,
            big_n=big_n,
            t_max=1.0,
            n_paths_discrete=100_000,
            n_paths_ctmc=100_000,
            seed=310,
            threshold=1.0,
        )
        trend.append(rep.value)
    ok = ok and trend[1] < trend[0]
    announce(
        capsys,
        ok,
        f"small-q limit: tv(N=200) k=1 {values[1]:.4f}, k=2 {values[2]:.4f} < 0.06; "
        f"tv N=50 {trend[0]:.4f} -> N=400 {trend[1]:.4f} decreasing",
    )


def test_09_large_q_limit_is_matrix_spectrum(capsys):
    """With q = 1 - 1/N the rescaled top row after two steps matches the
    top spectrum of a sum of two Gaussian antisymmetric increments."""
    ok = True
    values = {}
    for k in (2, 3):
        rep = experiment_large_q(
            k=k,
            big_n=100,
            n_steps=2,
            n_samples=10_000,
            seed=401 + k,
            threshold=0.05,
        )
        values[k] = rep.value
        ok = ok and rep.passed
    trend = []
    for big_n in (25, 200):
        rep = experiment_large_q(
            k=2,
            big_n=big_n,
            n_steps=2,
            n_samples=30_000,
            seed=410,
            threshold=1.0,
        )
        trend.append(rep.value)
    ok = ok and trend[1] < trend[0]
    announce(
        capsys,
        ok,
        f"large-q limit: ks(N=100) k=2 {values[2]:.4f}, k=3 {values[3]:.4f} < 0.05; "
        f"ks N=25 {trend[0]:.4f} -> N=200 {trend[1]:.4f} decreasing",
    )


def test_10_continuum_density_internals(capsys):
    """Closed-form interlacing integral vs Monte Carlo, density
    normalization by quadrature, and the spectrum extractor vs an
    independent eigensolver."""
    ok = True
    for d, x, y in [
        (3, (1.5,), (2.0,)),
        (4, (2.0, 0.7), (2.5, 0.3)),
        (5, (2.0, 0.7), (1.5, 1.0)),
        (6, (3.0, 1.5, 0.4), (2.5, 2.0, 0.2)),
    ]:
        exact = m_d(d, x, y)
        approx = m_d_monte_carlo(d, x, y, 500_000, seed=501)
        ok = ok and exact > 0 and abs(approx - exact) / exact < 1e-2
    total = quad(lambda v: p_d_density(3, (1.0,), (v,)), 0, 50)[0]
    ok = ok and abs(total - 1.0) < 1e-3
    rng = np.random.default_rng(502)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        a = sum(sample_increment(d, rng) for _ in range(3))
        eigs = np.linalg.eigvalsh(1j * a)[::-1][: d // 2]
        worst = max(worst, float(np.max(np.abs(top_spectrum(a) - eigs))))
    ok = ok and worst < 1e-10
    announce(
        capsys,
        ok,
        f"continuum internals: integral oracle < 1e-2, normalization "
        f"|1 - {total:.6f}| < 1e-3, spectrum max err {worst:.1e} < 1e-10",
    )
