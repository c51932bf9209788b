"""Exact Markov kernels driving the pattern dynamics.

Everything here is evaluated in rational arithmetic: with q a Fraction,
every probability returned is a Fraction.  Kernels over infinite state
spaces are exposed as pointwise pmf evaluators; finite row materializers
carry an explicit tail deficit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from gtpatterns.patterns import (
    Row,
    abs_row,
    count_patterns,
    interlaces,
    interlacing_ranges,
    is_nonneg_row,
    lower_rows,
    row_length,
    row_value_ok,
)

Q = Fraction


def _check_q(q: Fraction) -> Fraction:
    if type(q) is not Fraction:
        q = Fraction(q)
    # a Fraction's denominator is positive, so this is 0 < q < 1
    if not 0 < q.numerator < q.denominator:
        raise ValueError(f"q must be in (0,1), got {q}")
    return q


# ---------------------------------------------------------------------------
# elementary one-coordinate laws
# ---------------------------------------------------------------------------

def geometric_pmf(q: Fraction, x: int) -> Fraction:
    """P(xi = x) = q^x (1-q) for x >= 0."""
    q = _check_q(q)
    if x < 0:
        raise ValueError("x must be >= 0")
    return q**x * (1 - q)


def r_pmf(q: Fraction, x: int, y: int) -> Fraction:
    """Symmetrized two-sided geometric law: the law of |x + xi - xi'|."""
    q = _check_q(q)
    if x < 0 or y < 0:
        raise ValueError("x, y must be >= 0")
    c = (1 - q) / (1 + q)
    if y >= 1:
        return c * (q ** abs(x - y) + q ** (x + y))
    return c * q**x


def blocked_left_pmf(q: Fraction, a: int, x: int, y: int) -> Fraction:
    """Law of max(a, x - xi): a single leftward geometric jump blocked at a."""
    q = _check_q(q)
    if a > x:
        raise ValueError(f"need a <= x, got a={a}, x={x}")
    if not a <= y <= x:
        return Q(0)
    if y >= a + 1:
        return (1 - q) * q ** (x - y)
    return q ** (x - a)


def blocked_right_pmf(q: Fraction, b: int | float, x: int, y: int) -> Fraction:
    """Law of min(b, x + xi): a rightward geometric jump blocked at b.
    With b = math.inf it is the free shift (1-q) q^(y-x), y >= x."""
    q = _check_q(q)
    if x > b:
        raise ValueError(f"need x <= b, got x={x}, b={b}")
    if not x <= y <= b:
        return Q(0)
    if y <= b - 1:
        return (1 - q) * q ** (y - x)
    return q ** (b - x)


def reflected_right_pmf(q: Fraction, b: int | float, x: int, y: int) -> Fraction:
    """Law of min(b, |x + xi - xi'|): two-sided jump reflected at 0,
    blocked at b.  With b = math.inf it is r_pmf(q, x, y)."""
    q = _check_q(q)
    if not 0 <= x <= b:
        raise ValueError(f"need 0 <= x <= b, got x={x}, b={b}")
    if not 0 <= y <= b:
        return Q(0)
    if y <= b - 1:
        return r_pmf(q, x, y)  # below b the jump is not blocked
    # y == b
    if y > 0:
        return q**b * (q**-x + q**x) / (1 + q)
    return Q(1)


# ---------------------------------------------------------------------------
# Pieri-type tensor decomposition and the kernels it generates
# ---------------------------------------------------------------------------

def gamma_row(d: int, m: int) -> Row:
    """Highest weight (m, 0, ..., 0) of length d//2."""
    r = d // 2
    return (m,) + (0,) * (r - 1)


def s_dim(d: int, lam: Row) -> int:
    """dim V_lam for SO(d), computed as the pattern count s_{d-1}(lam)."""
    return count_patterns(d - 1, lam)


def nu_pmf(q: Fraction, d: int, m: int) -> Fraction:
    """Jump-size mixing law: nu(m) = (1-q)^(d-1) q^m s_{d-1}(gamma_m)/(1+q)."""
    q = _check_q(q)
    if d < 3:
        raise ValueError("d must be >= 3")
    if m < 0:
        raise ValueError("m must be >= 0")
    return (1 - q) ** (d - 1) * q**m * s_dim(d, gamma_row(d, m)) / (1 + q)


def nu_tail_bound(q: Fraction, d: int, m_max: int) -> Fraction:
    """Rigorous upper bound on sum_{m > m_max} nu(m).

    Uses s_{d-1}(gamma_m) = C(m+d-2, d-2) + C(m+d-3, d-2), whose one-step
    growth ratio is at most (m+d-1)/(m+1); the tail is dominated by a
    geometric series once q (m+d-1)/(m+1) < 1.
    """
    q = _check_q(q)
    m = m_max + 1
    rho = q * Fraction(m + d - 1, m + 1)
    while rho >= 1:
        m += 1
        rho = q * Fraction(m + d - 1, m + 1)
    head = sum((nu_pmf(q, d, j) for j in range(m_max + 1, m)), Q(0))
    return head + nu_pmf(q, d, m) / (1 - rho)


def pieri_decompose(d: int, lam: Row, m: int) -> dict[Row, int]:
    """Multiplicities M_{lam, gamma_m}(beta) in V_lam (x) V_gamma_m for SO(d).

    Returns only the beta with non-zero multiplicity: the number of (c, s)
    with c a row of length n = (d-1)//2 interlacing |lam| and |beta| and
    sum_{i<=n}(lam_i + beta_i - 2 c_i) + s = m.  The parities differ only in
    the last coordinate: s in {0, 1} (0 when c_n = 0) for odd d, and
    s = |lam_r - beta_r| with beta_r in [-c_n, c_n] for even d.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if not row_value_ok(d - 1, lam):
        raise ValueError(f"lam not a valid SO({d}) weight: {lam}")
    if m < 0:
        raise ValueError("m must be >= 0")
    n = (d - 1) // 2
    mult: dict[Row, int] = {}
    for c in lower_rows(n, abs_row(lam)):
        # (s, end) of the last coordinate; the sum then fixes beta_1 >= c_1
        if d % 2 == 1:
            ends = [(s, ()) for s in range(2 if c[-1] else 1)]
        else:
            ends = [(abs(lam[-1] - b), (b,)) for b in range(-c[-1], c[-1] + 1)]
        for tail in lower_rows(n - 1, c):
            for cost, end in ends:
                head = m - cost - sum(lam[:n]) + 2 * sum(c) - sum(tail)
                if head >= c[0]:
                    beta = (head,) + tail + end
                    mult[beta] = mult.get(beta, 0) + 1
    return mult


def mu_pmf(d: int, lam: Row, m: int, beta: Row) -> Fraction:
    """mu_m(lam, beta) = s_{d-1}(beta) M_{lam,gamma_m}(beta)
    / (s_{d-1}(lam) s_{d-1}(gamma_m))."""
    mult = pieri_decompose(d, lam, m).get(beta, 0)
    if mult == 0:
        return Q(0)
    return Fraction(s_dim(d, beta) * mult, s_dim(d, lam) * s_dim(d, gamma_row(d, m)))


# ---------------------------------------------------------------------------
# P_d: the one-step kernel on highest weights
# ---------------------------------------------------------------------------

def p_d_closed(q: Fraction, d: int, lam: Row, beta: Row) -> Fraction:
    """Closed form of the kernel P_d(lam, beta)."""
    q = _check_q(q)
    if d < 3:
        raise ValueError("d must be >= 3")
    if not (row_value_ok(d - 1, lam) and row_value_ok(d - 1, beta)):
        raise ValueError(f"invalid SO({d}) weights: {lam}, {beta}")
    return _p_d(q, d, lam, beta)


def _p_d(q: Fraction, d: int, lam: Row, beta: Row) -> Fraction:
    """P_d(lam, beta) for q, d and weights already checked.

    The closed form has one shape for both parities, with n = (d-1)//2: it
    sums ratio (1-q)^(d-1) q^e_c over the rows c of length n interlacing |lam|
    and |beta|, divided by 1+q when d is even or c_n = 0, where
    ratio = s_dim(beta) / s_dim(lam), e_c = base - 2 sum(c) >= 0 and base sums
    lam_i + beta_i over i <= n, plus |lam_r - beta_r| for even d.  With
    q = a/b in lowest terms and E = max e_c, that is one Fraction over
    s_dim(lam) b^(d-1+E) (a+b).  The rows c are a box of ranges, so the sum
    over c of a^e_c b^(E-e_c) is a^(base - 2 sum(hi)) times, per range of
    s values ending at hi, g(s) = (b^2s - a^2s) / (b^2 - a^2).  A term
    divided by 1+q carries b, any other a+b: for even d one more factor b;
    for odd d the last range starts at c_n = 0, the one term divided by 1+q,
    so its factor is (a+b) g(s_n) - a^(2s_n - 1).
    """
    n = (d - 1) // 2
    ranges = interlacing_ranges(n, abs_row(lam), abs_row(beta))
    base = sum(lam[:n]) + sum(beta[:n]) + (0 if d % 2 else abs(lam[-1] - beta[-1]))
    if not all(ranges):
        return Q(0)
    a, b = q.numerator, q.denominator
    factors = [(b ** (2 * s) - a ** (2 * s)) // (b * b - a * a) for s in map(len, ranges)]
    if d % 2 == 1:
        factors[-1] = (a + b) * factors[-1] - a ** (2 * len(ranges[-1]) - 1)
    else:
        factors.append(b)
    top = base - 2 * sum(values.start for values in ranges)
    num = a ** (base - 2 * sum(values[-1] for values in ranges)) * math.prod(factors)
    return Fraction(
        s_dim(d, beta) * (b - a) ** (d - 1) * num,
        s_dim(d, lam) * b ** (d - 1 + top) * (a + b),
    )


def p_d_series(
    q: Fraction, d: int, lam: Row, beta: Row, m_max: int
) -> tuple[Fraction, Fraction]:
    """Series form P_d = sum_m mu_m(lam, beta) nu(m), truncated at m_max,
    with a rigorous bound on the neglected tail."""
    q = _check_q(q)
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    partial = sum((mu_pmf(d, lam, m, beta) * nu_pmf(q, d, m) for m in range(m_max + 1)), Q(0))
    return partial, nu_tail_bound(q, d, m_max)


# ---------------------------------------------------------------------------
# R_k: the top-row kernel
# ---------------------------------------------------------------------------

def r_k_pmf(q: Fraction, k: int, x: Row, y: Row) -> Fraction:
    """Top-row kernel P_{k+1}(x, y) of a k-row pattern; for odd k and y_r > 0
    times 1 + q^(2 min(x_r, y_r)), which adds P_{k+1} at y with y_r negated."""
    q = _check_q(q)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (is_nonneg_row(x) and is_nonneg_row(y)):
        raise ValueError("states must be non-negative weakly decreasing rows")
    if len(x) != row_length(k) or len(y) != row_length(k):
        raise ValueError(f"states must have length {row_length(k)}")
    value = _p_d(q, k + 1, x, y)
    if k % 2 == 1 and y[-1] != 0:
        value *= 1 + q ** (2 * min(x[-1], y[-1]))
    return value


# ---------------------------------------------------------------------------
# pair-state kernels S_k, L_k, Q_k
# ---------------------------------------------------------------------------

PairState = tuple[Row | None, Row]  # (z, y); z is ignored by S_k


def pair_state_ok(k: int, z: Row, y: Row) -> bool:
    """(z, y) lies in the pair state space of level k: z interlaces y,
    with len(z) = k//2 and len(y) = (k+1)//2."""
    if len(z) != k // 2 or len(y) != (k + 1) // 2:
        return False
    if not (is_nonneg_row(z) and is_nonneg_row(y)):
        return False
    return interlaces(z, y)


def s_k_pmf(q: Fraction, k: int, src: PairState, dst: tuple[Row, Row]) -> Fraction:
    """Pair-state kernel S_k((z, y), (z', y')).  Reads only y from src.

    (1-q)^(2 len z') (s_k(y') / s_k(y)) q^sum_i(y_i + y'_i - 2 z'_i) over
    i < len z', times r_pmf(y_r, y'_r) of the wall for odd k, or divided by
    1+q for even k when z' ends in 0."""
    q = _check_q(q)
    if k < 1:
        raise ValueError("k must be >= 1")
    y = src[1]
    z2, y2 = dst
    if not (pair_state_ok(k, z2, y2) and interlaces(z2, y)):
        return Q(0)
    ratio = Fraction(count_patterns(k, y2), count_patterns(k, y))
    expo = sum(a + b - 2 * c for a, b, c in zip(y, y2, z2))
    value = (1 - q) ** (2 * len(z2)) * ratio * q**expo
    if k % 2 == 1:
        return value * r_pmf(q, y[-1], y2[-1])
    if z2[-1] == 0:
        value /= 1 + q
    return value


def l_k_pmf(k: int, src: tuple[Row, Row], dst: tuple[Row, Row, Row]) -> Fraction:
    """Link kernel L_k((z, y), (x, z, y)): conditionally uniform pattern-row
    draw below y, weighted 2:1 for a signed wall coordinate when k is even."""
    if k < 2:
        raise ValueError("k must be >= 2")
    z, y = src
    x, z2, y2 = dst
    if (z2, y2) != (z, y):
        return Q(0)
    if len(x) != k // 2 or not is_nonneg_row(x):
        return Q(0)
    if not interlaces(x, y):
        return Q(0)
    weight = 1
    if k % 2 == 0:
        weight = 1 if x[-1] == 0 else 2
    return Fraction(weight * count_patterns(k - 1, x), count_patterns(k, y))


def q_k_pmf(
    q: Fraction,
    k: int,
    src: tuple[Row, Row, Row],
    dst: tuple[Row, Row, Row],
) -> Fraction:
    """Joint kernel Q_k on (previous-row, half-step, full-step) triples.

    Sums S_{k-1}((., u), (v, x)) over rows v interlacing y2, x and z2, times
    per coordinate i < len(x), with c = (inf,) + v, a left jump
    min(y_i, c_i) -> z2_i blocked at u_i and a right jump
    max(z2_i, x_i) -> y2_i blocked at c_i; for odd k, times the wall's
    reflected jump min(y_{r-1}, c_{r-1}) -> y2_{r-1} blocked at c_{r-1}."""
    q = _check_q(q)
    if k < 2:
        raise ValueError("k must be >= 2")
    u, z, y = src
    x, z2, y2 = dst
    if not (pair_state_ok(k, z, y) and pair_state_ok(k, z2, y2)):
        raise ValueError("pair components must lie in the level-k state space")
    if len(u) != k // 2 or len(x) != k // 2:
        raise ValueError(f"u and x must have length {k // 2}")
    if not (interlaces(u, y) and interlaces(x, y2)):
        raise ValueError("need u interlacing y and x interlacing y2")

    r = row_length(k)
    # v_i lies in [y2_{i+1}, min(x_i, z2_i)]; x and z2 interlace y2, so this
    # is the box of rows interlacing all three
    total = Q(0)
    for v in lower_rows(r - 1, y2, x, z2):
        term = s_k_pmf(q, k - 1, (None, u), (v, x))
        if term == 0:
            continue
        c = (math.inf,) + v
        for i in range(len(x)):
            term *= blocked_left_pmf(q, u[i], min(y[i], c[i]), z2[i])
            term *= blocked_right_pmf(q, c[i], max(z2[i], x[i]), y2[i])
        if k % 2 == 1:
            b = c[r - 1]
            term *= reflected_right_pmf(q, b, min(y[r - 1], b), y2[r - 1])
        total += term
    return total


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    """Cases compared by an exact identity check, the largest |lhs - rhs|,
    and a (*case, lhs, rhs) tuple for each case whose sides differ."""

    checked: int = 0
    max_discrepancy: Fraction = Q(0)
    violations: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, case: tuple, lhs: Fraction, rhs: Fraction) -> None:
        self.checked += 1
        if lhs != rhs:
            self.max_discrepancy = max(self.max_discrepancy, abs(lhs - rhs))
            self.violations.append((*case, lhs, rhs))


def check_desintegration(q: Fraction, bound: int) -> IdentityReport:
    """Exhaustively verify the four summation identities behind the
    intertwining, for all admissible tuples with entries <= bound."""
    q = _check_q(q)
    if bound < 2:
        raise ValueError("bound must be >= 2")
    report = IdentityReport()
    # (1): sum_u (1 + [u>0]) R(u, x) P^{u<-}(y, z) over u in [0, z]
    for x in range(bound + 1):
        for y in range(1, bound + 1):
            for z in range(1, y + 1):
                lhs = sum(
                    (1 if u == 0 else 2) * r_pmf(q, u, x) * blocked_left_pmf(q, u, y, z)
                    for u in range(z + 1)
                )
                rhs = (1 - q) * (1 if x == 0 else 2) * q ** (max(x, z) + y - 2 * z)
                report.record(("desintegration-1", (x, y, z)), lhs, rhs)
    # (2): sum_u q^u P^{u<-}(x, y) over u in [a, y], for a <= y <= x
    for x in range(bound + 1):
        for y in range(x + 1):
            for a in range(y + 1):
                lhs = sum(q**u * blocked_left_pmf(q, u, x, y) for u in range(a, y + 1))
                report.record(("desintegration-2", (x, y, a)), lhs, q ** (x - y) * q**a)
    # (3): sum_v q^-v P^{->v}(x, y) over v in [y, a], for x <= y <= a
    for a in range(bound + 1):
        for y in range(a + 1):
            for x in range(y + 1):
                lhs = sum(
                    q**-v * blocked_right_pmf(q, v, x, y) for v in range(y, a + 1)
                )
                report.record(("desintegration-3", (x, y, a)), lhs, q ** (y - x) * q**-a)
    # (4): sum_v q^(max(v,y) - 2v) R^{->v}(min(y,v), y') over v in [y', a]
    for y in range(bound + 1):
        for a in range(1, bound + 1):
            for y2 in range(1, a + 1):
                lhs = sum(
                    q ** (max(v, y) - 2 * v)
                    * reflected_right_pmf(q, v, min(y, v), y2)
                    for v in range(y2, a + 1)
                )
                rhs = q**-a * r_pmf(q, y, y2) / (1 - q)
                report.record(("desintegration-4", (y, a, y2)), lhs, rhs)
    return report


def enumerate_pair_states(k: int, bound: int) -> list[tuple[Row, Row]]:
    """All (z, y) in the level-k pair space with coordinates <= bound."""
    return [
        (z, y)
        for y in states_in_box(k, bound)
        for z in lower_rows(k // 2, y)
    ]


def check_intertwining(q: Fraction, k: int, bound: int) -> IdentityReport:
    """Verify L_k Q_k = S_k L_k exactly on all states with coords <= bound."""
    q = _check_q(q)
    if k < 2:
        raise ValueError("k must be >= 2")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    report = IdentityReport()
    pairs = enumerate_pair_states(k, bound)
    # the L_k row of each pair state: (x, L_k((z, y), (x, z, y))) per x
    links = {
        (z, y): [(x, l_k_pmf(k, (z, y), (x, z, y))) for x in lower_rows(k // 2, y)]
        for z, y in pairs
    }
    for z, y in pairs:
        src = links[(z, y)]
        for z2, y2 in pairs:
            for x, link_x in links[(z2, y2)]:
                lhs = sum(
                    (link_u * q_k_pmf(q, k, (u, z, y), (x, z2, y2)) for u, link_u in src),
                    Q(0),
                )
                rhs = s_k_pmf(q, k, (z, y), (z2, y2)) * link_x
                report.record(((z, y), (x, z2, y2)), lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# finite-law container and n-step laws
# ---------------------------------------------------------------------------

@dataclass
class SparseLaw:
    """Finite map state -> probability with an explicit mass deficit."""

    support: dict
    tail_deficit: Fraction

    def total_mass(self) -> Fraction:
        return sum(self.support.values(), Q(0))


# Budgets of the exact laws, checked before any enumeration and each at
# least 100 times the largest call in the test suite and the benchmark
# (666 states, 2.1e5 units).  A box lists C(radius + r, r) rows.  The
# Fractions of n_step_law grow with each step, so its n steps cost about
# n^2 |box|^2 units of roughly 1 us; n = 3 at k = 5, radius 60 is 1.4e10.
MAX_BOX_STATES = 10**6
MAX_LAW_WORK = 2 * 10**10


def box_size(k: int, radius: int) -> int:
    """len(states_in_box(k, radius)), refused over MAX_BOX_STATES."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    size = math.comb(radius + row_length(k), row_length(k))
    if size > MAX_BOX_STATES:
        raise ValueError(
            f"radius={radius} at k={k} gives a box over the budget of "
            f"{MAX_BOX_STATES:.0e} states"
        )
    return size


def check_law_budget(k: int, n: int, radius: int, what: str = "n") -> None:
    """Refuse an n-step law whose box or n^2 |box|^2 is over its budget;
    `what` names the argument that set n."""
    if n**2 * box_size(k, radius) ** 2 > MAX_LAW_WORK:
        raise ValueError(
            f"{what}={n} at radius={radius}, k={k} is over the budget of "
            f"{MAX_LAW_WORK:.0e} for n^2 |box|^2 in the exact law"
        )


def states_in_box(k: int, radius: int) -> list[Row]:
    """Non-negative weakly decreasing rows of length (k+1)//2 with entries
    <= radius, in lexicographic order."""
    box_size(k, radius)
    # drawn from (radius, ..., 0), they come in reverse lexicographic order
    rows = itertools.combinations_with_replacement(range(radius, -1, -1), row_length(k))
    return list(rows)[::-1]


def n_step_law(q: Fraction, k: int, n: int, radius: int) -> SparseLaw:
    """Law of the top row after n steps from zero, truncated to the box
    [0, radius].  The R_k row from each state is computed once over the box
    and keeps only its nonzero entries.  The deficit is exact: R_k rows sum
    to one, so any mass missing from the box is mass that escaped it.
    """
    q = _check_q(q)
    if n < 1:
        raise ValueError("n must be >= 1")
    check_law_budget(k, n, radius)
    states = states_in_box(k, radius)
    law = {(0,) * row_length(k): Q(1)}
    rows: dict = {}
    for _ in range(n):
        new: dict = {}
        for x, px in law.items():
            row = rows.get(x)
            if row is None:
                row = [(y, p) for y in states if (p := r_k_pmf(q, k, x, y)) != 0]
                rows[x] = row
            for y, pxy in row:
                new[y] = new.get(y, Q(0)) + px * pxy
        law = new
    return SparseLaw(support=law, tail_deficit=1 - sum(law.values(), Q(0)))
