"""Exact rational kernels: elementary laws, tensor decomposition, one-step
kernels, pair kernels, and the structural identities they satisfy."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtpatterns import kernels
from gtpatterns.kernels import (
    IdentityReport,
    blocked_left_pmf,
    blocked_right_pmf,
    box_size,
    check_desintegration,
    check_entry_budget,
    check_intertwining,
    check_law_budget,
    enumerate_pair_states,
    gamma_row,
    l_k_pmf,
    n_step_law,
    nu_pmf,
    p_d_closed,
    pieri_decompose,
    q_k_pmf,
    r_k_pmf,
    r_pmf,
    reflected_right_pmf,
    s_k_pmf,
    states_in_box,
)
from gtpatterns.patterns import (
    abs_row,
    count_patterns,
    enumerate_lower_rows,
    interlaces,
    lower_rows,
    row_length,
    row_value_ok,
)
from gtpatterns.patterns import weyl_dimension as s_dim
from oracles import geometric_pmf, mu_pmf, nu_tail_bound, p_d_series

Q = Fraction
HALF = Q(1, 2)
THIRD = Q(1, 3)

q_values = st.sampled_from([Q(1, 3), Q(1, 2), Q(2, 3), Q(1, 5), Q(9, 10)])


def close_to_one(total: Fraction, tail: Fraction) -> bool:
    return 1 - tail <= total <= 1


# ---------------------------------------------------------------------------
# elementary laws
# ---------------------------------------------------------------------------

class TestElementaryLaws:
    @given(q=q_values)
    def test_geometric_sums_to_one(self, q):
        total = sum(geometric_pmf(q, x) for x in range(200))
        assert close_to_one(total, q**200 * 2)

    @given(q=q_values, x=st.integers(0, 6))
    def test_r_rows_sum_to_one(self, q, x):
        total = sum(r_pmf(q, x, y) for y in range(x + 300))
        assert close_to_one(total, q**200)

    def test_r_matches_two_sided_convolution(self):
        """Oracle: R(x, .) is the law of |x + xi - xi'| with xi, xi'
        independent geometric."""
        q = Q(2, 5)
        x = 3
        law: dict[int, Fraction] = {}
        cut = 40
        for a in range(cut):
            for b in range(cut):
                y = abs(x + a - b)
                law[y] = law.get(y, Q(0)) + geometric_pmf(q, a) * geometric_pmf(q, b)
        for y in range(10):
            assert abs(law[y] - r_pmf(q, x, y)) < Q(1, 10**12)

    @given(q=q_values, a=st.integers(0, 3), x=st.integers(3, 8))
    def test_blocked_left_is_exact_law(self, q, a, x):
        """Oracle: law of max(a, x - xi)."""
        law: dict[int, Fraction] = {}
        for xi in range(200):
            y = max(a, x - xi)
            law[y] = law.get(y, Q(0)) + geometric_pmf(q, xi)
        tail = q**200
        for y in range(a, x + 1):
            assert abs(law.get(y, Q(0)) - blocked_left_pmf(q, a, x, y)) <= tail

    @given(q=q_values, x=st.integers(0, 3), b=st.integers(3, 8) | st.just(math.inf))
    def test_blocked_right_is_exact_law(self, q, x, b):
        """Oracle: law of min(b, x + xi); b = inf is the free shift x + xi."""
        law: dict[int, Fraction] = {}
        for xi in range(200):
            y = min(b, x + xi)
            law[y] = law.get(y, Q(0)) + geometric_pmf(q, xi)
        tail = q**200
        for y in range(x - 1, min(b, x + 10) + 1):
            assert abs(law.get(y, Q(0)) - blocked_right_pmf(q, b, x, y)) <= tail

    @given(q=q_values, x=st.integers(0, 4), b=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_reflected_right_is_exact_law(self, q, x, b):
        """Oracle: law of min(b, |x + xi - xi'|)."""
        x = min(x, b)
        law: dict[int, Fraction] = {}
        cut = 60
        for a in range(cut):
            for c in range(cut):
                y = min(b, abs(x + a - c))
                law[y] = law.get(y, Q(0)) + geometric_pmf(q, a) * geometric_pmf(q, c)
        tail = 2 * q**cut * cut
        for y in range(b + 1):
            assert abs(law.get(y, Q(0)) - reflected_right_pmf(q, b, x, y)) <= tail

    @pytest.mark.parametrize("x,b", [(3, 1), (1, 0), (0, -1)])
    def test_reflected_right_refuses_start_above_bound(self, x, b):
        # the closed form at y = b assumes x <= b: (x, b) = (3, 1) gave 65/24
        with pytest.raises(ValueError, match="need 0 <= x <= b"):
            reflected_right_pmf(HALF, b, x, 1)

    @pytest.mark.parametrize("q", [HALF, Q(2, 7)])
    def test_unbounded_reflected_right_is_r(self, q):
        for x, y in itertools.product(range(6), range(8)):
            assert reflected_right_pmf(q, math.inf, x, y) == r_pmf(q, x, y)

    def test_bad_q_rejected(self):
        for bad in (Q(0), Q(1), Q(3, 2), Q(-1, 2)):
            with pytest.raises(ValueError):
                geometric_pmf(bad, 0)


# one valid call of each package function that takes q, at a given q
Q_CALLS = {
    "r_pmf": lambda q: r_pmf(q, 1, 1),
    "blocked_left_pmf": lambda q: blocked_left_pmf(q, 0, 1, 1),
    "blocked_right_pmf": lambda q: blocked_right_pmf(q, 2, 1, 1),
    "reflected_right_pmf": lambda q: reflected_right_pmf(q, 2, 1, 1),
    "nu_pmf": lambda q: nu_pmf(q, 3, 1),
    "nu_tail_bound": lambda q: nu_tail_bound(q, 3, 2),
    "p_d_closed": lambda q: p_d_closed(q, 3, (1,), (1,)),
    "p_d_series": lambda q: p_d_series(q, 3, (1,), (1,), 2),
    "r_k_pmf": lambda q: r_k_pmf(q, 2, (1,), (1,)),
    "s_k_pmf": lambda q: s_k_pmf(q, 2, ((0,), (1,)), ((0,), (1,))),
    "q_k_pmf": lambda q: q_k_pmf(q, 2, ((0,), (0,), (1,)), ((0,), (0,), (1,))),
    "n_step_law": lambda q: n_step_law(q, 2, 1, 2),
    "check_intertwining": lambda q: check_intertwining(q, 2, 1),
    "check_desintegration": lambda q: check_desintegration(q, 2),
}


@pytest.mark.parametrize("bad", [Q(0), Q(1), Q(3, 2), Q(-1, 2)], ids=str)
@pytest.mark.parametrize("name", list(Q_CALLS))
def test_bad_q_is_refused(name, bad):
    Q_CALLS[name](HALF)  # the other arguments are valid
    with pytest.raises(ValueError, match=r"q must be in \(0,1\)"):
        Q_CALLS[name](bad)


# ---------------------------------------------------------------------------
# tensor-product decomposition and dimensions
# ---------------------------------------------------------------------------

class TestPieri:
    def test_so3_clebsch_gordan(self):
        # (l) (x) (m) = (|l-m|) + ... + (l+m), multiplicity free
        for l, m in [(2, 1), (3, 2), (1, 4)]:
            mult = pieri_decompose(3, (l,), m)
            expect = {(j,): 1 for j in range(abs(l - m), l + m + 1)}
            assert mult == expect

    def test_so4_vector_square(self):
        mult = pieri_decompose(4, (1, 0), 1)
        assert mult == {(0, 0): 1, (1, 1): 1, (1, -1): 1, (2, 0): 1}

    def test_so5_vector_square(self):
        mult = pieri_decompose(5, (1, 0), 1)
        assert mult == {(0, 0): 1, (1, 1): 1, (2, 0): 1}

    @given(
        d=st.integers(3, 6),
        m=st.integers(0, 4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_dimension_identity(self, d, m, data):
        """dim V_lam * dim V_gamma_m = sum_beta mult(beta) dim V_beta."""
        r = d // 2
        vals = sorted(data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)),
                      reverse=True)
        lam = tuple(vals)
        if d % 2 == 0 and lam[-1] > 0 and data.draw(st.booleans()):
            lam = lam[:-1] + (-lam[-1],)
        mult = pieri_decompose(d, lam, m)
        lhs = s_dim(d, lam) * s_dim(d, gamma_row(d, m))
        rhs = sum(c * s_dim(d, beta) for beta, c in mult.items())
        assert lhs == rhs

    def test_decomposition_grid_is_pinned(self):
        """Multiplicities for every valid weight with entries in [-3, 3],
        d = 3..8 and m < 7, both parities through the one loop."""
        lines = []
        for d in range(3, 9):
            for lam in itertools.product(range(-3, 4), repeat=d // 2):
                if not row_value_ok(d - 1, lam):
                    continue
                for m in range(7):
                    mult = sorted(pieri_decompose(d, lam, m).items())
                    lines.append(f"{d}:{lam}:{m}:{mult}")
        assert len(lines) == 910
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "0b11e6a6a449373c130dc2bfc87ddc0988651e70a0ee2cabcecde09cb926569a"
        )

    def test_mu_is_probability_in_beta(self):
        for d, lam, m in [(3, (2,), 3), (4, (2, 1), 2), (5, (2, 1), 3)]:
            total = sum(
                mu_pmf(d, lam, m, beta) for beta in pieri_decompose(d, lam, m)
            )
            assert total == 1

    def test_mu_example(self):
        assert mu_pmf(3, (1,), 1, (1,)) == Q(3, 9)
        assert mu_pmf(3, (1,), 1, (0,)) == Q(1, 9)
        assert mu_pmf(3, (1,), 1, (2,)) == Q(5, 9)


class TestNu:
    @given(q=st.sampled_from([THIRD, HALF, Q(2, 3)]), d=st.integers(3, 5))
    @settings(max_examples=15, deadline=None)
    def test_sums_to_one(self, q, d):
        m_max = 220
        total = sum(nu_pmf(q, d, m) for m in range(m_max + 1))
        tail = nu_tail_bound(q, d, m_max)
        assert close_to_one(total, tail)
        assert tail < Q(1, 10**12)

    def test_tail_bound_dominates_tail(self):
        q, d, m_max = Q(2, 3), 5, 10
        actual_tail = sum(nu_pmf(q, d, m) for m in range(m_max + 1, 400))
        assert actual_tail <= nu_tail_bound(q, d, m_max)

    @pytest.mark.parametrize("q", [Q(1, 10), Q(2, 9), THIRD, HALF])
    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    @pytest.mark.parametrize("m_max", [0, 2, 5])
    def test_tail_bound_dominates_exact_tail(self, q, d, m_max):
        """The bound uses s(gamma_{m+1}) / s(gamma_m) <= (m+d-2)/m for m >= 1
        ((2m+3)/(2m+1) at d = 3).  nu sums to exactly 1, so its tail past
        m_max is exactly 1 - sum_{m <= m_max} nu(m): 50/99 at q = 2/9, d = 3,
        m_max = 0."""
        for m in range(1, 60):
            ratio = Q(s_dim(d, gamma_row(d, m + 1)), s_dim(d, gamma_row(d, m)))
            assert ratio <= Q(m + d - 2, m)
            assert d != 3 or ratio == Q(2 * m + 3, 2 * m + 1)
        tail = 1 - sum(nu_pmf(q, d, m) for m in range(m_max + 1))
        assert 0 < tail <= nu_tail_bound(q, d, m_max)


# ---------------------------------------------------------------------------
# the one-step kernel on weights
# ---------------------------------------------------------------------------

def small_weights(d: int, bound: int):
    r = d // 2
    heads = itertools.combinations_with_replacement(range(bound, -1, -1), r)
    for head in heads:
        lam = tuple(sorted(head, reverse=True))
        yield lam
        if d % 2 == 0 and lam[-1] > 0:
            yield lam[:-1] + (-lam[-1],)


class TestPd:
    def test_from_zero_is_nu(self):
        # started at 0 the kernel reduces to the jump-size law on (b, 0...)
        for d in (3, 4, 5):
            zero = (0,) * (d // 2)
            for b in range(5):
                assert p_d_closed(HALF, d, zero, gamma_row(d, b)) == nu_pmf(
                    HALF, d, b
                )

    def test_value_example(self):
        assert p_d_closed(HALF, 3, (1,), (0,)) == Q(1, 36)

    def test_closed_equals_series(self):
        rng_weights = [
            (3, (2,), (1,)),
            (3, (0,), (3,)),
            (4, (2, 1), (2, -1)),
            (4, (1, 0), (1, 1)),
            (5, (2, 1), (3, 1)),
            (5, (1, 1), (0, 0)),
        ]
        for d, lam, beta in rng_weights:
            for q in (THIRD, HALF, Q(2, 3)):
                closed = p_d_closed(q, d, lam, beta)
                series, tail = p_d_series(q, d, lam, beta, 60)
                assert abs(closed - series) <= tail
                assert tail < Q(1, 10**6)

    @given(q=st.sampled_from([THIRD, HALF]), d=st.integers(3, 5))
    @settings(max_examples=10, deadline=None)
    def test_rows_sum_to_one(self, q, d):
        lam = gamma_row(d, 1)
        total = sum(
            p_d_closed(q, d, lam, beta) for beta in small_weights(d, 40)
        )
        # the escaped mass is bounded by the nu tail past the box
        assert close_to_one(total, 60 * nu_tail_bound(q, d, 30))

    def test_grid_is_pinned(self):
        # every valid pair of weights with entries in [-3, 3], d = 3..7
        lines = []
        for q in (HALF, Q(2, 3), Q(3, 7)):
            for d in range(3, 8):
                weights = [
                    lam
                    for lam in itertools.product(range(-3, 4), repeat=d // 2)
                    if row_value_ok(d - 1, lam)
                ]
                for lam, beta in itertools.product(weights, repeat=2):
                    p = p_d_closed(q, d, lam, beta)
                    lines.append(f"{q}:{d}:{lam}:{beta}:{p.numerator}/{p.denominator}")
        assert len(lines) == 5016
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "82394fe5c4145983d9b2dcc1f9f9702270109a3405447d665eeb25fb20cfed9d"
        )


@st.composite
def so_weight(draw, d: int):
    """A valid SO(d) highest weight with entries <= 8 (signed last entry
    for even d)."""
    entries = draw(st.lists(st.integers(0, 8), min_size=d // 2, max_size=d // 2))
    lam = tuple(sorted(entries, reverse=True))
    if d % 2 == 0 and draw(st.booleans()):
        lam = lam[:-1] + (-lam[-1],)
    return lam


def p_d_term_sum(q: Fraction, d: int, lam, beta) -> Fraction:
    """The closed form of P_d summed term by term in Fraction arithmetic,
    over interlacing rows c found by brute force."""
    r = d // 2
    length = r if d % 2 else r - 1
    top = max(abs_row(lam) + abs_row(beta))
    ratio = Fraction(s_dim(d, beta), s_dim(d, lam))
    total = Q(0)
    for c in itertools.product(range(top + 1), repeat=length):
        if c != tuple(sorted(c, reverse=True)):
            continue
        if not all(interlaces(c, abs_row(u)) for u in (lam, beta)):
            continue
        if d % 2:
            expo = sum(lam) + sum(beta) - 2 * sum(c)
            halved = c[-1] == 0
        else:
            expo = sum(lam[:-1]) + sum(beta[:-1]) + abs(lam[-1] - beta[-1]) - 2 * sum(c)
            halved = True
        term = (1 - q) ** (d - 1) * ratio * q**expo
        total += term / (1 + q) if halved else term
    return total


class TestPdRandomRational:
    @given(data=st.data(), d=st.integers(3, 6), den=st.integers(2, 50))
    @settings(max_examples=60, deadline=None)
    def test_closed_matches_term_sum_and_series(self, data, d, den):
        q = Q(data.draw(st.integers(1, den - 1)), den)
        lam = data.draw(so_weight(d))
        beta = data.draw(so_weight(d))
        closed = p_d_closed(q, d, lam, beta)
        assert closed == p_d_term_sum(q, d, lam, beta)
        series, tail = p_d_series(q, d, lam, beta, 25)
        assert abs(closed - series) <= tail


@st.composite
def start_in_box(draw):
    """(k, radius, x) with x in states_in_box(k, radius // 2)."""
    k = draw(st.integers(2, 5))
    radius = draw(st.integers(0, 8))
    return k, radius, draw(st.sampled_from(states_in_box(k, radius // 2)))


class TestTopRowKernel:
    def test_k1_is_reflected_walk(self):
        for q in (HALF, Q(2, 7), Q(9, 10)):
            for x, y in itertools.product(range(12), repeat=2):
                assert r_k_pmf(q, 1, (x,), (y,)) == r_pmf(q, x, y)

    def test_even_k_matches_pd(self):
        assert r_k_pmf(HALF, 2, (1,), (2,)) == p_d_closed(HALF, 3, (1,), (2,))

    def test_odd_k_symmetrizes_signed_weight(self):
        # k = 3: both signs of the SO(4) weight contribute
        lhs = r_k_pmf(HALF, 3, (2, 1), (2, 2))
        rhs = p_d_closed(HALF, 4, (2, 1), (2, 2)) + p_d_closed(
            HALF, 4, (2, 1), (2, -2)
        )
        assert lhs == rhs
        # zero last coordinate: single term
        assert r_k_pmf(HALF, 3, (2, 1), (2, 0)) == p_d_closed(
            HALF, 4, (2, 1), (2, 0)
        )

    @given(data=st.data(), k=st.sampled_from([3, 5, 7]), den=st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_odd_k_is_both_signs_of_p_d(self, data, k, den):
        """Oracle: the two-evaluation definition, P_{k+1} at y plus, when
        y_r > 0, P_{k+1} at y with y_r negated (k = 1, where P_2 is not
        defined, is test_k1_is_reflected_walk)."""
        q = Q(data.draw(st.integers(1, den - 1)), den)
        x = abs_row(data.draw(so_weight(k + 1)))
        y = abs_row(data.draw(so_weight(k + 1)))
        expected = p_d_closed(q, k + 1, x, y)
        if y[-1]:
            expected += p_d_closed(q, k + 1, x, y[:-1] + (-y[-1],))
        assert r_k_pmf(q, k, x, y) == expected

    def test_grid_is_pinned(self):
        """Every entry over states_in_box(k, 4) squared, k = 1..6; the lines
        with k <= 5 are the 3,450-entry grid that a Weyl-formula form of R_k
        must reproduce."""
        lines = []
        for q in (HALF, Q(2, 5)):
            for k in range(1, 7):
                for x, y in itertools.product(states_in_box(k, 4), repeat=2):
                    p = r_k_pmf(q, k, x, y)
                    lines.append(f"{q}:{k}:{x}:{y}:{p.numerator}/{p.denominator}")
        assert len(lines) == 5900
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "36c75dd346430597ef6f05af943dd3bbcd227717890801ac8f4e6e692dcb9ac5"
        )
        head = [line for line in lines if int(line.split(":")[1]) <= 5]
        assert hashlib.sha256("\n".join(head).encode()).hexdigest() == (
            "75c53b544547dcfb9c14a50f717fb3ac480eeaeddc6466d0b694ff262605bb2f"
        )

    @given(q=st.sampled_from([THIRD, HALF]), k=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_rows_sum_to_one(self, q, k):
        x = (1,) * row_length(k)
        total = sum(r_k_pmf(q, k, x, y) for y in states_in_box(k, 35))
        assert 1 - Q(1, 10**6) <= total <= 1

    @given(
        q=st.integers(2, 40).flatmap(lambda b: st.integers(1, b - 1).map(lambda a: Q(a, b))),
        start=start_in_box(),
    )
    @example(q=Q(2, 9), start=(5, 7, (0, 0, 0)))
    @settings(max_examples=80, deadline=None)
    def test_row_deficit_is_within_nu_tail(self, q, start):
        """Tensoring with gamma_m raises beta_1 by at most m, so the mass an
        R_k row puts outside the box is at most nu's tail past radius - x_1."""
        k, radius, x = start
        deficit = 1 - sum(r_k_pmf(q, k, x, y) for y in states_in_box(k, radius))
        assert 0 <= deficit <= nu_tail_bound(q, k + 1, radius - x[0])


# ---------------------------------------------------------------------------
# pair-state kernels
# ---------------------------------------------------------------------------

class TestPairKernels:
    def test_s2_at_zero(self):
        value = s_k_pmf(Q(1, 2), 2, (None, (0,)), ((0,), (0,)))
        assert value == Q(1, 6)

    def test_s_k_rows_sum_to_one(self):
        for k in (1, 2, 3, 4):
            states = enumerate_pair_states(k, 30)
            y = (1,) * row_length(k)
            total = sum(s_k_pmf(HALF, k, (None, y), dst) for dst in states)
            assert 1 - Q(1, 10**6) <= total <= 1

    def test_s_k_z_marginal_is_pd(self):
        """Summing the half-step coordinate out of S_k recovers the weight
        kernel with d = k + 1 (exactly, per destination top row)."""
        k, q = 2, Q(2, 5)
        y = (1,)
        for y2 in range(6):
            marginal = sum(
                s_k_pmf(q, k, (None, y), ((z,), (y2,))) for z in range(y2 + 1)
            )
            assert marginal == p_d_closed(q, 3, y, (y2,))

    @pytest.mark.parametrize("q", [HALF, Q(2, 7)])
    def test_s_k_z_marginal_is_r_k(self, q):
        """Summing z2 out of S_k gives R_k, by a formula that never
        evaluates P_d."""
        for k in range(2, 7):
            states = states_in_box(k, 4)
            for y, y2 in itertools.product(states, repeat=2):
                marginal = sum(
                    (
                        s_k_pmf(q, k, (None, y), (z2, y2))
                        for z2 in lower_rows(k // 2, y, y2)
                    ),
                    Q(0),
                )
                assert marginal == r_k_pmf(q, k, y, y2), (k, y, y2)

    def test_l_k_rows_sum_to_one(self):
        for k in (2, 3, 4, 5):
            y = tuple(range(row_length(k), 0, -1))
            z_len = k // 2
            src = (None, y)
            total = Q(0)
            for x in enumerate_lower_rows(y, z_len, signed_last=False):
                total += l_k_pmf(k, (None, y), (x, None, y))
            assert total == 1

    def test_l_k_even_weights_wall(self):
        # k = 2, y = (1): x in {0, 1}, the signed coordinate doubles x = 1
        assert l_k_pmf(2, (None, (1,)), ((0,), None, (1,))) == Q(1, 3)
        assert l_k_pmf(2, (None, (1,)), ((1,), None, (1,))) == Q(2, 3)

    def test_q_2_factorizes(self):
        """k = 2: the joint kernel is the product of one blocked-left and
        one pushed free jump, mixed over the previous-row move."""
        q = HALF
        u, z, y = (0,), (0,), (1,)
        total = Q(0)
        for x in range(6):
            for z2 in range(y[0] + 1):
                for y2 in range(max(z2, x), 8):
                    val = q_k_pmf(q, 2, (u, z, y), ((x,), (z2,), (y2,)))
                    expect = (
                        r_pmf(q, u[0], x)
                        * blocked_left_pmf(q, u[0], y[0], z2)
                        * (1 - q) * q ** (y2 - max(z2, x))
                    )
                    assert val == expect
                    total += val
        assert total > Q(9, 10)

    def test_q_k_grid_is_pinned(self):
        lines = []
        for q in (HALF, Q(2, 7)):
            for k in range(2, 6):
                pairs = enumerate_pair_states(k, 2)
                for z, y in pairs:
                    for u in lower_rows(k // 2, y):
                        for z2, y2 in pairs:
                            for x in lower_rows(k // 2, y2):
                                p = q_k_pmf(q, k, (u, z, y), (x, z2, y2))
                                lines.append(
                                    f"{q}:{k}:{(u, z, y)}:{(x, z2, y2)}:{p.numerator}/{p.denominator}"
                                )
        assert len(lines) == 10508
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "faf9e2a7ba1831a87fb3cb3d3f02c6a99185d8b78d2717ceb73329adc69b44d4"
        )

    def test_s_k_grid_is_pinned(self):
        lines = []
        for q in (HALF, Q(2, 7)):
            for k in range(1, 7):
                for y in states_in_box(k, 3):
                    for z2, y2 in enumerate_pair_states(k, 3):
                        p = s_k_pmf(q, k, (None, y), (z2, y2))
                        lines.append(f"{q}:{k}:{y}:{(z2, y2)}:{p.numerator}/{p.denominator}")
        assert len(lines) == 6812
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "b95f0b0c03399f9e951df3e768e0f4f0ba06d1962a540af5980ef98178ef177a"
        )

    def test_identity_report_records_only_differences(self):
        report = IdentityReport()
        report.record(("tag", (1, 2)), HALF, HALF)
        report.record(("tag", (3,)), THIRD, HALF)
        report.record(("tag", (4,)), Q(1), Q(3, 4))
        assert report.checked == 3
        assert report.max_discrepancy == Q(1, 4)
        assert report.violations == [("tag", (3,), THIRD, HALF), ("tag", (4,), Q(1), Q(3, 4))]
        assert not report.ok

    def test_desintegration_identities_hold(self):
        report = check_desintegration(HALF, 3)
        assert report.checked > 0
        assert report.ok, report.violations[:3]

    @pytest.mark.parametrize("k,bound", [(2, 3), (3, 3), (4, 2)])
    def test_intertwining_exact(self, k, bound):
        report = check_intertwining(THIRD, k, bound)
        assert report.checked > 0
        assert report.max_discrepancy == 0
        assert report.ok

    def test_identity_budgets_come_first(self, monkeypatch):
        """Each checker estimates its work before it lists anything; 100
        times the largest check of the suite (k = 4 at bound 3, 4.9e4, and
        bound 6) is within the budget."""
        def listed(*args):
            raise LookupError("enumerated")

        monkeypatch.setattr(kernels, "enumerate_pair_states", listed)
        monkeypatch.setattr(kernels, "r_pmf", listed)
        with pytest.raises(ValueError, match="bound=20 at k=4 .*budget"):
            check_intertwining(HALF, 4, 20)
        with pytest.raises(ValueError, match="bound=0 at k=4611686018427387904 .*budget"):
            check_intertwining(HALF, 2**62, 0)
        with pytest.raises(ValueError, match="bound=100000 .*budget"):
            check_desintegration(HALF, 10**5)
        # 1.3e6, 1.2e6, 8.5e5 and 47^4 = 4.9e6
        for k, bound in [(4, 5), (5, 4), (6, 3)]:
            with pytest.raises(LookupError):
                check_intertwining(HALF, k, bound)
        with pytest.raises(LookupError):
            check_desintegration(HALF, 47)
        with pytest.raises(ValueError, match="bound=48 .*budget"):
            check_desintegration(HALF, 48)

    def test_entry_budget(self):
        """One entry is refused past 1e5 bits of q^e or 25,000 pair factors
        of its Weyl products, and nothing below."""
        check_entry_budget(Q(2, 3), 1, (49999, 0), "--x, --y")
        with pytest.raises(ValueError, match="--x, --y: .*100000000 .*budget"):
            check_entry_budget(Q(2, 3), 1, (10**8, 1), "--x, --y")
        with pytest.raises(ValueError, match="budget"):
            check_entry_budget(Q(2, 3), 1, (50000, 0), "--x, --y")
        # n nonzero coordinates at level k: n (k+1)//2 factors, 25,000 at n = 50
        check_entry_budget(HALF, 1000, (1,) * 50, "--k, --x, --y")
        with pytest.raises(ValueError, match="--k, --x, --y: 51 nonzero .*budget"):
            check_entry_budget(HALF, 1000, (1,) * 51, "--k, --x, --y")
        # nu's row (m, 0, ..., 0) has one nonzero entry, so its bits decide
        check_entry_budget(HALF, 8, (10**4,), "--d, --y")
        check_entry_budget(HALF, 49998, (1,), "--d, --y")
        with pytest.raises(ValueError, match="--d, --y: .*budget"):
            check_entry_budget(HALF, 10**9, (1,), "--d, --y")


# ---------------------------------------------------------------------------
# the integer bodies against Fraction-arithmetic oracles
# ---------------------------------------------------------------------------

# The kernels evaluate integer pairs over q = a/b.  The oracles below write
# the same laws directly in Fraction arithmetic.  At a = 1, a^e is 1 and
# hides a wrong exponent, so q is drawn with 1 <= a < b.

def fraction_r(q, x, y):
    c = (1 - q) / (1 + q)
    if y >= 1:
        return c * (q ** abs(x - y) + q ** (x + y))
    return c * q**x


def fraction_blocked_left(q, a, x, y):
    if not a <= y <= x:
        return Q(0)
    return (1 - q) * q ** (x - y) if y >= a + 1 else q ** (x - a)


def fraction_blocked_right(q, b, x, y):
    if not x <= y <= b:
        return Q(0)
    return (1 - q) * q ** (y - x) if y <= b - 1 else q ** (b - x)


def fraction_reflected_right(q, b, x, y):
    if not 0 <= y <= b:
        return Q(0)
    if y <= b - 1:
        return fraction_r(q, x, y)
    return q**b * (q**-x + q**x) / (1 + q) if y > 0 else Q(1)


def fraction_s_k(q, k, y, z2, y2):
    ok = (
        len(z2) == k // 2 and len(y2) == row_length(k)
        and all(a >= b >= 0 for a, b in zip(z2, z2[1:] + (0,)))
        and all(a >= b >= 0 for a, b in zip(y2, y2[1:] + (0,)))
        and interlaces(z2, y2) and interlaces(z2, y)
    )
    if not ok:
        return Q(0)
    ratio = Fraction(count_patterns(k, y2), count_patterns(k, y))
    expo = sum(a + b - 2 * c for a, b, c in zip(y, y2, z2))
    value = (1 - q) ** (2 * len(z2)) * ratio * q**expo
    if k % 2 == 1:
        return value * fraction_r(q, y[-1], y2[-1])
    return value / (1 + q) if z2[-1] == 0 else value


def fraction_q_k(q, k, src, dst):
    (u, z, y), (x, z2, y2) = src, dst
    r = row_length(k)
    total = Q(0)
    for v in lower_rows(r - 1, y2, x, z2):
        term = fraction_s_k(q, k - 1, u, v, x)
        c = (math.inf,) + v
        for i in range(len(x)):
            term *= fraction_blocked_left(q, u[i], min(y[i], c[i]), z2[i])
            term *= fraction_blocked_right(q, c[i], max(z2[i], x[i]), y2[i])
        if k % 2 == 1:
            b = c[r - 1]
            term *= fraction_reflected_right(q, b, min(y[r - 1], b), y2[r - 1])
        total += term
    return total


q_any = st.integers(2, 40).flatmap(lambda b: st.integers(1, b - 1).map(lambda a: Q(a, b)))


class TestIntegerBodies:
    @given(q=q_any, lo=st.integers(0, 6), x=st.integers(0, 12), y=st.integers(-1, 14),
           hi=st.integers(0, 12) | st.just(math.inf))
    @settings(max_examples=300, deadline=None)
    def test_one_coordinate_laws_match_fractions(self, q, lo, x, y, hi):
        assert r_pmf(q, x, max(y, 0)) == fraction_r(q, x, max(y, 0))
        if lo <= x:
            assert blocked_left_pmf(q, lo, x, y) == fraction_blocked_left(q, lo, x, y)
        if x <= hi:
            assert blocked_right_pmf(q, hi, x, y) == fraction_blocked_right(q, hi, x, y)
            assert reflected_right_pmf(q, hi, x, y) == fraction_reflected_right(q, hi, x, y)

    @given(q=q_any, k=st.integers(2, 5), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pair_kernels_match_fractions(self, q, k, data):
        pairs = enumerate_pair_states(k, 3)
        z, y = data.draw(st.sampled_from(pairs))
        z2, y2 = data.draw(st.sampled_from(pairs))
        u = data.draw(st.sampled_from(list(lower_rows(k // 2, y))))
        x = data.draw(st.sampled_from(list(lower_rows(k // 2, y2))))
        for level in (k, k - 1):
            rows = states_in_box(level, 3)
            src = data.draw(st.sampled_from(rows))
            dst = data.draw(st.sampled_from(enumerate_pair_states(level, 3)))
            assert s_k_pmf(q, level, (None, src), dst) == fraction_s_k(q, level, src, *dst)
        value = q_k_pmf(q, k, (u, z, y), (x, z2, y2))
        assert value == fraction_q_k(q, k, (u, z, y), (x, z2, y2))

    @pytest.mark.parametrize("k", [3, 4])
    def test_intertwining_exact_at_two_fifths(self, k):
        report = check_intertwining(Q(2, 5), k, 2)
        assert report.checked > 0
        assert report.ok and report.max_discrepancy == 0

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: r_pmf(Q(2, 5), -1, 0), "x, y must be >= 0"),
            (lambda: blocked_left_pmf(Q(2, 5), 3, 2, 2), "need a <= x"),
            (lambda: blocked_right_pmf(Q(2, 5), 2, 3, 3), "need x <= b"),
            (lambda: reflected_right_pmf(Q(2, 5), 2, 3, 3), "need 0 <= x <= b"),
            (lambda: s_k_pmf(Q(2, 5), 0, (None, ()), ((), ())), "k must be >= 1"),
            # the wall term of odd k refuses a negative last entry of y
            (lambda: s_k_pmf(Q(2, 5), 1, (None, (-1,)), ((), (0,))), "x, y must be >= 0"),
            (lambda: s_k_pmf(Q(2, 5), 2, (None, (0, 1)), ((0,), (1,))), "weakly decreasing"),
            (lambda: q_k_pmf(Q(2, 5), 2, ((0,), (2,), (1,)), ((0,), (0,), (1,))),
             "pair components must lie"),
            (lambda: q_k_pmf(Q(2, 5), 3, ((0, 0), (0,), (1, 0)), ((0,), (0,), (1, 0))),
             "u and x must have length 1"),
            (lambda: q_k_pmf(Q(2, 5), 2, ((2,), (0,), (1,)), ((0,), (0,), (1,))),
             "need u interlacing y and x interlacing y2"),
            (lambda: q_k_pmf(Q(2, 5), 2, ((0,), (0,), (1,)), ((3,), (0,), (1,))),
             "need u interlacing y and x interlacing y2"),
        ],
    )
    def test_refusals_repeat(self, call, message):
        """A refused state raises on every call: the state caches keep only
        answers, never a refusal."""
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                call()

    def test_off_support_zero_repeats(self):
        for _ in range(2):
            assert s_k_pmf(Q(2, 5), 2, (None, (1,)), ((2,), (3,))) == 0
            assert s_k_pmf(Q(2, 5), 2, (None, (1,)), ((1,), (3,))) != 0


# ---------------------------------------------------------------------------
# exact n-step laws
# ---------------------------------------------------------------------------

class TestNStepLaw:
    def test_one_step_from_zero_matches_kernel(self):
        law = n_step_law(HALF, 2, 1, 20)
        zero = (0,)
        for y in range(5):
            assert law.support[(y,)] == r_k_pmf(HALF, 2, zero, (y,))

    def test_mass_accounting(self):
        law = n_step_law(HALF, 3, 2, 16)
        assert sum(law.support.values(), Q(0)) + law.tail_deficit == 1
        assert law.tail_deficit < Q(1, 100)

    def test_benchmark_law_is_pinned(self):
        # every Fraction of the support, hashed as the benchmark's digest gate
        law = n_step_law(HALF, 3, 2, 20)
        text = "\n".join(
            f"{s}:{p.numerator}/{p.denominator}" for s, p in sorted(law.support.items())
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c57221b30cafd2bfe891635a29b367e07aa75b14fe20495aaaf6dbbd161bb642"
        )
        assert law.tail_deficit == Q(51869094519679483, 166020696663385964544)

    def test_box_size_counts_states_in_box(self):
        for k, radius in itertools.product(range(1, 7), range(6)):
            assert box_size(k, radius) == len(states_in_box(k, radius))

    def test_budgets_refuse_before_listing(self):
        with pytest.raises(ValueError, match="radius=100000 .*budget"):
            states_in_box(5, 10**5)
        with pytest.raises(ValueError, match="n=100000 .*budget"):
            n_step_law(HALF, 1, 10**5, 60)
        # n = 3 at radius 60, k = 4 and 5, stays within the budget
        for k in (4, 5):
            check_law_budget(k, 3, 60)

    def test_deficit_shrinks_with_radius(self):
        small = n_step_law(HALF, 2, 2, 6)
        large = n_step_law(HALF, 2, 2, 14)
        assert large.tail_deficit < small.tail_deficit
