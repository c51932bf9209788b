"""Discrete-time and continuous-time particle dynamics: single-step rules,
validity preservation, vectorized/scalar agreement, the top-row generator,
and the top-row law against the matrix exponential of that generator."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpatterns import dynamics
from gtpatterns.dynamics import (
    CTMC_CHUNK,
    CTMC_WINDOW_RINGS,
    DiscreteSimulation,
    as_patterns,
    ctmc_apply_event,
    ctmc_simulate,
    geometric_draws,
    neighbours,
    particle_count,
    particles,
    semigroup_law,
)
from gtpatterns.experiments import experiment_ctmc_marginal
from gtpatterns.kernels import states_in_box
from gtpatterns.patterns import enumerate_patterns, pattern_is_valid, row_length
from oracles import (
    discrete_step,
    generator_rate,
    geometric_draws_where,
    half_step_left,
    top_row_rates,
    zero_pattern,
)

Q = Fraction


def test_particle_count_matches_particles():
    assert [particle_count(k) for k in range(1, 13)] == [len(particles(k)) for k in range(1, 13)]


@pytest.mark.parametrize("k", range(1, 9))
def test_neighbours_index_the_pattern_geometry(k):
    """Each particle's four neighbours, looked up by key, at the indices
    the table gives; a wall particle (no particle above) ends each odd row."""
    keys = particles(k)
    table = neighbours(k)
    assert len(table) == len(keys)
    for (l, j), near in zip(keys, table):
        for (a, b), p in zip(((l - 1, j - 1), (l - 1, j), (l + 1, j), (l + 1, j + 1)), near):
            assert p == (keys.index((a, b)) if (a, b) in keys else None)
        assert (near[1] is None) == (l % 2 == 1 and j == row_length(l))
    assert neighbours(k) is table


def flat(pat):
    """A pattern's values in particles(k) order."""
    return [v for row in pat for v in row]


def as_pattern(y, k):
    """One state in particles(k) order as a pattern."""
    return as_patterns([[v] for v in y], k)[0]


def test_as_patterns_inverts_flat():
    pats = list(enumerate_patterns(4, (2, 1)))
    assert as_patterns(list(zip(*map(flat, pats))), 4) == pats
    assert all(as_pattern(flat(pat), 4) == pat for pat in pats)


def noise_from_dicts(k, half, full):
    keys = particles(k)
    return (
        {key: half.get(key, 0) for key in keys},
        {key: full.get(key, 0) for key in keys},
    )


def noise_in_order(k, noise):
    """Particle-keyed noise as the simulator takes it: arrays in
    particles(k) order."""
    return tuple([np.asarray(xi[key]).reshape(-1) for key in particles(k)] for xi in noise)


def unit_steps(lam):
    """The rows lam +- e_i, one coordinate moved by one."""
    for i in range(len(lam)):
        for step in (1, -1):
            yield lam[:i] + (lam[i] + step,) + lam[i + 1:]


def generator_matrix(k, radius):
    """Substochastic generator of the top-row process on the box of rows
    with coordinates <= radius, from generator_rate.  The diagonal counts
    every outgoing rate, jumps out of the box included, so its exponential
    is the law of the process killed on leaving the box."""
    states = states_in_box(k, radius)
    index = {s: n for n, s in enumerate(states)}
    a = np.zeros((len(states), len(states)))
    for s, lam in enumerate(states):
        for beta in unit_steps(lam):
            rate = float(generator_rate(k, lam, beta))
            a[s, s] -= rate
            if beta in index:
                a[s, index[beta]] += rate
    return states, a


def expm_law(k, radius, t):
    """The oracle of semigroup_law: the zero row of expm(t A) on the box."""
    from scipy.linalg import expm

    states, a = generator_matrix(k, radius)
    row = expm(t * a)[states.index((0,) * row_length(k))]
    return {s: float(p) for s, p in zip(states, row) if p > 0}


class TestDiscreteStep:
    def test_zero_noise_is_identity(self):
        for k in (1, 2, 3, 4, 5):
            x = zero_pattern(k)
            half, new = discrete_step(x, noise_from_dicts(k, {}, {}))
            assert half == x
            assert new == x

    def test_single_free_jump(self):
        # k = 2: the free particle jumps right by its draw
        x = ((0,), (0,))
        noise = noise_from_dicts(2, {}, {(2, 1): 3})
        _, new = discrete_step(x, noise)
        assert new == ((0,), (3,))

    def test_wall_two_sided_move(self):
        # the single wall particle moves by |x + xi - xi'|
        x = ((2,),)
        noise = noise_from_dicts(1, {(1, 1): 5}, {(1, 1): 1})
        half, new = discrete_step(x, noise)
        assert half == ((2,),)  # wall holds at half-time unless pushed
        assert new == ((2,),)  # |2 + 1 - 5| = 2

    def test_push_left_on_half_step(self):
        # row-2 particle jumping left drags the row-3 wall particle along
        # the diagonal below it
        x = ((0,), (2,), (2, 1))
        noise = noise_from_dicts(3, {(2, 1): 2}, {})
        half = half_step_left(x, noise)
        assert half == ((0,), (0,), (2, 0))

    def test_block_left_on_half_step(self):
        # row-2 particle blocked by the old row-1 position
        x = ((1,), (3,), (3, 1))
        noise = noise_from_dicts(3, {(2, 1): 5}, {})
        half = half_step_left(x, noise)
        assert half[1] == (1,)

    def test_left_jump_blocked_by_old_upper_position(self):
        # (2, 1) jumps from 2 to 0, and (3, 1) by 2 from 2: it is blocked by
        # the old position 2 of (2, 1), not by its new position 0.  With no
        # right draws the full step keeps the half-step state
        x = ((0,), (2,), (2, 0))
        expected = ((0,), (0,), (2, 0))
        noise = noise_from_dicts(3, {(2, 1): 2, (3, 1): 2}, {})
        assert discrete_step(x, noise) == (expected, expected)
        sim = DiscreteSimulation(0.5, 3, 1, seed=0)
        sim.state = dict(zip(particles(3), np.array([flat(x)]).T))
        sim.step(noise_in_order(3, noise))
        assert sim.patterns() == [expected]

    def test_push_right_on_full_step(self):
        # row-2 moving right pushes the row-3 particle sitting at its level
        x = ((0,), (1,), (1, 0))
        noise = noise_from_dicts(3, {}, {(2, 1): 2})
        _, new = discrete_step(x, noise)
        assert new[1] == (3,)
        assert new[2][0] == 3

    def test_block_right_on_full_step(self):
        # second row-4 particle capped by the half-time position of its
        # upper-left neighbour (3, 1)
        x = ((0,), (1,), (1, 0), (3, 1))
        noise = noise_from_dicts(4, {}, {(4, 2): 7})
        _, new = discrete_step(x, noise)
        assert new[3][1] == 1

    def test_leading_coordinate_unblocked(self):
        # the first top-row particle has no upper-left neighbour
        x = ((0,), (2,), (4, 0))
        noise = noise_from_dicts(3, {}, {(3, 1): 7})
        _, new = discrete_step(x, noise)
        assert new[2][0] == 11

    @given(
        k=st.integers(1, 5),
        seed=st.integers(0, 10**6),
        horizon=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_preserves_validity(self, k, seed, horizon):
        rng = np.random.default_rng(seed)
        x = zero_pattern(k)
        keys = [
            (l, j) for l in range(1, k + 1) for j in range(1, row_length(l) + 1)
        ]
        for _ in range(horizon):
            noise = (
                {key: int(geometric_draws(rng, 0.6, ())) for key in keys},
                {key: int(geometric_draws(rng, 0.6, ())) for key in keys},
            )
            half, x = discrete_step(x, noise)
            assert pattern_is_valid(x), x


class TestVectorizedSimulation:
    @given(k=st.integers(1, 6), seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar_step(self, k, seed):
        n_paths = 16
        rng = np.random.default_rng(seed)
        sim = DiscreteSimulation(0.5, k, n_paths, seed=seed + 1)
        keys = particles(k)
        scalars = [zero_pattern(k)] * n_paths
        for _ in range(3):
            xi_half = {key: geometric_draws(rng, 0.5, n_paths) for key in keys}
            xi_full = {key: geometric_draws(rng, 0.5, n_paths) for key in keys}
            sim.step(noise_in_order(k, (xi_half, xi_full)))
            for p in range(n_paths):
                noise = (
                    {key: int(xi_half[key][p]) for key in keys},
                    {key: int(xi_full[key][p]) for key in keys},
                )
                _, scalars[p] = discrete_step(scalars[p], noise)
            assert sim.patterns() == scalars
        assert all(type(v) is int for pat in sim.patterns() for row in pat for v in row)
        # every coordinate stays >= 0, wall particles included
        assert all(v >= 0 for pat in sim.patterns() for row in pat for v in row)

    def test_step_memory_is_one_array_per_particle_and_draw(self):
        """At q = 0.99, k = 3, 2e5 paths and 2 steps the state is 6.4 MB and
        a step's draws 12.8 MB.  With one array per particle the traced peak
        reads 30.5 MiB; with the state, the draws and the half-step each one
        (particles, paths) array it read 42.7 MiB."""
        DiscreteSimulation(0.99, 3, 10, 1).run(2)  # first-use allocations
        tracemalloc.start()
        try:
            DiscreteSimulation(0.99, 3, 200_000, 1).run(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_geometric_draws_distribution(self):
        rng = np.random.default_rng(7)
        draws = geometric_draws(rng, 0.5, 200_000)
        assert draws.min() == 0
        # P(xi = 0) = 1 - q = 0.5
        assert abs(np.mean(draws == 0) - 0.5) < 0.01
        assert abs(np.mean(draws) - 1.0) < 0.02  # mean q/(1-q) = 1

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("size", [(), 1, 20_000])
    @pytest.mark.parametrize("q", [1 / 200, 1 / 2, 0.99])
    def test_geometric_draws_match_the_fresh_array_form(self, q, size, zeros):
        """The in-place draws give the integers of the np.where form from the
        same stream; a stub stream of u == 0 checks the guard, u = 1/2."""

        class Zeros:
            def random(self, size):
                return np.zeros(size)

        def rng():
            return Zeros() if zeros else np.random.default_rng(11)

        draws, oracle = geometric_draws(rng(), q, size), geometric_draws_where(rng(), q, size)
        assert draws.dtype == np.int64 and draws.shape == np.shape(oracle)
        assert np.array_equal(draws, oracle)
        if zeros:
            assert np.all(draws == math.floor(math.log(0.5) / math.log(q)))


class TestSparseStep:
    """At small q a step draws the same uniforms but steps only the paths
    with a nonzero draw, those with a uniform at or below 1.01 q."""

    @pytest.mark.parametrize("q,k", [(1 / 200, 2), (1 / 200, 4), (1 / 50, 2)])
    def test_cut_gives_the_draws_of_step_noise(self, q, k):
        """A stub stream of uniforms on either side of q and of the cut
        1.01 q, and of u == 0, each with probability 0.03, else 1/2: the
        sparse step's patterns are those of the same draws through
        geometric_draws and step(noise)."""
        assert 1 - (1 - q) ** (2 * particle_count(k)) < dynamics.SPARSE_SHARE
        cut = 1.01 * q
        crafted = [0.0, q, np.nextafter(q, 0), np.nextafter(q, 1),
                   cut, np.nextafter(cut, 0), np.nextafter(cut, 1), 0.5]

        class Crafted:
            def __init__(self):
                self.pick = np.random.default_rng(5)

            def random(self, size):
                return self.pick.choice(crafted, size, p=[0.03] * 7 + [0.79])

        n_paths = 400
        sparse = DiscreteSimulation(q, k, n_paths, 0)
        dense = DiscreteSimulation(q, k, n_paths, 0)
        sparse.rng, stream = Crafted(), Crafted()
        for _ in range(6):
            sparse.step()
            dense.step([[geometric_draws(stream, q, n_paths) for _ in particles(k)]
                        for _ in "hf"])
            assert sparse.patterns() == dense.patterns()
        assert sparse.patterns() != DiscreteSimulation(q, k, n_paths, 0).patterns()

    @pytest.mark.parametrize("q,k", [(1 / 200, 2), (1 / 200, 6), (1 / 50, 3), (0.3, 2), (0.99, 3)])
    def test_sparse_and_dense_runs_are_equal(self, q, k, monkeypatch):
        """From one seed the sparse and the dense step give the same
        patterns, whichever form SPARSE_SHARE would choose."""
        runs = []
        for share in (0.0, 2.0):  # always dense, always sparse
            monkeypatch.setattr(dynamics, "SPARSE_SHARE", share)
            sim = DiscreteSimulation(q, k, 2000, seed=k)
            sim.run(30)
            runs.append(sim.patterns())
        assert runs[0] == runs[1]

    def test_small_q_transforms_few_uniforms(self, monkeypatch):
        """At q = 1/200, k = 2 about 2% of paths move in a step, and only
        their uniforms reach the geometric transform."""
        seen = []

        def counted(u, q):
            seen.append(np.size(u))
            return real(u, q)

        real = dynamics.geometric_of
        monkeypatch.setattr(dynamics, "geometric_of", counted)
        n_paths, steps = 20_000, 20
        DiscreteSimulation(1 / 200, 2, n_paths, seed=1).run(steps)
        dense = steps * 2 * particle_count(2) * n_paths
        assert 0 < sum(seen) < dense / 8

    def test_sparse_step_holds_one_array_of_uniforms(self):
        """At q = 1/200, k = 2 and 2e5 paths a step holds one array of
        uniforms (1.5 MiB) and a byte per path and draw: its traced peak
        reads 2.3 MiB, under two arrays of uniforms."""
        n_paths = 200_000
        DiscreteSimulation(1 / 200, 2, 10, 1).run(2)  # first-use allocations
        sim = DiscreteSimulation(1 / 200, 2, n_paths, 1)
        sim.run(2)
        tracemalloc.start()
        try:
            sim.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n_paths


class TestCtmc:
    def test_right_pushes_stack(self):
        # rows 1..3 all at 0; the row-1 particle jumping right pushes the
        # whole equal column below it, down to (3, 1) of the top row
        k = 3
        y = [0, 0, 0, 0]  # (1, 1), (2, 1), (3, 1), (3, 2)
        ctmc_apply_event(y, 0, True, k)
        assert as_pattern(y, k) == ((1,), (1,), (1, 0))

    def test_right_blocked_by_upper_left(self):
        k = 3
        y = [0, 0, 0, 0]
        # (3, 2) sits level with its upper-left neighbour (2, 1): blocked
        ctmc_apply_event(y, 3, True, k)
        assert y == [0, 0, 0, 0]
        # (3, 1) has no upper-left neighbour and moves freely
        ctmc_apply_event(y, 2, True, k)
        assert y[2] == 1

    def test_wall_reflection(self):
        y = [0]
        ctmc_apply_event(y, 0, False, 1)
        assert y[0] == 1  # reflected into a right attempt
        ctmc_apply_event(y, 0, False, 1)
        assert y[0] == 0  # ordinary left move

    def test_left_blocked_by_row_above(self):
        y = [1, 1]
        ctmc_apply_event(y, 1, False, 2)
        assert y[1] == 1  # blocked: equal to the particle above

    def test_chain_end_below_the_top_row_is_not_a_top_move(self):
        # (1, 1) moves left; the diagonal below it, (2, 2), does not exist,
        # so the chain ends in row 1 and the top row stays
        k = 3
        y = flat(((1,), (1,), (1, 0)))
        ctmc_apply_event(y, 0, False, k)
        assert as_pattern(y, k) == ((0,), (1,), (1, 0))

    def test_final_patterns_valid(self):
        # one path past a chunk of CTMC_CHUNK paths
        pats = ctmc_simulate(4, 1.5, CTMC_CHUNK + 1, seed=3)
        assert len(pats) == CTMC_CHUNK + 1
        for pat in pats:
            assert pattern_is_valid(pat)

    def test_interlacing_preserved_under_all_events(self):
        rng = np.random.default_rng(11)
        k = 5
        n = particle_count(k)
        y = [0] * n
        for _ in range(3000):
            p = int(rng.integers(n))
            ctmc_apply_event(y, p, rng.integers(2) == 0, k)
            assert pattern_is_valid(as_pattern(y, k))

    def test_event_rule_is_pinned(self):
        """Every right and left ring of every particle, from every
        non-negative pattern with k <= 5 rows and top row in the box of
        radius 3, against a digest of the event rule's outputs."""
        lines = []
        for k in range(1, 6):
            for top in states_in_box(k, 3):
                for pat in enumerate_patterns(k, top):
                    if any(v < 0 for row in pat for v in row):
                        continue
                    for p, (i, j) in enumerate(particles(k)):
                        for right in (True, False):
                            y = flat(pat)
                            ctmc_apply_event(y, p, right, k)
                            direction = "right" if right else "left"
                            lines.append(f"{pat}:{i},{j}:{direction}:{as_pattern(y, k)}")
        assert len(lines) == 20188
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "29e3a77028ebd4e3e7af50359203926599d215d4e8fb7b963679317aeecb98fb"
        )

    def test_memory_does_not_grow_with_the_horizon(self):
        """One path at t_max = 1e4 rings about 2e4 times; drawn a window at
        a time, its peak memory stays within 0.5 MB of a run at t_max = 100."""
        ctmc_simulate(1, 1.0, 1, seed=8)  # first-use allocations, not measured
        peaks = []
        for t_max in (100.0, 10_000.0):
            tracemalloc.start()
            try:
                ctmc_simulate(1, t_max, 1, seed=8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * 2**20

    def test_ctmc_simulate_is_pinned(self):
        """Final patterns for k = 1..5 against a digest; this pins the event
        table of ctmc_simulate.  The digest depends on numpy's Generator
        streams for poisson and integers draws and on how the rings are
        batched, CTMC_CHUNK paths by one window of time (recorded with
        numpy 2.4.6)."""
        parts = []
        for k in range(1, 6):
            parts.append(repr((k, ctmc_simulate(k, 1.5, 500, seed=k + 10))))
        assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == (
            "a981c97c36f68ea4b9511c36d503cc26bd58167545971e5fe3126e8ee2312db1"
        )


class TestGenerator:
    @pytest.mark.parametrize("k,radius", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 2)])
    def test_event_rule_gives_the_generator(self, k, radius):
        """Exactly: from every top row in the box, the rates read off the
        event rule, every clock rung once on every pattern below it, are
        the ratio-of-dimensions rates of generator_rate, wall doubling
        included, and every beta with a positive rate is reached."""
        for lam in states_in_box(k, radius):
            expected = {beta: generator_rate(k, lam, beta) for beta in unit_steps(lam)}
            assert top_row_rates(k, lam) == {b: r for b, r in expected.items() if r > 0}

    def test_unit_rates_for_k1(self):
        # s_1 = 1 everywhere: rate 1, except doubled out of the wall at 0
        assert generator_rate(1, (0,), (1,)) == 2
        assert generator_rate(1, (2,), (3,)) == 1
        assert generator_rate(1, (2,), (1,)) == 1

    def test_rate_ratios(self):
        # k = 2: s_2(x) = 2x + 1
        assert generator_rate(2, (1,), (2,)) == Q(5, 3)
        assert generator_rate(2, (1,), (0,)) == Q(1, 3)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            generator_rate(2, (1,), (3,))

    def test_boundary_rate_zero(self):
        assert generator_rate(2, (0,), (-1,)) == 0

    def test_matrix_rows_nonpositive_sums(self):
        states, a = generator_matrix(2, 6)
        sums = a.sum(axis=1)
        assert np.all(sums <= 1e-12)
        # interior rows are conservative
        idx = states.index((3,))
        assert abs(sums[idx]) < 1e-12

    def test_semigroup_is_substochastic_law(self):
        law = semigroup_law(2, 15, 0.7)
        total = sum(law.values())
        assert 0.999 < total <= 1 + 1e-9
        assert all(v >= 0 for v in law.values())

    @pytest.mark.parametrize("k,radius", [(1, 30), (2, 25), (3, 20), (4, 20), (5, 10)])
    def test_semigroup_law_matches_expm(self, k, radius):
        """The Weyl-group determinant is never below the killed process's
        law, the mass it adds is within what the killed process lost, and
        where the box holds all but a negligible mass (k <= 4) the two agree
        to roundoff."""
        law = semigroup_law(k, radius, 1.0)
        oracle = expm_law(k, radius, 1.0)
        gap = [law.get(s, 0.0) - oracle.get(s, 0.0) for s in states_in_box(k, radius)]
        assert min(gap) >= -1e-14
        assert sum(gap) <= 1 - sum(oracle.values()) + 1e-14
        if k <= 4:
            assert max(map(abs, gap)) <= 1e-13

    def test_semigroup_law_at_time_zero_is_the_start(self):
        assert semigroup_law(3, 3, 0.0) == {(0, 0): 1.0}

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_semigroup_law_rejects_bad_time(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            semigroup_law(2, 6, t)

    def test_semigroup_law_refuses_a_time_whose_law_is_not_finite(self):
        """At t = 1e12 every Bessel entry, and so every determinant, is NaN:
        refused, where dropping them gave an empty law.  At t = 1e6 the law
        is finite and returned."""
        with pytest.raises(ValueError, match="too large"):
            semigroup_law(2, 5, 1e12)
        law = semigroup_law(2, 5, 1e6)
        assert law and all(math.isfinite(p) and p > 0 for p in law.values())

    def test_semigroup_law_refuses_k_0(self):
        with pytest.raises(ValueError, match="need k >= 1"):
            semigroup_law(0, 5, 1.0)

    def test_ctmc_top_row_law_at_odd_k(self):
        """The simulated top row at k = 3, t = 1 against the Weyl-group law,
        whose odd-k fold over the sign of the last coordinate no other Monte
        Carlo check reaches.  Seed 911 was not used while sizing the run."""
        rep = experiment_ctmc_marginal(
            k=3, t_max=1.0, n_paths=25_000, seed=911, radius=20, threshold=0.03
        )
        assert rep.passed, rep.summary()

    def test_ctmc_top_row_law_across_windows(self):
        """The simulated top row at k = 1, t = 33, a horizon of 66 rings per
        path on average and so three windows of draws, against the
        Weyl-group law.  The threshold was sized on seeds 1..6; seed 3301
        was not used while sizing it."""
        assert 2 * 33.0 > 2 * CTMC_WINDOW_RINGS
        rep = experiment_ctmc_marginal(
            k=1, t_max=33.0, n_paths=6000, seed=3301, radius=60, threshold=0.04
        )
        assert rep.truncation_deficit < 1e-12
        assert rep.passed, rep.summary()
