"""Particle dynamics on Gelfand-Tsetlin patterns.

Two models share the same blocking/pushing geometry:

* a discrete-time model where free particles make geometric jumps left at
  half-integer times and right at integer times, while wall particles move
  by a symmetrized two-sided jump at integer times only;
* a continuous-time model where every particle attempts unit jumps after
  independent rate-1 exponential clocks.

Particle (l, j) is the j-th entry of row l.  Both simulators index it by
its place in `particles(k)` and read the pattern's geometry from one cached
table, `neighbours(k)`; a wall particle has no particle above and reflects
at 0.  `as_patterns` turns either simulator's state into patterns.

The discrete simulator is vectorized over paths, one array per particle;
its step also takes given noise, so a property test pins it to the scalar
step, an oracle kept in tests/oracles.py.  At small q a step touches only
the few paths with a nonzero draw; a path with none stays put, so the output
is the dense step's, bit for bit.  The continuous-time simulator
holds each path's state as a list of ints, applies its clock rings, drawn
by uniformization, one event rule call each, and returns only the final
patterns.  Both simulators refuse a run whose expected work is over a fixed
budget.

The top row of the continuous-time model is Markov, with the
ratio-of-dimensions rates dim(beta) / dim(lam) of SO(k+1), doubled out of
a zero wall coordinate at odd k, which a test reads off the event rule.
Its law at a fixed time, `semigroup_law`, is in closed form: the
reflection sum over the Weyl group of SO(k+1), one determinant of Bessel
functions per state.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import islice
from operator import index

import numpy as np

from gtpatterns.patterns import (
    Pattern, Row, check_budget, row_length, weyl_dimension,
)


def particles(k: int) -> list[tuple[int, int]]:
    """The particles (l, j) of a k-row pattern, row by row."""
    return [(l, j) for l in range(1, k + 1) for j in range(1, row_length(l) + 1)]


def particle_count(k: int) -> int:
    """len(particles(k)), without listing them."""
    return (k + 1) ** 2 // 4


@cache
def neighbours(k: int) -> tuple[tuple[int | None, ...], ...]:
    """Per particle (l, j) of particles(k), the indices in particles(k) of
    (l-1, j-1), (l-1, j), (l+1, j) and (l+1, j+1), or None where none is."""
    at = {key: p for p, key in enumerate(particles(k))}
    near = ((-1, -1), (-1, 0), (1, 0), (1, 1))
    return tuple(tuple(at.get((l + a, j + b)) for a, b in near) for l, j in particles(k))


def as_patterns(columns, k: int) -> list[Pattern]:
    """Each path's pattern, rows as tuples, from one sequence of values
    across paths per particle, in particles(k) order."""
    rows = [columns[particle_count(l - 1):particle_count(l)] for l in range(1, k + 1)]
    return list(zip(*[zip(*row) for row in rows]))


# Fixed work budgets, each at least 100 times the largest run in the test
# suite and the benchmark (8e5 CTMC events, 9.4e7 particle-steps), so that a
# huge time, horizon or path count is refused at once instead of running
# for hours or exhausting memory.  Besides its clock rings or
# particle-steps, a run pays per particle for the state each path holds
# and for each discrete step's fixed Python cost (about 25 us, the vector
# work of 1000 paths), each counted in the budget's unit.
MAX_CTMC_EVENTS = 10**8
MAX_PARTICLE_STEPS = 10**10
STEP_PATHS = 1000  # a discrete step's fixed cost, in paths
STATE_STEPS = 64  # a discrete path's state, in steps


def check_ctmc_budget(k: int, t_max: float, n_paths: int) -> None:
    """Refuse a CTMC run whose work, 2 particles (t_max + 1) n_paths rings
    (each path's state and final pattern counted as one more unit of time),
    is over MAX_CTMC_EVENTS."""
    work = 2 * particle_count(k) * (Fraction(t_max) + 1) * n_paths
    what = f"t_max={t_max} with {n_paths} paths is the work of"
    check_budget(work, MAX_CTMC_EVENTS, what, "CTMC events")


def check_discrete_budget(k: int, steps: float, n_paths: int, what: str) -> None:
    """Refuse a discrete run of `steps` steps whose work,
    particles (steps + STATE_STEPS) (n_paths + STEP_PATHS) particle-steps,
    is over MAX_PARTICLE_STEPS; `what` names the argument that set `steps`.
    n_paths is counted as a Python int, so a numpy count cannot wrap."""
    work = particle_count(k) * (Fraction(steps) + STATE_STEPS) * (index(n_paths) + STEP_PATHS)
    what = f"{what} with {n_paths} paths is the work of"
    check_budget(work, MAX_PARTICLE_STEPS, what, "particle-steps")


# ---------------------------------------------------------------------------
# vectorized discrete-time Monte Carlo
# ---------------------------------------------------------------------------

# A step moves only the paths with a nonzero draw when their expected share,
# 1 - (1 - q)^(2 particles), is below this; measured, it is faster to 0.15.
SPARSE_SHARE = 1 / 8


def geometric_draws(rng: np.random.Generator, q: float, size) -> np.ndarray:
    """Inverse-CDF geometric draws with pmf q^x (1-q), x >= 0, of rng.random(size)."""
    return geometric_of(rng.random(size), q)


def geometric_of(u: np.ndarray, q: float) -> np.ndarray:
    """The draws floor(log(u) / log(q)) of the uniforms u, computed in u: it
    allocates only the u == 0 mask and the result."""
    # guard u == 0 (log(0)); probability zero but numpy can return it
    u[u == 0.0] = 0.5
    np.log(u, out=u)
    u /= np.log(q)
    return np.floor(u, out=u).astype(np.int64)


class DiscreteSimulation:
    """Vectorized simulation of the discrete-time model over many paths.

    State is held as one integer array of shape (n_paths,) per particle, keyed
    (l, j); a step at small q writes only its moving paths into those arrays.
    """

    def __init__(self, q: Fraction | float, k: int, n_paths: int, seed: int):
        self.q = float(q)
        if not 0 < self.q < 1:
            raise ValueError("q must be in (0,1)")
        if k < 1 or n_paths < 1:
            raise ValueError(f"need k >= 1 and n_paths >= 1, got k={k}, n_paths={n_paths}")
        check_discrete_budget(k, 0, n_paths, "the state")
        self.k = k
        self.n_paths = n_paths
        self.rng = np.random.default_rng(seed)
        self.state = {key: np.zeros(n_paths, dtype=np.int64) for key in particles(k)}

    def step(self, noise: tuple[list, list] | None = None) -> None:
        """One step; noise, if given, is (xi_half, xi_full): draws in
        particles(k) order.  Else each draw is one rng.random(n_paths), the
        half-step's first, and when few paths can move (SPARSE_SHARE) only
        those with a nonzero draw are stepped: both half-steps fix a valid
        pattern whose draws are all 0, so the patterns are the same."""
        keys, q, rng, n = particles(self.k), self.q, self.rng, self.n_paths
        old, table, moving = [self.state[key] for key in keys], neighbours(self.k), None
        if noise is None and 1 - (1 - q) ** (2 * len(old)) < SPARSE_SHARE:
            # u > 1.01 q gives a 0 draw: log(u) - log(q) > log(1.01), so
            # log(u) / log(q) < 1 - 0.0099 / |log q| <= 1 - 1.3e-5 (every
            # double has |log q| < 745), far past the rounding of either
            below, us = np.empty((2 * len(old), n), bool), []
            for row in below:
                u = rng.random(n)
                np.less_equal(u, 1.01 * q, out=row)
                us.append(u[row])
                del u  # one array of uniforms at a time
            moving = np.flatnonzero(below.any(axis=0))
            # row d of xi is draw d at the moving paths, filled in row order
            xi = np.zeros((len(us), len(moving)), np.int64)
            xi[below[:, moving]] = geometric_of(np.concatenate(us), q)
            noise, old = (xi[:len(old)], xi[len(old):]), [column[moving] for column in old]
        elif noise is None:
            noise = [[geometric_draws(rng, q, n) for _ in old] for _ in "hf"]
        xi_half, xi_full = noise

        # left half-step
        half = []
        for p, (upper_left, above, _, _) in enumerate(table):
            tilde = old[p]
            if upper_left is not None:
                tilde = np.minimum(tilde, half[upper_left])
            # a free particle jumps, blocked by the old particle above; a
            # wall particle only moves if pushed
            if above is not None:
                tilde = np.maximum(old[above], tilde - xi_half[p])
            half.append(tilde)

        # right full-step
        new = []
        for p, (upper_left, above, _, _) in enumerate(table):
            if above is not None:
                moved = np.maximum(new[above], half[p]) + xi_full[p]
            else:
                moved = np.abs(half[p] + xi_full[p] - xi_half[p])
            if upper_left is not None:
                moved = np.minimum(moved, half[upper_left])
            new.append(moved)
        if moving is None:
            self.state = dict(zip(keys, new))
        else:
            for key, moved in zip(keys, new):
                self.state[key][moving] = moved

    def run(self, horizon: int) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        check_discrete_budget(self.k, horizon, self.n_paths, f"horizon={horizon}")
        for _ in range(horizon):
            self.step()

    def row(self, l: int) -> np.ndarray:
        """Row l across paths, shape (n_paths, row_length(l))."""
        return np.stack([self.state[(l, j)] for j in range(1, row_length(l) + 1)], axis=1)

    def patterns(self) -> list[Pattern]:
        """Each path's pattern, rows as tuples of Python ints."""
        return as_patterns([self.state[key].tolist() for key in particles(self.k)], self.k)


# ---------------------------------------------------------------------------
# continuous-time model
# ---------------------------------------------------------------------------

def ctmc_apply_event(y: list[int], p: int, right: bool, k: int) -> None:
    """Apply one clock ring of particle p to the state y, the values of
    particles(k) in order, rightward if right, else leftward.  An equal
    blocker, the upper-left neighbour for a right ring and the particle
    above for a left one, stops it; otherwise the mover and the chain of
    equal particles below it, down the column for a right ring and the
    diagonal for a left one, move one unit.  A wall particle's left ring at
    0 reflects into a right ring."""
    table = neighbours(k)
    value = y[p]
    upper_left, above, _, _ = table[p]
    right = right or (value == 0 and above is None)
    blocker, step, down = (upper_left, 1, 2) if right else (above, -1, 3)
    if blocker is not None and y[blocker] == value:
        return
    while p is not None and y[p] == value:
        y[p] += step
        p = table[p][down]


# Rings are drawn for a chunk of at most CTMC_CHUNK paths and one window of
# time at once, the window so short that a path rings CTMC_WINDOW_RINGS times
# in it on average; a batch's memory then depends on neither t_max nor n_paths.
CTMC_CHUNK = 1024
CTMC_WINDOW_RINGS = 32


def ctmc_simulate(k: int, t_max: float, n_paths: int, seed: int) -> list[Pattern]:
    """Each path's pattern at t_max, by uniformization: each particle
    carries two rate-1 clocks, so a path's rings are a Poisson process with
    the total rate and each ring's clock is uniform among the (particle,
    direction) pairs, independent of the ring times.  For a chunk of paths
    and a window of time, each path's ring count is drawn Poisson and its
    clocks uniformly; they are then applied in order, one
    `ctmc_apply_event` call each."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if k < 1 or n_paths < 1:
        raise ValueError(f"need k >= 1 and n_paths >= 1, got k={k}, n_paths={n_paths}")
    check_ctmc_budget(k, t_max, n_paths)
    rng = np.random.default_rng(seed)
    n_particles = particle_count(k)
    # event 2p is particle p's right clock, event 2p+1 its left clock
    events = [(p, right) for p in range(n_particles) for right in (True, False)]
    total_rate = len(events)
    n_windows = math.ceil(total_rate * t_max / CTMC_WINDOW_RINGS)
    tau = t_max / n_windows
    finals: list[Pattern] = []
    for first in range(0, n_paths, CTMC_CHUNK):
        ys = [[0] * n_particles for _ in range(min(CTMC_CHUNK, n_paths - first))]
        for _ in range(n_windows):
            counts = rng.poisson(total_rate * tau, len(ys)).tolist()
            clocks = iter(rng.integers(0, total_rate, sum(counts)).tolist())
            for y, n in zip(ys, counts):
                for c in islice(clocks, n):
                    ctmc_apply_event(y, *events[c], k)
        finals += as_patterns(list(zip(*ys)), k)
    return finals


# ---------------------------------------------------------------------------
# the top-row marginal: its law at a fixed time
# ---------------------------------------------------------------------------

def semigroup_law(k: int, radius: int, t: float) -> dict[Row, float]:
    """Law at time t, from zero, of the top-row process on the rows with
    coordinates <= radius; 1 - sum is the exact mass outside the box.

    Each coordinate steps +-1 at rate 1 each way, killed off the Weyl
    chamber of SO(k+1) and conditioned by the dimension, so the law is the
    reflection sum over the Weyl group, one r x r determinant per state:
    with rho = (r-1, ..., 0) + 1/2 [k even], x = beta + rho and
    f(a) = e^{-2t} I_a(2t), it is
    dim(beta) det[f(x_i - rho_j) - (-1)^k f(x_i + rho_j)].  For odd k the
    determinant sums over both signs of the last coordinate, which counts
    a zero last coordinate twice, so that entry is halved."""
    from scipy.special import ive

    from gtpatterns.kernels import states_in_box

    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    states = states_in_box(k, radius)
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    r = row_length(k)
    rho = np.arange(r - 1, -1, -1) + (0.5 if k % 2 == 0 else 0.0)
    beta = np.array(states)
    x = (beta + rho)[:, :, None]
    with np.errstate(all="ignore"):  # a non-finite law is refused below
        law = np.linalg.det(ive(x - rho, 2 * t) - (-1) ** k * ive(x + rho, 2 * t))
    if not np.isfinite(law).all():
        raise ValueError(f"t={t} is too large: the law's determinants are not finite")
    law *= [weyl_dimension(k + 1, s) for s in states]
    if k % 2 == 1:
        law[beta[:, -1] == 0] /= 2
    return {s: float(p) for s, p in zip(states, law) if p > 0}
