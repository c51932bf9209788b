"""Particle dynamics on Gelfand-Tsetlin patterns.

Two models share the same blocking/pushing geometry:

* a discrete-time model where free particles make geometric jumps left at
  half-integer times and right at integer times, while wall particles move
  by a symmetrized two-sided jump at integer times only;
* a continuous-time model where every particle attempts unit jumps after
  independent rate-1 exponential clocks.

Particle (l, j) is the j-th entry of row l.  Both simulators key their
state by particle, and the keys present are the pattern's geometry: the
upper-left neighbour of (l, j) is (l-1, j-1), the particle above it is
(l-1, j), and a wall particle is one with no particle above; it reflects
at 0.  A clock ring of the continuous-time model is one push/block rule:
a right ring is blocked by an equal upper-left neighbour and pushes the
equal column below, a left ring is blocked by an equal particle above and
pushes the equal diagonal below, and a wall particle's left ring at 0
reflects into a right ring.

The single-step updates are pure functions of (state, noise).  The
discrete Monte Carlo simulator is vectorized over paths; a property test
pins the vectorized step to the scalar one.  Both simulators refuse a run
whose expected work is over a fixed budget.

The top row of the continuous-time model is Markov, with the
ratio-of-dimensions rates of `generator_rate`.  Its law at a fixed time,
`semigroup_law`, is in closed form: the reflection sum over the Weyl group
of SO(k+1), one determinant of Bessel functions per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gtpatterns.patterns import Pattern, Row, count_patterns, is_nonneg_row, row_length


def particles(k: int) -> list[tuple[int, int]]:
    """The particles (l, j) of a k-row pattern, row by row."""
    return [(l, j) for l in range(1, k + 1) for j in range(1, row_length(l) + 1)]


def particle_count(k: int) -> int:
    """len(particles(k)), without listing them."""
    return (k + 1) ** 2 // 4


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
    work = 2 * particle_count(k) * (t_max + 1) * n_paths
    if work > MAX_CTMC_EVENTS:
        raise ValueError(
            f"t_max={t_max} with {n_paths} paths is the work of {work:.3g} CTMC events, "
            f"over the budget of {MAX_CTMC_EVENTS:.0e}"
        )


def check_discrete_budget(k: int, steps: float, n_paths: int, what: str) -> None:
    """Refuse a discrete run of `steps` steps whose work,
    particles (steps + STATE_STEPS) (n_paths + STEP_PATHS) particle-steps,
    is over MAX_PARTICLE_STEPS; `what` names the argument that set `steps`."""
    work = particle_count(k) * (steps + STATE_STEPS) * (n_paths + STEP_PATHS)
    if work > MAX_PARTICLE_STEPS:
        raise ValueError(
            f"{what} with {n_paths} paths is the work of {work:.3g} particle-steps, "
            f"over the budget of {MAX_PARTICLE_STEPS:.0e}"
        )


@dataclass(frozen=True)
class NoiseDraw:
    """One full step worth of geometric draws, indexed by particle (l, j)."""

    xi_half: dict[tuple[int, int], int]
    xi_full: dict[tuple[int, int], int]

    @staticmethod
    def zero(k: int) -> "NoiseDraw":
        keys = particles(k)
        return NoiseDraw({key: 0 for key in keys}, {key: 0 for key in keys})


def half_step_left(x: Pattern, noise: NoiseDraw) -> Pattern:
    """Leftward half-step: rows updated downward; free particles jump left
    blocked by the old configuration; pushed particles take the min with the
    upper-left neighbour's new position; wall particles only move if pushed."""
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
            row[i] = max(blockers[i], tilde[i] - noise.xi_half[(l, i + 1)])
        # odd rows: the wall particle keeps its pushed position
        new.append(tuple(row))
    return tuple(new)


def full_step_right(x_half: Pattern, noise: NoiseDraw) -> Pattern:
    """Rightward full-step from the half-step configuration.  Wall particles
    move by |x + xi - xi'| using the pre-drawn pair, blocked above-left."""
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
            row[i] = int(min(cap, tilde[i] + noise.xi_full[(l, i + 1)]))
        if l % 2 == 1:
            j = m - 1
            moved = abs(half[j] + noise.xi_full[(l, m)] - noise.xi_half[(l, m)])
            cap = upper_half[m - 2] if upper_half is not None else math.inf
            row[j] = int(min(moved, cap))
        new.append(tuple(row))
    return tuple(new)


def discrete_step(x: Pattern, noise: NoiseDraw) -> tuple[Pattern, Pattern]:
    """One full discrete step: (state at n+1/2, state at n+1)."""
    x_half = half_step_left(x, noise)
    return x_half, full_step_right(x_half, noise)


# ---------------------------------------------------------------------------
# vectorized discrete-time Monte Carlo
# ---------------------------------------------------------------------------

def geometric_draws(rng: np.random.Generator, q: float, size) -> np.ndarray:
    """Inverse-CDF geometric draws with pmf q^x (1-q), x >= 0."""
    u = rng.random(size)
    # guard u == 0 (log(0)); probability zero but numpy can return it
    u = np.where(u == 0.0, 0.5, u)
    return np.floor(np.log(u) / np.log(q)).astype(np.int64)


class DiscreteSimulation:
    """Vectorized simulation of the discrete-time model over many paths.

    State is held as one integer array of shape (n_paths,) per particle.
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

    def step(self, noise: tuple[dict, dict] | None = None) -> None:
        if noise is None:
            q, rng, n = self.q, self.rng, self.n_paths
            xi_half = {key: geometric_draws(rng, q, n) for key in self.state}
            xi_full = {key: geometric_draws(rng, q, n) for key in self.state}
        else:
            xi_half, xi_full = noise

        # left half-step
        old = self.state
        half: dict[tuple[int, int], np.ndarray] = {}
        for l, j in old:
            tilde = old[(l, j)]
            if (l - 1, j - 1) in old:
                tilde = np.minimum(tilde, half[(l - 1, j - 1)])
            # a free particle jumps, blocked by the old particle above; a
            # wall particle only moves if pushed
            if (l - 1, j) in old:
                tilde = np.maximum(old[(l - 1, j)], tilde - xi_half[(l, j)])
            half[(l, j)] = tilde

        # right full-step
        new: dict[tuple[int, int], np.ndarray] = {}
        for l, j in old:
            if (l - 1, j) in old:
                moved = np.maximum(new[(l - 1, j)], half[(l, j)]) + xi_full[(l, j)]
            else:
                moved = np.abs(half[(l, j)] + xi_full[(l, j)] - xi_half[(l, j)])
            if (l - 1, j - 1) in old:
                moved = np.minimum(moved, half[(l - 1, j - 1)])
            new[(l, j)] = moved
        self.state = new

    def run(self, horizon: int) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        check_discrete_budget(self.k, horizon, self.n_paths, f"horizon={horizon}")
        for _ in range(horizon):
            self.step()

    def row(self, l: int) -> np.ndarray:
        """Row l across paths, shape (n_paths, row_length(l))."""
        return np.stack(
            [self.state[(l, j)] for j in range(1, row_length(l) + 1)], axis=1
        )

    def patterns(self) -> list[Pattern]:
        """Each path's pattern, rows as tuples of Python ints.  Each row is
        converted column by column with tolist(), then zipped per path."""
        rows = [zip(*self.row(l).T.tolist()) for l in range(1, self.k + 1)]
        return list(zip(*rows))


# ---------------------------------------------------------------------------
# continuous-time model
# ---------------------------------------------------------------------------

def ctmc_apply_event(y: dict, i: int, j: int, right: bool) -> None:
    """Apply one clock ring of particle (i, j) to the state y, rightward if
    right, else leftward.  An equal blocker, (i-1, j-1) for a right ring and
    (i-1, j) for a left one, stops it; otherwise the mover and the chain of
    equal particles below it, along (i+1, j) or (i+1, j+1), move one unit.
    A wall particle's left ring at 0 reflects into a right ring.  The
    neighbours are read from the keys of y."""
    value = y[(i, j)]
    if not right and value == 0 and (i - 1, j) not in y:
        right = True
    blocker = (i - 1, j - 1) if right else (i - 1, j)
    if y.get(blocker) == value:
        return
    step, dj = (1, 0) if right else (-1, 1)
    while y.get((i, j)) == value:
        y[(i, j)] += step
        i += 1
        j += dj


def ctmc_state_as_pattern(y: dict, k: int) -> Pattern:
    return tuple(
        tuple(y[(i, j)] for j in range(1, row_length(i) + 1))
        for i in range(1, k + 1)
    )


@dataclass
class CtmcResult:
    patterns: list[Pattern]
    # occupation time and outgoing jump counts of the top row, for
    # empirical generator estimates
    top_row_time: dict[Row, float]
    top_row_jumps: dict[tuple[Row, Row], int]


def ctmc_simulate(k: int, t_max: float, n_paths: int, seed: int) -> CtmcResult:
    """Event-driven simulation: each particle carries two rate-1 clocks, so
    the next event is exponential with the total rate and the mover is
    uniform among (particle, direction) pairs."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if k < 1 or n_paths < 1:
        raise ValueError(f"need k >= 1 and n_paths >= 1, got k={k}, n_paths={n_paths}")
    check_ctmc_budget(k, t_max, n_paths)
    rng = np.random.default_rng(seed)
    keys = particles(k)
    top_keys = [key for key in keys if key[0] == k]
    # event 2n is particle n's right clock, event 2n+1 its left clock
    events = [(i, j, right) for i, j in keys for right in (True, False)]
    total_rate = len(events)
    finals: list[Pattern] = []
    top_time: dict[Row, float] = {}
    top_jumps: dict[tuple[Row, Row], int] = {}
    for _ in range(n_paths):
        y = {key: 0 for key in keys}
        top = (0,) * len(top_keys)
        t = 0.0
        while True:
            dt = rng.exponential(1.0 / total_rate)
            if t + dt > t_max:
                top_time[top] = top_time.get(top, 0.0) + (t_max - t)
                break
            i, j, right = events[rng.integers(0, total_rate)]
            ctmc_apply_event(y, i, j, right)
            after = tuple(y[key] for key in top_keys)
            top_time[top] = top_time.get(top, 0.0) + dt
            if after != top:
                jump = (top, after)
                top_jumps[jump] = top_jumps.get(jump, 0) + 1
                top = after
            t += dt
        finals.append(ctmc_state_as_pattern(y, k))
    return CtmcResult(finals, top_time, top_jumps)


# ---------------------------------------------------------------------------
# the top-row marginal: its generator and its law at a fixed time
# ---------------------------------------------------------------------------

def generator_rate(k: int, lam: Row, beta: Row) -> Fraction:
    """Jump rate of the top-row process from lam to beta = lam +- e_i.

    Wall reflection doubles the rate out of a zero wall coordinate when k
    is odd.  Rows that leave the weight cone get rate 0.
    """
    r = row_length(k)
    if len(lam) != r or len(beta) != r:
        raise ValueError(f"rows must have length {r}")
    diffs = [beta[i] - lam[i] for i in range(r)]
    nonzero = [i for i, d in enumerate(diffs) if d != 0]
    if len(nonzero) != 1 or abs(diffs[nonzero[0]]) != 1:
        raise ValueError("beta must be a unit-step neighbour of lam")
    if not is_nonneg_row(beta):
        return Fraction(0)
    rate = Fraction(count_patterns(k, beta), count_patterns(k, lam))
    if k % 2 == 1 and lam[-1] == 0 and beta[-1] == 1:
        rate *= 2
    return rate


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

    states = states_in_box(k, radius)
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    r = row_length(k)
    rho = np.arange(r - 1, -1, -1) + (0.5 if k % 2 == 0 else 0.0)
    beta = np.array(states)
    x = (beta + rho)[:, :, None]
    law = np.linalg.det(ive(x - rho, 2 * t) - (-1) ** k * ive(x + rho, 2 * t))
    law *= [count_patterns(k, s) for s in states]
    if k % 2 == 1:
        law[beta[:, -1] == 0] /= 2
    return {s: float(p) for s, p in zip(states, law) if p > 0}
