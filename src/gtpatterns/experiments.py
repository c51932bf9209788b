"""Theorem-level experiments: Monte Carlo marginals against exact kernels,
and the two parameter limits of the discrete model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from gtpatterns.dynamics import (
    DiscreteSimulation,
    check_ctmc_budget,
    check_discrete_budget,
    ctmc_simulate,
    semigroup_law,
)
from gtpatterns.kernels import (
    check_law_budget,
    n_step_law,
    states_in_box,  # unused here; perfbench/tracer.py patches this name
)
from gtpatterns.patterns import row_length
from gtpatterns.spectra import simulate_eigen_chain
from gtpatterns.stats import (
    empirical_law,
    exact_law_to_floats,
    ks_two_sample,
    rows_to_tuples,
    tv_distance,
)


@dataclass
class ComparisonReport:
    name: str
    statistic: str  # "tv" | "ks" | "max-abs"
    value: float
    threshold: float
    sample_sizes: tuple[int, ...]
    truncation_deficit: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold and self.truncation_deficit <= self.threshold

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: {self.statistic}={self.value:.5f} "
            f"(threshold {self.threshold}, deficit {self.truncation_deficit:.2e}, "
            f"samples {self.sample_sizes})"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "value": self.value,
            "threshold": self.threshold,
            "passed": self.passed,
            "sample_sizes": list(self.sample_sizes),
            "truncation_deficit": self.truncation_deficit,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def experiment_markov_marginal(
    k: int,
    horizon: int,
    q: Fraction,
    n_paths: int,
    seed: int,
    radius: int,
    threshold: float,
) -> ComparisonReport:
    """Empirical law of the top row after `horizon` steps against the exact
    n-step law of the top-row kernel."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    # the argument and budget checks come first, so a bad one costs no
    # Monte Carlo and no exact law
    sim = DiscreteSimulation(q, k, n_paths, seed)
    check_law_budget(k, horizon, radius, "horizon")
    check_discrete_budget(k, horizon, n_paths, f"horizon={horizon}")
    exact = n_step_law(Fraction(q), k, horizon, radius)
    sim.run(horizon)
    emp = empirical_law(rows_to_tuples(sim.row(k)))
    tv = tv_distance(emp, exact_law_to_floats(exact.support))
    return ComparisonReport(
        name=f"markov-marginal k={k} n={horizon} q={q}",
        statistic="tv",
        value=tv,
        threshold=threshold,
        sample_sizes=(n_paths,),
        truncation_deficit=float(exact.tail_deficit),
    )


def experiment_ctmc_marginal(
    k: int,
    t_max: float,
    n_paths: int,
    seed: int,
    radius: int,
    threshold: float,
) -> ComparisonReport:
    """Empirical top-row law of the exponential-clock model against its
    exact law at t_max, the Weyl-group reflection sum of `semigroup_law`;
    the deficit is the exact mass outside the box."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    ref = semigroup_law(k, radius, t_max)  # checks radius before the Monte Carlo
    res = ctmc_simulate(k, t_max, n_paths, seed)
    emp = empirical_law([p[k - 1] for p in res.patterns])
    tv = tv_distance(emp, ref)
    return ComparisonReport(
        name=f"ctmc-marginal k={k} t={t_max}",
        statistic="tv",
        value=tv,
        threshold=threshold,
        sample_sizes=(n_paths,),
        truncation_deficit=float(1.0 - sum(ref.values())),
    )


def estimate_wall_rate(t_max: float, n_paths: int, seed: int) -> float:
    """Empirical jump rate 0 -> 1 of the single-particle model, which the
    wall reflection doubles to 2."""
    res = ctmc_simulate(1, t_max, n_paths, seed)
    time_at_zero = res.top_row_time.get((0,), 0.0)
    jumps = res.top_row_jumps.get(((0,), (1,)), 0)
    if time_at_zero == 0.0:
        raise RuntimeError("no occupation time at zero; increase n_paths")
    return jumps / time_at_zero


def experiment_small_q(
    k: int,
    big_n: int,
    t_max: float,
    n_paths_discrete: int,
    n_paths_ctmc: int,
    seed: int,
    threshold: float,
) -> ComparisonReport:
    """With q = 1/N the discrete model run for [N t] steps approaches the
    exponential-clock model at time t; compare full-pattern laws by TV."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if big_n < 2:
        raise ValueError("big_n must be >= 2")
    # both budgets before any Monte Carlo, so that the message names t_max
    check_discrete_budget(k, big_n * t_max, n_paths_discrete, f"t_max={t_max} at N={big_n}")
    check_ctmc_budget(k, t_max, n_paths_ctmc)
    sim = DiscreteSimulation(1.0 / big_n, k, n_paths_discrete, seed)
    sim.run(int(big_n * t_max))
    x_law = empirical_law(sim.patterns())
    res = ctmc_simulate(k, t_max, n_paths_ctmc, seed + 1)
    y_law = empirical_law(res.patterns)
    tv = tv_distance(x_law, y_law)
    return ComparisonReport(
        name=f"small-q k={k} N={big_n} t={t_max}",
        statistic="tv",
        value=tv,
        threshold=threshold,
        sample_sizes=(n_paths_discrete, n_paths_ctmc),
    )


def experiment_large_q(
    k: int,
    big_n: int,
    n_steps: int,
    n_samples: int,
    seed: int,
    threshold: float,
) -> ComparisonReport:
    """With q = 1 - 1/N the rescaled top row X^k(n)/N approaches the
    eigenvalue chain with d = k + 1; per-coordinate two-sample KS."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if big_n < 2:
        raise ValueError("big_n must be >= 2")
    d = k + 1
    sim = DiscreteSimulation(1.0 - 1.0 / big_n, k, n_samples, seed)
    sim.run(n_steps)
    xs = sim.row(k) / big_n  # every simulated coordinate is >= 0
    lam = simulate_eigen_chain(d, n_steps, n_samples, seed + 1)[n_steps - 1]
    per_coord = [
        ks_two_sample(xs[:, c], lam[:, c]) for c in range(row_length(k))
    ]
    return ComparisonReport(
        name=f"large-q k={k} N={big_n} n={n_steps}",
        statistic="ks",
        value=max(per_coord),
        threshold=threshold,
        sample_sizes=(n_samples, n_samples),
        details={"per_coordinate": per_coord},
    )
