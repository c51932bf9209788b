"""Experiment harnesses: argument checks come before the Monte Carlo."""

import math
from fractions import Fraction

import pytest

from gtpatterns import experiments


@pytest.fixture
def no_monte_carlo(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the Monte Carlo or the exact law ran before the arguments were checked")

    monkeypatch.setattr(experiments.DiscreteSimulation, "run", fail)
    monkeypatch.setattr(experiments, "n_step_law", fail)
    monkeypatch.setattr(experiments, "ctmc_simulate", fail)
    monkeypatch.setattr(experiments, "simulate_eigen_chain", fail)


@pytest.mark.parametrize("horizon,radius", [(3, -1), (0, 10)])
def test_markov_marginal_checks_before_simulating(no_monte_carlo, horizon, radius):
    with pytest.raises(ValueError, match="horizon" if horizon < 1 else "radius"):
        experiments.experiment_markov_marginal(
            k=3, horizon=horizon, q=Fraction(1, 2), n_paths=10, seed=1, radius=radius,
            threshold=0.1,
        )


@pytest.mark.parametrize(
    "k,horizon,radius,name",
    [(1, 10**8, 60, "horizon"), (1, 10**5, 60, "horizon"), (5, 1, 10**5, "radius")],
)
def test_markov_marginal_budgets_come_first(no_monte_carlo, k, horizon, radius, name):
    """The exact law's cost grows with n^2 |box|^2, so a large horizon or
    radius is refused before the law or the simulation runs."""
    with pytest.raises(ValueError, match=f"{name}=.*budget"):
        experiments.experiment_markov_marginal(
            k=k, horizon=horizon, q=Fraction(1, 2), n_paths=10, seed=1, radius=radius,
            threshold=0.1,
        )


def test_ctmc_marginal_checks_before_simulating(no_monte_carlo):
    with pytest.raises(ValueError):
        experiments.experiment_ctmc_marginal(
            k=2, t_max=1.0, n_paths=10, seed=1, radius=-1, threshold=0.1
        )


@pytest.mark.parametrize("threshold", [0, -1, math.nan])
@pytest.mark.parametrize(
    "run",
    [
        lambda t: experiments.experiment_markov_marginal(
            k=2, horizon=1, q=Fraction(1, 2), n_paths=10, seed=1, radius=10, threshold=t
        ),
        lambda t: experiments.experiment_ctmc_marginal(
            k=2, t_max=1.0, n_paths=10, seed=1, radius=10, threshold=t
        ),
        lambda t: experiments.experiment_small_q(
            k=2, big_n=10, t_max=1.0, n_paths_discrete=10, n_paths_ctmc=10, seed=1,
            threshold=t,
        ),
        lambda t: experiments.experiment_large_q(
            k=3, big_n=10, n_steps=2, n_samples=10, seed=1, threshold=t
        ),
    ],
    ids=["markov-marginal", "ctmc-marginal", "small-q", "large-q"],
)
def test_threshold_that_cannot_pass_is_rejected_first(no_monte_carlo, run, threshold):
    with pytest.raises(ValueError, match="threshold must be > 0"):
        run(threshold)


@pytest.mark.parametrize(
    "run,name",
    [
        (
            lambda: experiments.experiment_ctmc_marginal(
                k=2, t_max=-1, n_paths=10, seed=1, radius=10, threshold=0.1
            ),
            "t_max",
        ),
        (
            lambda: experiments.experiment_small_q(
                k=2, big_n=10, t_max=-1, n_paths_discrete=10, n_paths_ctmc=10, seed=1,
                threshold=0.1,
            ),
            "t_max",
        ),
        (
            lambda: experiments.experiment_large_q(
                k=3, big_n=10, n_steps=0, n_samples=10, seed=1, threshold=0.1
            ),
            "n_steps",
        ),
    ],
    ids=["ctmc-marginal", "small-q", "large-q"],
)
def test_time_argument_is_checked_under_its_own_name(no_monte_carlo, run, name):
    with pytest.raises(ValueError, match=name):
        run()


@pytest.mark.parametrize("t_max", [math.nan, math.inf])
@pytest.mark.parametrize(
    "run",
    [
        lambda t: experiments.experiment_ctmc_marginal(
            k=2, t_max=t, n_paths=10, seed=1, radius=10, threshold=0.1
        ),
        lambda t: experiments.experiment_small_q(
            k=2, big_n=10, t_max=t, n_paths_discrete=10, n_paths_ctmc=10, seed=1,
            threshold=0.1,
        ),
    ],
    ids=["ctmc-marginal", "small-q"],
)
def test_non_finite_t_max_is_rejected_first(no_monte_carlo, run, t_max):
    with pytest.raises(ValueError, match="t_max must be finite"):
        run(t_max)


@pytest.mark.parametrize(
    "big_n,t_max,work", [(200, 1e300, "particle-steps"), (10, 1.0, "CTMC events")]
)
def test_small_q_work_budget_is_checked_first(no_monte_carlo, big_n, t_max, work):
    # one discrete path and 1e8 CTMC paths: at t_max = 1 only the CTMC
    # budget is over, while any t_max that puts one CTMC path over it also
    # gives the one discrete path over 1e8 steps, over its own budget
    with pytest.raises(ValueError, match=f"t_max=.* {work}, over the budget"):
        experiments.experiment_small_q(
            k=1, big_n=big_n, t_max=t_max, n_paths_discrete=1, n_paths_ctmc=10**8, seed=1,
            threshold=0.1,
        )
