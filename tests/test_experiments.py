"""Experiment harnesses: argument checks come before the Monte Carlo."""

from fractions import Fraction

import pytest

from gtpatterns import experiments


@pytest.fixture
def no_monte_carlo(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before the arguments were checked")

    monkeypatch.setattr(experiments.DiscreteSimulation, "run", fail)
    monkeypatch.setattr(experiments, "ctmc_simulate", fail)


@pytest.mark.parametrize("horizon,radius", [(3, -1), (0, 10)])
def test_markov_marginal_checks_before_simulating(no_monte_carlo, horizon, radius):
    with pytest.raises(ValueError):
        experiments.experiment_markov_marginal(
            k=3, horizon=horizon, q=Fraction(1, 2), n_paths=10, seed=1, radius=radius,
            threshold=0.1,
        )


def test_ctmc_marginal_checks_before_simulating(no_monte_carlo):
    with pytest.raises(ValueError):
        experiments.experiment_ctmc_marginal(
            k=2, t_max=1.0, n_paths=10, seed=1, radius=-1, threshold=0.1
        )
