"""The benchmark tracer (perfbench/tracer.py) wraps package names from the
outside.  These tests load it by path and check that the names it patches
still exist, that traced runs are counted, and that every name is restored
on exit, so a rename it depends on fails here and not only in the benchmark's
own self-test."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from gtpatterns import dynamics, experiments, kernels, spectra

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    owners = (dynamics, experiments, kernels, spectra, experiments.DiscreteSimulation)
    return [dict(vars(owner)) for owner in owners]


def test_traced_runs_are_counted_and_names_restored():
    tracer_module = load_tracer()
    before = namespaces()
    with tracer_module.installed(tracer_module.Tracer()) as tracer:
        experiments.experiment_markov_marginal(
            k=2, horizon=1, q=Fraction(1, 2), n_paths=50, seed=1, radius=6, threshold=1.0
        )
        experiments.experiment_small_q(
            k=2, big_n=10, t_max=0.5, n_paths_discrete=50, n_paths_ctmc=50, seed=1,
            threshold=1.0,
        )
        experiments.experiment_large_q(
            k=3, big_n=20, n_steps=2, n_samples=50, seed=1, threshold=1.0
        )
    assert tracer.counts["dynamics.discrete.particle_steps"] > 0
    # the tiny small-q run's 50 CTMC paths at t = 0.5 ring 92 clocks, the sum
    # of its 50 Poisson ring counts; each ring is one ctmc_apply_event call,
    # so a second call per ring shows here
    assert tracer.counts["dynamics.ctmc.events.calls"] == 92
    assert tracer.counts["dynamics.ctmc_simulate.paths"] == 50
    assert tracer.counts["spectra.simulate_eigen_chain.path_steps"] == 100
    after = namespaces()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[name] is value for name, value in old.items())
