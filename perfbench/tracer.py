"""Outside-in tracing of gtpatterns: wrappers installed on the package's
public names for the length of one traced repetition, then removed.

Nothing in the package knows about this module.  Spans are kept in memory
and written out by the caller when the run ends.  A span's self time is its
duration minus the time its child spans and timed leaves cover; self time is
summed per layer, the first dotted component of the span name.

Three kinds of wrapper:

* span: records a span (name, parent, start, end) around the call;
* timed leaf: adds a call count and the call's duration, but keeps no span
  record, for functions called hundreds of thousands of times;
* counter: adds a call count and, for kernel pmfs, how many calls returned
  a nonzero value; its time stays in the enclosing span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.max_coord = 0
        # each frame is [span id, time covered by children]
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        span_id = len(self.spans)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.busy[name] += duration
            self.self_time[name.split(".")[0]] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((span_id, parent, name, start, end))


def _span_wrapper(tracer: Tracer, name: str, fn, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if on_call is not None:
            on_call(result, *args, **kwargs)
        return result

    return wrapper


def _timed_leaf(tracer: Tracer, name: str, fn):
    counts, busy, self_time, stack = tracer.counts, tracer.busy, tracer.self_time, tracer._stack
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            counts[name + ".calls"] += 1
            busy[name] += duration
            self_time[layer] += duration
            if stack:
                stack[-1][1] += duration

    return wrapper


def _counter(tracer: Tracer, name: str, fn, nonzero: bool = False):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name + ".calls"] += 1
        result = fn(*args, **kwargs)
        if nonzero and result != 0:
            counts[name + ".nonzero"] += 1
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper on the package; restore the originals on exit."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        _install(tracer, patch)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _install(tracer: Tracer, patch) -> None:
    from gtpatterns import dynamics, experiments, kernels, spectra

    counts = tracer.counts

    # kernels: the identity checkers and the n-step law are spans; the pmfs
    # they call in their inner loops are counters
    def count_transitions(report, *args, **kwargs) -> None:
        counts["kernels.check_intertwining.transitions"] += report.checked

    patch(kernels, "check_intertwining", _span_wrapper(
        tracer, "kernels.check_intertwining", kernels.check_intertwining, count_transitions))
    patch(kernels, "check_desintegration", _span_wrapper(
        tracer, "kernels.check_desintegration", kernels.check_desintegration))
    n_step = _span_wrapper(tracer, "kernels.n_step_law", kernels.n_step_law)
    patch(kernels, "n_step_law", n_step)
    patch(experiments, "n_step_law", n_step)
    for attr in ("r_k_pmf", "s_k_pmf", "q_k_pmf"):
        counted = _counter(tracer, f"kernels.{attr}", getattr(kernels, attr), nonzero=True)
        patch(kernels, attr, counted)
        if hasattr(experiments, attr):
            patch(experiments, attr, counted)

    def count_states(result, *args, **kwargs) -> None:
        counts["kernels.states_in_box"] += len(result)

    states = _span_wrapper(tracer, "kernels.states_in_box", kernels.states_in_box, count_states)
    patch(kernels, "states_in_box", states)
    patch(experiments, "states_in_box", states)

    # dynamics
    def count_particle_steps(result, sim, horizon) -> None:
        counts["dynamics.discrete.particle_steps"] += horizon * sim.n_paths * len(sim.state)
        top = max(int(a.max()) for a in sim.state.values())
        tracer.max_coord = max(tracer.max_coord, top)

    sim_cls = experiments.DiscreteSimulation
    patch(sim_cls, "run", _span_wrapper(tracer, "dynamics.discrete", sim_cls.run, count_particle_steps))

    def count_ctmc_paths(result, k, t_max, n_paths, seed) -> None:
        counts["dynamics.ctmc_simulate.paths"] += n_paths

    patch(experiments, "ctmc_simulate", _span_wrapper(
        tracer, "dynamics.ctmc_simulate", experiments.ctmc_simulate, count_ctmc_paths))
    patch(experiments, "semigroup_law", _span_wrapper(
        tracer, "dynamics.semigroup_law", experiments.semigroup_law))
    patch(dynamics, "ctmc_apply_event", _counter(tracer, "dynamics.ctmc.events", dynamics.ctmc_apply_event))

    # spectra
    def count_path_steps(result, d, n_steps, n_paths, seed) -> None:
        counts["spectra.simulate_eigen_chain.path_steps"] += n_steps * n_paths

    patch(experiments, "simulate_eigen_chain", _span_wrapper(
        tracer, "spectra.simulate_eigen_chain", experiments.simulate_eigen_chain, count_path_steps))

    patch(spectra, "p_d_density", _timed_leaf(tracer, "spectra.p_d_density", spectra.p_d_density))

    # experiments: the harness entry points; their self time is the harness
    # work outside the layers above
    for attr in ("experiment_markov_marginal", "experiment_small_q", "experiment_large_q"):
        patch(experiments, attr, _span_wrapper(tracer, f"experiments.{attr}", getattr(experiments, attr)))

    # stats: every helper experiments imports; samples are those fed into
    # an empirical law or a two-sample statistic
    def count_law_samples(result, samples) -> None:
        counts["stats.samples"] += len(samples)

    def count_ks_samples(result, xs, ys) -> None:
        counts["stats.samples"] += len(xs) + len(ys)

    on_call = {"empirical_law": count_law_samples, "ks_two_sample": count_ks_samples}
    for attr in ("empirical_law", "exact_law_to_floats", "ks_two_sample", "rows_to_tuples", "tv_distance"):
        patch(experiments, attr, _span_wrapper(
            tracer, f"stats.{attr}", getattr(experiments, attr), on_call.get(attr)))
