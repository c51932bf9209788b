"""One benchmark process: imports the package from the checkout and runs one
workload in one of three modes, printing a JSON object as its last line.

  setup  time the imports a fresh process needs before its first call
  time   untraced repetitions for `--seconds`, each from cold package state
  trace  alternate untraced and traced repetitions, for the per-layer metrics

run.py starts this file with the thread caps and PYTHONPATH set; it is not
meant to be started by hand.  The process pins itself to one CPU.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, installed
from workloads import WORKLOADS, derive_seed

ROOT = Path(__file__).resolve().parents[1]
MIN_REPS = 3

# per-layer metrics: name -> unit.  The end-to-end metric and workload each
# one should move are listed in README.md.
LAYER_UNITS = {
    "patterns.count_patterns.misses": "count",
    "patterns.count_patterns.hit_ratio": "ratio",
    "kernels.self_s": "s",
    "kernels.check_intertwining.busy_s": "s",
    "kernels.check_intertwining.us_per_transition": "us",
    "kernels.check_desintegration.busy_s": "s",
    "kernels.q_k_pmf.calls": "count",
    "kernels.q_k_pmf.nonzero_ratio": "ratio",
    "kernels.s_k_pmf.calls": "count",
    "kernels.s_k_pmf.nonzero_ratio": "ratio",
    "kernels.n_step_law.busy_s": "s",
    "kernels.r_k_pmf.calls": "count",
    "kernels.r_k_pmf.nonzero_ratio": "ratio",
    "kernels.states_in_box": "count",
    "dynamics.self_s": "s",
    "dynamics.discrete.busy_s": "s",
    "dynamics.discrete.ns_per_particle_step": "ns",
    "dynamics.ctmc_simulate.busy_s": "s",
    "dynamics.ctmc_simulate.us_per_path": "us",
    "dynamics.ctmc.events": "count",
    "dynamics.max_coord_over_radius": "ratio",
    "spectra.self_s": "s",
    "spectra.simulate_eigen_chain.busy_s": "s",
    "spectra.simulate_eigen_chain.us_per_path_step": "us",
    "spectra.density_quadrature.busy_s": "s",
    "spectra.p_d_density.calls": "count",
    "spectra.p_d_density.us_per_call": "us",
    "stats.busy_s": "s",
    "stats.ns_per_sample": "ns",
    "experiments.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(t: Tracer, cache, radius: int | None, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (trace.overhead_frac is
    filled in by the caller, which has the untraced walls)."""
    c, busy, own = t.counts, t.busy, t.self_time
    return {
        "patterns.count_patterns.misses": cache.misses,
        "patterns.count_patterns.hit_ratio": _ratio(cache.hits, cache.hits + cache.misses),
        "kernels.self_s": own["kernels"],
        "kernels.check_intertwining.busy_s": busy["kernels.check_intertwining"],
        "kernels.check_intertwining.us_per_transition": 1e6 * _ratio(
            busy["kernels.check_intertwining"], c["kernels.check_intertwining.transitions"]),
        "kernels.check_desintegration.busy_s": busy["kernels.check_desintegration"],
        "kernels.q_k_pmf.calls": c["kernels.q_k_pmf.calls"],
        "kernels.q_k_pmf.nonzero_ratio": _ratio(c["kernels.q_k_pmf.nonzero"], c["kernels.q_k_pmf.calls"]),
        "kernels.s_k_pmf.calls": c["kernels.s_k_pmf.calls"],
        "kernels.s_k_pmf.nonzero_ratio": _ratio(c["kernels.s_k_pmf.nonzero"], c["kernels.s_k_pmf.calls"]),
        "kernels.n_step_law.busy_s": busy["kernels.n_step_law"],
        "kernels.r_k_pmf.calls": c["kernels.r_k_pmf.calls"],
        "kernels.r_k_pmf.nonzero_ratio": _ratio(c["kernels.r_k_pmf.nonzero"], c["kernels.r_k_pmf.calls"]),
        "kernels.states_in_box": c["kernels.states_in_box"],
        "dynamics.self_s": own["dynamics"],
        "dynamics.discrete.busy_s": busy["dynamics.discrete"],
        "dynamics.discrete.ns_per_particle_step": 1e9 * _ratio(
            busy["dynamics.discrete"], c["dynamics.discrete.particle_steps"]),
        "dynamics.ctmc_simulate.busy_s": busy["dynamics.ctmc_simulate"],
        "dynamics.ctmc_simulate.us_per_path": 1e6 * _ratio(
            busy["dynamics.ctmc_simulate"], c["dynamics.ctmc_simulate.paths"]),
        "dynamics.ctmc.events": c["dynamics.ctmc.events.calls"],
        "dynamics.max_coord_over_radius": _ratio(t.max_coord, radius or 0),
        "spectra.self_s": own["spectra"],
        "spectra.simulate_eigen_chain.busy_s": busy["spectra.simulate_eigen_chain"],
        "spectra.simulate_eigen_chain.us_per_path_step": 1e6 * _ratio(
            busy["spectra.simulate_eigen_chain"], c["spectra.simulate_eigen_chain.path_steps"]),
        "spectra.density_quadrature.busy_s": busy["spectra.density_quadrature"],
        "spectra.p_d_density.calls": c["spectra.p_d_density.calls"],
        "spectra.p_d_density.us_per_call": 1e6 * _ratio(
            busy["spectra.p_d_density"], c["spectra.p_d_density.calls"]),
        "stats.busy_s": own["stats"],
        "stats.ns_per_sample": 1e9 * _ratio(own["stats"], c["stats.samples"]),
        "experiments.self_s": own["experiments"],
        "trace.wall_s": wall,
        "trace.unattributed_frac": 1.0 - sum(own.values()) / wall,
    }


class Runner:
    """Repetitions of one workload, each from cold package state, with the
    gate applied to every output."""

    def __init__(self, name: str, size: str, seed: int) -> None:
        from gtpatterns import patterns

        self.workload = WORKLOADS[name]
        for module in self.workload.modules:
            importlib.import_module(module)
        self.params = self.workload.sizes[size]
        self.seed = derive_seed(name, seed)
        self.cache = patterns.count_patterns
        self.checks: list[tuple[str, bool]] = []
        self.first_output: dict | None = None

    def rep(self, tracer: Tracer | None = None) -> float:
        self.cache.cache_clear()
        gc.collect()
        w, p = self.workload, self.params
        if tracer is None:
            start = time.perf_counter()
            out = w.run(p, self.seed)
            wall = time.perf_counter() - start
        else:
            with installed(tracer):
                start = time.perf_counter()
                out = w.run(p, self.seed, span=tracer.span)
                wall = time.perf_counter() - start
        self.checks += w.checks(p, out)
        if self.first_output is None:
            self.first_output = out
        else:
            self.checks.append(("repeatable", out == self.first_output))
        return wall

    def finish(self) -> None:
        if self.workload.final is not None:
            self.checks += self.workload.final(self.params)


def mode_setup(name: str) -> dict:
    start = time.perf_counter()
    for module in WORKLOADS[name].modules:
        importlib.import_module(module)
    return {"setup_s": time.perf_counter() - start}


def mode_time(runner: Runner, seconds: float) -> dict:
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start + max(walls) <= seconds:
        walls.append(runner.rep())
    runner.finish()
    return {
        "walls": walls,
        "items": runner.workload.items(runner.params),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def mode_trace(runner: Runner, seconds: float, out_dir: Path, label: str) -> dict:
    plain: list[float] = []
    traced: list[dict[str, float]] = []
    spans = []
    radius = runner.params.get("radius")
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1]["trace.wall_s"] <= seconds:
        plain.append(runner.rep())
        tracer = Tracer()
        wall = runner.rep(tracer)
        traced.append(layer_metrics(tracer, runner.cache.cache_info(), radius, wall))
        spans.append(tracer.spans)
    runner.finish()
    # median_low keeps every value one that was measured, and counts whole
    metrics = {name: statistics.median_low(m[name] for m in traced) for name in traced[0]}
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(plain) - 1.0
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{label}.json").write_text(json.dumps({
        "span_fields": ["id", "parent", "name", "start", "end"],
        "repetitions": [{"untraced_wall_s": w, "metrics": m, "spans": s}
                        for w, m, s in zip(plain, traced, spans)],
    }))
    return {"metrics": metrics, "traced_reps": len(traced)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "time", "trace"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    # one CPU for the whole process: migrations between CPUs roughly doubled
    # the spread of repetition times on a shared 2-CPU machine
    cpu = None
    if hasattr(os, "sched_setaffinity"):
        try:
            cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
        except OSError:
            cpu = None

    if args.mode == "setup":
        result = mode_setup(args.workload)
    else:
        import gtpatterns

        src = (ROOT / "src").resolve()
        if src not in Path(gtpatterns.__file__).resolve().parents:
            print(f"gtpatterns imported from {gtpatterns.__file__}, not from {src}", file=sys.stderr)
            return 2
        runner = Runner(args.workload, args.size, args.seed)
        if args.mode == "time":
            result = mode_time(runner, args.seconds)
        else:
            label = f"{args.workload}-{args.size}-seed{args.seed}"
            result = mode_trace(runner, args.seconds, ROOT / ".perfbench_out", label)
        result["cpu"] = cpu
        result["attempted"] = len(runner.checks)
        result["failed"] = [name for name, ok in runner.checks if not ok]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
