"""Self-test of the benchmark, run from the checkout root:

    python3 -m pytest perfbench -q

Drives the runner end to end at tiny sizes, checks that every metric in
BENCHMARK.json appears with its unit, and that the correctness gate fires
on perturbed exact results and on statistics over their thresholds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (
    WORKLOADS,
    check_exact,
    check_large_q,
    check_law,
    check_markov,
    check_small_q,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_appears_with_its_unit(workload, trace, section):
    proc = run("--workload", workload, "--size", "tiny", "--seed", "5",
               "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any("failed_frac" in line and "ratio" in line for line in lines)
    assert any(line.startswith("record ") for line in lines)


def test_trace_counts_repeat_and_self_times_cover_the_wall():
    runs = [run("--workload", "exact-identities", "--size", "tiny", "--seed", str(seed),
                "--seconds", "0.5", "--trace", "1") for seed in (1, 2)]
    metrics = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in runs]
    for m in metrics:
        assert m["kernels.q_k_pmf.calls"]["value"] == 196
        assert m["kernels.s_k_pmf.calls"]["value"] == 280
        assert m["kernels.check_intertwining.busy_s"]["value"] > 0
        assert abs(m["trace.unattributed_frac"]["value"]) < 0.05


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "small-q", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

FULL = {name: w.sizes["full"] for name, w in WORKLOADS.items()}


def failed(checks) -> list[str]:
    return [name for name, ok in checks if not ok]


def exact_output(discrepancy=Fraction(0)):
    p = FULL["exact-identities"]
    out = {"intertwining": (p["intertwining_checked"], discrepancy, 0)}
    for q in p["desintegration_q"]:
        out[f"desintegration[{q}]"] = (p["desintegration_checked"], 0)
    return out


def test_gate_passes_reference_outputs():
    assert failed(check_exact(FULL["exact-identities"], exact_output())) == []
    p = FULL["markov-marginal"]
    assert failed(check_markov(p, {"tv": 0.0199, "deficit": float(Fraction(p["deficit"]))})) == []
    assert failed(check_small_q(FULL["small-q"], {"tv": 0.059})) == []
    assert failed(check_large_q(FULL["large-q"], {"ks": 0.049, "density_total": 1 - 5e-5})) == []


def test_gate_fires_on_perturbed_fractions():
    from gtpatterns import kernels

    p = FULL["exact-identities"]
    assert failed(check_exact(p, exact_output(Fraction(1, 10**40)))) == ["intertwining.discrepancy_zero"]

    tiny = WORKLOADS["markov-marginal"].sizes["tiny"]
    law = kernels.n_step_law(Fraction(tiny["q"]), tiny["k"], tiny["horizon"], tiny["radius"])
    assert failed(check_law(tiny, law.support, law.tail_deficit)) == []
    state = next(iter(law.support))
    perturbed = {**law.support, state: law.support[state] + Fraction(1, 2**80)}
    assert failed(check_law(tiny, perturbed, law.tail_deficit)) == ["n_step_law.support"]
    assert failed(check_law(tiny, law.support, law.tail_deficit - Fraction(1, 2**80))) == ["n_step_law.deficit"]


def test_gate_fires_on_statistics_over_threshold():
    p = FULL["markov-marginal"]
    assert failed(check_markov(p, {"tv": 0.0201, "deficit": float(Fraction(p["deficit"]))})) == [
        "markov-marginal.tv"]
    assert failed(check_small_q(FULL["small-q"], {"tv": 0.0601})) == ["small-q.tv"]
    assert failed(check_large_q(FULL["large-q"], {"ks": 0.0501, "density_total": 1.0})) == ["large-q.ks"]
    assert failed(check_large_q(FULL["large-q"], {"ks": 0.01, "density_total": 1 + 2e-4})) == [
        "large-q.density_total"]
