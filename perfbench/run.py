"""Benchmark runner for gtpatterns.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that holds `src/gtpatterns`.  Each
workload is a closed-loop batch job: one job at a time, one process pinned
to one CPU, one Python thread, BLAS/OpenMP threads capped at 1.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median wall time of one repetition, package caches cold
  items_per_s  checked transitions/identities or sample paths per second
  setup_s      median, over fresh processes, of importing what the workload
               needs before its first call
  peak_rss_mb  peak resident memory of the process that ran the repetitions
and prints failed_frac, the share of gate checks that failed.

--trace 1 runs untraced and traced repetitions in turn and reports the
per-layer metrics (see README.md for which end-to-end metric each moves).

Every run prints a human-readable table, a `record` line with the machine
and code state, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.  The record is also appended to
.perfbench_out/runs.jsonl.  The exit code is 0 when every check passed, 1
when the gate failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# fresh processes per run for setup_s; one more runs first, untimed, to
# write the bytecode caches and warm the file cache
SETUP_PROBES = 7
# every run must end within 180 s; leave room to report
DEADLINE_S = 170.0
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class BenchError(RuntimeError):
    pass


class Worker:
    """Starts worker.py processes against the checkout's sources, each
    bounded by what is left of the run's deadline."""

    def __init__(self, size: str, seed: int, seconds: float) -> None:
        self.common = ["--size", size, "--seed", str(seed), "--seconds", str(seconds)]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_CAPS)
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, mode: str, workload: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload, *self.common]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} {workload}: no result within {remaining:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, trace: bool, worker: Worker) -> tuple[dict, int, list[str], dict]:
    """Metrics, checks attempted, failed check names, and the raw figures."""
    if trace:
        res = worker("trace", name)
        metrics = {key: metric(value, LAYER_UNITS[key]) for key, value in res["metrics"].items()}
        return metrics, res["attempted"], res["failed"], {"cpu": res["cpu"], "traced_reps": res["traced_reps"]}
    worker("setup", name)
    setups = [worker("setup", name)["setup_s"] for _ in range(SETUP_PROBES)]
    res = worker("time", name)
    wall = statistics.median(res["walls"])
    metrics = {
        "wall_s": metric(wall, "s"),
        "items_per_s": metric(res["items"] / wall, "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    raw = {"cpu": res["cpu"], "walls_s": res["walls"], "setup_samples_s": setups, "items": res["items"]}
    return metrics, res["attempted"], res["failed"], raw


# ---------------------------------------------------------------------------
# machine and code state
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def code_state() -> dict:
    files = sorted((ROOT / "src" / "gtpatterns").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": git_sha(), "src_lines": lines, "src_sha256": digest.hexdigest()}


def machine_state() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_caps": THREAD_CAPS,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def print_table(name: str, metrics: dict, attempted: int, failed: list[str]) -> None:
    print(f"{name}:")
    for key, m in metrics.items():
        print(f"  {key:<46} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<46} {len(failed) / attempted:>14.6g} ratio ({len(failed)} of {attempted} checks)")
    for check in failed:
        print(f"  FAILED {check}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="gtpatterns benchmark runner")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny is for the self-test only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gtpatterns" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'gtpatterns'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "machine": machine_state(), "code": code_state(), "workloads": {},
    }
    all_metrics: dict = {}
    attempted_total = 0
    failed_total: list[str] = []
    for name in names:
        worker = Worker(args.size, args.seed, args.seconds)
        try:
            metrics, attempted, failed, raw = run_workload(name, bool(args.trace), worker)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        print_table(name, metrics, attempted, failed)
        record["workloads"][name] = {
            "metrics": {k: m["value"] for k, m in metrics.items()},
            "attempted": attempted, "failed": failed, **raw,
        }
        prefix = f"{name}." if len(names) > 1 else ""
        all_metrics.update({prefix + k: m for k, m in metrics.items()})
        attempted_total += attempted
        failed_total += failed

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failed_total,
        "attempted": attempted_total,
        "failed": len(failed_total),
        "metrics": all_metrics,
    }))
    return 1 if failed_total else 0


if __name__ == "__main__":
    sys.exit(main())
