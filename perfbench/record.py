"""Repeat the benchmark over several seeds and summarize it.

    python3 perfbench/record.py --seeds 1-10 --seconds 10 [--workload NAME ...]
                                [--label LABEL]

For every workload, runs run.py once per seed with tracing off and prints
each end-to-end metric's median, quartiles and spread (the distance between
the quartiles as a share of the median) against the metric's bound in
BENCHMARK.json; a spread should stay under a third of its bound.  With
--label it also makes one traced run per workload and appends the summary,
with the machine and code state, as one line of trajectory.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result object and the record of one run.py invocation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = next(json.loads(line[7:]) for line in lines if line.startswith("record "))
    return json.loads(lines[-1]), record


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--label", help="append a trajectory point under this label")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    point: dict = {"label": args.label, "seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            result, record = run(name, seed, args.seconds, 0)
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        summary = {key: summarize(v) for key, v in values.items()}
        print(f"{name}:", flush=True)
        for key, s in summary.items():
            ok = key == "setup_s" or s["spread"] < bounds[key] / 3
            steady = steady and ok
            print(f"  {key:<12} median {s['median']:<12.6g} spread {s['spread']:<8.4f} "
                  f"bound {bounds[key]:<5} {'ok' if ok else 'TOO WIDE'}", flush=True)
        point["workloads"][name] = {"end_to_end": summary}
        if args.label:
            traced, _ = run(name, parse_seeds(args.seeds)[0], args.seconds, 1)
            point["workloads"][name]["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
    if args.label:
        point["machine"], point["code"] = record["machine"], record["code"]
        with open(HERE / "trajectory.jsonl", "a") as f:
            f.write(json.dumps(point) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
