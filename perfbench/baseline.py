"""Measure the benchmark's baseline and its run-to-run spread.

For each workload in ``BENCHMARK.json`` it makes two sets of ``--runs``
untraced runs: one with another seed each time (seeds 1..runs, so input
variation counts in the spread) and one repeating seed 0 (the same inputs
every time, so only the machine's noise counts). For every end-to-end
metric and each set it records the median, the quartiles and the spread
(interquartile distance over the median, as ``statistics.quantiles(values,
n=4)`` gives them). One traced run on seed 0 gives every per-layer
metric. It then adds the incremental re-analysis contrast from
``contrast.py`` and writes everything to ``perfbench/baseline.json``::

    python3 perfbench/baseline.py --runs 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def measure_set(workload: str, seeds: list[int], spec: dict) -> tuple[list, dict]:
    """Run ``workload`` once per seed; summarize each end-to-end metric."""
    results = []
    for seed in seeds:
        result = run(workload, seed, spec["run_seconds"], 0)
        results.append(result)
        print(workload, seed, result["correct"], result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              flush=True)
    summary = {}
    for metric in spec["end_to_end"]:
        row = summarize([r["metrics"][metric["name"]]["value"] for r in results])
        row["bound"] = metric["bound"]
        summary[metric["name"]] = row
        print(f"  {metric['name']:<18} median {row['median']:.6g} "
              f"spread {row['spread']:.4f} bound {row['bound']}", flush=True)
    return results, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    baseline = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        across, across_summary = measure_set(
            name, list(range(1, args.runs + 1)), spec)
        repeated, repeated_summary = measure_set(name, [0] * args.runs, spec)
        traced = run(name, 0, spec["run_seconds"], 1)
        results = across + repeated + [traced]
        baseline["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end_across_seeds": across_summary,
            "end_to_end_seed0_repeated": repeated_summary,
            "per_layer": {
                metric: value["value"]
                for metric, value in traced["metrics"].items()
            },
        }

    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "contrast.py"), "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    baseline["reanalyze_contrast"] = json.loads(completed.stdout)

    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
