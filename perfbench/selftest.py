"""Self-test of the benchmark itself.

- ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.
- Seed 0 reproduces the repository's own workload profiles.
- The same seed gives identical inputs; another seed gives other inputs.
- Two runs on the same seed report the same ``constants_found``, and a
  run on a second seed fails no unit.
- A traced run's spans cover at least 90% of its pass.

Every workload is run four times, so this takes several minutes::

    python3 perfbench/selftest.py [--workloads tables,cold_large]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_COVERAGE_PCT = 90.0


def _inputs_key(inputs) -> list:
    """Everything a workload sends to the analyzer, comparable with ==."""
    programs = getattr(inputs, "programs", inputs)
    key = [(name, work.source, work.inputs) for name, work in programs.items()]
    key += getattr(inputs, "requests", [])
    return key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import layers
    import scenarios
    from baseline import run
    from repro.workloads import suite

    problems: list[str] = []

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if [m["name"] for m in spec["per_layer"]] != list(layers.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")

    for name, work in scenarios.seeded_programs(scenarios.PROFILES, 0).items():
        if work.source != suite.load(name).source:
            problems.append(f"seed 0 does not reproduce profile {name}")

    workloads = scenarios.make_workloads(ROOT)
    names = args.workloads.split(",") if args.workloads else list(workloads)
    e2e_names = {metric["name"] for metric in spec["end_to_end"]}
    for name in names:
        workload = workloads[name]
        first = _inputs_key(workload.prepare(0))
        if first != _inputs_key(workload.prepare(0)):
            problems.append(f"{name}: seed 0 inputs are not reproducible")
        if first == _inputs_key(workload.prepare(1)):
            problems.append(f"{name}: seeds 0 and 1 give the same inputs")

        seconds = spec["run_seconds"]
        runs = [run(name, 0, seconds, 0), run(name, 0, seconds, 0)]
        other = run(name, 1, seconds, 0)
        traced = run(name, 0, seconds, 1)
        for result in runs + [other]:
            if set(result["metrics"]) != e2e_names:
                problems.append(f"{name}: end-to-end metrics differ from spec")
        if set(traced["metrics"]) != set(layers.PER_LAYER):
            problems.append(f"{name}: per-layer metrics differ from spec")
        counts = {r["metrics"]["constants_found"]["value"] for r in runs}
        if len(counts) != 1:
            problems.append(f"{name}: seed 0 constants_found varies: {counts}")
        for label, result in (("seed 0", runs[0]), ("seed 0 again", runs[1]),
                              ("seed 1", other), ("traced", traced)):
            if result["failed"] or not result["correct"]:
                problems.append(f"{name}: {label} run failed "
                                f"{result['failed']} of {result['attempted']}")
        coverage = traced["metrics"]["trace.coverage_pct"]["value"]
        if coverage < MIN_COVERAGE_PCT:
            problems.append(f"{name}: spans cover {coverage:.1f}% of the pass")
        print(f"{name}: constants_found {counts}, seed 1 failed "
              f"{other['failed']}, coverage {coverage:.2f}%, tracing overhead "
              f"{traced['metrics']['trace.overhead_pct']['value']:.1f}%",
              flush=True)

    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
