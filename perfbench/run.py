"""The repository benchmark: one workload, one seed, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tables --seed 0 --seconds 36 --trace 0

``--trace 0`` times whole passes of the workload with no instrumentation:
as many as take ``--seconds`` at the workload's nominal pass time, and at
least two. The machine's noise comes and goes within seconds and only
ever slows work down, so the end-to-end metrics take each unit at its
fastest over the passes: ``pass_s`` is the sum, and the latency
percentiles are over the same per-unit times. Every pass starts from the
same state, so full garbage collections land on the same units in every
pass and their pauses stay in those units' times. Where they do not (the
first pass can differ), only the passes that share the most common
placement of collections count. Set-ups are timed before every pass, so
their median spans the run too. Between units the process moves to the
least disturbed CPU (see ``steer.py``). A busy host can still slow a
whole run down, so every timing is then divided by the run's slowdown:
how much longer than on a quiet CPU a fixed reference loop took during
the run. The measured values are printed next to the scaled ones.

``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics (self time per layer, work counts,
cache ratios, daemon tiers), the tracing overhead and the share of the
pass the spans cover; the spans themselves go to ``.perfbench_runs/``.
Either way the outputs are checked afterwards (see ``oracle.py``) and the
last line of standard output is one JSON object.

The benchmark imports the analyzer from ``src/`` of the checkout it sits
in, and exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import namedtuple
from time import perf_counter

import steer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: set-ups timed before every pass; setup_s reports the median of all.
SETUPS_PER_PASS = 2
#: untraced passes per run at least.
MIN_PASSES = 2


def _import_analyzer():
    """Import the analyzer from this checkout's ``src/`` only."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no analyzer sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _time_setup(workload, seed: int):
    """Time one set-up and return its inputs and seconds. A set-up is a
    fresh interpreter importing the benchmark and the analyzer, then
    generating the seeded inputs and building the workload's service in
    this process."""
    here = os.path.dirname(os.path.abspath(__file__))
    importer = (
        f"import sys; sys.path[:0] = [{here!r}, {SRC!r}]; "
        "import layers, oracle, scenarios, tracing"
    )
    steer.between_units()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", importer], check=True)
    inputs = workload.prepare(seed)
    handle = workload.open(inputs)
    seconds = perf_counter() - start
    workload.close(handle)
    return inputs, seconds


def _best_units(passes) -> tuple[list[float], int]:
    """Each unit's fastest time over the passes whose full garbage
    collections landed on the same units as in the most passes (the later
    group on a tie), and how many passes that is. So the per-unit times
    always carry the collections of passes that really ran."""
    placements = [tuple(unit.full_gcs for unit in result.units)
                  for result in passes]
    latest = {placement: index for index, placement in enumerate(placements)}
    chosen = max(latest, key=lambda placement: (placements.count(placement),
                                                latest[placement]))
    group = [result for result, placement in zip(passes, placements)
             if placement == chosen]
    best = [min(unit.seconds for unit in samples)
            for samples in zip(*(result.units for result in group))]
    return best, len(group)


#: a unit of a pass that the oracle does not check; see _settle.
_Settled = namedtuple("_Settled",
                      "name seconds constants_found failure tier full_gcs")


def _settle(result):
    """Keep of a pass that the oracle does not check only its numbers and
    strings, as plain tuples. The garbage collector stops tracking those,
    so what earlier passes leave behind does not move the next pass's
    full collections. :func:`_unsettle` gives the units back."""
    import scenarios

    units = [(unit.name, unit.seconds, unit.constants_found, unit.failure,
              unit.tier, unit.full_gcs)
             for unit in result.units]
    return scenarios.PassResult(units, result.wall_seconds)


def _unsettle(passes) -> None:
    """Turn the plain tuples :func:`_settle` left into named units again,
    once timing is over."""
    for result in passes:
        if result.units and type(result.units[0]) is tuple:
            result.units = [_Settled._make(unit) for unit in result.units]


def _one_pass(workload, inputs, tracer=None):
    from repro.core.exprs import clear_intern_table

    import layers

    # every pass starts from the state a fresh process would have
    clear_intern_table()
    gc.collect()
    handle = workload.open(inputs)
    try:
        if tracer is None:
            return workload.run_pass(inputs, handle)
        layers.install(tracer)
        workload.instrument(tracer, handle)
        try:
            return workload.run_pass(inputs, handle)
        finally:
            tracer.uninstall()
    finally:
        workload.close(handle)


def _check(workload, inputs, passes, seed: int) -> int:
    """Run the oracle on the last pass; the other passes must find the
    same constants unit by unit."""
    checks = workload.check(inputs, passes[-1], seed)
    expected = [unit.constants_found for unit in passes[-1].units]
    for other in passes[:-1]:
        for index, (unit, count) in enumerate(zip(other.units, expected)):
            if unit.failure is None and unit.constants_found != count:
                other.units[index] = unit._replace(
                    failure="constants_found differs from the checked pass")
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_analyzer()
    import layers
    import scenarios
    from tracing import Tracer

    workloads = scenarios.make_workloads(ROOT)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    workload = workloads[args.workload]

    passes = []
    setups: list[float] = []
    tracer = None
    if args.trace:
        inputs = workload.prepare(args.seed)
        passes.append(_settle(_one_pass(workload, inputs)))
        tracer = Tracer()
        passes.append(_one_pass(workload, inputs, tracer))
    else:
        # The pass count depends on --seconds alone, not on how fast the
        # machine happens to be: a unit's fastest time over more passes
        # reads lower, so runs with different counts would not compare.
        planned = max(MIN_PASSES, int(args.seconds // workload.pass_seconds))
        while len(passes) < planned:
            for _ in range(SETUPS_PER_PASS):
                prepared, seconds = _time_setup(workload, args.seed)
                setups.append(seconds)
            if not passes:
                inputs = prepared
            passes.append(_one_pass(workload, inputs))
            if len(passes) < planned:
                passes[-1] = _settle(passes[-1])  # only the last is checked
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _unsettle(passes)

    begin = perf_counter()
    checks = _check(workload, inputs, passes, args.seed)
    check_seconds = perf_counter() - begin
    units = [unit for result in passes for unit in result.units]
    failures = [unit for unit in units if unit.failure is not None]
    attempted, failed = len(units), len(failures)
    for unit in failures[:10]:
        print(f"FAILED {unit.name}: {unit.failure}")

    if tracer is not None:
        metrics = layers.derive(tracer, passes[1], passes[0])
        specs = {name: unit for name, (unit, _better) in layers.PER_LAYER.items()}
        out_dir = os.path.join(ROOT, ".perfbench_runs")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(
            os.path.join(out_dir, f"trace-{workload.name}-{args.seed}.json"),
            {"workload": workload.name, "seed": args.seed,
             "wall_seconds": passes[1].wall_seconds,
             "untraced_wall_seconds": passes[0].wall_seconds},
        )
    else:
        best, timed = _best_units(passes)
        latencies = sorted(seconds * 1000.0 for seconds in best)
        measured = {
            "pass_s": sum(best),
            "latency_ms_p50": statistics.median(latencies),
            "latency_ms_p90": _percentile(latencies, 90),
            "setup_s": statistics.median(setups),
        }
        slowdown = steer.slowdown()
        metrics = {
            "pass_s": measured["pass_s"] / slowdown,
            "latency_ms_p50": measured["latency_ms_p50"] / slowdown,
            "latency_ms_p90": measured["latency_ms_p90"] / slowdown,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": measured["setup_s"] / slowdown,
            "constants_found": sum(u.constants_found for u in passes[0].units),
            "success_rate": 1.0 - failed / attempted,
        }
        specs = {
            "pass_s": "s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
            "peak_rss_mb": "MB", "setup_s": "s", "constants_found": "count",
            "success_rate": "ratio",
        }
        walls = ", ".join(f"{p.wall_seconds:.3f}" for p in passes)
        print(f"pass wall times {walls} s; {timed} of {len(passes)} passes "
              "had their full collections on the same units, and each "
              "unit's fastest time is taken over those")
        print(f"reference loop on the chosen CPU: median "
              f"{statistics.median(steer.references) * 1e3:.4f} ms over "
              f"{len(steer.references)} checks, a slowdown of "
              f"{slowdown:.4f}; the timings below are the measured ones "
              "divided by it:")
        print("  measured " + ", ".join(f"{name} {value:.6g}"
                                        for name, value in measured.items()))

    print(f"workload {workload.name} seed {args.seed}: {len(passes)} pass(es), "
          f"{attempted} units, {failed} failed "
          f"(error_rate {failed / attempted:g}), {checks} oracle checks "
          f"in {check_seconds:.1f} s")
    samples = {"setup_s": len(setups)}
    for name, value in metrics.items():
        if tracer is not None:
            n = 1
        elif name == "pass_s" or name.startswith("latency"):
            n = f"{len(best)} units, each best of {timed} passes"
        else:
            n = f"{len(passes)} passes"
        print(f"  {name:<40} {value:>14.6g} {specs[name]:<6} "
              f"(n={samples.get(name, n)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": specs[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
