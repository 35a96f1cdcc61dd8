"""Incremental re-analysis against a cold run, on the large programs.

For each ``large`` program: change one integer literal in one seeded
procedure, then time a cold polynomial ``analyze`` of the original text,
``Analyzer.reanalyze`` of the edited text on an analyzer that has just
published the original's snapshot with ``Analyzer.run``, and a cold
``analyze`` of the edited text. The three are timed in turn, each from a
cleared intern table and a collected heap, :data:`REPETITIONS` times, and
each reports its fastest; one unrecorded cold ``analyze`` warms the
interpreter first. The warm and cold answers must agree. Prints one JSON
object; ``baseline.py`` stores it in ``baseline.json``::

    python3 perfbench/contrast.py --seed 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: timings per measurement; the fastest is reported.
REPETITIONS = 3


def _timed(call) -> tuple[float, object]:
    start = perf_counter()
    result = call()
    return perf_counter() - start, result


def measure(seed: int) -> dict:
    from repro.core import driver
    from repro.core.exprs import clear_intern_table
    from repro.workloads.profiles import LARGE_PROFILES

    from oracle import render_constprop
    from scenarios import POLYNOMIAL, edit_one_literal, seeded_programs

    def cold(source):
        return _timed(lambda: driver.analyze(source, POLYNOMIAL, cache=None))

    def reanalyze(original, edited):
        analyzer = driver.Analyzer(original, cache=driver.Stage0Cache())
        analyzer.run(POLYNOMIAL)
        return _timed(lambda: analyzer.reanalyze(edited, POLYNOMIAL))

    def fresh():
        # every timing starts from the state a fresh process would have
        clear_intern_table()
        gc.collect()

    rng = random.Random(f"contrast:{seed}")
    programs = seeded_programs(LARGE_PROFILES, seed)
    cold(next(iter(programs.values())).source)  # warm-up, not recorded
    rows = {"repetitions": REPETITIONS}
    for name, work in programs.items():
        edited = edit_one_literal(work.source, rng)
        times: dict[str, list[float]] = {"cold_s": [], "reanalyze_s": [],
                                         "cold_edited_s": []}
        equal = True
        # interleaved, so a slow spell of the machine hits all three alike
        # Only rendered answers are kept, so each timing runs on the same
        # small heap.
        for _ in range(REPETITIONS):
            fresh()
            times["cold_s"].append(cold(work.source)[0])
            fresh()
            seconds, warm = reanalyze(work.source, edited)
            times["reanalyze_s"].append(seconds)
            mode = warm.incremental.mode if warm.incremental else None
            warm = render_constprop(warm)
            fresh()
            seconds, cold_edited = cold(edited)
            times["cold_edited_s"].append(seconds)
            equal = equal and warm == render_constprop(cold_edited)
            del cold_edited
        rows[name] = {key: min(values) for key, values in times.items()}
        rows[name].update(mode=mode, equal=equal)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    rows = measure(args.seed)
    print(json.dumps(rows, indent=1))
    programs = [row for row in rows.values() if isinstance(row, dict)]
    return 0 if all(row["equal"] for row in programs) else 1


if __name__ == "__main__":
    sys.exit(main())
