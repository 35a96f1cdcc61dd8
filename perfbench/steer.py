"""Keep the benchmark on the least disturbed CPU.

On a shared host each virtual CPU slows down on its own, when other work
lands on the physical core behind it, for seconds to a minute at a time.
Between units, at most every :data:`INTERVAL` seconds,
:func:`between_units` times a short reference loop on every CPU the
process may use, pins the process to the fastest and records that CPU's
time in :data:`references`. Nothing it does is inside a unit's timing.

A busy host can also slow both CPUs for longer than a run, and then
every pass is slow. :func:`slowdown` says by how much: the median of
:data:`references` over :data:`REFERENCE_SECONDS`. ``run.py`` divides its
timings by it. The reference loop is fixed code of the benchmark, so a
change to the analyzer cannot move it.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

#: seconds between two checks.
INTERVAL = 0.5
#: what the reference loop takes on a quiet CPU of the 2-CPU container
#: the baseline was measured on.
REFERENCE_SECONDS = 0.001

_cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
#: one affinity mask per CPU, built once (see _CHAIN below).
_masks = [(cpu,) for cpu in _cpus]
_last = float("-inf")
#: the reference loop's seconds on the chosen CPU, one per check.
references: list[float] = []


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key, next):
        self.key = key
        self.next = next


def _chain(length: int):
    head = None
    for i in range(length):
        head = _Node(f"v{i & 127}", head)
    return head


#: built once, so that a check allocates no object the garbage collector
#: tracks: a check made at a different moment in another pass must not
#: move that pass's collections.
_CHAIN = _chain(6000)
_TABLE: dict[str, int] = {}


def _reference() -> float:
    """Seconds a small mix of what the analyzer does most (attribute
    reads, dict lookups and stores, string building and hashing) takes on
    this CPU. It allocates only strings and integers."""
    begin = perf_counter()
    node = _CHAIN
    table = _TABLE
    while node is not None:
        key = node.key + "_"
        table[key] = table.get(key, 0) + len(key)
        node = node.next
    return perf_counter() - begin


def _time_here() -> float:
    _reference()  # the first run after a move warms the caches
    first, second = _reference(), _reference()
    return first if first < second else second  # min() would allocate


def between_units() -> None:
    """Pin the process to the CPU that runs the reference loop fastest and
    record its time, unless the last check was under :data:`INTERVAL`
    seconds ago."""
    global _last
    if perf_counter() - _last < INTERVAL:
        return
    if len(_cpus) < 2:
        best = _time_here()
    else:
        best, chosen = float("inf"), 0
        index = 0
        while index < len(_masks):  # a for loop would allocate an iterator
            os.sched_setaffinity(0, _masks[index])
            seconds = _time_here()
            if seconds < best:
                best, chosen = seconds, index
            index += 1
        os.sched_setaffinity(0, _masks[chosen])
    references.append(best)
    _last = perf_counter()


def slowdown() -> float:
    """How much longer than :data:`REFERENCE_SECONDS` the reference loop
    took on the chosen CPUs, as the median over every check so far."""
    between_units()
    return statistics.median(references) / REFERENCE_SECONDS
