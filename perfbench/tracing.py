"""Layer spans recorded from outside the analyzer.

The tracer wraps each layer's public entry points *where their callers
look them up* — a module global in the calling module (``from x import
f`` binds ``f`` there), a class attribute, or an attribute of one live
object — so nothing under ``src/`` changes. Every wrapped call becomes a
span (layer, start, end, parent). A layer's self time is its spans'
durations minus the part their child spans cover. Spans stay in memory
until :meth:`Tracer.dump` writes them once the run has ended.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter


class Tracer:
    """A span stack plus per-layer totals, for one thread."""

    def __init__(self):
        #: closed spans: [layer, start_s, end_s, parent_index or -1]
        self.spans: list[list] = []
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        # open frames: [layer, start, child_seconds, span_index]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._gc_callback = None

    # -- recording --------------------------------------------------------

    def parent_layer(self) -> str | None:
        """The innermost open span's layer (read from ``after`` hooks,
        which run once their own span has closed)."""
        return self._stack[-1][0] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed as a ``layer`` span; ``after(args, kwargs, result)``
        runs outside the span to record counters from the call."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserve: parents precede children
            frame = [layer, 0.0, 0.0, index]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                tracer.spans[index] = [
                    layer, start, end, parent[3] if parent is not None else -1
                ]
                tracer.self_seconds[layer] = (
                    tracer.self_seconds.get(layer, 0.0) + duration - frame[2]
                )
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing -------------------------------------------------------

    def watch_gc(self) -> None:
        """Count full (generation 2) collections and their pauses until
        :meth:`uninstall`. A pause also lands in whichever span is open."""
        started: list[float] = []

        def callback(phase, info):
            if info["generation"] != 2:
                return
            if phase == "start":
                started.append(perf_counter())
            else:
                self.count("gc_full.seconds", perf_counter() - started.pop())
                self.count("gc_full.collections")

        self._gc_callback = callback
        gc.callbacks.append(callback)

    def patch(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` with its traced wrapper until
        :meth:`uninstall`. ``owner`` is a module, a class, or an object."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(layer, original, after))

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:  # a method found on the object's class
                delattr(owner, attr)

    # -- reporting --------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **meta,
                    "self_seconds": self.self_seconds,
                    "calls": self.calls,
                    "counts": self.counts,
                    "spans": self.spans,
                },
                handle,
            )
