"""In-memory spans around calls into the library, with per-name self time.

A span records its name, start, end and the index of the span that caused
it; the spans of one op share the op's root span.  Spans stay in memory
until the run ends and are then written out as JSON.
"""

from __future__ import annotations

import gc
import json
import time


def untraced(name, fn, *args):
    """The call hook of an untraced run: call straight through."""
    return fn(*args)


class Tracer:
    """Call hook of a traced run: `tracer(name, fn, *args)` runs fn in a span."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def __call__(self, name, fn, *args):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def __enter__(self) -> Tracer:
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed duration minus child-span durations)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, *_), seconds in zip(self.spans, own):
            calls, total = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, total + seconds)
        return totals


def write_spans(path, stamp: dict, spans: list) -> None:
    with open(path, "w") as out:
        json.dump({"stamp": stamp, "fields": ["name", "start", "end", "parent"],
                   "spans": spans}, out)
