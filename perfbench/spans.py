"""In-memory spans recorded around the package calls the benchmark makes.

A span has a name whose first dotted part is the layer (``rates.calibrate``
belongs to ``rates``), a start and end from ``time.perf_counter``, the id of
the span open around it, and the id of the run it belongs to.  Nothing is
written until the benchmark ends.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder; when disabled, ``span`` costs one attribute test."""

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.run_id = "setup"
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run": self.run_id, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, indent=1)


def layer_of(name):
    return name.split(".", 1)[0]


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Seconds per layer spent in its own spans minus the time their
    direct children cover (children of one span never overlap)."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out = {}
    for s in spans:
        lay = layer_of(s["name"])
        out[lay] = out.get(lay, 0.0) + duration(s) - child_time.get(s["id"], 0.0)
    return out
