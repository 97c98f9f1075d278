"""Layer timing from outside the program: wrappers that record spans.

A `Tracer` replaces public functions of the `lemname.*` modules with
wrappers that record one span per call: name, start, end, the index of
the enclosing span, and the current request id. The wrapper is installed
under every name a caller can look the function up by (for example both
`lemname.nn.backward` and `lemname.model.backward`, because model.py
imports the function by name), and `uninstall` puts the originals back.
Spans stay in memory; `summarize` turns them into per-boundary call
counts and self times (a span's duration minus that of its direct
children).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Boundary:
    """One traced function: metric prefix, defining module, attribute path."""

    name: str
    module: str
    attribute: str


def _record_and_stream(record, stream, *args, **kwargs):
    return (id(record), stream)


# The layer boundaries, by module.
BOUNDARIES = (
    Boundary("sexp.parse", "lemname.sexp", "parse"),
    Boundary("sexp.linearize", "lemname.sexp", "linearize"),
    Boundary("chop.chop", "lemname.chop", "chop"),
    Boundary("corpus.stream_subtoken_texts", "lemname.corpus", "stream_subtoken_texts"),
    Boundary("corpus.load_document", "lemname.corpus", "load_document"),
    Boundary("corpus.build_vocabulary", "lemname.corpus", "build_vocabulary"),
    Boundary("nn.backward", "lemname.nn", "backward"),
    Boundary("nn.adam_step", "lemname.nn", "adam_step"),
    Boundary("nn.gru_cell", "lemname.nn", "gru_cell"),
    Boundary("model.train", "lemname.model", "train"),
    Boundary("model.greedy_names", "lemname.model", "LemmaNameModel.greedy_names"),
    Boundary("model.encode", "lemname.model", "LemmaNameModel.encode"),
    Boundary("model.decode_step", "lemname.model", "LemmaNameModel.decode_step"),
    Boundary("model.suggest", "lemname.model", "LemmaNameModel.suggest"),
    Boundary("baseline.RetrievalBaseline", "lemname.baseline", "RetrievalBaseline.__init__"),
    Boundary("baseline.similarities", "lemname.baseline", "RetrievalBaseline.similarities"),
    Boundary("baseline.suggest", "lemname.baseline", "RetrievalBaseline.suggest"),
    Boundary("metrics.evaluate", "lemname.metrics", "evaluate"),
    Boundary("metrics.bleu4", "lemname.metrics", "bleu4"),
    Boundary("cli.build_suggestion_report", "lemname.cli", "build_suggestion_report"),
    Boundary("diagserver.read_message", "lemname.diagserver", "read_message"),
    Boundary("diagserver.write_message", "lemname.diagserver", "write_message"),
    Boundary("diagserver.handle", "lemname.diagserver", "DiagnosticServer.handle"),
)

# Boundaries that also count the distinct keys they were called with.
DISTINCT_KEYS = {"corpus.stream_subtoken_texts": _record_and_stream}
REQUEST_BOUNDARY = "diagserver.handle"


def _request_of(server, message, *args, **kwargs):
    return message.get("id") if isinstance(message, dict) else None


@dataclass
class Summary:
    """Per-boundary totals over a set of spans."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    distinct: dict = field(default_factory=dict)


class Tracer:
    """Records spans while active; owns the wrappers it installs."""

    def __init__(self):
        self.active = False
        self.request = None
        self.spans: list = []  # [name, start, end, parent index, request id, key]
        self.absent: list = []
        self._stack: list = []
        self._restore: list = []

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, fn):
        key_of = DISTINCT_KEYS.get(name)
        request_of = _request_of if name == REQUEST_BOUNDARY else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if request_of is not None:
                self.request = request_of(*args, **kwargs)
            key = key_of(*args, **kwargs) if key_of is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request, key)

        return wrapper

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary that exists; note the others as absent."""
        for boundary in boundaries:
            try:
                owner = importlib.import_module(boundary.module)
            except ModuleNotFoundError:
                owner = None
            *path, attr = boundary.attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(boundary.name)
                continue
            wrapper = self._wrap(boundary.name, original)
            if path:  # a method: callers find it through the class
                self._replace(owner, attr, original, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or module_name.split(".")[0] != "lemname":
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, alias, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False

    # ------------------------------------------------------------- results

    def dump(self, path) -> None:
        """Write the spans and the absent boundaries as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def load_dump(path) -> tuple:
    """Spans and absent boundaries written by `Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = [
        None if row is None else (*row[:5], None if row[5] is None else tuple(row[5]))
        for row in data["spans"]
    ]
    return spans, data["absent"]


class Intervals:
    """Sorted, disjoint (start, end) intervals of time."""

    def __init__(self, intervals):
        self.intervals = sorted(intervals)
        self.starts = [start for start, _ in self.intervals]

    def overlap(self, start: float, end: float) -> float:
        """Seconds of [start, end] that lie inside the intervals."""
        total = 0.0
        index = max(bisect.bisect_right(self.starts, start) - 1, 0)
        for lo, hi in self.intervals[index:]:
            if lo >= end:
                break
            total += max(0.0, min(end, hi) - max(start, lo))
        return total


def summarize(spans, within: Intervals | None = None) -> Summary:
    """Calls, self seconds and distinct keys per boundary.

    Self time subtracts direct children only; each child's own
    duration already contains its descendants. With `within`, only the
    parts of spans inside its intervals count, and a span wholly outside
    them is left out.
    """
    counted = [
        0.0 if span is None else span[2] - span[1] if within is None else within.overlap(span[1], span[2])
        for span in spans
    ]
    child_s = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span is not None and span[3] >= 0:
            child_s[span[3]] += counted[index]
    out = Summary()
    for index, span in enumerate(spans):
        if span is None or (within is not None and counted[index] <= 0.0):
            continue
        name = span[0]
        out.calls[name] = out.calls.get(name, 0) + 1
        out.self_s[name] = out.self_s.get(name, 0.0) + counted[index] - child_s[index]
        if span[5] is not None:
            out.distinct.setdefault(name, set()).add((span[4], span[5]))
    return out
