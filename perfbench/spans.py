"""In-memory spans recorded around the benchmark's own calls into the library.

A span is (name, start, end, parent, op, tag): `parent` is the index of the
enclosing span or -1, `op` the operation id every span of one operation
shares, and `tag` an optional label such as the generated class.  Nothing is
written until the run ends.  `Untraced` has the same interface and records
nothing, so one op body serves both runs.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Untraced:
    def call(self, name, fn, *args, tag=None):
        return fn(*args)

    @contextmanager
    def op(self, op_id, tag=None, name="op"):
        yield


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name, tag) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op, tag])
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, tag=None):
        """fn(*args) inside a span called `name`."""
        index = self._open(name, tag)
        try:
            return fn(*args)
        finally:
            self._close(index)

    @contextmanager
    def op(self, op_id, tag=None, name="op"):
        """Span around one whole operation; the spans inside share op_id."""
        self._op = op_id
        index = self._open(name, tag)
        try:
            yield
        finally:
            self._close(index)
            self._op = -1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def medians(self) -> dict:
        """Median self time in seconds by span name and by (name, tag)."""
        groups = defaultdict(list)
        for (name, _, _, _, _, tag), own in zip(self.spans, self.self_times()):
            groups[name].append(own)
            if tag is not None:
                groups[(name, tag)].append(own)
        return {key: statistics.median(values) for key, values in groups.items()}

    def glue_share(self) -> float:
        """Share of the time inside op spans that no library call accounts for."""
        own = self.self_times()
        ops = [i for i, span in enumerate(self.spans) if span[0] == "op"]
        total = sum(self.spans[i][2] - self.spans[i][1] for i in ops)
        return sum(own[i] for i in ops) / total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, tag in self.spans:
                doc = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if tag is not None:
                    doc["tag"] = tag
                out.write(json.dumps(doc) + "\n")
