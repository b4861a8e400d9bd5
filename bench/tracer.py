"""In-memory span tracing by wrapping module-level functions.

A target is ``(module, attribute, span name, attrs)``: while installed, the
module attribute is replaced by a wrapper that records one span per call.
Patching the attribute reaches every caller that looks the name up in that
module at call time, which is how ``ternres`` modules call each other. The
program's own files are never changed.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans of one single-threaded run: name, start, end, parent, attrs."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.attrs.append(attrs(*args, **kwargs) if attrs else {})
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self, targets):
        saved = []
        try:
            for module, attr, name, attrs in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Spans of one thread nest strictly, so the children's intervals do not
        overlap and their durations add up.
        """
        out = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def write(self, path, header: dict) -> None:
        t0 = min(self.starts) if self.starts else 0.0
        spans = [
            {"id": i, "name": n, "start_s": s - t0, "end_s": e - t0,
             "parent": p, "attrs": a}
            for i, (n, s, e, p, a) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.attrs))
        ]
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({**header, "spans": spans}, fp)
            fp.write("\n")
