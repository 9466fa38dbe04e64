"""Spans around calls into hawkesnet's layers, recorded from outside.

A span is (name, start, end, parent): the parent is the span open when
it began. Spans are kept in memory and written out once, at the end of
a run. Wrappers are installed on the names a calling module looks up
(`hawkesnet.sweep.recover`, say), so the program itself is unchanged.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr by a spanned call; `on_result(tracer, result, args)` counts work."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(name)
            return

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total time, self time).

        Self time is a span's duration less the durations of its children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[k]
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path: str, **header) -> None:
        with open(path, "w") as f:
            json.dump({**header, "counts": self.counts, "spans": self.spans}, f)
            f.write("\n")
