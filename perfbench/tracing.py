"""Span record for the traced run.

A span is one call into a layer: (name, start, end, parent, op). Spans live
in memory and are written out as JSON lines when the run ends. The record is
kept this small so that an in-program tracer can adopt the same format.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.op = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    @contextlib.contextmanager
    def patched(self, hooks):
        """Route calls to module attributes through spans while active.

        hooks: (module, attribute, span name). An attribute the module no
        longer has raises AttributeError, so a renamed layer call fails the
        run instead of reading 0.
        """
        saved = []
        try:
            for module, attr, name in hooks:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self, skip_under=()):
        """Per span name: (summed duration s, summed self time s, count).

        Self time is the duration minus the time direct children cover.
        Spans nested inside a span named in skip_under are left out; their
        time counts only in that span's duration."""
        child = [0.0] * len(self.spans)
        skipped = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:  # a parent is recorded before its children
                child[parent] += end - start
                skipped[i] = skipped[parent] or self.spans[parent][0] in skip_under
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if skipped[i]:
                continue
            t = out[name]
            t[0] += end - start
            t[1] += end - start - child[i]
            t[2] += 1
        return dict(out)

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent, "op": op,
                }) + "\n")
