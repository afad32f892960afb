"""In-memory span tracing of the smop layers, installed from outside.

A :class:`Tracer` records one span per call of a wrapped function: its name,
start, end and the span that was open when it started (its parent). Spans
live in parallel arrays until the run ends; :meth:`Tracer.write` then dumps
them as gzip-compressed JSON lines. A span's self time is its duration minus
the time covered by its child spans.

:func:`patched` swaps the wrappers in under the names the library looks
functions up by, and restores the originals on exit. The library itself is
not modified.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from array import array
from time import perf_counter


class Tracer:
    """Span recorder; ``attrs`` callbacks attach counters to a span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.attrs: dict[int, dict] = {}
        self.paused = False   # while set, wrapped calls record nothing
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` wrapped to record a span; ``attrs(args, result)`` -> dict."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if attrs is not None:
                self.attrs[i] = attrs(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span.

        Spans nest strictly (one thread, call-stack order), so the children
        of a span never overlap and their durations add up.
        """
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def ancestor(self, i: int, names) -> str | None:
        """Name of the nearest enclosing span whose name is in ``names``."""
        p = self.parents[i]
        while p >= 0:
            if self.names[p] in names:
                return self.names[p]
            p = self.parents[p]
        return None

    def write(self, path) -> None:
        """All spans as gzip JSON lines: id, name, start, end, parent, attrs."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                rec = {"id": i, "name": name, "start": self.starts[i],
                       "end": self.ends[i], "parent": self.parents[i]}
                if i in self.attrs:
                    rec["attrs"] = self.attrs[i]
                fh.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Install wrappers for ``(owner, attribute, span name, attrs)`` targets.

    ``owner`` is a module or a class; the attribute must be defined on it
    directly. Missing attributes are reported on stderr and skipped, so a
    refactor of the library shows up as a warning rather than a crash.
    """
    saved = []
    try:
        for owner, attr, name, attrs in targets:
            orig = vars(owner).get(attr)
            if orig is None:
                print(f"warning: {owner.__name__}.{attr} not found; not traced",
                      file=sys.stderr)
                continue
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, attrs))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
