"""In-memory span tracer that wraps the program's public entry points.

Spans are recorded from outside the program: :meth:`Tracer.patched`
swaps a wrapper in for each entry point for the duration of one traced
pass and restores the original afterwards, so untraced passes run the
program's own functions untouched.  A span is ``(name, start, end,
parent, pass id)``; the parent is the innermost open span of the same
thread.  A layer's self time is its span's duration minus the time its
child spans cover (children run on the caller's thread, one at a time,
so that is the sum of their durations).
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans and per-pass counters in memory."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index, pass id]
        self.counters = defaultdict(lambda: defaultdict(float))
        self.pass_id = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else None, self.pass_id])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def record(self, name: str, start: float, end: float, parent=None):
        """Add a finished span measured elsewhere (e.g. a client event)."""
        self.spans.append([name, start, end, parent, self.pass_id])
        return len(self.spans) - 1

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.pass_id][name] += value

    def _wrapper(self, fn, name, only_under, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under is not None and self.current() != only_under:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, hooks):
        """Wrap each ``(owner, attribute, span name, only_under, on_result)``.

        ``only_under`` limits recording to calls made directly inside an
        open span of that name; ``on_result`` sees each return value.
        """
        saved = []
        try:
            for owner, attr, name, only_under, on_result in hooks:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrapper(original, name, only_under, on_result))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, pass_id):
        """{span name: (summed self time, span count)} for one pass."""
        child_time = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                totals[name][0] += end - start - child_time[index]
                totals[name][1] += 1
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as sink:
            json.dump({
                "fields": ["name", "start", "end", "parent", "pass"],
                "spans": self.spans,
                "counters": {str(k): dict(v)
                             for k, v in self.counters.items()},
            }, sink)
