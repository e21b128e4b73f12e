"""Spans recorded from outside the program, by wrapping module attributes.

A wrapped attribute is looked up by its callers at call time (a module
global, a class method, ``scipy.sparse.linalg.splu``), so replacing it on
the owning object puts a span around every call without touching the
program. Spans are kept in memory; nothing is written while a solve runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder for one sample; ``restore`` undoes every wrap."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": self.clock(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> bool:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``describe(result)`` returns attributes stored on the span (counts
        read off the returned object). An attribute the program no longer
        has is listed in ``missing`` and left alone, so the layer reads 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if describe is not None:
                record["attrs"] = describe(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}


def subtree(spans: list[dict], root: dict) -> list[dict]:
    """``root`` and all its descendants, in start order."""
    inside = {root["id"]}
    out = [root]
    for s in spans[root["id"] + 1:]:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out
