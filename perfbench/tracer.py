"""Span recorder for the benchmark's traced run.

Each span records its name, start, end, parent span and operation id.  Spans
live in flat arrays in memory and are written out once, when the run ends.
Tracing is done from outside the program: a callable is replaced at the
attribute its callers look up, and put back by `uninstall`.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        # Caller-chosen integer per span; factor spans carry the factor's
        # serial number so repeated evaluations of one factor can be matched.
        self.tag = array("q")
        # (operation id, key, value) facts read off return values.
        self.notes: list[tuple[int, str, float]] = []
        # Spans opened from here on belong to this operation; -1 is set-up.
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, tag: int = 0) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.tag.append(tag)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: int = 0):
        idx = self.open(self.intern(name), tag)
        try:
            yield idx
        finally:
            self.close(idx)

    def note(self, key: str, value: float) -> None:
        self.notes.append((self.op_id, key, float(value)))

    def wrap(self, fn, name: str, tag: int = 0, on_result=None):
        """`fn` recording one span per call; `on_result(result)` runs after it."""
        nid = self.intern(name)
        opened, close = self.open, self.close
        if on_result is None:
            def traced(*args, **kwargs):
                idx = opened(nid, tag)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            def traced(*args, **kwargs):
                idx = opened(nid, tag)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                on_result(result)
                return result
        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        Children of one span never overlap (one thread, strict nesting), so
        the sum of their durations is the part of the span they cover.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        return dur - covered

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
