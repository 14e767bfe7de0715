"""In-memory span recorder that wraps psrkit's public functions from outside.

Each wrapped name is replaced in the namespace its caller looks it up in
(for example ``psrkit.cli.fuse_streams`` or ``psrkit.simulator.run_filter``),
so nothing under ``src/`` changes. ``run_filter`` keeps its own unwrapped
``filter_step`` loop, which is why per-frame calls inside it are not spans.

Spans are kept in flat arrays (name id, parent index, start ns, end ns) and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.counting = True  # off while the benchmark prepares or checks ops
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1])
        self.start_col.append(0)
        self.end_col.append(0)
        self._stack.append(i)
        return i

    def wrap(self, owner, attr: str, span_name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``count(counts, args, kwargs, result)`` adds the call's work counts.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(span_name)
        start_col, end_col, stack, counts = (
            self.start_col, self.end_col, self._stack, self.counts
        )
        open_span = self._open

        def traced(*args, **kwargs):
            i = open_span(nid)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[i] = _now()
                start_col[i] = t0
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            if self.counting:
                counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, fn))

    def span(self, name: str) -> "_Span":
        """A span around benchmark code, used as a context manager."""
        return _Span(self, self._name_id(name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self time in ns.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        n = len(self.start_col)
        k = len(self.names)
        name = np.frombuffer(self.name_col, dtype=np.int32)
        parent = np.frombuffer(self.parent_col, dtype=np.int32)
        dur = (np.frombuffer(self.end_col, dtype=np.int64)
               - np.frombuffer(self.start_col, dtype=np.int64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            self.names[j]: {
                "calls": int(calls[j]), "incl_ns": float(incl[j]), "self_ns": float(own[j])
            }
            for j in range(k)
        }

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, parent index, start and end in ns."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "counts": dict(self.counts)}) + "\n")
            for i in range(len(self.start_col)):
                fh.write(
                    f"[{self.name_col[i]},{self.parent_col[i]},"
                    f"{self.start_col[i]},{self.end_col[i]}]\n"
                )


class _Span:
    __slots__ = ("tracer", "nid", "i", "t0")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer._open(self.nid)
        self.t0 = _now()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end_col[self.i] = _now()
        t.start_col[self.i] = self.t0
        t._stack.pop()
        return False
