"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the engine's modules by replacing a
function at the name its callers look it up under (a module attribute or a
class attribute), so the engine itself is unchanged.  Each span keeps its
name, parent, an integer detail (the mode count N for ``project_F``), start
and end.  Counts are taken at the same wrappers.  Nothing is written until
``save`` is called at the end of the run.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np

# columns of one span record
NAME, PARENT, DETAIL, START, END = range(5)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None, detail=None):
        """Return fn wrapped in a span called `name`.

        count(counts, args, kwargs, result) adds to the counters after the
        call; detail(args, kwargs) gives the span's integer detail.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [nid, stack[-1] if stack else -1,
                    detail(args, kwargs) if detail else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None, detail=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count, detail))

    def mark(self) -> tuple[int, Counter]:
        """Position to aggregate from: span index and a copy of the counters."""
        return len(self.spans), Counter(self.counts)

    def aggregate(self, since: tuple[int, Counter]) -> dict:
        """Per-name calls, total and self seconds of the spans after `since`,
        per-(name, detail) self seconds, and the counters' increase.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        first, counts_before = since
        rec = np.array(self.spans[first:], dtype=np.float64).reshape(-1, 5)
        name_id = rec[:, NAME].astype(np.int64)
        parent = rec[:, PARENT].astype(np.int64) - first
        detail = rec[:, DETAIL].astype(np.int64)
        dur = rec[:, END] - rec[:, START]
        inside = parent >= 0
        self_s = dur - np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        out = {"spans": {}, "self_by_detail": {}}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            out["spans"][name] = {"calls": int(sel.sum()),
                                  "total_s": float(dur[sel].sum()),
                                  "self_s": float(self_s[sel].sum())}
            for d in np.unique(detail[sel & (detail >= 0)]):
                out["self_by_detail"][f"{name}.{int(d)}"] = float(
                    self_s[sel & (detail == d)].sum())
        out["counts"] = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}
        return out

    def save(self, path) -> None:
        """Write every span (name index, parent index, detail, start, end)."""
        rec = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names), spans=rec)
