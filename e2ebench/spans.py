"""In-memory span recorder for the traced run.

A span has a name, a start, an end and a parent.  Spans stay in memory
and are written out once, at the end of the run.  Two kinds exist:

* explicit spans (``span``/``add``) at layer boundaries: one per op,
  per engine run, per server-side broker step;
* aggregate spans (``timed``) for calls that happen thousands of times
  per op, the kernel callbacks: one record per (parent, name) holding a
  call count and the summed duration.  They are children of whichever
  explicit span was open when the call ran.

A span's self time is its duration minus the part of it that its
children cover.  Over one tree of spans the self times add back up to
the root's duration when every child lies inside its parent;
:meth:`SpanRecorder.reconcile` measures how far they miss.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

now_ns = time.perf_counter_ns  # CLOCK_MONOTONIC: shared with the server process


class SpanRecorder:
    def __init__(self) -> None:
        #: explicit spans: [name, start_ns, end_ns, parent_index_or_None]
        self.spans: list[list] = []
        #: aggregates: (parent_index, name) -> [calls, total_ns]
        self.aggs: dict[tuple[int, str], list[int]] = {}
        #: exact event counts recorded at layer boundaries (tasks, sim ns)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now_ns(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = now_ns()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def add(self, name: str, start_ns: int, end_ns: int, parent: int | None) -> int:
        """Record a span measured elsewhere (the server's trace spans)."""
        self.spans.append([name, int(start_ns), int(end_ns), parent])
        return len(self.spans) - 1

    def timed(self, name: str, fn):
        """Wrap ``fn`` so each call adds to the aggregate under the open span."""
        aggs = self.aggs
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now_ns() - t0
                key = (stack[-1], name)
                acc = aggs.get(key)
                if acc is None:
                    aggs[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    # -- analysis ------------------------------------------------------
    def durations(self, name: str) -> list[int]:
        """Durations (ns) of every explicit span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def agg_totals(self) -> dict[str, list[int]]:
        """name -> [calls, total_ns] summed over all parents."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for (_, name), (calls, total) in self.aggs.items():
            out[name][0] += calls
            out[name][1] += total
        return dict(out)

    def self_times(self, roots: list[int] | None = None) -> dict[str, int]:
        """Summed self time (ns) per span name over the given root trees."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children[s[3]].append(i)
        agg_children: dict[int, list[tuple[str, int]]] = defaultdict(list)
        for (parent, name), (_, total) in self.aggs.items():
            agg_children[parent].append((name, total))
        if roots is None:
            roots = [i for i, s in enumerate(self.spans) if s[3] is None]
        out: dict[str, int] = defaultdict(int)
        todo = list(roots)
        while todo:
            i = todo.pop()
            name, start, end, _ = self.spans[i]
            covered = _covered(
                [(self.spans[c][1], self.spans[c][2]) for c in children[i]], start, end
            )
            covered += sum(total for _, total in agg_children[i])
            out[name] += (end - start) - covered
            for agg_name, total in agg_children[i]:
                out[agg_name] += total
            todo.extend(children[i])
        return dict(out)

    def reconcile(self, roots: list[int]) -> tuple[int, int]:
        """(sum of self times, sum of root durations) over ``roots``, in ns."""
        total_self = sum(self.self_times(roots).values())
        total_wall = sum(self.spans[r][2] - self.spans[r][1] for r in roots)
        return total_self, total_wall

    def write(self, path) -> None:
        """Write every span, aggregate and count as one JSON document."""
        doc = {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "aggregates": [
                {"parent": parent, "name": name, "calls": calls, "total_ns": total}
                for (parent, name), (calls, total) in sorted(self.aggs.items())
            ],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
