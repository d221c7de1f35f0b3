"""In-memory span tracer for the timerq layers.

The tracer wraps public functions and instance methods of the `timerq`
modules from the outside (it never edits them) and restores the
originals on `uninstall`.  Every wrapped call is timed and folded into
per-name totals: call count, total ns and self ns (the span's duration
minus the part its wrapped children cover).  Spans themselves
(id, name, start, end, parent, run id) are kept in memory and written
out once with `write`: every root span is kept, deeper spans only up to
`span_cap`, because a trace-scale run makes millions of calls.

The wrapper's own cost would otherwise land in the numbers: inside each
span (`inner_ns`) and in its parent's self time around each child call
(`outer_ns`).  `calibrate` measures both on a no-op function, and the
readers below subtract them per call.

Span names are `<layer>.<function>` or `<layer>.<Class>.<method>`; the
layer is the module that owns the code (`harness`, `core`, `systolic`,
`oracle`).  A hook may add a suffix to the name from the call's result
(for example `.insert` / `.update` on `BehavioralQueue.push`) and may
record counts at the same boundary.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import Counter


class Tracer:
    def __init__(self, span_cap: int = 20_000):
        self.span_cap = span_cap
        # name -> [calls, total_ns, self_ns, direct children, descendants]
        self.stats: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self.seen: dict[str, dict[int, object]] = {}  # kind -> id(obj) -> obj
        self.spans: list[tuple] = []
        self.dropped = 0
        self.run_id = 0
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        # per open call: [span id, child ns, direct children, descendants]
        self._stack: list[list[int]] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook=None):
        """Replace `owner.attr` with a timed wrapper.  `hook(args,
        result, tracer)` runs after a successful call and returns a
        suffix for the span name."""
        original = getattr(owner, attr)
        setattr(owner, attr, self._timed(original, name, hook))
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def remember(self, kind: str, obj):
        """Keep a model instance so its own counters can be read later."""
        self.seen.setdefault(kind, {})[id(obj)] = obj

    def _timed(self, fn, name, hook):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0, 0, 0]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                    parent[2] += 1
                    parent[3] += 1 + frame[3]
                key = name + hook(args, result, self) if ok and hook else name
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0, 0, 0, 0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
                row[3] += frame[2]
                row[4] += frame[3]
                if parent is None or len(spans) < self.span_cap:
                    spans.append((frame[0], key, start, end,
                                  parent[0] if parent else None, self.run_id))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def calibrate(self, n: int = 50_000, repeats: int = 5):
        """Measure the wrapper's cost on a no-op child called from a
        wrapped parent; keep the median of `repeats` tries."""
        def noop():
            pass

        inner, outer = [], []
        for _ in range(repeats):
            probe = Tracer(span_cap=0)
            child = probe._timed(noop, "child", None)

            def loop(fn):
                for _ in range(n):
                    fn()

            start = time.perf_counter_ns()
            loop(noop)
            plain = time.perf_counter_ns() - start
            probe._timed(loop, "parent", None)(child)
            inner.append(probe.stats["child"][1] / n)
            outer.append((probe.stats["parent"][2] - plain) / n)
        self.inner_ns = max(0.0, statistics.median(inner))
        self.outer_ns = max(0.0, statistics.median(outer))

    # -- reading totals, net of the wrapper's own cost -----------------------

    def calls(self, name: str) -> int:
        row = self.stats.get(name)
        return row[0] if row else 0

    def total_ns(self, name: str) -> float:
        row = self.stats.get(name)
        if not row:
            return 0.0
        return max(0.0, row[1] - row[0] * self.inner_ns
                   - row[4] * (self.inner_ns + self.outer_ns))

    def self_ns(self, name: str) -> float:
        row = self.stats.get(name)
        if not row:
            return 0.0
        return max(0.0, row[2] - row[0] * self.inner_ns
                   - row[3] * self.outer_ns)

    def mean_ns(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_ns(name) / calls if calls else 0.0

    def layer_self_ns(self, layer: str, exclude=()) -> float:
        return sum(self.self_ns(key) for key in self.stats
                   if key.split(".", 1)[0] == layer
                   and not key.startswith(tuple(exclude)))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped,
                                 "inner_ns": self.inner_ns,
                                 "outer_ns": self.outer_ns,
                                 "totals": self.stats}) + "\n")
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": run}) + "\n")
