"""In-memory spans and counters recorded around calls into the solver's modules.

The solver is not edited: `Tracer.patch` swaps a module or class attribute for
a wrapper and `Tracer.restore` puts every original back. Each span records
(name, start, end, parent, run id); nothing is written until the caller asks
for the aggregates at the end of a run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN = range(5)


def self_times(spans):
    """Per-span self time: its duration minus its direct children's durations.

    Spans nest on one call stack, so a span's children lie inside it and do
    not overlap each other.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class Tracer:
    """Span recorder plus named counters, with reversible attribute patches.

    With `spans=False` wrappers only run their result hooks (counting), so
    the untraced benchmark pays one Python call per wrapped call.
    """

    def __init__(self, spans=True, clock=time.perf_counter, run_id=0):
        self.record_spans = spans
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.run_id = run_id
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = self.clock()
        self._stack.pop()

    def self_time_by_name(self):
        out = defaultdict(float)
        for s, st in zip(self.spans, self_times(self.spans)):
            out[s[NAME]] += st
        return out

    def calls_by_name(self):
        out = defaultdict(int)
        for s in self.spans:
            out[s[NAME]] += 1
        return out

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name, on_result=None):
        """Wrap fn in a span called `name` (a string, or a function of the
        call's positional arguments). on_result(args, result) runs after the
        span closes, so counting is not charged to the layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.record_spans:
                idx = tracer.open(name(args) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            else:
                result = fn(*args, **kwargs)
            if on_result is not None:
                result = on_result(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_result))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
