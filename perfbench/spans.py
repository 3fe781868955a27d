"""In-memory spans around the benchmark's calls into each rotmaps layer.

A span is ``[name, start, end, parent, item, replay, error]``.  ``parent``
is the index of the enclosing span, ``item`` the label of the item being
run, ``replay`` marks a standalone re-run of a call that a public function
makes internally (only traced runs make these), and ``error`` is the
exception type name when the call raised.

A layer's self time is a span's duration minus the durations of its child
spans, replays included: ``parse_rot`` calls ``validate`` internally, so a
replayed ``validate`` on the parsed map is recorded as a child of the
``parse_rot`` span and its time moves from ``io`` to ``core``.  Replays are
estimates of the inner calls, so :func:`self_times` scales them to fit.

A disabled tracer runs each call directly and records nothing.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

NAME, START, END, PARENT, ITEM, REPLAY, ERROR = range(7)


class Tracer:
    def __init__(self, enabled: bool, internal=None):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self.replay_s = 0.0  # wall time spent in replays, kept out of item latency
        self._stack: list[int] = []
        self._replaying = 0
        self._internal = internal  # internal(replay, name, fn, args, result)

    @contextmanager
    def span(self, name: str, replay: bool = False):
        """Record one span; yields its index, or None when disabled."""
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.item, replay, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` in a span, then replay the calls it makes internally."""
        if not self.enabled:
            return fn(*args)
        with self.span(name) as sid:
            result = fn(*args)
        if self._internal is not None:
            self._internal(self._replayer(sid), name, fn, args, result)
        return result

    def _replayer(self, parent: int):
        def replay(name, fn, *args):
            top = self._replaying == 0  # nested replays already count in the top one
            self._replaying += 1
            t0 = time.perf_counter()
            saved, self._stack = self._stack, [parent]
            try:
                with self.span(name, replay=True) as sid:
                    result = fn(*args)
                if self._internal is not None:
                    self._internal(self._replayer(sid), name, fn, args, result)
            finally:
                self._stack = saved
                self._replaying -= 1
                if top:
                    self.replay_s += time.perf_counter() - t0
            return result

        return replay

    def count(self, name: str, k: int) -> None:
        if self.enabled:
            self.counts[name] += k


def self_times(spans: list[list], first: int = 0) -> Counter:
    """Self time per span name over ``spans[first:]``.

    Replays are timed apart from the call they stand for, so together they
    can take longer than it did.  Children are then scaled down to fit their
    parent: no self time is negative, and the self times of a tree sum to
    the duration of its root.
    """
    own = Counter()
    scale, inside = {}, {}
    for sid in range(first, len(spans)):
        parent = spans[sid][PARENT]
        if parent is not None and parent >= first:
            inside[parent] = inside.get(parent, 0.0) + spans[sid][END] - spans[sid][START]
    for sid in range(first, len(spans)):  # a parent always precedes its children
        rec = spans[sid]
        parent = rec[PARENT]
        k = 1.0
        if parent is not None and parent >= first:
            p = spans[parent]
            k = scale[parent] * min(1.0, (p[END] - p[START]) / inside[parent])
        scale[sid] = k
        duration = k * (rec[END] - rec[START])
        children = k * min(inside.get(sid, 0.0), rec[END] - rec[START])
        own[rec[NAME]] += duration - children
    return own
