"""Layer spans recorded from outside the program.

The tracer wraps functions of ``ffheflow``'s modules, and the numpy/scipy
kernels they call, by rebinding names in the namespace of the module that
calls them (``ffheflow.core.lu_factor``, ``ffheflow.report.build_system``,
...).  Nothing in the program changes; :meth:`Tracer.uninstall` puts every
original back.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and study id, per call;
* a *leaf* (for kernels called thousands of times per study, such as the
  per-bus series evaluation) adds its time and call count to the innermost
  open span instead, which keeps memory and overhead bounded.

Spans are kept in memory and written out by :meth:`Tracer.write`.  Each
thread keeps its own span stack, so studies running on worker threads nest
correctly; the span list is shared under a lock.  A span opened by a
*root* wrapper while its thread has no study open starts a new study id.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter_ns

# span record fields
NAME, START, END, PARENT, STUDY, THREAD, LEAVES, COUNTS = range(8)


class Tracer:
    """Spans of one traced run, and the wrappers that record them."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._studies = 0
        self._installed: list = []

    # ------------------------------------------------------------ wrappers

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.study = None
            loc.leaf_depth = 0
        return loc

    def span(self, name: str, fn, root: bool = False, count=None):
        """``fn`` wrapped in a span named ``name``.

        ``count(loc, args, result)`` may return a dict of counters added to
        the span; ``loc`` is the calling thread's tracer state, where a
        counter may keep state of its own.
        """
        tracer = self

        def traced(*args, **kwargs):
            loc = tracer._state()
            opened_study = root and loc.study is None
            if opened_study:
                with tracer._lock:
                    loc.study = tracer._studies
                    tracer._studies += 1
            rec = [name, perf_counter_ns(), 0,
                   loc.stack[-1] if loc.stack else -1,
                   loc.study, threading.get_ident(), {}, {}]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            loc.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    _add(rec[COUNTS], count(loc, args, result))
                return result
            finally:
                rec[END] = perf_counter_ns()
                loc.stack.pop()
                if opened_study:
                    loc.study = None

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn, count=None):
        """``fn`` wrapped so that its time and calls accumulate on the
        innermost open span.  Calls made outside any span are not
        recorded."""
        tracer = self

        def traced(*args, **kwargs):
            loc = tracer._state()
            if not loc.stack:
                return fn(*args, **kwargs)
            loc.leaf_depth += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                loc.leaf_depth -= 1
                rec = tracer.spans[loc.stack[-1]]
                acc = rec[LEAVES].setdefault(name, [0, 0, 0])
                acc[0] += dt
                acc[1] += 1
                if loc.leaf_depth == 0:   # time not inside another leaf
                    acc[2] += dt
            if count is not None:
                _add(rec[COUNTS], count(loc, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------- installation

    def install(self, module, attr: str, wrapper) -> None:
        """Rebind ``module.attr`` to ``wrapper``; undone by uninstall()."""
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)

    # -------------------------------------------------------------- output

    def write(self, path) -> None:
        """All spans as JSON lines: times in ns from the first span."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start_ns": s[START] - t0,
                    "end_ns": s[END] - t0, "parent": s[PARENT],
                    "study": s[STUDY], "thread": s[THREAD],
                    "leaves": s[LEAVES], "counts": s[COUNTS]}) + "\n")


def _add(into: dict, counts) -> None:
    for k, v in (counts or {}).items():
        into[k] = into.get(k, 0) + v


def summarize(spans):
    """Per-name totals over the spans that belong to a study.

    Returns ``({name: {"ns", "self_ns", "calls"}}, counts)``, ``counts``
    being the summed span counters.  Self time is a span's duration minus
    its child spans and its outermost leaf calls; a leaf's own entry has
    ``self_ns`` equal to its time.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    out: dict = {}
    counts: dict = {}
    for i, s in enumerate(spans):
        if s[STUDY] is None:
            continue
        dur = s[END] - s[START]
        leaf_top = sum(acc[2] for acc in s[LEAVES].values())
        e = out.setdefault(s[NAME], {"ns": 0, "self_ns": 0, "calls": 0})
        e["ns"] += dur
        e["self_ns"] += dur - child_ns[i] - leaf_top
        e["calls"] += 1
        for lname, (ns, calls, _top) in s[LEAVES].items():
            le = out.setdefault(lname, {"ns": 0, "self_ns": 0, "calls": 0})
            le["ns"] += ns
            le["self_ns"] += ns
            le["calls"] += calls
        _add(counts, s[COUNTS])
    return out, counts
