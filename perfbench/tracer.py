"""In-memory span tracer that wraps the engine's layer functions from outside.

Nothing inside the package is edited: while a :class:`Tracer` is attached,
the module attributes listed in :data:`WRAPPED` are replaced by timing
wrappers, and the workloads' own evaluation closures report to it through a
:class:`Meter`.  The engine looks its kernels and helpers up through module
attributes at call time, so the wrappers see every call, including the ones
made from the engine's worker threads.

Layers are the package modules on the measured path:

* ``kernels`` (``dustcocycle._kernels``): digit maps, trace kernels, leaf sums;
* ``oracle``: the torus functions and projection fields being evaluated (the
  workloads' seeded closures around them; on lipschitz-direct, the linear
  closures and the sine-xy rules) and torus quadrature;
* ``cocycle``: orchestration -- float coordinates, corner tuples, complex
  casts, batching, the thread pool and the reduction.  Its busy time is the
  self time of its spans: the public functions, and ``_leaf_sums_for_range``,
  the per-task function that ``_sum_kernel`` looks up as a module global each
  time a task runs, so that the worker threads' share is spanned too.

``geometry``, ``cantor``, ``fredholm`` and ``cli`` hold the exact reference and
selftest paths and thin I/O; no workload calls them on a timed path, so they
are not traced.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# module -> {attribute: span name}
WRAPPED = {
    "_kernels": {
        "corner_numerators": "kernels.digits",
        "dust_image_bits": "kernels.digits",
        "scalar_kernel": "kernels.kernel",
        "matrix_kernel": "kernels.kernel",
        "leaf_sums": "kernels.leaf_sums",
    },
    "oracle": {
        "wedge_quadrature": "oracle.quadrature",
        "chern_pairing_oracle": "oracle.quadrature",
    },
    "cocycle": {
        name: f"cocycle.{name}"
        for name in (
            "convergence_table",
            "phi_n",
            "phi_subdivision",
            "pairing_n",
            "validate_projection",
            "estimate_lipschitz",
            "lipschitz_bound",
        )
    }
    | {"_leaf_sums_for_range": "cocycle.task"},
}

# Exact counters recorded at the same boundaries as the spans.  They depend
# only on the inputs, never on timing or worker count.
EXACT_COUNTS = (
    "kernels.digit_words",
    "kernels.kernel_squares",
    "kernels.kernel_bytes_computed",
    "oracle.vertex_evals",
    "cocycle.tasks",
)

BUSY_SPANS = (
    "kernels.digits",
    "kernels.kernel",
    "kernels.leaf_sums",
    "oracle.evaluate",
    "oracle.quadrature",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str


def _count(span_name, args, out):
    """Exact counts for one wrapped call, computed from array sizes."""
    if span_name == "kernels.digits":
        return {"kernels.digit_words": int(args[0].size)}
    if span_name == "kernels.kernel":
        moved = sum(int(a.nbytes) for a in args) + int(out.nbytes)
        return {"kernels.kernel_squares": int(out.size), "kernels.kernel_bytes_computed": moved}
    if span_name == "cocycle.task":
        return {"cocycle.tasks": 1}
    return {}


class Tracer:
    """Spans and exact counts of one traced stretch of work."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, count_key=None, count=0):
        """Time a block as span ``name``; optionally add ``count`` to a counter.

        Spans opened on a pool worker thread with nothing open on that thread
        get the innermost span open on the attaching thread as parent: that
        is the public engine call that started the pool.
        """
        stack = self._stack()
        parent = stack[-1] if stack else (self._owner_stack[-1] if self._owner_stack else None)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.current_thread().name)
                )
                if count_key:
                    self.counts[count_key] += count

    def add(self, counts):
        with self._lock:
            self.counts.update(counts)

    def _wrap(self, fn, span_name):
        def traced(*args, **kwargs):
            with self.span(span_name):
                out = fn(*args, **kwargs)
            self.add(_count(span_name, args, out))
            return out

        return traced

    @contextmanager
    def attached(self, package, meter):
        """Wrap the functions in :data:`WRAPPED` for the duration."""
        self._local.stack = self._owner_stack
        saved = []
        try:
            for modname, attrs in WRAPPED.items():
                mod = getattr(package, modname)
                for attr, span_name in attrs.items():
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn, span_name))
            meter.tracer = self
            yield self
        finally:
            meter.tracer = None
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._local.stack = None

    def exact_counts(self):
        return {k: int(self.counts.get(k, 0)) for k in EXACT_COUNTS}


class Meter:
    """Routes the workloads' function evaluations through an attached tracer.

    Untraced, a wrapped rule costs one attribute test per call.
    """

    def __init__(self):
        self.tracer: Tracer | None = None

    def wrap(self, fn, shift=None):
        """``fn`` evaluated at (u, v), translated by ``shift`` when given."""
        a, b = shift if shift is not None else (None, None)

        def rule(u, v):
            tracer = self.tracer
            if tracer is None:
                return fn(u, v) if a is None else fn(u + a, v + b)
            with tracer.span("oracle.evaluate", "oracle.vertex_evals", int(u.size)):
                return fn(u, v) if a is None else fn(u + a, v + b)

        return rule


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(lo, s), min(hi, e)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def busy_times(spans):
    """Busy seconds per leaf span name, plus ``cocycle.self``.

    Leaf layers (kernels, oracle) never nest in themselves, so their busy time
    is the sum of their span durations, summed across threads.  The cocycle
    layer's busy time is the self time of its spans: each span's duration
    minus the part of it that its direct children, on any thread, cover.
    """
    busy = dict.fromkeys(BUSY_SPANS, 0.0)
    busy["cocycle.self"] = 0.0
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    for s in spans:
        if s.name.startswith("cocycle."):
            kids = children.get(s.id, ())
            busy["cocycle.self"] += (s.end - s.start) - _covered(s.start, s.end, kids)
        else:
            busy[s.name] += s.end - s.start
    return busy
