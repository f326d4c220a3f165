"""Outside-in timing probes for the simulator's layers.

A probe replaces one public method (or module function) with a wrapper
that times every call.  Probes nest: a call's *self* time is its duration
minus the durations of the probed calls made inside it, so each
nanosecond of a run lands in exactly one probed method or, outside every
probe, in the residual the benchmark reports as glue.

Totals are folded online per (task, layer, method) -- calls, inclusive ns,
self ns, and the number of probed calls made directly inside -- so memory
stays constant however many calls a run makes (a full-scale DX100 run
makes millions).  :meth:`Tracer.end_task` closes one task's totals.

Probing costs time on every call, and far more inside the simulator than
in any microbenchmark of the wrapper.  So every probe gets a *twin*: an
identical probe wrapped around it, booked under layer :data:`TWIN`.  The
twin's self time is the cost of the probe inside it, measured in place on
every call; the benchmark subtracts twice that to undo both.
"""

from __future__ import annotations

import functools
import time

#: Layer name under which each probe's twin books its calls.
TWIN = "trace"

_clock = time.perf_counter_ns


class Tracer:
    """Per-(task, layer, method) call totals for a set of probed methods."""

    def __init__(self) -> None:
        # One [child_ns, child_calls] frame per probed call in progress.
        self._stack: list[list[int]] = []
        # (layer, method) -> [calls, inclusive_ns, child_ns, child_calls]
        self._live: dict[tuple[str, str], list[int]] = {}
        # Probed calls made with no probed call in progress.
        self._root = [0]
        #: Finished tasks, in order: ``{"task", "root_calls", "counts",
        #: "methods": [{"layer", "method", "calls", "incl_ns", "self_ns",
        #: "child_calls"}]}``.
        self.tasks: list[dict] = []

    def _probe(self, layer: str, method: str, fn):
        acc = self._live.setdefault((layer, method), [0, 0, 0, 0])
        stack = self._stack
        root = self._root
        clock = _clock

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                acc[0] += 1
                acc[1] += dt
                acc[2] += frame[0]
                acc[3] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += 1
                else:
                    root[0] += 1

        return probe

    def wrap(self, layer: str, method: str, fn):
        """Return ``fn`` wrapped in a probe booking calls to (``layer``,
        ``method``), inside its twin."""
        return self._probe(TWIN, f"{layer}.{method}",
                           self._probe(layer, method, fn))

    def patch(self, owner, attr: str, layer: str, method: str | None = None):
        """Replace ``owner.attr`` (a class or module attribute) by its probe.

        Classes must be patched before instances that cache bound methods
        are built (the DMP engine registers its bound ``observe`` at
        construction)."""
        setattr(owner, attr, self.wrap(layer, method or attr,
                                       getattr(owner, attr)))

    def end_task(self, task: str, counts: dict | None = None) -> None:
        """Close the current task: move the live totals into :attr:`tasks`
        under ``task`` and zero them.  A task with no probed calls and no
        counts is dropped."""
        methods = []
        for (layer, method), acc in self._live.items():
            calls, incl, child, child_calls = acc
            if calls:
                methods.append({
                    "layer": layer, "method": method, "calls": calls,
                    "incl_ns": incl, "self_ns": incl - child,
                    "child_calls": child_calls,
                })
            acc[0] = acc[1] = acc[2] = acc[3] = 0
        if methods or counts:
            self.tasks.append({"task": task, "root_calls": self._root[0],
                               "counts": dict(counts or {}),
                               "methods": methods})
        self._root[0] = 0
