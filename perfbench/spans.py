"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, request id)``.  Spans are kept in
flat arrays while the run goes on and written out once, when it ends.
The benchmark records them around its own calls into the library's
public entry points; nothing inside the library is patched.
"""

from __future__ import annotations

import bisect
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

#: span name prefix -> the layer it measures.  Layers are named after
#: the modules behind the wrapped entry points:
#:
#: * ``models`` -- ``repro.models`` (request draw);
#: * ``heuristics`` -- ``repro.heuristics`` + ``repro.wormhole``, called
#:   through ``repro.registry`` route functions (they use the distance
#:   and path caches of ``repro.topology.oracle``);
#: * ``sim.traffic`` -- ``repro.sim.traffic`` (Router -> worm specs,
#:   route algorithm included), for the Figs. 7.8-7.11 runs only: they
#:   take a ``router=`` that the benchmark times;
#: * ``sim.engine`` -- ``repro.sim.runner`` + ``.reference`` + ``.kernel``
#:   (``run_dynamic`` minus its Router calls, and all of ``run_mixed``,
#:   which takes no ``router=`` and so includes its own routing);
#: * ``sim.faults`` -- ``repro.sim.faults`` (all of ``run_resilient``,
#:   its own routing included);
#: * ``service.protocol`` -- ``repro.service.protocol`` (JSONL lines);
#: * ``service.supervisor`` -- ``repro.service.supervisor`` + ``.cache``
#:   (``submit``, and waiting on the dispatcher and workers);
#: * ``service.worker`` -- ``repro.service.worker.compute_route``.
LAYERS = (
    ("models.", "models"),
    ("route.", "heuristics"),
    ("sim.route", "sim.traffic"),
    ("sim.dynamic", "sim.engine"),
    ("sim.mixed", "sim.engine"),
    ("sim.faults", "sim.faults"),
    ("svc.protocol.", "service.protocol"),
    ("svc.submit", "service.supervisor"),
    ("svc.wait", "service.supervisor"),
    ("svc.compute_route", "service.worker"),
)


def layer_of(name: str) -> str:
    """The layer of a span name; ``harness`` for the benchmark's own
    spans (passes, requests)."""
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "harness"


class Tracer:
    """Records spans; ``parent`` is an index into the span list (-1 for
    a root).  Spans opened with :meth:`span` nest on a stack; spans of
    interleaved requests pass their parent explicitly to :meth:`add`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def current(self) -> int:
        """Index of the innermost open :meth:`span` (-1 outside any)."""
        return self._stack[-1] if self._stack else -1

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, t0: float, parent: int = -1, rid: int = -1) -> int:
        """Start a span whose end is filled in later by :meth:`close`."""
        self.name_id.append(self._id(name))
        self.start.append(t0)
        self.end.append(t0)
        self.parent.append(parent)
        self.rid.append(rid)
        return len(self.start) - 1

    def close(self, index: int, t1: float) -> None:
        self.end[index] = t1

    def add(self, name: str, t0: float, t1: float, parent: int = -1, rid: int = -1) -> int:
        index = self.open(name, t0, parent, rid)
        self.end[index] = t1
        return index

    @contextmanager
    def span(self, name: str, rid: int = -1):
        index = self.open(name, time.perf_counter(), self.current(), rid)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.end[index] = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- summaries ----------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).  Self time is a
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
        return {n: (calls[n], total[n], own[n]) for n in calls}

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer (see :data:`LAYERS`)."""
        out: dict[str, float] = defaultdict(float)
        for name, (_calls, _total, own) in self.totals().items():
            out[layer_of(name)] += own
        return dict(out)

    def layer_cover(self, windows: list[tuple[float, float]]) -> float:
        """Seconds of the disjoint time ``windows`` covered by at least
        one span of a named layer that lies inside a window (the union
        of their intervals, so concurrent requests count once)."""
        windows = sorted(windows)
        starts = [w[0] for w in windows]

        def inside(t0: float, t1: float) -> bool:
            j = bisect.bisect_right(starts, t0) - 1
            return j >= 0 and t1 <= windows[j][1]

        intervals = sorted(
            (self.start[i], self.end[i])
            for i in range(len(self.start))
            if layer_of(self.names[self.name_id[i]]) != "harness"
            and inside(self.start[i], self.end[i])
        )
        covered, reach = 0.0, float("-inf")
        for t0, t1 in intervals:
            if t1 > reach:
                covered += t1 - max(t0, reach)
                reach = t1
        return covered

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == nid
        ]

    def dump(self, path, meta: dict) -> None:
        """Write the spans as JSON lines: one header, then one span per
        line as ``[name, start, end, parent, request id]``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "rid"]}))
            fh.write("\n")
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name_id[i]],
                            round(self.start[i], 7),
                            round(self.end[i], 7),
                            self.parent[i],
                            self.rid[i],
                        ]
                    )
                )
                fh.write("\n")
