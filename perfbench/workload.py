"""The benchmark's workloads; each runs in a fresh process started by
``run.py``.

    python3 perfbench/workload.py --workload static-figs --seed 0 --seconds 10 --trace 0

prints one JSON line with the workload's measured metrics (``run.py``
adds the set-up time and peak memory, which it measures from outside).
``--setup-only`` builds the workload, prints ``ready`` and exits: the
parent times that from process start to the ``ready`` line.

Workloads:

* ``static-figs`` -- the parameter grid of Figs. 7.1-7.7 (the static
  study, at the smallest replication ``repro.experiments.reproduce``
  allows), every legend scheme routing the same ``random_multicast``
  requests.  An operation is one route call.
* ``sim`` -- the grid of Figs. 7.8-7.11 at 400 messages a point, the
  ``faults`` degradation table at CLI defaults with one replication,
  and one ``run_mixed`` run at CLI defaults.  An operation is one
  simulation run.

The traced run of ``sim`` also measures the routing service: a closed
loop, one generator with two requests in flight, against an in-process
``RouteService`` with two workers.  Half the requests repeat a small
hot set that fits the LRU (cache hits), half are distinct (cache
misses); each is encoded and decoded as JSONL wire lines on both
sides.  The service is not a workload of its own because its pass time
follows the host's wake-up latency (its dispatcher polls every 2 ms):
ten runs spread by up to 0.29 of their median, more than any bound.

``static-figs`` routes the dissertation's own requests (the seeds of
``repro.experiments``) whatever ``--seed`` is: greedy-ST's cost varies
2.5x between random requests of the same size, so other seeds would
move the pass time by more than any bound.  For ``sim``, ``--seed n``
selects input set ``n mod INPUT_SETS``; input set 0 is the
dissertation's seeds.  Static rows and input-set-0 simulation rows
equal ``repro.experiments.reproduce`` rows, and both workloads check
their outputs against the digests in ``digests.json``.  The service
loop draws its request stream from ``n`` itself and checks every
response against an in-process ``compute_route`` of the same job.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP threads before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from concurrent.futures import FIRST_COMPLETED, wait
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402  (the benchmark's own module)

WORKLOADS = ("static-figs", "sim")
SIZES = ("full", "smoke")

#: recorded input sets of ``sim``; ``--seed n`` picks ``n % INPUT_SETS``
INPUT_SETS = 16

perf = time.perf_counter

# ----------------------------------------------------------------------
# Metric names (BENCHMARK.json lists the same names and units)
# ----------------------------------------------------------------------

#: measured inside the workload process with tracing off (name -> unit);
#: ``run.py`` adds ``setup_s`` and ``peak_rss_mb``
END_TO_END = (("job_s", "s"), ("items_per_s", "1/s"))

#: layer keys of spans.LAYERS plus the benchmark's own harness time
SELF_LAYERS = (
    "models", "heuristics", "sim.traffic", "sim.engine", "sim.faults",
    "service.protocol", "service.supervisor", "service.worker", "harness",
)

PER_LAYER = (
    # static study
    ("route.calls", "count"),
    ("route.greedy-st.s", "s"),
    ("route.greedy-st.calls", "count"),
    ("route.greedy-st.k700_ms", "ms"),
    ("route.greedy-st.share", "ratio"),
    ("route.other.s", "s"),
    ("models.draw.s", "s"),
    ("oracle.path_hits", "count"),
    ("oracle.path_misses", "count"),
    ("oracle.rows_built", "count"),
    # dynamic study
    ("sim.dynamic.s", "s"),
    ("sim.route.s", "s"),
    ("sim.route.calls", "count"),
    ("sim.route.tree.s", "s"),
    ("sim.engine.s", "s"),
    ("sim.engine.light.s", "s"),
    ("sim.engine.saturated.s", "s"),
    ("sim.engine.us_per_delivery", "us"),
    ("sim.worms", "count"),
    ("sim.deliveries", "count"),
    ("sim.sim_time_us", "sim_us"),
    ("faults.s", "s"),
    ("faults.retries", "count"),
    ("faults.killed_worms", "count"),
    ("faults.delivered", "count"),
    ("faults.dropped", "count"),
    ("mixed.s", "s"),
    # routing service (measured in the traced run of ``sim``)
    ("svc.setup_s", "s"),
    ("svc.job_s", "s"),
    ("svc.req_per_s", "1/s"),
    ("svc.cold_p50_us", "us"),
    ("svc.cold_p99_us", "us"),
    ("svc.cold_n", "count"),
    ("svc.warm_p50_us", "us"),
    ("svc.warm_p99_us", "us"),
    ("svc.warm_n", "count"),
    ("svc.compute_route_p50_us", "us"),
    ("svc.overhead_x", "x"),
    ("svc.submit_us", "us"),
    ("svc.protocol.encode_us", "us"),
    ("svc.protocol.decode_us", "us"),
    ("svc.cache_hit_rate", "ratio"),
    ("svc.repeat_share", "ratio"),
    ("svc.retries", "count"),
    ("svc.worker_restarts", "count"),
    ("svc.shed", "count"),
    ("svc.timeouts", "count"),
    # every workload: operation latency of the untraced passes
    ("op.p50_us", "us"),
    ("op.p90_us", "us"),
    ("op.samples", "count"),
    ("trace.overhead_s", "s"),
    ("trace.layer_share", "ratio"),
    ("trace.spans", "count"),
    *((f"self.{layer}.s", "s") for layer in SELF_LAYERS),
)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


# ----------------------------------------------------------------------
# static-figs: Figs. 7.1-7.7
# ----------------------------------------------------------------------

#: the figure grid of repro.experiments: (figure, topology, legend
#: schemes, k values, default runs per point)
STATIC_GRID = (
    ("fig7.1", ("mesh", 32, 32), ("sorted-mp", "multi-unicast", "broadcast"),
     (10, 50, 100, 200, 400, 600, 900), 30),
    ("fig7.2", ("cube", 10), ("sorted-mp", "multi-unicast", "broadcast"),
     (10, 50, 100, 200, 400, 600, 900), 30),
    ("fig7.3", ("mesh", 32, 32), ("greedy-st", "multi-unicast", "broadcast"),
     (10, 50, 100, 200, 400, 700), 20),
    ("fig7.4", ("cube", 10), ("greedy-st", "len", "multi-unicast"),
     (10, 50, 100, 200, 400, 700), 20),
    ("fig7.5", ("mesh", 16, 16), ("divided-greedy", "xfirst", "multi-unicast", "broadcast"),
     (5, 10, 25, 50, 100, 180), 40),
    ("fig7.6", ("cube", 6), ("multi-path", "dual-path", "fixed-path"),
     (2, 5, 10, 20, 35, 50), 60),
    ("fig7.7", ("mesh", 8, 8), ("multi-path", "dual-path", "fixed-path"),
     (2, 5, 10, 20, 35, 50), 60),
)

#: replication scale of ``repro.experiments.reproduce``: 0.1 gives the
#: fewest runs per point it allows
STATIC_SCALE = 0.1
#: the request seed of ``repro.experiments._static_sweep``
STATIC_SEED = 10_000


def static_grid(size: str):
    if size == "smoke":
        return tuple((fig, topo, schemes, ks[:2], rpp) for fig, topo, schemes, ks, rpp in STATIC_GRID)
    return STATIC_GRID


def make_topology(spec):
    from repro.topology import Hypercube, Mesh2D

    return Mesh2D(spec[1], spec[2]) if spec[0] == "mesh" else Hypercube(spec[1])


class StaticWorkload:
    """One pass routes the whole grid on fresh topology instances, so
    every pass starts with empty oracle and labeling caches."""

    def __init__(self, size: str, route_wrap=None):
        from repro.models import random_multicast
        from repro.registry import get as get_spec

        self.grid = static_grid(size)
        self.random_multicast = random_multicast
        self.fns = {s: get_spec(s).fn for _f, _t, schemes, _k, _r in self.grid for s in schemes}
        if route_wrap is not None:
            self.fns = {s: route_wrap(s, fn) for s, fn in self.fns.items()}
        self.prepare()

    def prepare(self) -> None:
        self.topologies = [make_topology(topo) for _f, topo, *_rest in self.grid]

    def run_pass(self, tracer: Tracer | None):
        """Returns (cells, calls): cells are ``(figure, k, scheme,
        traffics)``, calls are ``(figure, scheme, k, seconds)``."""
        draw = self.random_multicast
        fns = self.fns
        if tracer is not None:
            draw = tracer.wrap("models.draw", draw)
            fns = {s: tracer.wrap(f"route.{s}", fn) for s, fn in fns.items()}
        cells, calls = [], []
        for (fig, _topo, schemes, ks, rpp), topology in zip(self.grid, self.topologies):
            runs_per_point = max(3, int(rpp * STATIC_SCALE))
            for k in ks:
                runs = max(3, runs_per_point * 10 // max(10, k))
                rng = random.Random(STATIC_SEED + k)
                requests = [draw(topology, k, rng) for _ in range(runs)]
                for scheme in schemes:
                    fn = fns[scheme]
                    traffics = []
                    for request in requests:
                        t0 = perf()
                        route = fn(request)
                        calls.append((fig, scheme, k, perf() - t0))
                        traffics.append(route.traffic)
                    cells.append((fig, k, scheme, tuple(traffics)))
        return cells, calls

    def rows(self, cells):
        """The figure rows ``repro.experiments`` reports, rebuilt from
        the cells: ``{figure: ((k, mean extra traffic, ...), ...)}``."""
        out: dict = {}
        for fig, k, _scheme, traffics in cells:
            rows = out.setdefault(fig, [])
            if not rows or rows[-1][0] != k:
                rows.append([k])
            rows[-1].append(statistics.mean(t - k for t in traffics))
        return {fig: tuple(tuple(r) for r in rows) for fig, rows in out.items()}

    def cache_stats(self) -> dict:
        total = {"path_hits": 0, "path_misses": 0, "rows_built": 0}
        for topology in self.topologies:
            stats = topology.cache_stats()
            for key in total:
                total[key] += stats[key]
        return total


def cell_digests(cells) -> list[str]:
    return [digest(cell) for cell in cells]


def check_cells(expected: list[str] | None, got: list[str], weights: list[int]) -> int:
    """Failed operations: every operation of a cell whose digest differs
    (all of them when no digest is recorded for this input set)."""
    if expected is None or len(expected) != len(got):
        return sum(weights)
    return sum(w for e, g, w in zip(expected, got, weights) if e != g)


def run_static(args, route_wrap=None) -> dict:
    work = StaticWorkload(args.size, route_wrap)
    expected = load_digests()["static-figs"][args.size]

    def one_pass(tracer):
        t0 = perf()
        if tracer is None:
            cells, calls = work.run_pass(None)
        else:
            with tracer.span("pass"):
                cells, calls = work.run_pass(tracer)
        wall = perf() - t0
        failed = check_cells(expected, cell_digests(cells), [len(c[3]) for c in cells])
        return {"wall": wall, "window": (t0, t0 + wall), "cells": cells, "calls": calls,
                "failed": failed, "cache": work.cache_stats()}

    passes = repeat_passes(one_pass, work.prepare, args.seconds)
    result = summarize_passes(passes, [[c[3] for c in p["calls"]] for p in passes],
                              items=[len(p["calls"]) for p in passes])
    if args.trace:
        tracer = Tracer()
        work.prepare()
        traced = one_pass(tracer)
        result["failed"] += traced["failed"]
        result["attempted"] += len(traced["calls"])
        gst = [dt for _fig, scheme, _k, dt in traced["calls"] if scheme == "greedy-st"]
        # the 32x32 mesh calls only: fig7.4's 10-cube calls at k=700 are
        # a cluster of their own, and a median over both falls between
        k700 = [dt for fig, scheme, k, dt in traced["calls"]
                if fig == "fig7.3" and scheme == "greedy-st" and k == 700]
        totals = tracer.totals()
        route_s = sum(t for n, (_c, t, _o) in totals.items() if n.startswith("route."))
        gst_s = totals.get("route.greedy-st", (0, 0.0, 0.0))[1]
        layer = layer_metrics(tracer, [traced["window"]], result["job_s"])
        layer.update({
            "route.calls": len(traced["calls"]),
            "route.greedy-st.s": gst_s,
            "route.greedy-st.calls": len(gst),
            "route.greedy-st.k700_ms": statistics.median(k700) * 1e3 if k700 else 0.0,
            "route.greedy-st.share": gst_s / traced["wall"],
            "route.other.s": route_s - gst_s,
            "models.draw.s": totals.get("models.draw", (0, 0.0, 0.0))[1],
            "oracle.path_hits": traced["cache"]["path_hits"],
            "oracle.path_misses": traced["cache"]["path_misses"],
            "oracle.rows_built": traced["cache"]["rows_built"],
        })
        result["layer"] = layer
        result["tracer"] = tracer
    return result


# ----------------------------------------------------------------------
# sim: Figs. 7.8-7.11, the faults table and one mixed run
# ----------------------------------------------------------------------

#: (figure, schemes, swept values, SimConfig fields for a value)
DYNAMIC_GRID = (
    ("fig7.8", ("tree-xfirst", "dual-path", "multi-path"), (2000, 1000, 500, 300, 200, 150),
     lambda v: {"num_destinations": 10, "mean_interarrival": v * 1e-6, "channels_per_link": 2}),
    ("fig7.9", ("tree-xfirst", "dual-path", "multi-path"), (1, 5, 10, 20, 30, 45),
     lambda v: {"num_destinations": v, "mean_interarrival": 300e-6, "channels_per_link": 2}),
    ("fig7.10", ("dual-path", "multi-path"), (2000, 1000, 500, 300, 200, 150),
     lambda v: {"num_destinations": 10, "mean_interarrival": v * 1e-6}),
    ("fig7.11", ("dual-path", "multi-path", "fixed-path"), (5, 15, 30, 45),
     lambda v: {"num_destinations": v, "mean_interarrival": 400e-6}),
)
#: ``python -m repro faults`` defaults, one replication
FAULT_SCHEMES = ("dual-path", "dual-path-adaptive", "fixed-path")
FAULT_RATES = (0.0, 0.02, 0.05, 0.1)
#: light load and saturation, for splitting engine time (interarrival, us)
LIGHT_US, SATURATED_US = 500, 200


def sim_sizes(size: str) -> dict:
    if size == "smoke":
        return {"messages": 40, "values": 2, "rates": FAULT_RATES[:2],
                "fault_messages": 40, "mixed_messages": 100}
    return {"messages": 400, "values": None, "rates": FAULT_RATES,
            "fault_messages": 500, "mixed_messages": 1000}


class TimedRouter:
    """A ``Router`` stand-in for ``run_dynamic(router=...)`` that
    records each call as a span and sums its time."""

    def __init__(self, router, tracer: Tracer, name: str):
        self._router = router
        self._tracer = tracer
        self._name = name
        self.seconds = 0.0
        self.calls = 0

    def __call__(self, request):
        t0 = perf()
        try:
            return self._router(request)
        finally:
            t1 = perf()
            self.seconds += t1 - t0
            self.calls += 1
            self._tracer.add(self._name, t0, t1, parent=self._tracer.current())

    def __getattr__(self, name):
        return getattr(self._router, name)


class SimWorkload:
    def __init__(self, size: str, input_set: int):
        from repro.sim import SimConfig, run_dynamic, run_mixed, run_resilient
        from repro.parallel import replicate

        self.SimConfig, self.replicate = SimConfig, replicate
        self.run_dynamic, self.run_resilient, self.run_mixed = run_dynamic, run_resilient, run_mixed
        self.sizes = sim_sizes(size)
        self.dynamic_seed = 42 + input_set
        self.cli_seed = 1 + input_set
        self.prepare()

    def prepare(self) -> None:
        from repro.sim.traffic import Router
        from repro.topology import Mesh2D

        # one fresh 8x8 mesh per pass (empty caches), one Router per
        # (scheme, channels) -- what run_dynamic builds for itself
        self.topology = Mesh2D(8, 8)
        self.routers = {}
        for _fig, schemes, _values, cfg_for in DYNAMIC_GRID:
            channels = cfg_for(1).get("channels_per_link", 1)
            for scheme in schemes:
                if (scheme, channels) not in self.routers:
                    self.routers[scheme, channels] = Router(
                        self.topology, scheme, channels_per_link=channels
                    )

    def jobs(self):
        """Every simulation run of one pass, as (kind, label, SimConfig)."""
        sizes = self.sizes
        for fig, schemes, values, cfg_for in DYNAMIC_GRID:
            for value in values[: sizes["values"]]:
                fields = cfg_for(value)
                cfg = self.SimConfig(**fields, seed=self.dynamic_seed, num_messages=sizes["messages"])
                for scheme in schemes:
                    yield "dynamic", (fig, value, scheme), cfg
        base = self.SimConfig(
            num_messages=sizes["fault_messages"], num_destinations=10,
            mean_interarrival=300e-6, seed=self.cli_seed,
            fault_mtbf=0.0, fault_mttr=0.0, max_retries=3,
        )
        for scheme in FAULT_SCHEMES:
            for rate in sizes["rates"]:
                cfg = self.replicate(base.replace(link_fault_rate=rate), 1)[0]
                yield "faults", (scheme, rate), cfg
        yield "mixed", ("dual-path", 0.5), self.SimConfig(
            num_messages=sizes["mixed_messages"], num_destinations=10,
            mean_interarrival=300e-6, seed=self.cli_seed,
        )

    def run_pass(self, tracer: Tracer | None):
        """Returns job records ``(kind, label, seconds, route seconds,
        route calls, outcome tuple, messages)``."""
        records = []
        for kind, label, cfg in self.jobs():
            route_s = route_calls = 0
            if kind == "dynamic":
                router = self.routers[label[2], cfg.channels_per_link]
                if tracer is not None:
                    tree = router.spec.worm_style in ("tree", "xfirst-tree")
                    router = TimedRouter(router, tracer, "sim.route.tree" if tree else "sim.route.path")
                t0 = perf()
                if tracer is None:
                    r = self.run_dynamic(self.topology, label[2], cfg, router=router)
                else:
                    with tracer.span("sim.dynamic"):
                        r = self.run_dynamic(self.topology, label[2], cfg, router=router)
                wall = perf() - t0
                if tracer is not None:
                    route_s, route_calls = router.seconds, router.calls
                outcome = (r.mean_latency, r.deliveries, r.worms, r.sim_time, r.injected_messages)
                messages = r.injected_messages
            elif kind == "faults":
                t0 = perf()
                if tracer is None:
                    r = self.run_resilient(self.topology, label[0], cfg)
                else:
                    with tracer.span("sim.faults"):
                        r = self.run_resilient(self.topology, label[0], cfg)
                wall = perf() - t0
                s = r.stats
                outcome = (r.mean_latency, r.deliveries, r.worms, r.sim_time, r.injected_messages,
                           r.expected_deliveries, s.delivered, s.dropped, s.detoured,
                           s.killed_worms, s.retries, s.injection_failures,
                           s.link_fault_events, s.node_fault_events, s.repair_events)
                messages = r.injected_messages
            else:
                t0 = perf()
                if tracer is None:
                    r = self.run_mixed(self.topology, label[0], cfg, unicast_fraction=label[1])
                else:
                    with tracer.span("sim.mixed"):
                        r = self.run_mixed(self.topology, label[0], cfg, unicast_fraction=label[1])
                wall = perf() - t0
                outcome = (r.unicast_latency.mean, r.multicast_latency.mean,
                           r.injected_messages, r.sim_time)
                messages = r.injected_messages
            records.append((kind, label, wall, route_s, route_calls, outcome, messages))
        return records

    def rows(self, records):
        """Figs. 7.8-7.11 rows as ``repro.experiments`` reports them."""
        out: dict = {}
        for kind, label, _w, _rs, _rc, outcome, _m in records:
            if kind != "dynamic":
                continue
            fig, value, _scheme = label
            rows = out.setdefault(fig, [])
            if not rows or rows[-1][0] != value:
                rows.append([value])
            rows[-1].append(outcome[0] * 1e6)
        return {fig: tuple(tuple(r) for r in rows) for fig, rows in out.items()}


def run_sim(args) -> dict:
    work = SimWorkload(args.size, args.seed % INPUT_SETS)
    expected = load_digests()["sim"][args.size].get(str(args.seed % INPUT_SETS))

    def one_pass(tracer):
        t0 = perf()
        if tracer is None:
            records = work.run_pass(None)
        else:
            with tracer.span("pass"):
                records = work.run_pass(tracer)
        wall = perf() - t0
        got = [digest((r[0], r[1], r[5])) for r in records]
        failed = check_cells(expected, got, [1] * len(records))
        return {"wall": wall, "window": (t0, t0 + wall), "records": records, "failed": failed}

    passes = repeat_passes(one_pass, work.prepare, args.seconds)
    result = summarize_passes(passes, [[r[2] for r in p["records"]] for p in passes],
                              items=[sum(r[6] for r in p["records"]) for p in passes])
    if args.trace:
        tracer = Tracer()
        work.prepare()
        traced = one_pass(tracer)
        result["failed"] += traced["failed"]
        result["attempted"] += len(traced["records"])
        recs = traced["records"]
        dyn = [r for r in recs if r[0] == "dynamic"]
        engine = [(r, r[2] - r[3]) for r in dyn]
        load_figs = ("fig7.8", "fig7.10")
        deliveries = sum(r[5][1] for r in dyn)
        totals = tracer.totals()
        service, attempted, failed = service_phase(args.seed, args.seconds, tracer)
        result["attempted"] += attempted
        result["failed"] += failed
        layer = layer_metrics(tracer, [traced["window"]], result["job_s"])
        layer.update(service)
        layer.update({
            "sim.dynamic.s": sum(r[2] for r in dyn),
            "sim.route.s": sum(r[3] for r in dyn),
            "sim.route.calls": sum(r[4] for r in dyn),
            "sim.route.tree.s": totals.get("sim.route.tree", (0, 0.0, 0.0))[1],
            "sim.engine.s": sum(e for _r, e in engine),
            "sim.engine.light.s": sum(e for r, e in engine
                                      if r[1][0] in load_figs and r[1][1] >= LIGHT_US),
            "sim.engine.saturated.s": sum(e for r, e in engine
                                          if r[1][0] in load_figs and r[1][1] <= SATURATED_US),
            "sim.engine.us_per_delivery": sum(e for _r, e in engine) / max(1, deliveries) * 1e6,
            "sim.worms": sum(r[5][2] for r in dyn),
            "sim.deliveries": deliveries,
            "sim.sim_time_us": sum(r[5][3] for r in dyn) * 1e6,
            "faults.s": sum(r[2] for r in recs if r[0] == "faults"),
            "faults.retries": sum(r[5][10] for r in recs if r[0] == "faults"),
            "faults.killed_worms": sum(r[5][9] for r in recs if r[0] == "faults"),
            "faults.delivered": sum(r[5][6] for r in recs if r[0] == "faults"),
            "faults.dropped": sum(r[5][7] for r in recs if r[0] == "faults"),
            "mixed.s": sum(r[2] for r in recs if r[0] == "mixed"),
            **{f"oracle.{key}": work.topology.cache_stats()[key]
               for key in ("path_hits", "path_misses", "rows_built")},
        })
        result["layer"] = layer
        result["tracer"] = tracer
    return result


# ----------------------------------------------------------------------
# the routing service: closed loop against RouteService, run by the
# traced sim workload
# ----------------------------------------------------------------------

SVC_TOPOLOGY = "mesh:8x8"
SVC_SCHEMES = ("dual-path", "multi-path")
SVC_K = (2, 8)
SVC_WORKERS = 2
IN_FLIGHT = 2
HOT_SET = 16
#: share of requests drawn from the hot set
REPEAT_SHARE = 0.5
#: requests per pass (one ``job_s`` sample)
PASS_REQUESTS = 800


class ServiceWorkload:
    def __init__(self, seed: int):
        from repro.models import random_multicast
        from repro.service import RouteService, ServiceConfig
        from repro.service.protocol import RouteRequest, RouteResponse, decode_line, encode_line
        from repro.service.worker import compute_route
        from repro.topology import Mesh2D

        self.RouteRequest, self.RouteResponse = RouteRequest, RouteResponse
        self.encode_line, self.decode_line = encode_line, decode_line
        self.compute_route = compute_route
        self.random_multicast = random_multicast
        self.topology = Mesh2D(8, 8)
        self.rng = random.Random(f"service:{seed}")
        self.seen: set = set()
        self.next_id = 0
        self.outcomes: dict = {}  # job key -> {(ok, traffic, max_hops): count}
        self.svc = RouteService(ServiceConfig(workers=SVC_WORKERS)).start()
        # ready = every worker has answered once (its topology is parsed)
        warm = [self.svc.submit(self.request(self.distinct_job())) for _ in range(SVC_WORKERS)]
        for fut in warm:
            fut.result(timeout=60)
        self.hot = [self.distinct_job() for _ in range(HOT_SET)]

    def close(self) -> None:
        self.svc.close()

    def distinct_job(self, draw=None):
        draw = draw or self.random_multicast
        while True:
            scheme = self.rng.choice(SVC_SCHEMES)
            req = draw(self.topology, self.rng.randint(*SVC_K), self.rng)
            key = (scheme, req.source, tuple(req.destinations))
            if key not in self.seen:
                self.seen.add(key)
                return key

    def request(self, key):
        self.next_id += 1
        return self.RouteRequest(self.next_id, SVC_TOPOLOGY, key[0], key[1], key[2])

    def fill_hot_set(self) -> None:
        for key in self.hot:
            self.svc.submit(self.request(key)).result(timeout=60)

    def run_pass(self, tracer: Tracer | None):
        """Route ``PASS_REQUESTS`` requests with ``IN_FLIGHT`` in flight.
        Returns (wall, latencies as (seconds, cache hit))."""
        draw = self.random_multicast
        encode, decode = self.encode_line, self.decode_line
        RouteRequest, RouteResponse = self.RouteRequest, self.RouteResponse
        submit = self.svc.submit
        if tracer is not None:
            draw = tracer.wrap("models.draw", draw)
        latencies = []
        pending: dict = {}

        def issue():
            key = (self.hot[self.rng.randrange(HOT_SET)]
                   if self.rng.random() < REPEAT_SHARE
                   else self.distinct_job(draw))
            request = self.request(key)
            t0 = perf()
            if tracer is None:
                line = encode(request.to_json())
                fut = submit(RouteRequest.from_json(decode(line)))
                return fut, (key, t0, -1, t0)
            root = tracer.open("svc.request", t0, rid=request.request_id)
            t = perf()
            line = encode(request.to_json())
            t1 = perf()
            tracer.add("svc.protocol.encode", t, t1, root, request.request_id)
            served = RouteRequest.from_json(decode(line))
            t2 = perf()
            tracer.add("svc.protocol.decode", t1, t2, root, request.request_id)
            fut = submit(served)
            t3 = perf()
            tracer.add("svc.submit", t2, t3, root, request.request_id)
            return fut, (key, t0, root, t3)

        def complete(fut, meta):
            key, t0, root, submitted = meta
            if tracer is None:
                response = RouteResponse.from_json(decode(encode(fut.result().to_json())))
            else:
                rid = tracer.rid[root]
                t = perf()
                tracer.add("svc.wait", submitted, t, root, rid)
                line = encode(fut.result().to_json())
                t1 = perf()
                tracer.add("svc.protocol.encode", t, t1, root, rid)
                response = RouteResponse.from_json(decode(line))
                t2 = perf()
                tracer.add("svc.protocol.decode", t1, t2, root, rid)
            t_end = perf()
            if tracer is not None:
                tracer.close(root, t_end)
            latencies.append((t_end - t0, response.cache_hit))
            outcome = (response.ok, response.traffic, response.max_hops)
            counts = self.outcomes.setdefault(key, {})
            counts[outcome] = counts.get(outcome, 0) + 1

        t_start = perf()
        issued = 0
        while issued < PASS_REQUESTS or pending:
            while issued < PASS_REQUESTS and len(pending) < IN_FLIGHT:
                fut, meta = issue()
                issued += 1
                if fut.done():
                    complete(fut, meta)
                else:
                    pending[fut] = meta
            if pending:
                done, _ = wait(pending, timeout=60, return_when=FIRST_COMPLETED)
                if not done:
                    raise TimeoutError("no service response within 60 s")
                for fut in done:
                    complete(fut, pending.pop(fut))
        return perf() - t_start, latencies

    def verify(self, tracer: Tracer | None):
        """Compare every response with an in-process ``compute_route``
        of the same job.  Returns (failed responses, compute seconds of
        each distinct job)."""
        cache: dict = {}
        failed = 0
        times = []
        for key, counts in self.outcomes.items():
            job = {"scheme": key[0], "topology": SVC_TOPOLOGY, "source": key[1],
                   "destinations": list(key[2])}
            t0 = perf()
            ok, body = self.compute_route(cache, job)
            t1 = perf()
            if tracer is not None:
                tracer.add("svc.compute_route", t0, t1)
            times.append(t1 - t0)
            expected = (True, body.get("traffic"), body.get("max_hops")) if ok else None
            failed += sum(n for outcome, n in counts.items() if outcome != expected)
        return failed, times


def service_phase(seed: int, seconds: float, tracer: Tracer) -> tuple[dict, int, int]:
    """The routing-service closed loop of a traced ``sim`` run: untraced
    passes for ``seconds`` (the latency percentiles), then traced passes
    for ``seconds`` (the spans).  Returns (per-layer metrics, requests
    attempted, requests failed)."""
    t0 = perf()
    work = ServiceWorkload(seed)
    setup_s = perf() - t0
    try:
        work.fill_hot_set()
        walls, lat = [], []
        t_end = perf() + seconds
        while not walls or perf() < t_end:
            wall, pass_lat = work.run_pass(None)
            walls.append(wall)
            lat += pass_lat
        traced = 0
        t_end = perf() + seconds
        while not traced or perf() < t_end:
            work.run_pass(tracer)
            traced += 1
        failed, compute = work.verify(tracer)
        report = work.svc.report()
    finally:
        work.close()
    counters = report["counters"]
    cold = [d for d, hit in lat if not hit]
    warm = [d for d, hit in lat if hit]
    compute_p50 = statistics.median(compute)
    cold_p50 = statistics.median(cold)

    def median_us(name):
        return statistics.median(tracer.durations(name)) * 1e6

    layer = {
        "svc.setup_s": setup_s,
        "svc.job_s": statistics.median(walls),
        "svc.req_per_s": statistics.median(PASS_REQUESTS / w for w in walls),
        "svc.cold_p50_us": cold_p50 * 1e6,
        "svc.cold_p99_us": percentile(cold, 99) * 1e6,
        "svc.cold_n": len(cold),
        "svc.warm_p50_us": statistics.median(warm) * 1e6,
        "svc.warm_p99_us": percentile(warm, 99) * 1e6,
        "svc.warm_n": len(warm),
        "svc.compute_route_p50_us": compute_p50 * 1e6,
        "svc.overhead_x": cold_p50 / compute_p50,
        "svc.submit_us": median_us("svc.submit"),
        "svc.protocol.encode_us": median_us("svc.protocol.encode"),
        "svc.protocol.decode_us": median_us("svc.protocol.decode"),
        "svc.cache_hit_rate": counters["cache_served"] / counters["submitted"],
        "svc.repeat_share": REPEAT_SHARE,
        "svc.retries": counters["retries"],
        "svc.worker_restarts": counters["worker_restarts"],
        "svc.shed": counters["shed"],
        "svc.timeouts": counters["timeouts"],
    }
    # a response that is not ok never equals compute_route's answer,
    # so verify() counts service-side failures too
    return layer, len(lat) + PASS_REQUESTS * traced, failed


# ----------------------------------------------------------------------
# shared
# ----------------------------------------------------------------------


def repeat_passes(one_pass, prepare, seconds: float):
    """Untraced passes, each on fresh topology instances, until
    ``seconds`` have gone by (at least one)."""
    passes = []
    t_end = perf() + seconds
    while not passes or perf() < t_end:
        if passes:
            prepare()
        passes.append(one_pass(None))
    return passes


def summarize_passes(passes, op_seconds, items) -> dict:
    ops = [x for per_pass in op_seconds for x in per_pass]
    walls = [p["wall"] for p in passes]
    return {
        "job_s": statistics.median(walls),
        "items_per_s": statistics.median(n / wall for n, wall in zip(items, walls)),
        "op_p50_us": percentile(ops, 50) * 1e6,
        "op_p90_us": percentile(ops, 90) * 1e6,
        "op_samples": len(ops),
        "passes": len(passes),
        "attempted": len(ops),
        "failed": sum(p.get("failed", 0) for p in passes),
    }


def layer_metrics(tracer: Tracer, windows: list[tuple[float, float]], untraced_wall: float) -> dict:
    """Self time per layer, the share of the traced passes' wall time
    (``windows``) that named layers cover, and the trace's overhead: the
    traced passes' median wall minus the untraced ones'."""
    selfs = tracer.layer_self_times()
    walls = [t1 - t0 for t0, t1 in windows]
    out = {f"self.{layer}.s": selfs.get(layer, 0.0) for layer in SELF_LAYERS}
    out["trace.overhead_s"] = statistics.median(walls) - untraced_wall
    out["trace.layer_share"] = tracer.layer_cover(windows) / sum(walls)
    out["trace.spans"] = len(tracer)
    return out


def environment() -> dict:
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def setup(workload: str, size: str, seed: int):
    """What a user pays before the first operation: imports plus the
    workload's topology/labeling/Router construction."""
    if workload == "static-figs":
        return StaticWorkload(size)
    return SimWorkload(size, seed % INPUT_SETS)


def run(args, route_wrap=None) -> dict:
    if args.workload == "static-figs":
        return run_static(args, route_wrap)
    return run_sim(args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None, help="write the spans here (JSON lines)")
    args = parser.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.size, args.seed)
        print("ready", flush=True)
        return 0

    result = run(args)
    env = environment()
    if args.trace:
        layer = dict(result["layer"], **{
            "op.p50_us": result["op_p50_us"],
            "op.p90_us": result["op_p90_us"],
            "op.samples": result["op_samples"],
        })
        # a layer the workload never calls has no spans and no counts:
        # its metrics read 0 (e.g. the greedy-ST time of sim)
        metrics = {n: {"value": layer.get(n, 0), "unit": u} for n, u in PER_LAYER}
        if args.trace_out:
            result["tracer"].dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                                   "env": env})
    else:
        metrics = {n: {"value": result[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"env": env, "passes": result["passes"], "op_samples": result["op_samples"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
