"""Empirical validation of the complexity claims (Corollaries 5.1-5.2,
Lemmas 6.2-6.3): measure wall-clock scaling of message preparation and
routing with the destination count and fit a log-log exponent.

Expected shapes (k from 32 to 512 on a 32x32 mesh): the path schemes'
per-message cost is prep O(k log k) plus a walk bounded by the network
size N, so the fitted exponent saturates *below* 1 as the walk term
dominates.  Greedy ST's virtual-tree build projects each destination
onto every existing virtual edge, O(k^2) projections (Corollary 5.2);
counting the projections the source's build makes fits an exponent of
about 1.9.  Its wall-clock exponent is lower (1.3-1.4): each
destination's projections are one NumPy array operation, whose fixed
dispatch cost is comparable to the quadratic work at these k.  The
assertions are the quadratic projection count and the separation of
greedy ST's wall-clock exponent from the sub-linear-saturating path
schemes.
"""

from __future__ import annotations

import math
import random
import time

from conftest import scaled

from repro.heuristics import greedy_st_prepare, greedy_st_route, sorted_mp_route
from repro.heuristics.reference import reference_build_virtual_tree
from repro.models import random_multicast
from repro.topology import Mesh2D
from repro.wormhole import dual_path_route, multi_path_route

KS = (32, 128, 512)


def _time(algo, requests) -> float:
    t0 = time.perf_counter()
    for r in requests:
        algo(r)
    return (time.perf_counter() - t0) / len(requests)


class CountingMesh2D(Mesh2D):
    """A 2D mesh counting ``distance`` calls: the reference virtual-tree
    builder makes exactly one per (destination, edge) projection."""

    calls = 0

    def distance(self, u, v):
        self.calls += 1
        return super().distance(u, v)


def _source_projections(counter: CountingMesh2D, request) -> int:
    """Projections the source's virtual-tree build makes (step 4a of
    Fig. 5.4), counted on the scalar reference builder."""
    multicast = greedy_st_prepare(request)
    counter.calls = 0
    reference_build_virtual_tree(counter, multicast[0], multicast[1:])
    return counter.calls


def _fit_exponent(ks, values) -> float:
    """Least-squares slope of log(value) vs log(k)."""
    lx = [math.log(k) for k in ks]
    ly = [math.log(v) for v in values]
    n = len(ks)
    mx, my = sum(lx) / n, sum(ly) / n
    num = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    den = sum((x - mx) ** 2 for x in lx)
    return num / den


def run():
    mesh = Mesh2D(32, 32)
    counter = CountingMesh2D(32, 32)
    algos = {
        "sorted-MP": sorted_mp_route,
        "dual-path": dual_path_route,
        "multi-path": multi_path_route,
        "greedy-ST": greedy_st_route,
    }
    rng = random.Random(111)
    reps = scaled(8, minimum=4)
    rows = []
    for name, algo in algos.items():
        times = []
        projections = []
        for k in KS:
            requests = [random_multicast(mesh, k, rng) for _ in range(reps)]
            algo(requests[0])  # warm caches
            times.append(_time(algo, requests))
            if algo is greedy_st_route:
                projections.append(
                    sum(_source_projections(counter, r) for r in requests) / len(requests)
                )
        exponent = _fit_exponent(KS, times)
        count_exponent = _fit_exponent(KS, projections) if projections else "-"
        rows.append([name] + [t * 1e3 for t in times] + [exponent, count_exponent])
    return rows


def test_complexity_scaling(benchmark, emit):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "complexity_scaling",
        "Empirical complexity: ms per multicast at k=32/128/512, fitted wall-clock"
        " exponent, and the exponent of the source's projection count (32x32 mesh)",
        ["algorithm", "k=32 ms", "k=128 ms", "k=512 ms", "exponent", "projections exp"],
        rows,
    )
    by = {r[0]: r[-2] for r in rows}
    # path schemes: cost saturates with the bounded walk length
    for name in ("sorted-MP", "dual-path", "multi-path"):
        assert by[name] < 1.2, (name, by[name])
    # greedy ST's virtual-tree build makes O(k^2) projections (Cor. 5.2)
    projections = {r[0]: r[-1] for r in rows}
    assert projections["greedy-ST"] > 1.5
    assert by["greedy-ST"] > by["sorted-MP"] + 0.7
