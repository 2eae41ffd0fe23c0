"""Golden regression tests: exact outputs under fixed seeds.

Every algorithm here is deterministic, so these pins catch *any*
behavioural change — a refactor that silently alters a tie-break or a
timing rule will trip them.  If a change is intentional, update the
constants and record the reason in the commit.
"""

from __future__ import annotations

import random

import pytest

from repro.heuristics import (
    divided_greedy_route,
    greedy_st_route,
    kmb_route,
    len_route,
    multiple_unicast_route,
    sorted_mc_route,
    sorted_mp_route,
    xfirst_route,
)
from repro.models import random_multicast
from repro.sim import SimConfig, run_dynamic, run_mixed, run_resilient
from repro.topology import Hypercube, Mesh2D
from repro.wormhole import dual_path_route, fixed_path_route, multi_path_route

MESH_GOLDEN = {
    "sorted-mp": 39,
    "sorted-mc": 42,
    "greedy-st": 21,
    "xfirst": 29,
    "divided-greedy": 26,
    "kmb": 22,
    "multi-unicast": 43,
    "dual-path": 30,
    "multi-path": 29,
    "fixed-path": 54,
}

CUBE_GOLDEN = {
    "sorted-mp": 28,
    "greedy-st": 14,
    "len": 15,
    "dual-path": 20,
    "multi-path": 22,
}


def mesh_request():
    return random_multicast(Mesh2D(8, 8), 8, random.Random(12345))


def cube_request():
    return random_multicast(Hypercube(6), 8, random.Random(999))


class TestGoldenWorkload:
    def test_workload_is_stable(self):
        req = mesh_request()
        assert req.source == (5, 6)
        assert req.destinations == (
            (1, 0), (7, 1), (4, 2), (0, 3), (2, 4), (6, 4), (7, 5), (7, 6),
        )
        assert cube_request().destinations == (12, 16, 19, 24, 33, 40, 61, 62)


MESH_ALGOS = {
    "sorted-mp": sorted_mp_route,
    "sorted-mc": sorted_mc_route,
    "greedy-st": greedy_st_route,
    "xfirst": xfirst_route,
    "divided-greedy": divided_greedy_route,
    "kmb": kmb_route,
    "multi-unicast": multiple_unicast_route,
    "dual-path": dual_path_route,
    "multi-path": multi_path_route,
    "fixed-path": fixed_path_route,
}

CUBE_ALGOS = {
    "sorted-mp": sorted_mp_route,
    "greedy-st": greedy_st_route,
    "len": len_route,
    "dual-path": dual_path_route,
    "multi-path": multi_path_route,
}


class TestGoldenTraffic:
    @pytest.mark.parametrize("name", sorted(MESH_GOLDEN))
    def test_mesh_traffic(self, name):
        assert MESH_ALGOS[name](mesh_request()).traffic == MESH_GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(CUBE_GOLDEN))
    def test_cube_traffic(self, name):
        assert CUBE_ALGOS[name](cube_request()).traffic == CUBE_GOLDEN[name]


class TestGoldenDynamics:
    def test_dynamic_latency_pinned(self):
        """The full simulator pipeline (routing, injection timing, worm
        mechanics, batch means) reproduced to the microsecond."""
        r = run_dynamic(
            Mesh2D(8, 8),
            "dual-path",
            SimConfig(num_messages=100, num_destinations=5, seed=77),
        )
        assert r.mean_latency * 1e6 == pytest.approx(12.8015, abs=1e-3)
        assert r.sim_time * 1e6 == pytest.approx(3149.968, abs=1e-2)
        assert r.deliveries == 500


#: (topology, scheme, SimConfig fields) -> pinned run_resilient outcome:
#: latency Summary fields, (deliveries, worms, injected, expected),
#: sim_time, and every SimStats counter.
FAULT_GOLDEN = {
    "fixed-path-link-faults": (
        Mesh2D(6, 6),
        "fixed-path",
        dict(num_messages=150, num_destinations=5, link_fault_rate=0.05, seed=3),
        (9.773832436141627e-06, 1.114420258529795e-06, 350, 10),
        (425, 504, 150, 750),
        0.0026631716902171597,
        dict(delivered=425, dropped=325, detoured=0, killed_worms=340, retries=255,
             injection_failures=0, link_fault_events=6, node_fault_events=0,
             repair_events=0),
    ),
    "adaptive-detours": (
        Mesh2D(6, 6),
        "dual-path-adaptive",
        dict(num_messages=150, num_destinations=5, link_fault_rate=0.1, seed=5),
        (8.429471519467633e-06, 7.679013355600472e-07, 526, 10),
        (601, 365, 150, 750),
        0.0028339737963139636,
        dict(delivered=601, dropped=149, detoured=26, killed_worms=140, retries=105,
             injection_failures=0, link_fault_events=12, node_fault_events=0,
             repair_events=0),
    ),
    "xfirst-tree-double-channels": (
        Mesh2D(6, 6),
        "xfirst-tree",
        dict(num_messages=150, num_destinations=5, link_fault_rate=0.05,
             channels_per_link=2, seed=7),
        (7.459662394824038e-06, 3.8438887051200944e-07, 630, 10),
        (705, 405, 150, 750),
        0.002515380906337867,
        dict(delivered=705, dropped=45, detoured=0, killed_worms=68, retries=42,
             injection_failures=0, link_fault_events=6, node_fault_events=0,
             repair_events=0),
    ),
    "cube-transient-node-faults": (
        Hypercube(5),
        "dual-path",
        dict(num_messages=150, num_destinations=5, node_fault_rate=0.1,
             fault_mtbf=300e-6, fault_mttr=100e-6, seed=9),
        (9.226269061123556e-05, 0.00011944609967439777, 675, 10),
        (750, 299, 150, 750),
        0.0026940749323547813,
        dict(delivered=750, dropped=0, detoured=0, killed_worms=50, retries=51,
             injection_failures=2, link_fault_events=0, node_fault_events=9,
             repair_events=9),
    ),
    # fixed paths under permanent and transient faults: kills while the
    # header is in flight, retransmissions racing a live worm
    "cube-fixed-path-link-and-node-faults": (
        Hypercube(5),
        "fixed-path",
        dict(num_messages=120, num_destinations=4, link_fault_rate=0.05,
             node_fault_rate=0.05, fault_mtbf=200e-6, fault_mttr=100e-6,
             mean_interarrival=150e-6, seed=1),
        (0.00017061151820082932, 0.0001309866711416483, 432, 10),
        (480, 270, 120, 480),
        0.0009852245293929327,
        dict(delivered=480, dropped=0, detoured=0, killed_worms=76, retries=80,
             injection_failures=4, link_fault_events=18, node_fault_events=5,
             repair_events=23),
    ),
    "mesh-fixed-path-transient-node-faults": (
        Mesh2D(6, 6),
        "fixed-path",
        dict(num_messages=120, num_destinations=4, node_fault_rate=0.08,
             fault_mttr=200e-6, mean_interarrival=150e-6, seed=1),
        (0.0009227468023377521, 0.00041199620296037196, 432, 10),
        (480, 496, 120, 480),
        0.0017115227583475532,
        dict(delivered=480, dropped=0, detoured=0, killed_worms=310, retries=294,
             injection_failures=2, link_fault_events=0, node_fault_events=3,
             repair_events=3),
    ),
}


class TestGoldenFaultsAndMixed:
    """Exact outcomes of fault-injected and mixed-traffic runs: worm
    kills, detours, retransmissions and repairs all feed these numbers,
    so any change to the fault model or the traffic loop trips them."""

    @pytest.mark.parametrize("case", sorted(FAULT_GOLDEN))
    def test_resilient_pinned(self, case):
        topology, scheme, fields, latency, counts, sim_time, stats = FAULT_GOLDEN[case]
        r = run_resilient(topology, scheme, SimConfig(**fields))
        got = r.latency
        assert (got.mean, got.ci_halfwidth) == pytest.approx(latency[:2], rel=1e-9)
        assert (got.num_observations, got.num_batches) == latency[2:]
        assert (r.deliveries, r.worms, r.injected_messages, r.expected_deliveries) == counts
        assert r.sim_time == pytest.approx(sim_time, rel=1e-9)
        assert r.stats.to_dict() == stats

    def test_mixed_pinned(self):
        r = run_mixed(
            Mesh2D(6, 6),
            "dual-path",
            SimConfig(num_messages=150, num_destinations=5, seed=11),
            unicast_fraction=0.4,
        )
        uni, multi = r.unicast_latency, r.multicast_latency
        assert (uni.mean, uni.ci_halfwidth) == pytest.approx(
            (7.532985214657802e-06, 7.114676549285248e-07), rel=1e-9
        )
        assert (uni.num_observations, uni.num_batches) == (49, 10)
        assert (multi.mean, multi.ci_halfwidth) == pytest.approx(
            (8.33853803213174e-06, 6.567152129286509e-07), rel=1e-9
        )
        assert (multi.num_observations, multi.num_batches) == (430, 10)
        assert r.injected_messages == 150
        assert r.sim_time == pytest.approx(0.0020927830608044526, rel=1e-9)
