"""Tests for deadlock-free multicast wormhole routing (Ch. 6),
including the worked examples of Figs. 6.13/6.16/6.17/6.19 and the
deadlock demonstrations of §6.1."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling import (
    BoustrophedonMeshLabeling,
    GrayCodeLabeling,
    SpiralMeshLabeling,
    canonical_labeling,
)
from repro.models import MulticastRequest, random_multicast
from repro.registry import get as get_spec
from repro.topology import Hypercube, Mesh2D
from repro.wormhole import (
    QUADRANTS,
    broadcast_tree,
    combined_cdg,
    double_channel_xfirst_route,
    dual_path_route,
    fig_6_1_broadcast_deadlock_cdg,
    fig_6_4_xfirst_deadlock_cdg,
    find_cycle,
    fixed_path_route,
    full_quadrant_cdg,
    full_star_cdg,
    is_acyclic,
    multi_path_route,
    partition_destinations,
    quadrant_channels,
    split_high_low,
    tree_stages,
)

FIG_6_13_DESTS = (
    (0, 0), (0, 2), (0, 5), (1, 3), (4, 5), (5, 0), (5, 1), (5, 3), (5, 4),
)


class TestSplitHighLow:
    def test_fig_6_19_partition(self):
        h = Hypercube(4)
        req = MulticastRequest(h, 0b1100, (0b0100, 0b0011, 0b0111, 0b1000, 0b1111))
        lab = canonical_labeling(h)
        high, low = split_high_low(req, lab)
        assert high == [0b1111, 0b1000]  # labels 10, 15 ascending
        assert low == [0b0100, 0b0111, 0b0011]  # labels 7, 5, 2 descending

    def test_partition_complete(self):
        m = Mesh2D(6, 6)
        rng = random.Random(1)
        lab = canonical_labeling(m)
        for _ in range(10):
            req = random_multicast(m, 8, rng)
            high, low = split_high_low(req, lab)
            assert set(high) | set(low) == set(req.destinations)
            assert not set(high) & set(low)


class TestDualPath:
    def test_fig_6_13_traffic_and_hops(self):
        """Dual-path on the 6x6 example: 33 channels (18 high + 15 low),
        max distance 18 hops — exactly the dissertation's numbers."""
        m = Mesh2D(6, 6)
        req = MulticastRequest(m, (3, 2), FIG_6_13_DESTS)
        star = dual_path_route(req)
        assert star.traffic == 33
        assert star.max_hops() == 18
        lengths = sorted(len(p) - 1 for p in star.paths)
        assert lengths == [15, 18]

    def test_fig_6_19_first_hop(self):
        """4-cube example: node 1101 forwards toward 1111 first."""
        h = Hypercube(4)
        req = MulticastRequest(h, 0b1100, (0b0100, 0b0011, 0b0111, 0b1000, 0b1111))
        star = dual_path_route(req)
        high_path = star.paths[0]
        assert high_path[:3] == ((0b1100, 0b1101, 0b1111))

    @pytest.mark.parametrize("topo_factory", [lambda: Mesh2D(8, 8), lambda: Hypercube(5)])
    @pytest.mark.parametrize("k", [1, 5, 15])
    def test_random_stars_valid(self, topo_factory, k):
        topo = topo_factory()
        rng = random.Random(2)
        for _ in range(20):
            req = random_multicast(topo, k, rng)
            star = dual_path_route(req)
            star.validate(req)
            assert len(star.paths) <= 2

    def test_label_monotone_paths(self):
        m = Mesh2D(8, 8)
        lab = canonical_labeling(m)
        rng = random.Random(3)
        for _ in range(10):
            req = random_multicast(m, 8, rng)
            star = dual_path_route(req)
            for path in star.paths:
                labels = [lab.label(v) for v in path]
                assert labels == sorted(labels) or labels == sorted(labels, reverse=True)

    def test_works_with_spiral_labeling(self):
        """Any Hamiltonian labeling yields valid (if longer) routes."""
        m = Mesh2D(6, 6)
        lab = SpiralMeshLabeling(m)
        rng = random.Random(4)
        for _ in range(10):
            req = random_multicast(m, 6, rng)
            dual_path_route(req, labeling=lab).validate(req)


class TestMultiPath:
    def test_fig_6_16_partition(self):
        m = Mesh2D(6, 6)
        req = MulticastRequest(m, (3, 2), FIG_6_13_DESTS)
        star = multi_path_route(req)
        groups = {frozenset(g) for g in star.partition}
        assert frozenset({(5, 3), (5, 4), (4, 5)}) in groups
        assert frozenset({(1, 3), (0, 5)}) in groups
        assert frozenset({(5, 1), (5, 0)}) in groups
        assert frozenset({(0, 2), (0, 0)}) in groups

    def test_fig_6_16_traffic_and_hops(self):
        """Multi-path on the 6x6 example: max distance 6 hops (paper);
        total traffic 21 — the minimum realisable for the paper's own
        partition (the text's figure of 20 appears to be a miscount; see
        EXPERIMENTS.md)."""
        m = Mesh2D(6, 6)
        req = MulticastRequest(m, (3, 2), FIG_6_13_DESTS)
        star = multi_path_route(req)
        assert star.max_hops() == 6
        assert star.traffic == 21

    def test_multi_beats_dual_on_example(self):
        m = Mesh2D(6, 6)
        req = MulticastRequest(m, (3, 2), FIG_6_13_DESTS)
        assert multi_path_route(req).traffic < dual_path_route(req).traffic
        assert multi_path_route(req).max_hops() < dual_path_route(req).max_hops()

    @pytest.mark.parametrize("topo_factory", [lambda: Mesh2D(8, 8), lambda: Hypercube(5)])
    @pytest.mark.parametrize("k", [1, 5, 15])
    def test_random_stars_valid(self, topo_factory, k):
        topo = topo_factory()
        rng = random.Random(5)
        for _ in range(20):
            req = random_multicast(topo, k, rng)
            star = multi_path_route(req)
            star.validate(req)

    def test_mesh_at_most_four_paths(self):
        m = Mesh2D(8, 8)
        rng = random.Random(6)
        for _ in range(20):
            req = random_multicast(m, 20, rng)
            assert len(multi_path_route(req).paths) <= 4

    def test_cube_at_most_n_paths(self):
        h = Hypercube(4)
        rng = random.Random(7)
        for _ in range(20):
            req = random_multicast(h, 10, rng)
            assert len(multi_path_route(req).paths) <= 4

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_property_valid(self, seed):
        rng = random.Random(seed)
        m = Mesh2D(7, 6)
        req = random_multicast(m, rng.randrange(1, 15), rng)
        multi_path_route(req).validate(req)


class TestFixedPath:
    def test_fig_6_17_traffic_and_hops(self):
        m = Mesh2D(6, 6)
        req = MulticastRequest(m, (3, 2), FIG_6_13_DESTS)
        star = fixed_path_route(req)
        assert star.traffic == 35  # 20 high + 15 low
        assert star.max_hops() == 20

    def test_paths_follow_hamiltonian_order(self):
        m = Mesh2D(6, 6)
        lab = canonical_labeling(m)
        req = MulticastRequest(m, (3, 2), FIG_6_13_DESTS)
        star = fixed_path_route(req)
        for path in star.paths:
            labels = [lab.label(v) for v in path]
            step = 1 if labels[1] > labels[0] else -1
            assert labels == list(range(labels[0], labels[-1] + step, step))

    @pytest.mark.parametrize("topo_factory", [lambda: Mesh2D(8, 8), lambda: Hypercube(4)])
    def test_random_stars_valid(self, topo_factory):
        topo = topo_factory()
        rng = random.Random(8)
        for _ in range(20):
            req = random_multicast(topo, 6, rng)
            fixed_path_route(req).validate(req)

    def test_never_beats_dual_path(self):
        """Dual-path shortcuts with R; fixed-path walks every node."""
        m = Mesh2D(8, 8)
        rng = random.Random(9)
        for _ in range(20):
            req = random_multicast(m, 6, rng)
            assert fixed_path_route(req).traffic >= dual_path_route(req).traffic


class TestDoubleChannelXFirst:
    def test_fig_6_7_quadrant_partition(self):
        parts = partition_destinations((3, 2), FIG_6_13_DESTS)
        assert set(parts["+X+Y"]) == {(4, 5), (5, 3), (5, 4)}
        assert set(parts["-X+Y"]) == {(0, 5), (1, 3)}
        assert set(parts["-X-Y"]) == {(0, 0), (0, 2)}
        assert set(parts["+X-Y"]) == {(5, 0), (5, 1)}

    def test_boundary_destinations(self):
        parts = partition_destinations((2, 2), ((3, 2), (2, 3), (1, 2), (2, 1)))
        assert parts["+X+Y"] == [(3, 2)]
        assert parts["-X+Y"] == [(2, 3)]
        assert parts["-X-Y"] == [(1, 2)]
        assert parts["+X-Y"] == [(2, 1)]

    def test_quadrant_channels_cover_double_network(self):
        m = Mesh2D(4, 4)
        total = sum(len(quadrant_channels(m, q)) for q in QUADRANTS)
        assert total == 2 * m.num_channels / 2 * 2  # each directed channel twice
        assert total == 2 * m.num_channels

    def test_routes_stay_in_subnetwork_and_shortest(self):
        m = Mesh2D(8, 8)
        rng = random.Random(10)
        for _ in range(20):
            req = random_multicast(m, 8, rng)
            trees = double_channel_xfirst_route(req)
            for q, tree in trees:
                allowed = set(quadrant_channels(m, q))
                assert set(tree.arcs) <= allowed
            # every quadrant's destinations, each over a shortest path
            get_spec("xfirst-tree").check(req, trees)

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_property_traffic_at_least_xfirst(self, seed):
        """Splitting into four sub-multicasts can only duplicate shared
        prefixes, so per-quadrant traffic is >= plain X-first traffic,
        and each destination still travels a shortest path."""
        from repro.heuristics import xfirst_route

        rng = random.Random(seed)
        m = Mesh2D(6, 6)
        req = random_multicast(m, rng.randrange(1, 10), rng)
        trees = double_channel_xfirst_route(req)
        quad_traffic = sum(t.traffic for _, t in trees)
        assert quad_traffic >= xfirst_route(req).traffic
        parts = partition_destinations(req.source, req.destinations)
        for q, tree in trees:
            hops = tree.dest_hops(parts[q])
            for d, h in hops.items():
                assert h == m.distance(req.source, d)


class TestDeadlockAnalysis:
    def test_fig_6_1_broadcast_deadlock(self):
        cycle = find_cycle(fig_6_1_broadcast_deadlock_cdg())
        assert cycle is not None

    def test_fig_6_4_xfirst_deadlock(self):
        cycle = find_cycle(fig_6_4_xfirst_deadlock_cdg())
        assert cycle is not None
        # the cycle involves exactly the two channels named in §6.1
        assert ((1, 1), (0, 1)) in cycle and ((2, 1), (3, 1)) in cycle

    @pytest.mark.parametrize("w,h", [(4, 3), (4, 4), (6, 6)])
    def test_assertion_2_3_mesh(self, w, h):
        """Full (conservative) CDGs of the high/low subnetworks are
        acyclic: dual-, multi- and fixed-path routing are deadlock-free."""
        lab = BoustrophedonMeshLabeling(Mesh2D(w, h))
        assert is_acyclic(full_star_cdg(lab, "high"))
        assert is_acyclic(full_star_cdg(lab, "low"))

    @pytest.mark.parametrize("n", [3, 4])
    def test_corollary_6_1_6_2_hypercube(self, n):
        lab = GrayCodeLabeling(Hypercube(n))
        assert is_acyclic(full_star_cdg(lab, "high"))
        assert is_acyclic(full_star_cdg(lab, "low"))

    @pytest.mark.parametrize("q", QUADRANTS)
    def test_assertion_1_quadrants(self, q):
        assert is_acyclic(full_quadrant_cdg(Mesh2D(5, 4), q))

    def test_spiral_labeling_still_deadlock_free(self):
        """Deadlock freedom needs only a Hamiltonian labeling, not a
        shortest-path-preserving one."""
        lab = SpiralMeshLabeling(Mesh2D(4, 4))
        assert is_acyclic(full_star_cdg(lab, "high"))
        assert is_acyclic(full_star_cdg(lab, "low"))

    def test_empirical_star_cdg_acyclic(self):
        """Union of actual dual/multi-path dependencies over many random
        multicasts stays acyclic (channels tagged by subnetwork)."""
        m = Mesh2D(6, 6)
        lab = canonical_labeling(m)
        rng = random.Random(11)
        all_stages = []
        for _ in range(30):
            req = random_multicast(m, 6, rng)
            for star in (dual_path_route(req), multi_path_route(req)):
                for path in star.paths:
                    # tag channels by direction class so high/low copies differ
                    stages = []
                    for a, b in zip(path, path[1:]):
                        tagged = (a, b, "H" if lab.label(b) > lab.label(a) else "L")
                        stages.append([tagged])
                    all_stages.append(stages)
        assert is_acyclic(combined_cdg(all_stages))

    def test_many_simultaneous_broadcasts_cdg_has_cycle(self):
        """The e-cube tree from any two adjacent sources deadlocks."""
        cube = Hypercube(3)
        t0 = broadcast_tree(cube, 5)
        t1 = broadcast_tree(cube, 5 ^ 1)
        assert find_cycle(combined_cdg([tree_stages(t0), tree_stages(t1)])) is not None
