"""Edge-case and robustness tests for the simulation stack."""

from __future__ import annotations

import gc
import math

import pytest

from repro.sim import (
    Environment,
    InvalidConfigError,
    Router,
    SimConfig,
    Summary,
    WormholeNetwork,
    batch_means,
    run_dynamic,
    run_mixed,
    run_resilient,
    t975,
)
from repro.topology import Hypercube, Mesh2D


class TestSimConfig:
    def test_flit_arithmetic(self):
        cfg = SimConfig(message_bytes=128, flit_bytes=2, bandwidth=20e6)
        assert cfg.flits_per_message == 64
        assert cfg.flit_time == pytest.approx(1e-7)
        assert cfg.message_time == pytest.approx(6.4e-6)

    def test_odd_sized_message_rounds_up(self):
        cfg = SimConfig(message_bytes=129, flit_bytes=2)
        assert cfg.flits_per_message == 65

    def test_tiny_message_one_flit_minimum(self):
        cfg = SimConfig(message_bytes=1, flit_bytes=8)
        assert cfg.flits_per_message == 1

    def test_replace(self):
        cfg = SimConfig().replace(num_messages=7)
        assert cfg.num_messages == 7
        assert cfg.message_bytes == SimConfig().message_bytes


class TestStatsEdgeCases:
    def test_t_table_monotone_decreasing(self):
        values = [t975(df) for df in range(1, 31)]
        assert values == sorted(values, reverse=True)
        assert t975(100) == pytest.approx(1.96)

    def test_t_table_df1(self):
        assert t975(1) == pytest.approx(12.706)
        with pytest.raises(ValueError):
            t975(0)

    def test_batch_means_respects_order(self):
        """A trend across batches widens the CI (batch means detects
        non-stationarity), while the same values shuffled within
        batches do not change the mean."""
        trend = [float(i) for i in range(100)]
        s = batch_means(trend)
        assert s.mean == pytest.approx(49.5)
        assert s.ci_halfwidth > 10

    def test_relative_ci(self):
        s = Summary(10.0, 1.0, 50, 10)
        assert s.relative_ci == pytest.approx(0.1)
        assert "+/-" in str(s)

    def test_zero_mean_relative_ci(self):
        s = Summary(0.0, 1.0, 50, 10)
        assert math.isinf(s.relative_ci)


class TestKernelEdgeCases:
    def test_run_empty_environment(self):
        env = Environment()
        env.run()
        assert env.now == 0.0

    def test_run_until_past_all_events(self):
        env = Environment()
        env.schedule(1.0, lambda: None)
        env.run(until=5.0)
        assert env.now == 5.0

    def test_pending_events(self):
        env = Environment()
        env.schedule(1.0, lambda: None)
        assert env.pending_events == 1
        env.run()
        assert env.pending_events == 0


class TestNetworkEdgeCases:
    def test_empty_path_finishes_immediately(self):
        env = Environment()
        net = WormholeNetwork(env, SimConfig())
        net.inject_path(1, [(0, 0)], set())
        assert net.run_to_completion()
        assert net.deliveries == []

    def test_empty_tree_finishes_immediately(self):
        env = Environment()
        net = WormholeNetwork(env, SimConfig())
        net.inject_tree(1, [])
        assert net.run_to_completion()

    def test_channel_reuse_across_messages(self):
        env = Environment()
        net = WormholeNetwork(env, SimConfig())
        nodes = [(0, 0), (1, 0)]
        for mid in range(1, 6):
            net.inject_path(mid, nodes, {(1, 0)})
        assert net.run_to_completion()
        assert len(net.deliveries) == 5
        assert len(net.channels) == 1

    def test_capacity_override_per_channel_key(self):
        env = Environment()
        net = WormholeNetwork(env, SimConfig(channels_per_link=1))
        ch = net.channel(("a", "b"), capacity=3)
        assert ch.capacity == 3
        # the same key returns the same channel
        assert net.channel(("a", "b")) is ch


class TestRunnerEdgeCases:
    def test_warmup_discards_early_messages(self):
        m = Mesh2D(6, 6)
        cfg = SimConfig(num_messages=100, num_destinations=4, warmup_fraction=0.5, seed=1)
        r = run_dynamic(m, "dual-path", cfg)
        assert r.deliveries == 400
        assert r.latency.num_observations <= 200

    def test_zero_warmup_counts_everything(self):
        m = Mesh2D(6, 6)
        cfg = SimConfig(num_messages=50, num_destinations=4, warmup_fraction=0.0, seed=1)
        r = run_dynamic(m, "dual-path", cfg)
        assert r.latency.num_observations == 200

    def test_different_seeds_differ(self):
        m = Mesh2D(8, 8)
        a = run_dynamic(m, "multi-path", SimConfig(num_messages=150, seed=1))
        b = run_dynamic(m, "multi-path", SimConfig(num_messages=150, seed=2))
        assert a.mean_latency != b.mean_latency

    def test_router_reuse_across_runs(self):
        m = Mesh2D(6, 6)
        router = Router(m, "dual-path")
        cfg = SimConfig(num_messages=60, num_destinations=3, seed=5)
        r1 = run_dynamic(m, "dual-path", cfg, router=router)
        r2 = run_dynamic(m, "dual-path", cfg, router=router)
        assert r1.mean_latency == r2.mean_latency

    def test_hypercube_tree_scheme_requires_cube(self):
        m = Mesh2D(4, 4)
        with pytest.raises(TypeError):
            run_dynamic(m, "ecube-tree", SimConfig(num_messages=5, num_destinations=2))

    def test_single_destination_traffic(self):
        h = Hypercube(4)
        cfg = SimConfig(num_messages=100, num_destinations=1, seed=6)
        r = run_dynamic(h, "dual-path", cfg)
        assert r.deliveries == 100

    def test_every_other_node_as_destinations(self):
        # num_nodes - 1 destinations is the largest draw that can finish
        # (one more is rejected: tests/test_cli_exit_codes.py)
        cfg = SimConfig(num_messages=5, num_destinations=3)
        assert run_dynamic(Mesh2D(2, 2), "dual-path", cfg).deliveries == 15

    def test_no_deliveries_gives_empty_summary(self):
        r = run_dynamic(Mesh2D(4, 4), "dual-path", SimConfig(num_messages=0))
        assert r.deliveries == 0
        assert math.isnan(r.mean_latency) and r.latency.num_observations == 0


def _cyclic_garbage_of(run) -> int:
    """Objects the cyclic collector finds after ``run()`` (collection
    off while it runs, after one warm-up call)."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestFinishedRunsLeaveNoCycles:
    """Worms keep no bound method of themselves and neither the arrival
    process nor the VCT chain walk closes over its own name, so a
    finished run — network, worms, deliveries — is freed by reference
    counting alone."""

    @pytest.mark.parametrize(
        "topology, scheme, channels",
        [
            (Mesh2D(6, 6), "dual-path", 1),
            (Mesh2D(6, 6), "multi-path", 1),
            (Mesh2D(6, 6), "fixed-path", 1),
            (Mesh2D(6, 6), "dual-path-adaptive", 1),
            (Mesh2D(6, 6), "virtual-channel-2", 1),
            (Mesh2D(6, 6), "xfirst-tree", 2),
            (Mesh2D(6, 6), "vct-tree", 1),
            (Hypercube(4), "ecube-tree", 1),
        ],
    )
    def test_run_dynamic(self, topology, scheme, channels):
        cfg = SimConfig(
            num_messages=60, num_destinations=3, mean_interarrival=2000e-6,
            channels_per_link=channels, seed=4,
        )
        assert _cyclic_garbage_of(lambda: run_dynamic(topology, scheme, cfg)) == 0

    def test_run_mixed(self):
        mesh = Mesh2D(6, 6)
        cfg = SimConfig(num_messages=80, num_destinations=3, seed=4)

        def run():
            run_mixed(mesh, "dual-path", cfg, unicast_fraction=0.5)

        assert _cyclic_garbage_of(run) == 0


class TestFaultModelCoverage:
    def test_vct_tree_faults_rejected(self):
        from repro.sim import UnsupportedFaultModel

        # VCT worms have no fault hooks: faults would fire and kill nothing
        cfg = SimConfig(num_messages=50, num_destinations=5, link_fault_rate=0.1)
        with pytest.raises(UnsupportedFaultModel, match="vct-tree"):
            run_resilient(Mesh2D(6, 6), "vct-tree", cfg)
        assert issubclass(UnsupportedFaultModel, ValueError)

    @pytest.mark.parametrize(
        "topology, scheme, channels",
        [(Mesh2D(6, 6), "dual-path", 1), (Mesh2D(6, 6), "dual-path-adaptive", 1),
         (Mesh2D(6, 6), "virtual-channel-2", 1), (Mesh2D(6, 6), "xfirst-tree", 2),
         (Hypercube(5), "ecube-tree", 1)],
    )
    def test_every_covered_worm_style_feels_faults(self, topology, scheme, channels):
        from repro.sim.runner import FAULT_WORM_STYLES
        from repro.registry import get

        assert get(scheme).worm_style in FAULT_WORM_STYLES
        cfg = SimConfig(num_messages=100, num_destinations=4, link_fault_rate=0.1,
                        channels_per_link=channels, mean_interarrival=2e-3, seed=4)
        r = run_resilient(topology, scheme, cfg)
        assert r.stats.link_fault_events > 0
        assert r.stats.killed_worms > 0 or r.stats.detoured > 0


# ----------------------------------------------------------------------
# SimConfig validation (typed construction errors)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("message_bytes", 0),
    ("flit_bytes", -1),
    ("bandwidth", 0.0),
    ("mean_interarrival", -1e-6),
    ("num_destinations", 0),
    ("num_messages", -1),
    ("warmup_fraction", 1.5),
    ("channels_per_link", 0),
    ("link_fault_rate", -0.1),
    ("node_fault_rate", 2.0),
    ("fault_mtbf", -1.0),
    ("fault_window", 0.0),
    ("max_retries", -1),
    ("retry_timeout", 0.0),
    ("retry_backoff", 0.0),
])
def test_invalid_config_rejected(field, value):
    with pytest.raises(InvalidConfigError, match=field):
        SimConfig(**{field: value})


def test_invalid_config_is_value_error():
    """Callers that caught ValueError before the typed subclass existed
    keep working."""
    with pytest.raises(ValueError):
        SimConfig(bandwidth=-1)
    assert issubclass(InvalidConfigError, ValueError)
