"""Dynamic simulation drivers (§7.2).

:func:`run_dynamic` reproduces the dissertation's experiment loop: a
multicast generator at every node draws exponential inter-arrival times
and uniform destination sets, messages are routed by the scheme under
test and injected as worms, and average per-destination network latency
is summarised by batch means.

:func:`run_static_scenario` injects a fixed set of multicasts at time
zero and reports whether they complete — the §6.1 deadlock
demonstrations run through it.

Every driver steps one worm object per event through the
:mod:`repro.sim.reference` wormhole model on the
:mod:`repro.sim.kernel` calendar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..models.request import MulticastRequest
from ..retry import backoff_delay
from ..topology.base import Topology
from ..wormhole.fault_tolerance import Unroutable
from .config import SimConfig
from .faults import FaultPlan, FaultState, FaultyWormholeNetwork
from .kernel import Environment, Timeout
from .reference import WormholeNetwork
from .stats import SimStats, Summary, batch_means
from .traffic import AdaptiveSpec, PathSpec, Router, TreeSpec, VCTTreeSpec


class DeadlockDetected(RuntimeError):
    """The simulation stalled with unfinished worms and no events."""


@dataclass(frozen=True)
class DynamicResult:
    """Outcome of one dynamic run."""

    latency: Summary
    injected_messages: int
    deliveries: int
    sim_time: float
    worms: int = 0

    @property
    def mean_latency(self) -> float:
        return self.latency.mean


def inject_specs(net, message_id: int, specs, capacity: int, router: "Router | None" = None) -> None:
    for spec in specs:
        if isinstance(spec, PathSpec):
            flits = (
                net.config.flits_with_header(len(spec.destinations))
                if net.config.model_header_overhead
                else None
            )
            if spec.plane is None:
                net.inject_path(
                    message_id, spec.nodes, spec.destinations,
                    capacity=capacity, flits=flits,
                )
            else:
                plane = spec.plane
                net.inject_path(
                    message_id,
                    spec.nodes,
                    spec.destinations,
                    channel_key=lambda u, v, p=plane: (u, v, p),
                    capacity=1,
                    flits=flits,
                )
        elif isinstance(spec, AdaptiveSpec):
            net.inject_adaptive_path(
                message_id,
                spec.source,
                spec.destinations,
                router.labeling,
                capacity=capacity,
            )
        elif isinstance(spec, VCTTreeSpec):
            from .vct_tree import inject_vct_tree

            inject_vct_tree(
                net, message_id, spec.arcs, spec.source, spec.destinations
            )
        elif isinstance(spec, TreeSpec):
            n_dests = sum(len(level) for level in spec.dest_levels)
            flits = (
                net.config.flits_with_header(n_dests)
                if net.config.model_header_overhead
                else None
            )
            worm = net.inject_tree(
                message_id,
                spec.levels,
                channel_key=lambda arc: arc,
                capacity=1,
                flits=flits,
            )
            worm.dest_levels = [set(s) for s in spec.dest_levels]
        else:
            raise TypeError(f"unknown worm spec {spec!r}")


def _make_router(topology, scheme, config, fault_state=None) -> Router:
    return Router(
        topology,
        scheme,
        channels_per_link=config.channels_per_link,
        fault_state=fault_state,
    )


def run_dynamic(
    topology: Topology,
    scheme: str,
    config: SimConfig,
    router: Router | None = None,
    env_factory=Environment,
) -> DynamicResult:
    """Simulate Poisson multicast traffic under one routing scheme.

    Raises :class:`DeadlockDetected` if the network wedges (only
    possible for the deliberately deadlock-prone tree schemes on single
    channels).

    ``env_factory`` selects the simulation kernel; the default fast
    kernel and :class:`~repro.sim.kernel.LegacyEnvironment` produce
    bit-identical results (the benchmark and parity suites exercise
    both).
    """
    env = env_factory()
    net = WormholeNetwork(env, config)
    rng = random.Random(config.seed)
    router = router or _make_router(topology, scheme, config)
    nodes = list(topology.nodes())
    n = len(nodes)
    state = {"injected": 0}
    # capacity for path worms: pooled double channels when the network
    # is double-channel; tree worms always use their own tagged copies.
    path_capacity = config.channels_per_link

    # hot-loop locals: the workload generator runs once per message.
    randrange = rng.randrange
    expovariate = rng.expovariate
    arrival_rate = 1.0 / config.mean_interarrival
    num_messages = config.num_messages
    k = config.num_destinations
    index_map = topology.index_map()
    schedule = env.schedule

    def draw_destinations(source):
        chosen: set = set()
        src_i = index_map[source]
        while len(chosen) < k:
            i = randrange(n)
            if i != src_i:
                chosen.add(i)
        return tuple(nodes[i] for i in sorted(chosen))

    def inject_from(node):
        if state["injected"] >= num_messages:
            return
        state["injected"] += 1
        mid = state["injected"]
        # destinations are drawn from the node set, distinct and never
        # the source — the trusted constructor skips re-checking that.
        request = MulticastRequest.trusted(topology, node, draw_destinations(node))
        inject_specs(net, mid, router(request), path_capacity, router)
        schedule(expovariate(arrival_rate), inject_from, node)

    for node in nodes:
        env.schedule(rng.expovariate(1.0 / config.mean_interarrival), inject_from, node)

    completed = net.run_to_completion()
    if not completed:
        raise DeadlockDetected(
            f"{net.active_worms} worms blocked with an empty event calendar"
        )

    cutoff = config.num_messages * config.warmup_fraction
    latencies = [d.latency for d in net.deliveries if d.message_id > cutoff]
    return DynamicResult(
        latency=batch_means(latencies),
        injected_messages=state["injected"],
        deliveries=len(net.deliveries),
        sim_time=env.now,
        worms=net.total_worms,
    )


@dataclass(frozen=True)
class FaultResult:
    """Outcome of one fault-injected (resilient) dynamic run.

    ``latency`` summarises only the post-warmup *delivered*
    destinations; ``stats`` carries the delivery/fault counters and
    ``expected_deliveries`` the total requested (message, destination)
    pairs, so ``delivery_ratio`` is the headline degradation metric.
    """

    latency: Summary
    injected_messages: int
    deliveries: int
    sim_time: float
    worms: int
    stats: SimStats
    expected_deliveries: int

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    @property
    def delivery_ratio(self) -> float:
        return self.stats.delivery_ratio


def run_resilient(
    topology: Topology,
    scheme: str,
    config: SimConfig,
    plan: FaultPlan | None = None,
) -> FaultResult:
    """:func:`run_dynamic` under fault injection with resilient
    delivery.

    Link/node faults from ``plan`` (default: sampled from the config's
    fault parameters) fire on the calendar while traffic runs.  Worms
    hitting a fault are killed; each killed or unroutable multicast is
    retransmitted from its source after an exponential-backoff timeout
    (``config.retry_timeout`` x ``retry_backoff``^attempt, at most
    ``max_retries`` times), re-addressed to the destinations still
    missing.  Fault-tolerant schemes additionally detour around the
    currently-down channels, both at the source (static reroute) and —
    for the adaptive scheme — per hop at simulation time.

    The injection loop duplicates :func:`run_dynamic`'s RNG draw order
    exactly and the fault schedule uses an independent RNG, so with
    zero fault rates the result matches :func:`run_dynamic` event for
    event (the parity suite asserts this).
    """
    if plan is None:
        plan = FaultPlan.from_config(topology, config)
    env = Environment()
    stats = SimStats()
    fault_state = FaultState(plan)
    net = FaultyWormholeNetwork(env, config, fault_state, stats)
    rng = random.Random(config.seed)
    router = _make_router(topology, scheme, config, fault_state)
    fault_state.install(net)
    nodes = list(topology.nodes())
    n = len(nodes)
    state = {"injected": 0}
    path_capacity = config.channels_per_link

    randrange = rng.randrange
    expovariate = rng.expovariate
    arrival_rate = 1.0 / config.mean_interarrival
    num_messages = config.num_messages
    k = config.num_destinations
    index_map = topology.index_map()
    schedule = env.schedule

    # per-message delivery obligations and retry bookkeeping
    expected: dict[int, frozenset] = {}
    sources: dict = {}
    origins: dict = {}
    attempts: dict = {}
    pending_retry: set = set()

    def draw_destinations(source):
        chosen: set = set()
        src_i = index_map[source]
        while len(chosen) < k:
            i = randrange(n)
            if i != src_i:
                chosen.add(i)
        return tuple(nodes[i] for i in sorted(chosen))

    def handle_drop(message_id, dropped, reason):
        # coalesce: dual-path injects two worms per message, and both
        # may die — one pending retransmission per message at a time
        if message_id in pending_retry:
            return
        used = attempts.get(message_id, 0)
        if used >= config.max_retries:
            return
        attempts[message_id] = used + 1
        pending_retry.add(message_id)
        delay = backoff_delay(
            used, base=config.retry_timeout, factor=config.retry_backoff
        )
        Timeout(env, delay).wait(
            lambda ev, mid=message_id: retry(mid)
        )

    def retry(message_id):
        pending_retry.discard(message_id)
        remaining = expected[message_id] - net.delivered_by_message.get(
            message_id, set()
        )
        if not remaining:
            return
        source = sources[message_id]
        if fault_state.node_down(source):
            # the source itself is down; burn the attempt and re-arm
            handle_drop(message_id, remaining, "source node down")
            return
        stats.retries += 1
        request = MulticastRequest.trusted(
            topology,
            source,
            tuple(sorted(remaining, key=index_map.__getitem__)),
        )
        net.origin_time = origins[message_id]
        try:
            inject_specs(net, message_id, router(request), path_capacity, router)
        except Unroutable:
            stats.injection_failures += 1
            handle_drop(message_id, remaining, "unroutable")
        finally:
            net.origin_time = None

    net.drop_handler = handle_drop

    def inject_from(node):
        if state["injected"] >= num_messages:
            return
        state["injected"] += 1
        mid = state["injected"]
        request = MulticastRequest.trusted(topology, node, draw_destinations(node))
        expected[mid] = frozenset(request.destinations)
        sources[mid] = node
        origins[mid] = env.now
        if fault_state.node_down(node):
            stats.injection_failures += 1
            handle_drop(mid, expected[mid], "source node down")
        else:
            try:
                inject_specs(net, mid, router(request), path_capacity, router)
            except Unroutable:
                stats.injection_failures += 1
                handle_drop(mid, expected[mid], "unroutable")
        schedule(expovariate(arrival_rate), inject_from, node)

    for node in nodes:
        env.schedule(rng.expovariate(1.0 / config.mean_interarrival), inject_from, node)

    completed = net.run_to_completion()
    if not completed:
        raise DeadlockDetected(
            f"{net.active_worms} worms blocked with an empty event calendar"
        )

    cutoff = config.num_messages * config.warmup_fraction
    latencies = [d.latency for d in net.deliveries if d.message_id > cutoff]
    total_expected = sum(len(dests) for dests in expected.values())
    # delivered was counted per unique (message, destination) pair;
    # whatever the retry budget never reached is dropped.
    stats.dropped = total_expected - stats.delivered
    empty = Summary(float("nan"), float("inf"), 0, 0)
    return FaultResult(
        latency=batch_means(latencies) if latencies else empty,
        injected_messages=state["injected"],
        deliveries=len(net.deliveries),
        sim_time=env.now,
        worms=net.total_worms,
        stats=stats,
        expected_deliveries=total_expected,
    )


def run_until_confident(
    topology: Topology,
    scheme: str,
    config: SimConfig,
    target_relative_ci: float = 0.05,
    max_doublings: int = 4,
) -> DynamicResult:
    """Repeat :func:`run_dynamic` with a doubling message budget until
    the 95% CI half-width falls below ``target_relative_ci`` of the
    mean — the dissertation's stopping rule (§7.2: "all simulations
    were executed until the confidence interval was smaller than 5
    percent of the mean").

    Returns the first run meeting the target, or the largest run tried.
    """
    result = run_dynamic(topology, scheme, config)
    for _ in range(max_doublings):
        if result.latency.relative_ci <= target_relative_ci:
            break
        config = config.replace(num_messages=config.num_messages * 2)
        result = run_dynamic(topology, scheme, config)
    return result


@dataclass(frozen=True)
class MixedResult:
    """Outcome of a mixed unicast/multicast run (§8.2's proposed
    interaction study)."""

    unicast_latency: Summary
    multicast_latency: Summary
    injected_messages: int
    sim_time: float


def run_mixed(
    topology: Topology,
    scheme: str,
    config: SimConfig,
    unicast_fraction: float = 0.5,
) -> MixedResult:
    """Simulate a mix of unicast and multicast traffic (§8.2: "study
    the interaction between unicast and multicast traffic and how
    different multicast algorithms affect the performance of unicast
    wormhole routing").

    Unicasts are routed with the routing function R inside the high/low
    subnetworks (so the combined traffic remains deadlock-free);
    multicasts use ``scheme``.  Returns separate latency summaries.
    """
    if not 0.0 <= unicast_fraction <= 1.0:
        raise ValueError("unicast_fraction must be in [0, 1]")
    router = Router(topology, scheme, channels_per_link=config.channels_per_link)
    from ..labeling import canonical_labeling

    labeling = router.labeling or canonical_labeling(topology)
    env = Environment()
    net = WormholeNetwork(env, config)
    rng = random.Random(config.seed)
    nodes = list(topology.nodes())
    n = len(nodes)
    state = {"injected": 0}
    kinds: dict[int, str] = {}

    def inject_from(node):
        if state["injected"] >= config.num_messages:
            return
        state["injected"] += 1
        mid = state["injected"]
        src_i = topology.index(node)
        if rng.random() < unicast_fraction:
            kinds[mid] = "unicast"
            while True:
                i = rng.randrange(n)
                if i != src_i:
                    break
            dest = topology.node_at(i)
            path = labeling.route_path(node, dest)
            net.inject_path(mid, path, {dest}, capacity=config.channels_per_link)
        else:
            kinds[mid] = "multicast"
            chosen: set = set()
            while len(chosen) < config.num_destinations:
                i = rng.randrange(n)
                if i != src_i:
                    chosen.add(i)
            dests = tuple(topology.node_at(i) for i in sorted(chosen))
            request = MulticastRequest(topology, node, dests)
            inject_specs(net, mid, router(request), config.channels_per_link, router)
        env.schedule(rng.expovariate(1.0 / config.mean_interarrival), inject_from, node)

    for node in nodes:
        env.schedule(rng.expovariate(1.0 / config.mean_interarrival), inject_from, node)

    if not net.run_to_completion():
        raise DeadlockDetected(
            f"{net.active_worms} worms blocked with an empty event calendar"
        )
    cutoff = config.num_messages * config.warmup_fraction
    uni = [
        d.latency
        for d in net.deliveries
        if d.message_id > cutoff and kinds[d.message_id] == "unicast"
    ]
    multi = [
        d.latency
        for d in net.deliveries
        if d.message_id > cutoff and kinds[d.message_id] == "multicast"
    ]
    empty = Summary(float("nan"), float("inf"), 0, 0)
    return MixedResult(
        unicast_latency=batch_means(uni) if uni else empty,
        multicast_latency=batch_means(multi) if multi else empty,
        injected_messages=state["injected"],
        sim_time=env.now,
    )


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of a fixed multicast scenario."""

    completed: bool
    blocked_worms: int
    deliveries: int
    sim_time: float


def run_static_scenario(
    topology: Topology,
    scheme: str,
    requests,
    config: SimConfig | None = None,
) -> ScenarioResult:
    """Inject the given multicasts simultaneously at time zero and run
    the network dry.  ``completed=False`` demonstrates deadlock (e.g.
    Fig. 6.1's two broadcasts under ``scheme='ecube-tree'``)."""
    config = config or SimConfig()
    router = Router(topology, scheme, channels_per_link=config.channels_per_link)
    env = Environment()
    net = WormholeNetwork(env, config)
    for mid, request in enumerate(requests, start=1):
        inject_specs(net, mid, router(request), config.channels_per_link, router)
    completed = net.run_to_completion()
    return ScenarioResult(
        completed=completed,
        blocked_worms=net.active_worms,
        deliveries=len(net.deliveries),
        sim_time=env.now,
    )
