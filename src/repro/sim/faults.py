"""Dynamic fault injection for the wormhole simulator (§2.1
robustness; §8.2 "it can also support the fault tolerant routing").

The dissertation's dynamic study assumes a perfect network; this module
lets links and nodes fail *while worms are in flight*, which is the
evaluation axis the NoC successors of this work study (delivery ratio
and latency vs. fault rate).

Three pieces:

* :class:`FaultPlan` — a seeded, immutable schedule of
  :class:`FaultEvent` link/node failures (and, for transient faults,
  repairs) sampled from MTBF/MTTR-style parameters.  Sampling uses its
  own RNG, so a plan never perturbs the traffic RNG: with
  ``link_fault_rate=0`` a fault-aware run is event-for-event identical
  to a fault-free one.
* :class:`FaultState` — the live up/down sets the simulator consults.
  Installing a state schedules its plan's events on the kernel
  calendar; each failure toggles the sets and kills the worms holding
  channels on the failed element.
* :class:`FaultyWormholeNetwork` + the fault-aware worm subclasses —
  a faulted channel rejects flit acquisition (the acquiring worm is
  dropped and counted), adaptive worms detour around faulted candidate
  channels at simulation time, and in-flight worms on a failing link
  are killed, releasing every channel they hold (so a fault never
  wedges the rest of the network).

Dropped worms report to the network's ``drop_handler``; the resilient
driver (:func:`repro.sim.runner.run_resilient`) uses that to implement
source-level retransmission with bounded retries and exponential
backoff on kernel :class:`~repro.sim.kernel.Timeout` events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Hashable

from .config import SimConfig
from .kernel import Environment
from .reference import AdaptivePathWorm, PathWorm, TreeWorm, WormholeNetwork
from .stats import SimStats

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultState",
    "FaultyWormholeNetwork",
    "derive_fault_seed",
]


def derive_fault_seed(seed: int) -> int:
    """A fault-schedule seed decorrelated from the traffic seed
    (splitmix64 finalizer, same family as ``parallel.derive_seed``)."""
    z = (seed * 0x9E3779B97F4A7C15 + 0xFA17) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class FaultEvent:
    """One state transition of one network element."""

    time: float
    kind: str  # "link" (directed channel (u, v)) or "node"
    target: Hashable
    down: bool  # True = failure, False = repair


def _tupled(value):
    """JSON arrays back to the tuple-shaped node/link keys the
    simulator uses (nodes are ints or int tuples; link targets are
    node pairs)."""
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted schedule of fault events."""

    events: tuple = ()
    horizon: float = 0.0

    @classmethod
    def sample(
        cls,
        topology,
        *,
        link_rate: float = 0.0,
        node_rate: float = 0.0,
        horizon: float,
        seed: int = 0,
        mtbf: float = 0.0,
        mttr: float = 0.0,
    ) -> "FaultPlan":
        """Sample a fault schedule for ``topology``.

        ``link_rate`` / ``node_rate`` select the faulty fraction of
        directed channels / nodes.  Each faulty element first fails at
        ``expovariate(1/mtbf)`` (or uniformly over ``[0, horizon)``
        when ``mtbf == 0``); with ``mttr > 0`` it repairs after
        ``expovariate(1/mttr)`` and — when ``mtbf > 0`` — keeps
        cycling until the horizon (the MTBF/MTTR renewal process).
        Deterministic in ``seed``.
        """
        rng = random.Random(seed)
        events: list[FaultEvent] = []

        def schedule_element(kind: str, target) -> None:
            t = rng.expovariate(1.0 / mtbf) if mtbf > 0 else rng.uniform(0.0, horizon)
            while t < horizon:
                events.append(FaultEvent(t, kind, target, True))
                if mttr <= 0:
                    break  # permanent fault
                t += rng.expovariate(1.0 / mttr)
                events.append(FaultEvent(t, kind, target, False))
                if mtbf <= 0:
                    break  # single transient fault
                t += rng.expovariate(1.0 / mtbf)

        channels = sorted(topology.channels())
        for link in rng.sample(channels, round(len(channels) * link_rate)):
            schedule_element("link", link)
        nodes = list(topology.nodes())
        for node in rng.sample(nodes, round(len(nodes) * node_rate)):
            schedule_element("node", node)
        events.sort(key=lambda ev: ev.time)
        return cls(events=tuple(events), horizon=horizon)

    def to_json(self) -> dict:
        """The plan as a JSON-serializable dict (inverse of
        :meth:`from_json`).

        Fault scenarios become shareable artifacts: a chaos/fault
        schedule dumped from one service run or bug report replays
        bit-identically after a restart, on another machine, or inside
        a regression test — reproducibility no longer depends on
        re-deriving the plan from the same seed and library version.
        """
        return {
            "horizon": self.horizon,
            "events": [
                {
                    "time": ev.time,
                    "kind": ev.kind,
                    "target": ev.target,
                    "down": ev.down,
                }
                for ev in self.events
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output.  Node and link
        targets serialized as JSON arrays are restored to the tuples
        the simulator keys on; the round trip is exact (
        ``FaultPlan.from_json(p.to_json()) == p``)."""
        return cls(
            events=tuple(
                FaultEvent(
                    time=float(ev["time"]),
                    kind=str(ev["kind"]),
                    target=_tupled(ev["target"]),
                    down=bool(ev["down"]),
                )
                for ev in data["events"]
            ),
            horizon=float(data["horizon"]),
        )

    @classmethod
    def from_config(cls, topology, config: SimConfig) -> "FaultPlan":
        """The plan :attr:`SimConfig` fault parameters describe (empty
        when no fault rate is configured)."""
        if not config.faulty:
            return cls()
        horizon = config.fault_window
        if horizon is None:
            # expected injection span: every node generates at rate
            # 1/interarrival until num_messages have been injected
            horizon = (
                config.num_messages
                * config.mean_interarrival
                / max(1, topology.num_nodes)
            )
        seed = (
            config.fault_seed
            if config.fault_seed is not None
            else derive_fault_seed(config.seed)
        )
        return cls.sample(
            topology,
            link_rate=config.link_fault_rate,
            node_rate=config.node_fault_rate,
            horizon=horizon,
            seed=seed,
            mtbf=config.fault_mtbf,
            mttr=config.fault_mttr,
        )


class FaultState:
    """The live fault sets the simulator consults.

    ``down_links`` holds directed channels ``(u, v)``; ``down_nodes``
    holds nodes.  A channel key of any arity is checked by its first
    two elements (worm channel keys are ``(u, v)``, ``(u, v, plane)``
    or ``(u, v, tag)`` tuples, all link-prefixed).
    """

    __slots__ = ("plan", "down_links", "down_nodes", "_version", "_blocked_cache")

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self.down_links: set = set()
        self.down_nodes: set = set()
        self._version = 0
        self._blocked_cache: tuple | None = None  # (version, frozenset)

    def install(self, net: "FaultyWormholeNetwork") -> None:
        """Schedule every plan event on the network's calendar."""
        schedule = net.env.schedule
        for ev in self.plan.events:
            schedule(ev.time, self._apply, net, ev)

    def _apply(self, net: "FaultyWormholeNetwork", ev: FaultEvent) -> None:
        self._version += 1
        self._blocked_cache = None
        group = self.down_links if ev.kind == "link" else self.down_nodes
        if ev.down:
            group.add(ev.target)
            if ev.kind == "link":
                net.stats.link_fault_events += 1
            else:
                net.stats.node_fault_events += 1
            net.on_element_failed(ev)
        else:
            group.discard(ev.target)
            net.stats.repair_events += 1

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    @property
    def any_down(self) -> bool:
        return bool(self.down_links or self.down_nodes)

    def channel_down(self, key) -> bool:
        """Whether the channel identified by ``key`` sits on a down
        link or touches a down node."""
        if not (self.down_links or self.down_nodes):
            return False
        u, v = key[0], key[1]
        return (
            (u, v) in self.down_links
            or u in self.down_nodes
            or v in self.down_nodes
        )

    def link_down(self, u, v) -> bool:
        if not (self.down_links or self.down_nodes):
            return False
        return (
            (u, v) in self.down_links or u in self.down_nodes or v in self.down_nodes
        )

    def node_down(self, v) -> bool:
        return v in self.down_nodes

    def blocked_links(self, topology) -> frozenset:
        """Every directed channel currently unusable: down links plus
        all channels incident to down nodes (cached per state
        version; the fault routers consume this)."""
        if not (self.down_links or self.down_nodes):
            return frozenset()
        cached = self._blocked_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        bad = set(self.down_links)
        for v in self.down_nodes:
            for u in topology.neighbors(v):
                bad.add((u, v))
                bad.add((v, u))
        blocked = frozenset(bad)
        self._blocked_cache = (self._version, blocked)
        return blocked


class FaultyWormholeNetwork(WormholeNetwork):
    """A :class:`WormholeNetwork` whose worms consult a
    :class:`FaultState` and report drops.

    With an empty fault plan the event sequence is identical to the
    base network's (the fault checks never schedule anything), so a
    ``fault_rate=0`` resilient run reproduces the plain dynamic run
    bit for bit.
    """

    __slots__ = (
        "fault_state", "stats", "live", "delivered_by_message",
        "drop_handler", "origin_time",
    )

    def __init__(
        self,
        env: Environment,
        config: SimConfig,
        fault_state: FaultState | None = None,
        stats: SimStats | None = None,
    ):
        super().__init__(env, config)
        self.fault_state = fault_state or FaultState()
        self.stats = stats or SimStats()
        #: worms in flight (registered by the faulty worm constructors).
        #: A dict-as-ordered-set: iteration (and hence the kill order
        #: when one fault hits several worms) follows injection order,
        #: which is reproducible across processes — a plain
        #: set would iterate in id() order, which is allocator-dependent
        self.live: dict = {}
        #: per-message set of destinations reached so far
        self.delivered_by_message: dict = {}
        #: ``fn(message_id, undelivered_dests, reason)`` invoked when a
        #: worm is dropped; the resilient driver hooks retries here
        self.drop_handler = None
        #: when set, newly injected worms are stamped with this
        #: injection time instead of ``env.now`` — retransmissions keep
        #: the original message's injection time so delivery latency
        #: spans the whole retry history
        self.origin_time: float | None = None

    def deliver(self, message_id: int, dest, injected_at: float) -> None:
        # deduplicate: a retransmission can race a still-alive sibling
        # worm of the same message (dual-path injects two), so only the
        # first receipt of a (message, destination) pair counts
        got = self.delivered_by_message.setdefault(message_id, set())
        if dest in got:
            return
        got.add(dest)
        self.stats.delivered += 1
        super().deliver(message_id, dest, injected_at)

    def finish(self, worm) -> None:
        super().finish(worm)
        self.live.pop(worm, None)

    def on_element_failed(self, ev: FaultEvent) -> None:
        """Kill every in-flight worm holding a channel on the failed
        element (§'in-flight worms on a failing link are killed')."""
        for worm in tuple(self.live):
            if not worm.dead and not worm.arrived and worm.hit_by(ev):
                self.kill_worm(worm, "link failed under worm" if ev.kind == "link"
                               else "node failed under worm")

    def kill_worm(self, worm, reason: str) -> None:
        """Drop ``worm``: release everything it holds (waking waiters),
        count its unreached destinations, and notify the drop handler."""
        if worm.dead:
            return
        worm.dead = True
        self.stats.killed_worms += 1
        for ch in worm.held_channels():
            self.release(ch)
        dropped = worm.undelivered()
        self.finish(worm)
        if self.drop_handler is not None:
            self.drop_handler(worm.message_id, dropped, reason)


# ----------------------------------------------------------------------
# Fault-aware worms.  Each adds three capabilities to its base class:
# a ``dead`` flag silencing the prebound callbacks after a kill, a
# fault check before every channel acquisition, and enough bookkeeping
# (``delivered``, held channels) for the kill path to account losses.
# ----------------------------------------------------------------------


class FaultyPathWorm(PathWorm):
    """A :class:`PathWorm` that dies on faulted channels."""

    __slots__ = ("dead", "arrived", "delivered")

    def __init__(self, net, message_id, nodes, channels, dests):
        super().__init__(net, message_id, nodes, channels, dests)
        self.dead = False
        self.arrived = False
        self.delivered: set = set()
        if net.origin_time is not None:
            self.injected_at = net.origin_time
        net.live[self] = None

    def _try_advance(self) -> None:
        if self.dead:
            return
        ch = self.channels[self.idx]
        if self.net.fault_state.channel_down(ch.key):
            self.net.kill_worm(self, "faulted channel on fixed path")
            return
        PathWorm._try_advance(self)

    def _arrived(self) -> None:
        if self.dead:
            return
        if self.idx >= self.num_channels:
            self.arrived = True
        PathWorm._arrived(self)

    def _release(self, i: int) -> None:
        if self.dead:
            return
        PathWorm._release(self, i)
        head = self.nodes[i + 1]
        if head in self.dests:
            self.delivered.add(head)

    def held_channels(self):
        return self.channels[max(0, self.idx - self.flits) : self.idx]

    def undelivered(self) -> set:
        return set(self.dests) - self.delivered

    def hit_by(self, ev: FaultEvent) -> bool:
        if ev.kind == "link":
            u, v = ev.target
            return any(
                ch.key[0] == u and ch.key[1] == v for ch in self.held_channels()
            )
        node = ev.target
        if self.nodes[self.idx] == node:  # header currently at the node
            return True
        return any(
            ch.key[0] == node or ch.key[1] == node for ch in self.held_channels()
        )


class FaultyAdaptivePathWorm(AdaptivePathWorm):
    """An :class:`AdaptivePathWorm` that detours around faulted
    candidate channels at simulation time and dies only when every
    admissible candidate is faulted."""

    __slots__ = ("dead", "arrived", "delivered")

    def __init__(self, net, message_id, source, dest_queue, labeling, channel_key, capacity):
        super().__init__(net, message_id, source, dest_queue, labeling, channel_key, capacity)
        self.dead = False
        self.arrived = False
        self.delivered: set = set()
        if net.origin_time is not None:
            self.injected_at = net.origin_time
        net.live[self] = None

    def _try_advance(self) -> None:
        if self.dead:
            return
        state = self.net.fault_state
        if not state.any_down:
            AdaptivePathWorm._try_advance(self)
            return
        cur = self.nodes[-1]
        target = self.queue[0]
        candidates = self.labeling.route_candidates(cur, target)
        alive = [p for p in candidates if not state.link_down(cur, p)]
        detouring = len(alive) < len(candidates)
        if detouring and not alive:
            # widen to the full monotone pool, as the static
            # fault-tolerant router does (still deadlock-free)
            alive = [
                p
                for p in self.labeling.monotone_candidates(cur, target)
                if not state.link_down(cur, p)
            ]
            if not alive:
                self.net.kill_worm(self, "all monotone candidates faulted")
                return
        chosen = None
        for p in alive:
            ch = self.net.channel(self.channel_key(cur, p), self.capacity)
            if ch.free:
                chosen = (p, ch)
                break
        if chosen is None:
            # block on the most-preferred *alive* candidate; the fault
            # check reruns on wake-up in case the fault set changed
            ch = self.net.channel(self.channel_key(cur, alive[0]), self.capacity)
            ch.waiters.append(self._advance)
            return
        if detouring:
            self.net.stats.detoured += 1
        nxt, ch = chosen
        ch.acquire()
        self.channels.append(ch)
        self.nodes.append(nxt)
        i = len(self.channels) - 1
        if i - self.flits >= 0:
            self._release(i - self.flits)
        self.env.schedule(self.tf, self._arrive)

    def _arrived(self) -> None:
        if self.dead:
            return
        # mirror the base transition: arrival is final once every
        # destination has been reached (pop before delegating so we can
        # observe the final state; _pop_reached is idempotent)
        self._pop_reached()
        if not self.queue:
            self.arrived = True
        AdaptivePathWorm._arrived(self)

    def _release(self, i: int) -> None:
        if self.dead:
            return
        AdaptivePathWorm._release(self, i)
        head = self.nodes[i + 1]
        if head in self.dests:
            self.delivered.add(head)

    def held_channels(self):
        return self.channels[max(0, len(self.channels) - self.flits) :]

    def undelivered(self) -> set:
        return set(self.dests) - self.delivered

    def hit_by(self, ev: FaultEvent) -> bool:
        if ev.kind == "link":
            u, v = ev.target
            return any(
                ch.key[0] == u and ch.key[1] == v for ch in self.held_channels()
            )
        node = ev.target
        if self.nodes[-1] == node:
            return True
        return any(
            ch.key[0] == node or ch.key[1] == node for ch in self.held_channels()
        )


class FaultyTreeWorm(TreeWorm):
    """A lockstep :class:`TreeWorm` under faults: the nCUBE-2 rule
    needs *every* channel of the next level, so a faulted channel at
    any level kills the whole tree."""

    __slots__ = ("dead", "arrived", "delivered")

    def __init__(self, net, message_id, chan_levels, head_levels):
        super().__init__(net, message_id, chan_levels, head_levels)
        self.dead = False
        self.arrived = False
        self.delivered: set = set()
        if net.origin_time is not None:
            self.injected_at = net.origin_time
        net.live[self] = None

    def _try_tick(self) -> None:
        if self.dead:
            return
        state = self.net.fault_state
        if state.any_down:
            for ch in self.chan_levels[self.k]:
                if state.channel_down(ch.key):
                    self.net.kill_worm(self, "faulted channel in tree level")
                    return
        TreeWorm._try_tick(self)

    def _tick_done(self) -> None:
        if self.dead:
            return
        if self.k >= len(self.chan_levels):
            self.arrived = True
        TreeWorm._tick_done(self)

    def _release_level(self, idx: int) -> None:
        if self.dead:
            return
        TreeWorm._release_level(self, idx)
        self.delivered.update(self.dest_levels[idx])

    def held_channels(self):
        out = []
        for level in self.chan_levels[max(0, self.k - self.flits) : self.k]:
            out.extend(level)
        return out

    def undelivered(self) -> set:
        out: set = set()
        for dests in self.dest_levels:
            out.update(dests)
        return out - self.delivered

    def hit_by(self, ev: FaultEvent) -> bool:
        if ev.kind == "link":
            u, v = ev.target
            return any(
                ch.key[0] == u and ch.key[1] == v for ch in self.held_channels()
            )
        node = ev.target
        return any(
            ch.key[0] == node or ch.key[1] == node for ch in self.held_channels()
        )


FaultyWormholeNetwork.path_worm_cls = FaultyPathWorm
FaultyWormholeNetwork.adaptive_worm_cls = FaultyAdaptivePathWorm
FaultyWormholeNetwork.tree_worm_cls = FaultyTreeWorm
