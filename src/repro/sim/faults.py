"""Dynamic fault injection for the wormhole simulator (§2.1
robustness; §8.2 "it can also support the fault tolerant routing").

The dissertation's dynamic study assumes a perfect network; this module
lets links and nodes fail *while worms are in flight*, which is the
evaluation axis the NoC successors of this work study (delivery ratio
and latency vs. fault rate).

Two pieces:

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

What a fault does to a worm lives with the worms themselves: a
:class:`~repro.sim.reference.WormholeNetwork` built with a
:class:`FaultState` refuses faulted channels, lets adaptive worms
detour, and kills in-flight worms on a failing element, releasing every
channel they hold (so a fault never wedges the rest of the network).
Killed worms report to the network's ``drop_handler``; the resilient
driver (:func:`repro.sim.runner.run_resilient`) uses that to implement
source-level retransmission with bounded retries and exponential
backoff on kernel :class:`~repro.sim.kernel.Timeout` events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Hashable
from typing import TYPE_CHECKING

from .config import SimConfig

if TYPE_CHECKING:
    from .reference import WormholeNetwork

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultState",
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

    def install(self, net: "WormholeNetwork") -> None:
        """Schedule every plan event on the network's calendar."""
        schedule = net.env.schedule
        for ev in self.plan.events:
            schedule(ev.time, self._apply, net, ev)

    def _apply(self, net: "WormholeNetwork", ev: FaultEvent) -> None:
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
