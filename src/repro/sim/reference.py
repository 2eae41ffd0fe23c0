"""Reference flit-level wormhole network model (§2.2.4, §7.2).

This is the simulator's coroutine/callback model: one worm object per
message stepping through the event kernel (:mod:`repro.sim.kernel`).
Every driver in :mod:`repro.sim.runner` runs on it.

Messages are *worms*: the header acquires one channel per flit time and
the body follows in a pipeline; a blocked worm stays in the network,
holding every channel it has acquired (no intermediate buffering).
Channels are released as the tail passes — with F flits, the channel
entered i-th is released once the header (or, after arrival, the
destination's consumption) has advanced F more steps.

Two worm shapes:

* :class:`PathWorm` — the multicast path/star model: one header, a
  linear channel sequence, intermediate destinations latch a copy as
  the worm passes (delivery is recorded when the tail passes them).
* :class:`TreeWorm` — the lockstep multicast tree of §6.1: the frontier
  of branch headers advances only when *every* channel of the next
  depth level is free (the nCUBE-2 rule: all required channels before
  transmission on any); blockage of any branch stalls the whole tree.
  Two such trees can deadlock (Fig. 6.1/6.4) — the simulator detects
  this as blocked worms with an empty event calendar.

Channel identity is an arbitrary hashable key, so callers can model
double channels either as one pooled channel of capacity 2 (path
routing on a double-channel network) or as per-subnetwork copies
(``(u, v, quadrant)`` for the double-channel X-first tree).

Faults are part of the same model.  A network built with a
:class:`~repro.sim.faults.FaultState` checks it before every channel
acquisition: a path or tree worm whose next channel is down is killed,
and an adaptive worm detours around down candidates (widening to the
monotone candidates), dying only when none is left.  A failing element
kills the worms holding channels on it, in injection order; a killed
worm releases what it holds and reports its undelivered destinations to
the network's ``drop_handler``.  Without a fault state none of this
bookkeeping runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING

from .config import SimConfig
from .kernel import Environment
from .stats import SimStats

if TYPE_CHECKING:
    from .faults import FaultEvent, FaultState


class Channel:
    """A physical (or virtual) channel with a FIFO waiter queue."""

    __slots__ = ("key", "capacity", "in_use", "waiters")

    def __init__(self, key: Hashable, capacity: int = 1):
        self.key = key
        self.capacity = capacity
        self.in_use = 0
        self.waiters: deque = deque()

    @property
    def free(self) -> bool:
        return self.in_use < self.capacity

    def acquire(self) -> None:
        assert self.in_use < self.capacity
        self.in_use += 1


@dataclass(slots=True)
class Delivery:
    """One destination's receipt of one multicast message."""

    message_id: int
    destination: Hashable
    injected_at: float
    delivered_at: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.injected_at


class WormholeNetwork:
    """The shared channel state plus bookkeeping for worms in flight.

    ``fault_state`` (optional) makes the network fault-aware: worms
    consult it before acquiring a channel, in-flight worms on a failing
    element are killed, and each message's destinations are delivered
    at most once (a retransmission may race a live sibling worm).
    """

    __slots__ = (
        "env", "config", "channels", "active_worms", "total_worms", "deliveries",
        "fault_state", "stats", "live", "reached", "drop_handler", "origin_time",
    )

    def __init__(
        self,
        env: Environment,
        config: SimConfig,
        fault_state: "FaultState | None" = None,
        stats: SimStats | None = None,
    ):
        self.env = env
        self.config = config
        self.channels: dict = {}
        self.active_worms = 0
        self.total_worms = 0
        self.deliveries: list[Delivery] = []
        self.fault_state = fault_state
        #: fault counters (kills, detours, fault events)
        self.stats = stats if stats is not None else SimStats()
        #: worms a fault can still kill (kept only under faults), as a
        #: dict-as-ordered-set so kills follow injection order (a set
        #: would iterate in allocator-dependent id() order)
        self.live: dict = {}
        #: per-message set of destinations reached so far (kept only
        #: under faults)
        self.reached: dict[int, set] = {}
        #: ``fn(message_id, undelivered_dests, reason)`` invoked when a
        #: worm is killed; the resilient driver hooks retries here
        self.drop_handler = None
        #: when set, new worms are stamped with this injection time
        #: instead of ``env.now``: a retransmission keeps its message's
        #: original time, so latency spans the whole retry history
        self.origin_time: float | None = None

    def channel(self, key: Hashable, capacity: int | None = None) -> Channel:
        ch = self.channels.get(key)
        if ch is None:
            ch = Channel(key, capacity or self.config.channels_per_link)
            self.channels[key] = ch
        return ch

    def release(self, ch: Channel) -> None:
        """Release one unit of the channel and wake every waiter (in
        FIFO order).  Waiters re-attempt acquisition; a waiter that
        still cannot proceed re-queues itself, so a freed slot is never
        stranded behind a blocked multi-channel (tree) waiter."""
        ch.in_use -= 1
        if ch.waiters and ch.in_use < ch.capacity:
            waiters = list(ch.waiters)
            ch.waiters.clear()
            for retry in waiters:
                self.env.schedule(0.0, retry)

    def deliver(self, message_id: int, dest, injected_at: float) -> None:
        if self.fault_state is not None:
            got = self.reached.setdefault(message_id, set())
            if dest in got:
                return
            got.add(dest)
        self.deliveries.append(
            Delivery(message_id, dest, injected_at, self.env.now)
        )

    # ------------------------------------------------------------------

    def inject_path(
        self,
        message_id: int,
        nodes: Sequence,
        destinations: set,
        channel_key=None,
        capacity: int | None = None,
        flits: int | None = None,
    ) -> "PathWorm":
        """Inject a path worm following ``nodes``; members of
        ``destinations`` latch a copy as the tail passes them.
        ``channel_key`` maps a hop to its channel identity (default:
        the ``(u, v)`` pair itself); ``flits`` overrides the message
        length (header modelling)."""
        channels = self.channels
        cap = capacity or self.config.channels_per_link
        chans = []
        for u, v in zip(nodes, nodes[1:]):
            key = (u, v) if channel_key is None else channel_key(u, v)
            ch = channels.get(key)
            if ch is None:
                ch = channels[key] = Channel(key, cap)
            chans.append(ch)
        return self._launch(PathWorm(self, message_id, list(nodes), chans, destinations), flits)

    def inject_adaptive_path(
        self,
        message_id: int,
        source,
        destinations: Sequence,
        labeling,
        channel_key=lambda u, v: (u, v),
        capacity: int | None = None,
    ) -> "AdaptivePathWorm":
        """Inject a path worm that chooses its next channel *at each
        hop*: any label-monotone profitable neighbor with a free channel
        is acceptable, preferring the deterministic R choice (the §8.2
        minimal-adaptive extension).  ``destinations`` must be
        label-sorted in travel order (as produced by
        ``split_high_low``)."""
        return self._launch(AdaptivePathWorm(
            self, message_id, source, list(destinations), labeling, channel_key, capacity
        ))

    def inject_tree(
        self,
        message_id: int,
        levels: Sequence[Sequence],
        channel_key=lambda arc: (arc[0], arc[1]),
        capacity: int | None = None,
        flits: int | None = None,
    ) -> "TreeWorm":
        """Inject a lockstep tree worm.  ``levels[r]`` holds the arcs at
        depth r+1 as ``(u, v, *tags)`` tuples; per-level destination
        sets are supplied via ``TreeWorm.dest_levels`` by the caller."""
        chan_levels = [
            [self.channel(channel_key(arc), capacity) for arc in level]
            for level in levels
        ]
        head_levels = [[arc[1] for arc in level] for level in levels]
        return self._launch(TreeWorm(self, message_id, chan_levels, head_levels), flits)

    def _launch(self, worm, flits: int | None = None):
        if flits is not None:
            worm.flits = flits
        if self.fault_state is not None:
            self.live[worm] = None
            if self.origin_time is not None:
                worm.injected_at = self.origin_time
        self.active_worms += 1
        self.total_worms += 1
        worm.start()
        return worm

    def finish(self, worm) -> None:
        self.active_worms -= 1
        if self.fault_state is not None:
            self.live.pop(worm, None)

    def on_element_failed(self, ev: "FaultEvent") -> None:
        """Kill every live worm whose header sits on the failed node or
        that holds a channel on the failed element."""
        reason = f"{ev.kind} failed under worm"
        if ev.kind == "link":
            u, v = ev.target
            for worm in tuple(self.live):
                if not worm.dead and any(
                    ch.key[0] == u and ch.key[1] == v for ch in worm.held_channels()
                ):
                    self.kill_worm(worm, reason)
            return
        node = ev.target
        for worm in tuple(self.live):
            if not worm.dead and (
                worm.header() == node
                or any(ch.key[0] == node or ch.key[1] == node for ch in worm.held_channels())
            ):
                self.kill_worm(worm, reason)

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

    def run_to_completion(self, until: float | None = None) -> bool:
        """Run the calendar dry.  Returns True if every worm finished;
        False indicates deadlock (blocked worms, no pending events)."""
        self.env.run(until)
        return self.active_worms == 0


class PathWorm:
    """A single-path worm (see module docstring for the timing rules)."""

    __slots__ = (
        "net", "env", "message_id", "nodes", "channels", "num_channels",
        "dests", "injected_at", "idx", "flits", "tf", "faults", "dead", "_sched",
    )

    def __init__(self, net: WormholeNetwork, message_id: int, nodes, channels, dests):
        self.net = net
        self.env = net.env
        self.message_id = message_id
        self.nodes = nodes
        self.channels = channels
        self.num_channels = len(channels)
        self.dests = dests
        self.injected_at = net.env.now
        self.idx = 0  # next channel index to acquire
        self.flits = net.config.flits_per_message
        self.tf = net.config.flit_time
        self.faults = net.fault_state
        self.dead = False
        # callbacks are bound per event, not stored on the worm: a bound
        # method kept in a slot is a reference cycle, so every finished
        # worm would wait for the cyclic collector instead of being
        # freed when its last event runs
        self._sched = net.env.schedule

    def start(self) -> None:
        if not self.channels:  # degenerate: source-only path
            self.net.finish(self)
            return
        self._try_advance()

    def _try_advance(self) -> None:
        if self.dead:
            return
        i = self.idx
        ch = self.channels[i]
        faults = self.faults
        if faults is not None and faults.channel_down(ch.key):
            self.net.kill_worm(self, "faulted channel on fixed path")
            return
        if ch.in_use >= ch.capacity:
            ch.waiters.append(self._try_advance)
            return
        ch.in_use += 1
        self.idx = i + 1
        j = i - self.flits
        if j >= 0:
            self._release(j)
        self._sched(self.tf, self._arrived)

    def _arrived(self) -> None:
        if self.dead:
            return
        if self.idx < self.num_channels:
            self._try_advance()
            return
        if self.faults is not None:
            self.net.live.pop(self, None)  # past the reach of faults
        # header consumed at the final node; remaining flits drain at
        # one per flit time, releasing held channels oldest-first.
        D = self.num_channels
        F = self.flits
        sched = self._sched
        tf = self.tf
        for i in range(max(0, D - F), D):
            sched((i + F - D) * tf, self._release, i)
        sched((F - 1) * tf, self._finished)

    def _release(self, i: int) -> None:
        self.net.release(self.channels[i])
        head = self.nodes[i + 1]
        if head in self.dests:
            self.net.deliver(self.message_id, head, self.injected_at)

    def _finished(self) -> None:
        self.net.finish(self)

    # fault accounting (the kill path; see WormholeNetwork.kill_worm)

    def header(self):
        return self.nodes[self.idx]

    def held_channels(self) -> list:
        return self.channels[max(0, self.idx - self.flits) : self.idx]

    def undelivered(self) -> set:
        # channel i is released (and nodes[i + 1] delivered) once the
        # header is F channels further on
        return set(self.dests).difference(self.nodes[1 : max(0, self.idx - self.flits) + 1])


class AdaptivePathWorm:
    """A path worm with per-hop adaptive channel selection (§8.2).

    At each node the admissible next hops are the label-monotone
    candidates toward the next destination
    (:meth:`repro.labeling.base.Labeling.route_candidates`); the worm
    takes the most-preferred candidate whose channel is free, and only
    blocks — on the deterministic R choice — when all are busy.
    Monotonicity keeps every dependency inside the acyclic high/low
    subnetwork, so adaptivity does not compromise deadlock freedom.
    Under faults, down candidates are skipped (widening to every
    monotone candidate when all preferred ones are down).
    Release and delivery timing mirror :class:`PathWorm`.
    """

    __slots__ = (
        "net", "env", "message_id", "labeling", "channel_key", "capacity",
        "nodes", "channels", "queue", "dests", "injected_at", "flits", "tf",
        "faults", "dead",
    )

    def __init__(self, net, message_id, source, dest_queue, labeling, channel_key, capacity):
        self.net = net
        self.env = net.env
        self.message_id = message_id
        self.labeling = labeling
        self.channel_key = channel_key
        self.capacity = capacity
        self.nodes = [source]
        self.channels: list[Channel] = []
        self.queue = list(dest_queue)
        self.dests = set(dest_queue)
        self.injected_at = net.env.now
        self.flits = net.config.flits_per_message
        self.tf = net.config.flit_time
        self.faults = net.fault_state
        self.dead = False

    def start(self) -> None:
        self._pop_reached()
        if not self.queue:
            # degenerate: the source is the only stop
            self.net.finish(self)
            return
        self._try_advance()

    def _pop_reached(self) -> None:
        while self.queue and self.queue[0] == self.nodes[-1]:
            self.queue.pop(0)

    def _try_advance(self) -> None:
        if self.dead:
            return
        cur = self.nodes[-1]
        target = self.queue[0]
        candidates = self.labeling.route_candidates(cur, target)
        faults = self.faults
        detouring = False
        if faults is not None and faults.any_down:
            alive = [p for p in candidates if not faults.link_down(cur, p)]
            detouring = len(alive) < len(candidates)
            if not alive:
                # widen to the full monotone pool, as the static
                # fault-tolerant router does (still deadlock-free)
                alive = [
                    p
                    for p in self.labeling.monotone_candidates(cur, target)
                    if not faults.link_down(cur, p)
                ]
                if not alive:
                    self.net.kill_worm(self, "all monotone candidates faulted")
                    return
            candidates = alive
        for nxt in candidates:
            ch = self.net.channel(self.channel_key(cur, nxt), self.capacity)
            if ch.free:
                break
        else:
            # block on the most-preferred (live) candidate, the
            # deterministic R choice when nothing is down; the fault
            # check reruns on wake-up
            ch = self.net.channel(self.channel_key(cur, candidates[0]), self.capacity)
            ch.waiters.append(self._try_advance)
            return
        if detouring:
            self.net.stats.detoured += 1
        ch.acquire()
        self.channels.append(ch)
        self.nodes.append(nxt)
        i = len(self.channels) - 1
        if i - self.flits >= 0:
            self._release(i - self.flits)
        self.env.schedule(self.tf, self._arrived)

    def _arrived(self) -> None:
        if self.dead:
            return
        self._pop_reached()
        if self.queue:
            self._try_advance()
            return
        if self.faults is not None:
            self.net.live.pop(self, None)  # past the reach of faults
        D = len(self.channels)
        F = self.flits
        for i in range(max(0, D - F), D):
            self.env.schedule((i + F - D) * self.tf, self._release, i)
        self.env.schedule((F - 1) * self.tf, self._finished)

    def _release(self, i: int) -> None:
        self.net.release(self.channels[i])
        head = self.nodes[i + 1]
        if head in self.dests:
            self.net.deliver(self.message_id, head, self.injected_at)

    def _finished(self) -> None:
        self.net.finish(self)

    def header(self):
        return self.nodes[-1]

    def held_channels(self) -> list:
        return self.channels[max(0, len(self.channels) - self.flits) :]

    def undelivered(self) -> set:
        released = max(0, len(self.channels) - self.flits)
        return self.dests.difference(self.nodes[1 : released + 1])


class TreeWorm:
    """A lockstep tree worm: all channels of the next depth level must
    be free before the frontier advances (§6.1).  Under faults the
    nCUBE-2 rule needs *every* channel of the next level, so a down
    channel at any level kills the whole tree."""

    __slots__ = (
        "net", "env", "message_id", "chan_levels", "head_levels",
        "dest_levels", "injected_at", "k", "flits", "tf", "faults", "dead",
    )

    def __init__(self, net: WormholeNetwork, message_id: int, chan_levels, head_levels):
        self.net = net
        self.env = net.env
        self.message_id = message_id
        self.chan_levels = chan_levels
        self.head_levels = head_levels
        #: per-level sets of destination nodes; filled by the caller
        self.dest_levels: list[set] = [set() for _ in chan_levels]
        self.injected_at = net.env.now
        self.k = 0  # next level to acquire
        self.flits = net.config.flits_per_message
        self.tf = net.config.flit_time
        self.faults = net.fault_state
        self.dead = False

    def start(self) -> None:
        if not self.chan_levels:
            self.net.finish(self)
            return
        self._try_tick()

    def _try_tick(self) -> None:
        if self.dead:
            return
        level = self.chan_levels[self.k]
        faults = self.faults
        if faults is not None and faults.any_down:
            for ch in level:
                if faults.channel_down(ch.key):
                    self.net.kill_worm(self, "faulted channel in tree level")
                    return
        for ch in level:
            if not ch.free:
                ch.waiters.append(self._try_tick)
                return
        for ch in level:
            ch.acquire()
        k = self.k
        self.k += 1
        if k - self.flits >= 0:
            self._release_level(k - self.flits)
        self.env.schedule(self.tf, self._tick_done)

    def _tick_done(self) -> None:
        if self.dead:
            return
        if self.k < len(self.chan_levels):
            self._try_tick()
            return
        if self.faults is not None:
            self.net.live.pop(self, None)  # past the reach of faults
        L = len(self.chan_levels)
        F = self.flits
        for idx in range(max(0, L - F), L):
            self.env.schedule((idx + F - L) * self.tf, self._release_level, idx)
        self.env.schedule((L - 1 + F - L) * self.tf, self._finished)

    def _release_level(self, idx: int) -> None:
        for ch in self.chan_levels[idx]:
            self.net.release(ch)
        for dest in self.dest_levels[idx]:
            self.net.deliver(self.message_id, dest, self.injected_at)

    def _finished(self) -> None:
        self.net.finish(self)

    def header(self):
        return None  # a frontier, not one header: held channels decide

    def held_channels(self) -> list:
        held = self.chan_levels[max(0, self.k - self.flits) : self.k]
        return [ch for level in held for ch in level]

    def undelivered(self) -> set:
        released = max(0, self.k - self.flits)
        return set().union(*self.dest_levels).difference(*self.dest_levels[:released])
