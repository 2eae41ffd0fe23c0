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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Hashable, Sequence

from .config import SimConfig
from .kernel import Environment


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

    The worm classes are class attributes (bound after their
    definitions below) so a subclass can substitute fault-aware worms
    without re-implementing the injection methods —
    :class:`repro.sim.faults.FaultyWormholeNetwork` does exactly that.
    """

    __slots__ = ("env", "config", "channels", "active_worms", "total_worms", "deliveries", "_blocked")

    #: worm classes used by the inject_* methods (overridable).
    path_worm_cls: type
    adaptive_worm_cls: type
    tree_worm_cls: type

    def __init__(self, env: Environment, config: SimConfig):
        self.env = env
        self.config = config
        self.channels: dict = {}
        self.active_worms = 0
        self.total_worms = 0
        self.deliveries: list[Delivery] = []
        self._blocked: list = []

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
        worm = self.path_worm_cls(self, message_id, list(nodes), chans, destinations)
        if flits is not None:
            worm.flits = flits
        self.active_worms += 1
        self.total_worms += 1
        worm.start()
        return worm

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
        worm = self.adaptive_worm_cls(
            self, message_id, source, list(destinations), labeling, channel_key, capacity
        )
        self.active_worms += 1
        self.total_worms += 1
        worm.start()
        return worm

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
        worm = self.tree_worm_cls(self, message_id, chan_levels, head_levels)
        if flits is not None:
            worm.flits = flits
        self.active_worms += 1
        self.total_worms += 1
        worm.start()
        return worm

    def finish(self, worm) -> None:
        self.active_worms -= 1

    def run_to_completion(self, until: float | None = None) -> bool:
        """Run the calendar dry.  Returns True if every worm finished;
        False indicates deadlock (blocked worms, no pending events)."""
        self.env.run(until)
        return self.active_worms == 0


class PathWorm:
    """A single-path worm (see module docstring for the timing rules)."""

    __slots__ = (
        "net", "env", "message_id", "nodes", "channels", "num_channels",
        "dests", "injected_at", "idx", "flits", "tf", "blocked_on",
        "_advance", "_arrive", "_rel", "_sched",
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
        self.blocked_on: Channel | None = None
        # prebound callbacks: the advance loop schedules these once per
        # hop/flit, and binding them here avoids a method-object
        # allocation per event
        self._advance = self._try_advance
        self._arrive = self._arrived
        self._rel = self._release
        self._sched = net.env.schedule

    def start(self) -> None:
        if not self.channels:  # degenerate: source-only path
            self.net.finish(self)
            return
        self._try_advance()

    def _try_advance(self) -> None:
        self.blocked_on = None
        i = self.idx
        ch = self.channels[i]
        if ch.in_use >= ch.capacity:
            self.blocked_on = ch
            ch.waiters.append(self._advance)
            return
        ch.in_use += 1
        self.idx = i + 1
        j = i - self.flits
        if j >= 0:
            self._release(j)
        self._sched(self.tf, self._arrive)

    def _arrived(self) -> None:
        if self.idx < self.num_channels:
            self._try_advance()
            return
        # header consumed at the final node; remaining flits drain at
        # one per flit time, releasing held channels oldest-first.
        D = self.num_channels
        F = self.flits
        sched = self._sched
        tf = self.tf
        for i in range(max(0, D - F), D):
            sched((i + F - D) * tf, self._rel, i)
        sched((F - 1) * tf, self._finished)

    def _release(self, i: int) -> None:
        self.net.release(self.channels[i])
        head = self.nodes[i + 1]
        if head in self.dests:
            self.net.deliver(self.message_id, head, self.injected_at)

    def _finished(self) -> None:
        self.net.finish(self)


class AdaptivePathWorm:
    """A path worm with per-hop adaptive channel selection (§8.2).

    At each node the admissible next hops are the label-monotone
    candidates toward the next destination
    (:meth:`repro.labeling.base.Labeling.route_candidates`); the worm
    takes the most-preferred candidate whose channel is free, and only
    blocks — on the deterministic R choice — when all are busy.
    Monotonicity keeps every dependency inside the acyclic high/low
    subnetwork, so adaptivity does not compromise deadlock freedom.
    Release and delivery timing mirror :class:`PathWorm`.
    """

    __slots__ = (
        "net", "env", "message_id", "labeling", "channel_key", "capacity",
        "nodes", "channels", "queue", "dests", "injected_at", "flits", "tf",
        "_advance", "_arrive", "_rel",
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
        self._advance = self._try_advance
        self._arrive = self._arrived
        self._rel = self._release

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
        cur = self.nodes[-1]
        target = self.queue[0]
        candidates = self.labeling.route_candidates(cur, target)
        chosen = None
        for p in candidates:
            ch = self.net.channel(self.channel_key(cur, p), self.capacity)
            if ch.free:
                chosen = (p, ch)
                break
        if chosen is None:
            # block on the deterministic R choice
            ch = self.net.channel(self.channel_key(cur, candidates[0]), self.capacity)
            ch.waiters.append(self._advance)
            return
        nxt, ch = chosen
        ch.acquire()
        self.channels.append(ch)
        self.nodes.append(nxt)
        i = len(self.channels) - 1
        if i - self.flits >= 0:
            self._release(i - self.flits)
        self.env.schedule(self.tf, self._arrive)

    def _arrived(self) -> None:
        self._pop_reached()
        if self.queue:
            self._try_advance()
            return
        D = len(self.channels)
        F = self.flits
        for i in range(max(0, D - F), D):
            self.env.schedule((i + F - D) * self.tf, self._rel, i)
        self.env.schedule((F - 1) * self.tf, self._finished)

    def _release(self, i: int) -> None:
        self.net.release(self.channels[i])
        head = self.nodes[i + 1]
        if head in self.dests:
            self.net.deliver(self.message_id, head, self.injected_at)

    def _finished(self) -> None:
        self.net.finish(self)


class TreeWorm:
    """A lockstep tree worm: all channels of the next depth level must
    be free before the frontier advances (§6.1)."""

    __slots__ = (
        "net", "env", "message_id", "chan_levels", "head_levels",
        "dest_levels", "injected_at", "k", "flits", "tf",
        "_tick", "_done", "_rel",
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
        self._tick = self._try_tick
        self._done = self._tick_done
        self._rel = self._release_level

    def start(self) -> None:
        if not self.chan_levels:
            self.net.finish(self)
            return
        self._try_tick()

    def _try_tick(self) -> None:
        level = self.chan_levels[self.k]
        for ch in level:
            if not ch.free:
                ch.waiters.append(self._tick)
                return
        for ch in level:
            ch.acquire()
        k = self.k
        self.k += 1
        if k - self.flits >= 0:
            self._release_level(k - self.flits)
        self.env.schedule(self.tf, self._done)

    def _tick_done(self) -> None:
        if self.k < len(self.chan_levels):
            self._try_tick()
            return
        L = len(self.chan_levels)
        F = self.flits
        for idx in range(max(0, L - F), L):
            self.env.schedule((idx + F - L) * self.tf, self._rel, idx)
        self.env.schedule((L - 1 + F - L) * self.tf, self._finished)

    def _release_level(self, idx: int) -> None:
        for ch in self.chan_levels[idx]:
            self.net.release(ch)
        for dest in self.dest_levels[idx]:
            self.net.deliver(self.message_id, dest, self.injected_at)

    def _finished(self) -> None:
        self.net.finish(self)


WormholeNetwork.path_worm_cls = PathWorm
WormholeNetwork.adaptive_worm_cls = AdaptivePathWorm
WormholeNetwork.tree_worm_cls = TreeWorm
