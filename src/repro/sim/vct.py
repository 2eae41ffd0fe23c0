"""Virtual cut-through switching (§2.2.2).

Like wormhole routing, the header cuts through idle routers without
buffering; *unlike* wormhole routing, a blocked message is absorbed
into the blocking node's buffer — "virtual cut-through buffers blocked
messages and thus removes them from the network" (§2.2.4) — so blocked
traffic does not hold channels.  Under light load VCT and wormhole
behave identically; under heavy load VCT degenerates toward
store-and-forward (every hop buffers) but never exhibits wormhole's
chained channel blocking.

The model assumes ample node buffers (as the original Kermani &
Kleinrock analysis does), so VCT is deadlock-free whenever the
underlying route set is.
"""

from __future__ import annotations

from collections.abc import Sequence

from .reference import WormholeNetwork


class VCTWorm:
    """A virtual cut-through message: streams like a worm while
    channels are free; drains into the local buffer when blocked,
    releasing everything behind it."""

    __slots__ = (
        "net", "env", "message_id", "nodes", "channels", "dests",
        "injected_at", "idx", "seg_first_held", "flits", "tf", "on_finished",
    )

    def __init__(self, net: WormholeNetwork, message_id: int, nodes, channels, dests):
        self.on_finished = None
        self.net = net
        self.env = net.env
        self.message_id = message_id
        self.nodes = nodes
        self.channels = channels
        self.dests = dests
        self.injected_at = net.env.now
        self.idx = 0  # next channel index to acquire
        self.seg_first_held = 0  # oldest channel index still held
        self.flits = net.config.flits_per_message
        self.tf = net.config.flit_time

    def start(self) -> None:
        if not self.channels:
            self.net.finish(self)
            return
        self._try_advance()

    def _held(self) -> range:
        return range(self.seg_first_held, self.idx)

    def _try_advance(self) -> None:
        ch = self.channels[self.idx]
        if not ch.free:
            if self.seg_first_held < self.idx:
                # absorb into the local buffer: the message needs L/B to
                # drain off the channels it holds, then releases them all.
                drain = self.flits * self.tf
                first, last = self.seg_first_held, self.idx
                self.env.schedule(drain, self._drain_segment, first, last)
                self.seg_first_held = self.idx
            ch.waiters.append(self._retry_from_buffer)
            return
        self._take(ch)

    def _retry_from_buffer(self) -> None:
        ch = self.channels[self.idx]
        if not ch.free:
            ch.waiters.append(self._retry_from_buffer)
            return
        self._take(ch)

    def _take(self, ch) -> None:
        ch.acquire()
        i = self.idx
        self.idx += 1
        # release with the worm-span rule while streaming freely
        if i - self.flits >= self.seg_first_held:
            self._release(i - self.flits)
            self.seg_first_held = i - self.flits + 1
        self.env.schedule(self.tf, self._arrived)

    def _arrived(self) -> None:
        if self.idx < len(self.channels):
            self._try_advance()
            return
        D = len(self.channels)
        F = self.flits
        start = self.seg_first_held
        for i in range(start, D):
            self.env.schedule(max(0, i + F - D) * self.tf, self._release, i)
        self.env.schedule((F - 1) * self.tf, self._finished)

    def _drain_segment(self, first: int, last: int) -> None:
        for i in range(first, last):
            self._release(i)

    def _release(self, i: int) -> None:
        self.net.release(self.channels[i])
        head = self.nodes[i + 1]
        if head in self.dests:
            self.net.deliver(self.message_id, head, self.injected_at)


    def _finished(self) -> None:
        self.net.finish(self)
        if self.on_finished is not None:
            self.on_finished()


def inject_vct_path(
    net: WormholeNetwork,
    message_id: int,
    nodes: Sequence,
    destinations: set,
    channel_key=lambda u, v: (u, v),
    capacity: int | None = None,
) -> VCTWorm:
    """Inject a virtual cut-through message along ``nodes``."""
    chans = [net.channel(channel_key(u, v), capacity) for u, v in zip(nodes, nodes[1:])]
    worm = VCTWorm(net, message_id, list(nodes), chans, destinations)
    net.active_worms += 1
    worm.start()
    return worm
