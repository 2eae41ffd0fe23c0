"""A message-passing programming model over the simulated network
(§8.2, "System Supported Multicast Service").

The dissertation's first future-work item asks for "a set of multicast
primitive operations and ... the interface between application programs
and system software, so that the underlying multicast facility can be
easily used".  This module provides that interface for *simulated*
programs: user code is written as kernel processes against a small
node-local API —

* ``api.send(dest, payload)`` — unicast; returns an event that
  triggers when the tail reaches the destination;
* ``api.multicast(dests, payload)`` — one-to-many over the configured
  deadlock-free multicast scheme; triggers when *all* copies arrive;
* ``api.recv()`` — next message for this node, as ``(source, payload)``;
* ``api.delay(seconds)`` — local computation time.

It makes the §1.1 comparison executable: the blocking multi-send
program sketch versus a hardware-supported multicast primitive (see
``examples/programming_model.py``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from .models.request import MulticastRequest
from .sim.config import SimConfig
from .sim.kernel import Environment, Event
from .sim.reference import WormholeNetwork
from .sim.runner import inject_specs
from .sim.traffic import Router
from .topology.base import Node, Topology


class _ProgramNetwork(WormholeNetwork):
    """A wormhole network that notifies the multicomputer on delivery."""

    def __init__(self, env, config, owner: "Multicomputer"):
        super().__init__(env, config)
        self._owner = owner

    def deliver(self, message_id, dest, injected_at):
        super().deliver(message_id, dest, injected_at)
        self._owner._on_deliver(message_id, dest)


class Multicomputer:
    """A simulated multicomputer running user programs on its nodes.

    >>> mc = Multicomputer(Mesh2D(4, 4))
    >>> def program(api):
    ...     yield api.multicast([(1, 0), (2, 2)], "hello")
    >>> mc.spawn((0, 0), program)
    >>> mc.run()
    """

    def __init__(
        self,
        topology: Topology,
        scheme: str = "dual-path",
        config: SimConfig | None = None,
    ):
        self.topology = topology
        self.config = config or SimConfig()
        self.env = Environment()
        self.network = _ProgramNetwork(self.env, self.config, self)
        self.router = Router(topology, scheme)
        self._mailboxes: dict = {}
        self._recv_waiters: dict = {}
        self._next_mid = 0
        #: message id -> (completion event, outstanding deliveries, payload, source)
        self._in_flight: dict = {}
        self.programs: list = []

    # -- plumbing ---------------------------------------------------------

    def _on_deliver(self, message_id: int, dest: Node) -> None:
        entry = self._in_flight.get(message_id)
        if entry is None:
            return
        event, remaining, payload, source = entry
        self._mailboxes.setdefault(dest, deque()).append((source, payload))
        waiters = self._recv_waiters.get(dest)
        if waiters:
            waiters.popleft().succeed(self._mailboxes[dest].popleft())
        remaining -= 1
        if remaining == 0:
            del self._in_flight[message_id]
            event.succeed()
        else:
            self._in_flight[message_id] = (event, remaining, payload, source)

    def _transmit(self, source: Node, dests, payload) -> Event:
        self._next_mid += 1
        mid = self._next_mid
        done = self.env.event()
        request = MulticastRequest(self.topology, source, tuple(dests))
        self._in_flight[mid] = (done, request.k, payload, source)
        inject_specs(
            self.network, mid, self.router(request),
            self.config.channels_per_link, self.router,
        )
        return done

    # -- user-facing ------------------------------------------------------

    def api(self, node: Node) -> "NodeAPI":
        if not self.topology.is_node(node):
            raise ValueError(f"{node!r} is not a node")
        return NodeAPI(self, node)

    def spawn(self, node: Node, program: Callable, *args):
        """Start ``program(api, *args)`` (a generator function) on a
        node.  Returns the kernel process (an event triggering with the
        program's return value)."""
        proc = self.env.process(program(self.api(node), *args))
        self.programs.append(proc)
        return proc

    def run(self, until: float | None = None) -> None:
        """Run until every event is processed (or ``until``).  Raises if
        the network wedged with undelivered messages."""
        self.env.run(until)
        if until is None and self.network.active_worms:
            raise RuntimeError(
                f"{self.network.active_worms} messages blocked (deadlock?)"
            )

    @property
    def now(self) -> float:
        return self.env.now


class NodeAPI:
    """The per-node system interface handed to user programs."""

    def __init__(self, mc: Multicomputer, node: Node):
        self._mc = mc
        self.node = node

    def send(self, dest: Node, payload=None) -> Event:
        """Unicast; the returned event triggers when the message tail
        reaches ``dest`` (yield it for a synchronous send)."""
        return self._mc._transmit(self.node, [dest], payload)

    def multicast(self, dests, payload=None) -> Event:
        """One multicast message to every node in ``dests``; triggers
        when the last copy is delivered."""
        return self._mc._transmit(self.node, list(dests), payload)

    def recv(self) -> Event:
        """The next ``(source, payload)`` delivered to this node."""
        mc = self._mc
        event = mc.env.event()
        box = mc._mailboxes.setdefault(self.node, deque())
        if box:
            event.succeed(box.popleft())
        else:
            mc._recv_waiters.setdefault(self.node, deque()).append(event)
        return event

    def delay(self, seconds: float) -> Event:
        """Local computation for ``seconds`` of simulated time."""
        return self._mc.env.timeout(seconds)

    @property
    def now(self) -> float:
        return self._mc.env.now
