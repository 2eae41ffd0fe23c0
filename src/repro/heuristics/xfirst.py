"""The X-first multicast tree algorithm for 2D meshes (§5.3, Fig. 5.5).

The natural extension of X-first (dimension-ordered) unicast routing to
multicast: each forward node partitions its destination list into the
four directions, sending destinations with a differing x-coordinate
horizontally first.  Every destination is reached via a shortest path
(Theorem 5.3), but the route of each destination ignores the others, so
traffic is often far from minimal — the motivation for the divided
greedy algorithm.

Note §6.1 shows this tree, used with wormhole switching on single
channels, is *not* deadlock-free (Fig. 6.4); Chapter 6 repairs it with
the four double-channel subnetworks.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import register
from ..topology.base import Node
from ..topology.mesh import Mesh2D


def xfirst_step(local: Node, dests: Sequence[Node]) -> tuple[bool, dict]:
    """One execution of the X-first multicast algorithm (Fig. 5.5).

    Returns ``(deliver_local, {next_node: sublist})``.
    """
    x0, y0 = local
    deliver = False
    groups: dict = {}

    def put(nxt: Node, d: Node) -> None:
        groups.setdefault(nxt, []).append(d)

    for d in dests:
        x, y = d
        if x > x0:
            put((x0 + 1, y0), d)
        elif x < x0:
            put((x0 - 1, y0), d)
        elif y > y0:
            put((x0, y0 + 1), d)
        elif y < y0:
            put((x0, y0 - 1), d)
        else:
            deliver = True
    return deliver, groups


@register(
    "xfirst",
    kind="static-route",
    topologies=("mesh2d",),
    result_model="multicast-tree",
    reference="§5.3 Fig. 5.5 (Theorem 5.3)",
)
def xfirst_route(request: MulticastRequest) -> MulticastTree:
    """Drive the X-first multicast over the mesh; returns the tree."""
    if not isinstance(request.topology, Mesh2D):
        raise TypeError("X-first multicast is defined for 2D meshes")
    arcs: list[tuple[Node, Node]] = []
    delivered: set = set()
    pending = deque([(request.source, list(request.destinations))])
    while pending:
        w, dlist = pending.popleft()
        deliver, groups = xfirst_step(w, dlist)
        if deliver:
            delivered.add(w)
        for nxt, sub in groups.items():
            arcs.append((w, nxt))
            pending.append((nxt, sub))
    if delivered != set(request.destinations):
        raise RuntimeError("X-first multicast failed to deliver")
    return MulticastTree(request.topology, request.source, tuple(arcs))
