"""The LEN greedy multicast tree heuristic for hypercubes
(Lan, Esfahanian & Ni 1990, refs [19]/[20]; baseline of Fig. 7.4).

At each forward node the destination set is scanned per dimension:
the dimension along which the most remaining destinations differ is
selected first, the destinations differing there are forwarded to that
neighbor, and the scan repeats on the remainder.  Every destination
travels a shortest path (one bit corrected per hop, always toward the
destination) and commonly-needed dimensions are shared, but the
algorithm considers only bit counts — the dissertation's greedy ST
algorithm improves on it by placing junctions geometrically.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import register
from ..topology.base import Node
from ..topology.hypercube import Hypercube


def len_step(cube: Hypercube, local: Node, dests: Sequence[Node]) -> tuple[bool, dict]:
    """One execution of the LEN greedy partitioning.

    Returns ``(deliver_local, {neighbor: sublist})``.
    """
    deliver = False
    remaining = []
    for d in dests:
        if d == local:
            deliver = True
        else:
            remaining.append(d)
    groups: dict = {}
    while remaining:
        counts = [0] * cube.n
        for d in remaining:
            diff = d ^ local
            for j in range(cube.n):
                if diff & (1 << j):
                    counts[j] += 1
        j_star = max(range(cube.n), key=lambda j: (counts[j], -j))
        taken = [d for d in remaining if (d ^ local) & (1 << j_star)]
        remaining = [d for d in remaining if not (d ^ local) & (1 << j_star)]
        groups[local ^ (1 << j_star)] = taken
    return deliver, groups


@register(
    "len",
    kind="static-route",
    topologies=("hypercube",),
    result_model="multicast-tree",
    reference="§5.2 (Lan-Esfahanian-Ni hypercube multicast tree)",
)
def len_route(request: MulticastRequest) -> MulticastTree:
    """Drive the LEN greedy multicast over the hypercube."""
    cube = request.topology
    if not isinstance(cube, Hypercube):
        raise TypeError("the LEN heuristic is defined for hypercubes")
    arcs: list[tuple[Node, Node]] = []
    delivered: set = set()
    pending = deque([(request.source, list(request.destinations))])
    while pending:
        w, dlist = pending.popleft()
        deliver, groups = len_step(cube, w, dlist)
        if deliver:
            delivered.add(w)
        for nxt, sub in groups.items():
            arcs.append((w, nxt))
            pending.append((nxt, sub))
    if delivered != set(request.destinations):
        raise RuntimeError("LEN multicast failed to deliver")
    return MulticastTree(cube, request.source, tuple(arcs))
