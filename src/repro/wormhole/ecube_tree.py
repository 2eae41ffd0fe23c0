"""The nCUBE-2-style e-cube multicast/broadcast tree (§6.1, Fig. 6.1).

Each path from source to destination follows e-cube (lowest differing
dimension first) routing; destinations sharing a first hop share a
branch.  With wormhole switching on single channels this tree is *not*
deadlock-free — §6.1 exhibits two simultaneous broadcasts from nodes
000 and 001 of a 3-cube that block each other forever.  The routing
itself is included to reproduce that demonstration (and as the
tree-shaped workload for the dynamic study's deadlock tests).
"""

from __future__ import annotations

from collections import deque

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import register
from ..topology.base import Node
from ..topology.hypercube import Hypercube


def ecube_step(cube: Hypercube, local: Node, dests) -> tuple[bool, dict]:
    """Partition destinations by their e-cube first hop (lowest
    differing dimension)."""
    deliver = False
    groups: dict = {}
    for d in dests:
        if d == local:
            deliver = True
            continue
        diff = d ^ local
        low_bit = diff & (-diff)
        groups.setdefault(local ^ low_bit, []).append(d)
    return deliver, groups


@register(
    "ecube-tree",
    kind="dynamic-worm",
    topologies=("hypercube",),
    result_model="multicast-tree",
    worm_style="tree",
    deadlock_free=False,
    reference="§6.1 Fig. 6.1 (lockstep e-cube tree; the deadlock counterexample)",
)
def ecube_tree_route(request: MulticastRequest) -> MulticastTree:
    """Drive the e-cube multicast tree over the hypercube."""
    cube = request.topology
    if not isinstance(cube, Hypercube):
        raise TypeError("the e-cube tree is defined for hypercubes")
    arcs: list = []
    delivered: set = set()
    pending = deque([(request.source, list(request.destinations))])
    while pending:
        w, dlist = pending.popleft()
        deliver, groups = ecube_step(cube, w, dlist)
        if deliver:
            delivered.add(w)
        for nxt, sub in groups.items():
            arcs.append((w, nxt))
            pending.append((nxt, sub))
    if delivered != set(request.destinations):
        raise RuntimeError("e-cube tree failed to deliver")
    return MulticastTree(cube, request.source, tuple(arcs))


def broadcast_tree(cube: Hypercube, source: Node) -> MulticastTree:
    """The full e-cube broadcast tree (the binomial spanning tree the
    nCUBE-2 uses for one-to-all delivery)."""
    request = MulticastRequest(
        cube, source, tuple(v for v in cube.nodes() if v != source)
    )
    return ecube_tree_route(request)


def subcube_multicast_route(request: MulticastRequest) -> MulticastTree:
    """The nCUBE-2's restricted multicast (§6.1: "a special form of
    multicast in which the destination nodes form a subcube").

    Requires the multicast set K (source + destinations) to be exactly
    an aligned subcube containing the source; delivery is the e-cube
    broadcast tree *within* that subcube.  One such multicast at a time
    is harmless, but two overlapping subcube multicasts are exactly the
    Fig. 6.1 configuration — the restriction does not buy deadlock
    freedom, which is why Chapter 6 is needed.

    Raises ``ValueError`` if K is not an aligned subcube.
    """
    cube = request.topology
    if not isinstance(cube, Hypercube):
        raise TypeError("subcube multicast is defined for hypercubes")
    members = sorted(request.multicast_set)
    size = len(members)
    if size & (size - 1):
        raise ValueError("multicast set size is not a power of two")
    # the free dimensions are those on which members disagree
    base = members[0]
    free_mask = 0
    for m in members:
        free_mask |= m ^ base
    dims = free_mask.bit_count()
    if 1 << dims != size:
        raise ValueError("multicast set does not span an aligned subcube")
    expected = {base}
    for m in members:
        if (m & ~free_mask) != (base & ~free_mask):
            raise ValueError("multicast set is not an aligned subcube")
    return ecube_tree_route(request)
