"""Network partitioning for tree-like deadlock-free multicast (§6.2.1).

Doubling every channel of a 2D mesh and partitioning the result into
the four acyclic subnetworks

    N_{+X,+Y}: channels (i,j)->(i+1,j) and (i,j)->(i,j+1)
    N_{-X,+Y}: channels (i,j)->(i-1,j) and (i,j)->(i,j+1)
    N_{-X,-Y}: channels (i,j)->(i-1,j) and (i,j)->(i,j-1)
    N_{+X,-Y}: channels (i,j)->(i+1,j) and (i,j)->(i,j-1)

lets the X-first multicast tree run deadlock-free: each sub-multicast
stays inside one subnetwork whose channels can be totally ordered
(Fig. 6.8), so no cyclic channel dependency can form (Assertion 1).
"""

from __future__ import annotations

from collections import deque

from ..models.request import MulticastRequest
from ..models.results import MulticastTree, QuadrantTrees
from ..registry import AlgorithmSpec, register_spec
from ..topology.base import Node
from ..topology.mesh import Mesh2D

QUADRANTS = ("+X+Y", "-X+Y", "-X-Y", "+X-Y")

#: unit steps allowed inside each subnetwork
_QUADRANT_STEPS = {
    "+X+Y": ((1, 0), (0, 1)),
    "-X+Y": ((-1, 0), (0, 1)),
    "-X-Y": ((-1, 0), (0, -1)),
    "+X-Y": ((1, 0), (0, -1)),
}


def quadrant_channels(mesh: Mesh2D, quadrant: str) -> list[tuple[Node, Node]]:
    """The directed channels belonging to one subnetwork."""
    steps = _QUADRANT_STEPS[quadrant]
    out = []
    for u in mesh.nodes():
        for dx, dy in steps:
            v = (u[0] + dx, u[1] + dy)
            if mesh.is_node(v):
                out.append((u, v))
    return out


def partition_destinations(source: Node, destinations) -> dict:
    """Partition a destination set into the four quadrant sets
    (§6.2.1's D_{+X,+Y} etc.; the half-open boundaries tile the plane
    minus the source)."""
    x0, y0 = source
    out = {q: [] for q in QUADRANTS}
    for d in destinations:
        x, y = d
        if x > x0 and y >= y0:
            out["+X+Y"].append(d)
        elif x <= x0 and y > y0:
            out["-X+Y"].append(d)
        elif x < x0 and y <= y0:
            out["-X-Y"].append(d)
        else:  # x >= x0 and y < y0
            out["+X-Y"].append(d)
    return out


def double_channel_xfirst_step(
    mesh: Mesh2D, quadrant: str, local: Node, dests
) -> tuple[bool, dict]:
    """One step of the double-channel X-first routing algorithm
    (Fig. 6.6), generalised to all four subnetworks by mirroring: the
    quadrant's signs turn "east" and "north" into its own X and Y
    steps.

    Returns ``(deliver_local, {next_node: sublist})``.
    """
    sx = 1 if "+X" in quadrant else -1
    sy = 1 if "+Y" in quadrant else -1
    lx, ly = local
    # Step 1: while strictly west of every destination, move east.
    if dests and min(sx * (d[0] - lx) for d in dests) > 0:
        return False, {(lx + sx, ly): list(dests)}
    deliver = False
    column, remainder = [], []
    for d in dests:
        if d[0] != lx:
            remainder.append(d)
        elif d[1] != ly:
            column.append(d)  # step 3: same column, go vertical
        else:
            deliver = True
    groups: dict = {}
    if column:
        groups[(lx, ly + sy)] = column
    if remainder:
        groups[(lx + sx, ly)] = remainder
    return deliver, groups


def double_channel_xfirst_route(request: MulticastRequest) -> QuadrantTrees:
    """The tree-like deadlock-free multicast of §6.2.1: one X-first
    multicast tree per quadrant subnetwork.

    Returns ``((quadrant, tree), ...)`` for the non-empty quadrants; the
    simulator maps each tree onto its own channel copies.
    """
    mesh = request.topology
    if not isinstance(mesh, Mesh2D):
        raise TypeError("double-channel X-first routing is defined for 2D meshes")
    results = []
    for quadrant, dlist in partition_destinations(request.source, request.destinations).items():
        if not dlist:
            continue
        arcs: list = []
        pending = deque([(request.source, list(dlist))])
        while pending:
            w, sub = pending.popleft()
            _deliver, groups = double_channel_xfirst_step(mesh, quadrant, w, sub)
            for nxt, nsub in groups.items():
                arcs.append((w, nxt))
                pending.append((nxt, nsub))
        results.append((quadrant, MulticastTree(mesh, request.source, tuple(arcs))))
    return QuadrantTrees(results)


def quadrant_cdg_certificate(topology, params=None):
    """Conservative CDG certifying the double-channel X-first tree:
    the four quadrant subnetworks are independent channel sets (each
    edge tagged by its quadrant), and each quadrant CDG is acyclic
    because tree levels strictly advance the quadrant's partial order
    (Fig. 6.8 / Assertion 1)."""
    from .cdg import full_quadrant_cdg

    edges = set()
    for quadrant in QUADRANTS:
        edges |= {
            ((c1, quadrant), (c2, quadrant))
            for c1, c2 in full_quadrant_cdg(topology, quadrant)
        }
    return edges


register_spec(
    AlgorithmSpec(
        name="xfirst-tree",
        kind="dynamic-worm",
        topologies=("mesh2d",),
        result_model="multicast-tree",
        worm_style="xfirst-tree",
        deadlock_free=True,
        min_channels=2,
        cdg_certificate=quadrant_cdg_certificate,
        aliases=("tree-xfirst",),
        reference=(
            "§5.3 X-first tree on the §6.2 double-channel quadrant "
            "subnetworks (Fig. 6.8); single-channel deployment is the "
            "Fig. 6.4 deadlock counterexample"
        ),
    )
)
