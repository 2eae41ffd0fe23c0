"""Path-like deadlock-free multicast wormhole routing (§6.2.2, §6.3):
dual-path, multi-path and fixed-path routing.

All three schemes rest on a Hamiltonian labeling that splits the
network into the acyclic high-channel and low-channel subnetworks; a
message once in a subnetwork only ever moves toward its next
destination with the routing function R, never replicating — the
multicast star model (Def. 3.5).  Because each subnetwork's channel
dependency graph is acyclic, all three algorithms are deadlock-free
(Assertions 2-3, Corollaries 6.1-6.2).
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter

from ..labeling import canonical_labeling
from ..labeling.base import Labeling
from ..models.request import MulticastRequest
from ..models.results import MulticastStar
from ..registry import AlgorithmSpec, register, register_spec
from ..topology.base import Node
from ..topology.mesh import Mesh2D


def split_high_low(request: MulticastRequest, labeling: Labeling) -> tuple[list, list]:
    """Message preparation step 1-2 (Fig. 6.11): D_H sorted ascending by
    label, D_L sorted descending."""
    label = labeling.label
    l0 = label(request.source)
    # one label per destination; equal labels are the same node, so
    # reading the ascending order backwards is the descending order
    labeled = sorted(((label(d), d) for d in request.destinations), key=itemgetter(0))
    high = [d for ld, d in labeled if ld > l0]
    low = [d for ld, d in reversed(labeled) if ld < l0]
    return high, low


def route_path_through(labeling: Labeling, start: Node, dests: Sequence[Node]) -> list[Node]:
    """The message routing part (Fig. 6.12) from ``start``: repeatedly
    apply R toward the first remaining destination, delivering along
    the way.  Returns the full node path; its last node is the final
    destination."""
    path = [start]
    w = start
    for d in dests:
        if w == d:
            continue
        # splice the memoized R-walk for this segment (identical to
        # stepping R hop by hop, without re-walking it per message)
        path.extend(labeling.route_path_tuple(w, d)[1:])
        w = d
    return path


#: topology families with a canonical Hamiltonian labeling (the
#: substrates every label-monotone path scheme runs on).
LABELED_FAMILIES = ("mesh2d", "mesh3d", "hypercube", "torus")


def star_cdg_certificate(topology, params=None):
    """Conservative CDG certifying deadlock freedom of label-monotone
    path routing on ``topology``: the union of the full high- and
    low-subnetwork CDGs (disjoint channel sets, so the union is acyclic
    iff each is — Assertions 2-3 / Corollaries 6.1-6.2)."""
    from ..labeling import canonical_labeling
    from .cdg import full_star_cdg

    labeling = canonical_labeling(topology)
    return full_star_cdg(labeling, "high") | full_star_cdg(labeling, "low")


@register(
    "dual-path",
    kind="dynamic-worm",
    topologies=LABELED_FAMILIES,
    result_model="star",
    worm_style="star",
    requires_labeling=True,
    deadlock_free=True,
    cdg_certificate=star_cdg_certificate,
    reference="§6.2 Figs. 6.11-6.12 (Assertion 2)",
)
def dual_path_route(
    request: MulticastRequest, labeling: Labeling | None = None
) -> MulticastStar:
    """Dual-path multicast routing (Figs. 6.11-6.12): one path through
    the high-channel network, one through the low-channel network."""
    if labeling is None:
        labeling = canonical_labeling(request.topology)
    high, low = split_high_low(request, labeling)
    paths, partition = [], []
    for group in (high, low):
        if group:
            paths.append(route_path_through(labeling, request.source, group))
            partition.append(tuple(group))
    return MulticastStar(request.topology, request.source, tuple(paths), tuple(partition))


def _multi_path_groups_mesh(
    request: MulticastRequest, labeling: Labeling
) -> list[tuple[Node, list]]:
    """Message preparation for multi-path routing in a 2D mesh
    (Fig. 6.14): split D_H between the two higher-labelled neighbors by
    x-coordinate, and D_L symmetrically.

    Returns ``[(first_hop, sorted destination sublist), ...]``.
    """
    src = request.source
    x0 = src[0]
    high, low = split_high_low(request, labeling)
    groups: list[tuple[Node, list]] = []
    for dlist, neighbors in (
        (high, labeling.high_neighbors(src)),
        (low, labeling.low_neighbors(src)),
    ):
        if not dlist:
            continue
        horizontal = [v for v in neighbors if v[1] == src[1]]
        vertical = [v for v in neighbors if v[1] != src[1]]
        if horizontal and vertical:
            vh = horizontal[0]
            side = (
                [d for d in dlist if d[0] >= vh[0]]
                if vh[0] > x0
                else [d for d in dlist if d[0] <= vh[0]]
            )
            rest = [d for d in dlist if d not in side]
            if side:
                groups.append((vh, side))
            if rest:
                groups.append((vertical[0], rest))
        else:
            groups.append((neighbors[0], list(dlist)))
    return groups


def _multi_path_groups_by_interval(
    request: MulticastRequest, labeling: Labeling
) -> list[tuple[Node, list]]:
    """Message preparation for multi-path routing by label intervals —
    the hypercube rule of Fig. 6.20, which applies verbatim to any
    Hamiltonian labeling: bucket D_H between the higher-labelled
    neighbors v_1 < v_2 < ... (D_Hi gets labels in [l(v_i), l(v_{i+1}))),
    and D_L symmetrically.  Used for hypercubes, 3D meshes and k-ary
    n-cubes."""
    src = request.source
    high, low = split_high_low(request, labeling)
    groups: list[tuple[Node, list]] = []
    if high:
        vs = labeling.high_neighbors(src)  # ascending label
        bounds = [labeling.label(v) for v in vs] + [float("inf")]
        for i, v in enumerate(vs):
            bucket = [
                d for d in high if bounds[i] <= labeling.label(d) < bounds[i + 1]
            ]
            if bucket:
                groups.append((v, bucket))
    if low:
        vs = labeling.low_neighbors(src)  # descending label
        bounds = [labeling.label(v) for v in vs] + [float("-inf")]
        for i, v in enumerate(vs):
            bucket = [
                d for d in low if bounds[i] >= labeling.label(d) > bounds[i + 1]
            ]
            if bucket:
                groups.append((v, bucket))
    return groups


@register(
    "multi-path",
    kind="dynamic-worm",
    topologies=LABELED_FAMILIES,
    result_model="star",
    worm_style="star",
    requires_labeling=True,
    deadlock_free=True,
    cdg_certificate=star_cdg_certificate,
    reference="§6.2 Figs. 6.13-6.14 (Assertion 3)",
)
def multi_path_route(
    request: MulticastRequest, labeling: Labeling | None = None
) -> MulticastStar:
    """Multi-path multicast routing (Fig. 6.14 / Fig. 6.20): up to four
    paths in a mesh, up to n in an n-cube.  Each sublist is handed to a
    distinct neighbor and routed onward with R."""
    if labeling is None:
        labeling = canonical_labeling(request.topology)
    topo = request.topology
    groups = (
        _multi_path_groups_mesh(request, labeling)
        if isinstance(topo, Mesh2D)
        else _multi_path_groups_by_interval(request, labeling)
    )
    paths, partition = [], []
    for first_hop, dlist in groups:
        # the source forwards the sublist to the designated neighbor,
        # which routes onward with R (delivering if it is itself the
        # first destination).
        paths.append([request.source] + route_path_through(labeling, first_hop, dlist))
        partition.append(tuple(dlist))
    return MulticastStar(topo, request.source, tuple(paths), tuple(partition))


@register(
    "fixed-path",
    kind="dynamic-worm",
    topologies=LABELED_FAMILIES,
    result_model="star",
    worm_style="star",
    requires_labeling=True,
    deadlock_free=True,
    cdg_certificate=star_cdg_certificate,
    reference="§6.2 (one fixed path per direction; Corollary 6.2)",
)
def fixed_path_route(
    request: MulticastRequest, labeling: Labeling | None = None
) -> MulticastStar:
    """Fixed-path multicast routing (§6.2.2, Fig. 6.17, suggested in
    [Lin/McKinley/Ni 1991]): the two paths simply follow the Hamiltonian
    path node by node — up in label order to the highest destination,
    down to the lowest."""
    if labeling is None:
        labeling = canonical_labeling(request.topology)
    high, low = split_high_low(request, labeling)
    l0 = labeling.label(request.source)
    paths, partition = [], []
    if high:
        top = labeling.label(high[-1])
        paths.append([labeling.node_of(i) for i in range(l0, top + 1)])
        partition.append(tuple(high))
    if low:
        bottom = labeling.label(low[-1])
        paths.append([labeling.node_of(i) for i in range(l0, bottom - 1, -1)])
        partition.append(tuple(low))
    return MulticastStar(request.topology, request.source, tuple(paths), tuple(partition))


register_spec(
    AlgorithmSpec(
        name="dual-path-adaptive",
        kind="dynamic-worm",
        topologies=LABELED_FAMILIES,
        worm_style="adaptive",
        requires_labeling=True,
        deadlock_free=True,
        cdg_certificate=star_cdg_certificate,
        reference="§8.2 (minimal-adaptive dual-path: any free label-monotone profitable channel)",
    )
)
