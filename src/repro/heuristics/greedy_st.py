"""The greedy ST heuristic routing algorithm (§5.2, Figs. 5.3-5.4).

The source sorts the destinations by distance and constructs a *virtual*
Steiner tree: each destination in turn attaches to the nearest node
lying on any shortest path between the endpoints of an existing tree
edge (computable in O(1) in meshes — bounding-rectangle projection —
and hypercubes — subcube projection).  Virtual edges are realised as
deterministic dimension-ordered shortest paths; replicate nodes rerun
the construction on their destination sublists, bypass nodes merely
forward.  The resulting traffic is the total virtual tree length, at
least as good as the KMB algorithm's in the worst case (§5.2).
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Sequence
from functools import cache
from typing import Any

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import register
from ..topology.base import Node, Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh2D, Mesh3D


def nearest_on_shortest_paths(topology: Topology, s: Node, t: Node, target: Node) -> Node:
    """The node nearest to ``target`` among all nodes on shortest paths
    between ``s`` and ``t`` (step 4a of Fig. 5.4).

    In a mesh the shortest-path region is the bounding box of s and t
    and the nearest node is the coordinatewise clamp of ``target``; in a
    hypercube it is the subcube fixing the bits where s and t agree.
    """
    if isinstance(topology, Hypercube):
        return topology.subcube_projection(target, s, t)
    if isinstance(topology, (Mesh2D, Mesh3D)):
        return tuple(
            min(max(c, min(a, b)), max(a, b)) for c, a, b in zip(target, s, t)
        )
    raise TypeError(f"no O(1) shortest-path projection for {topology!r}")


@cache
def _popcount_table(n: int) -> Any:
    """``uint8`` popcounts of the ``2**n`` node ids of an n-cube."""
    import numpy as np

    ids = np.arange(1 << n)
    table = np.zeros(1 << n, dtype=np.uint8)
    for bit in range(n):
        table += ((ids >> bit) & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def build_virtual_tree(
    topology: Topology, root: Node, dests: Sequence[Node]
) -> list[tuple[Node, Node]]:
    """Steps 3-4 of Fig. 5.4: greedily grow the virtual Steiner tree by
    attaching each destination (in list order) at its nearest point on
    an existing virtual edge.  Returns the virtual edge list E(T).

    A destination's distances to all live edges are one array
    expression.  Edges sit in append-only arrays (each destination adds
    at most 3); a split tombstones the old row, so the live rows keep
    the order of the edge list, and ``argmin`` returning the first
    minimum breaks ties as a scan with a strict ``<`` does.  Only the
    winning edge's attach point is computed as a node.  The per-pair
    scan is kept as
    :func:`repro.heuristics.reference.reference_build_virtual_tree`.
    """
    if not dests:
        return []
    edges: list[tuple[Node, Node]] = [(root, dests[0])]
    if len(dests) == 1:
        return edges
    import numpy as np

    cap = 3 * len(dests)
    if isinstance(topology, Hypercube):
        # popcount((u ^ a) & ~(a ^ b)): the bits where u leaves the
        # subcube spanned by the shortest a-b paths
        pop = _popcount_table(topology.n)
        ends = np.zeros(cap, dtype=np.int64)
        fixed = np.zeros(cap, dtype=np.int64)
        worst = np.iinfo(pop.dtype).max

        def store(row: int, s: Any, t: Any) -> None:
            ends[row] = s
            fixed[row] = ~(s ^ t)

        def distances(i: int, m: int) -> Any:
            return pop[(ends[:m] ^ dests[i]) & fixed[:m]]

    elif isinstance(topology, (Mesh2D, Mesh3D)):
        # Column j of ``box`` is edge j's bounding box as [lo, -hi] and
        # query i is destination i as [u, -u], so the column sums of
        # max(box - query, 0) are the L1 distances |clamp(u, lo, hi) - u|.
        coords = np.array(dests, dtype=np.int64)
        queries = np.concatenate([coords, -coords], axis=1)[:, :, None]
        box = np.zeros((queries.shape[1], cap), dtype=np.int64)
        worst = np.iinfo(box.dtype).max

        def store(row: int, s: Any, t: Any) -> None:
            box[:, row] = [*map(min, s, t), *[-c for c in map(max, s, t)]]

        def distances(i: int, m: int) -> Any:
            gap = box[:, :m] - queries[i]
            np.maximum(gap, 0, out=gap)
            return np.add.reduce(gap, axis=0)

    else:
        raise TypeError(f"no O(1) shortest-path projection for {topology!r}")

    dead = np.zeros(cap, dtype=bool)
    endpoints = {root, dests[0]}
    store(0, root, dests[0])
    m = 1
    for i in range(1, len(dests)):
        u_i = dests[i]
        if u_i in endpoints:
            continue
        d = distances(i, m)
        d[dead[:m]] = worst
        row = int(d.argmin())
        s, t = edges[row]
        v = nearest_on_shortest_paths(topology, s, t, u_i)
        if v != s and v != t:
            dead[row] = True
            for e in ((s, v), (v, t)):
                store(m, *e)
                edges.append(e)
                m += 1
            endpoints.add(v)
        if u_i != v:
            store(m, v, u_i)
            edges.append((v, u_i))
            m += 1
            endpoints.add(u_i)
    return [e for e, gone in zip(edges, dead[:m].tolist()) if not gone]


def _subtree_partition(
    edges: Sequence[tuple[Node, Node]], root: Node
) -> tuple[list[Node], dict[Node, int]]:
    """Step 5 of Fig. 5.4: the root's sons in the virtual tree, and for
    every other node below the root the index of the son whose subtree
    holds it (the virtual edges form a tree, so subtrees are disjoint)."""
    adj = defaultdict(list)
    for s, t in edges:
        adj[s].append(t)
        adj[t].append(s)
    sons = adj[root]
    owner: dict[Node, int] = {}
    seen = {root, *sons}
    for i, r in enumerate(sons):
        frontier = deque([r])
        while frontier:
            v = frontier.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    owner[w] = i
                    frontier.append(w)
    return sons, owner


def greedy_st_prepare(request: MulticastRequest) -> list[Node]:
    """Message preparation (Fig. 5.3): multicast node list headed by the
    source, destinations sorted ascending by distance from it."""
    u0 = request.source
    oracle = request.topology.oracle()
    imap = request.topology.index_map()
    row = oracle.distance_row(imap[u0])
    return [u0] + sorted(
        request.destinations, key=lambda v: (row[imap[v]], imap[v])
    )


@register(
    "greedy-st",
    kind="static-route",
    topologies=("mesh2d", "mesh3d", "hypercube"),
    result_model="steiner-tree",
    reference="§5.2 Fig. 5.4 (greedy Steiner-tree heuristic)",
)
def greedy_st_route(request: MulticastRequest, resort: bool = False) -> MulticastTree:
    """Drive the distributed greedy ST algorithm (Fig. 5.4) over the
    network and return the realised multicast tree.

    ``virtual_edges`` on the result records the source's virtual Steiner
    tree; ``traffic`` counts actual link transmissions.

    The paper's message-preparation sort happens once, at the source;
    replicate nodes receive their sublists in the source's order
    (Fig. 5.4 takes the input list as given).  With ``resort=True``
    every replicate node re-sorts its sublist by distance from itself
    before rebuilding the subtree — a natural strengthening the
    ablation benchmark measures.
    """
    topo = request.topology
    dest_set = set(request.destinations)
    arcs: list[tuple[Node, Node]] = []
    delivered: set = set()
    root_virtual: tuple = ()

    # Work queue of in-flight messages: (current node, destination list).
    pending = deque([(request.source, greedy_st_prepare(request))])
    first = True
    while pending:
        w, dlist = pending.popleft()
        u = dlist[0]
        if w != u:
            # Bypass node: forward one hop along the deterministic
            # shortest path toward the head node u (step 1).
            nxt = topo.dimension_ordered_path(w, u)[1]
            arcs.append((w, nxt))
            pending.append((nxt, dlist))
            continue
        # w == u: deliver the local copy if this node is a destination.
        if w in dest_set:
            delivered.add(w)
        rest = dlist[1:]
        if not rest:
            continue  # leaf (step 2)
        if resort:
            rest = sorted(rest, key=lambda v: (topo.distance(u, v), topo.index(v)))
        edges = build_virtual_tree(topo, u, rest)
        if first:
            root_virtual = tuple(edges)
            first = False
        sons, owner = _subtree_partition(edges, u)
        sublists = [[son] for son in sons]
        for d in rest:
            i = owner.get(d)
            if i is not None:
                sublists[i].append(d)
        for son, sublist in zip(sons, sublists):
            nxt = topo.dimension_ordered_path(u, son)[1]
            arcs.append((u, nxt))
            pending.append((nxt, sublist))

    tree = MulticastTree(topo, request.source, tuple(arcs), virtual_edges=root_virtual)
    missing = dest_set - delivered
    if missing:
        raise RuntimeError(f"greedy ST failed to deliver to {missing}")
    return tree


def virtual_tree_length(topology: Topology, edges: Sequence[tuple[Node, Node]]) -> int:
    """Total realised length of a virtual tree (its traffic)."""
    return sum(topology.distance(s, t) for s, t in edges)
