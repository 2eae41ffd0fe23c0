"""The divided greedy multicast tree algorithm for 2D meshes
(§5.3-5.4, Fig. 5.6).

Unlike X-first, the divided greedy algorithm looks at the positions of
*all* destinations before choosing outgoing branches.  At each forward
node:

1. destinations equal to the local node are delivered;
2. axis-aligned destinations are committed to their only shortest-path
   direction (+X/-X/+Y/-Y);
3. strict-quadrant destinations are grouped into the quadrant sets
   P_0 (NE), P_1 (NW), P_2 (SW), P_3 (SE), and each quadrant set is
   split into an x-leaning half ``S_ix`` (|dx| >= |dy|) and a y-leaning
   half ``S_iy``;
4. each direction has two candidate halves (e.g. +X draws from
   S_0x and S_3x).  A direction is *opened* only when both candidates
   are non-empty; a half whose direction did not open is merged into
   its quadrant sibling's direction, so the message branches less.

Every destination still travels a shortest path (Theorem 5.4: each
quadrant destination can be served by either of its two directions),
but the consolidation markedly reduces traffic relative to X-first
(Fig. 7.5).  The worked 6x6 example of §5.4 is reproduced in the test
suite.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from ..models.request import MulticastRequest
from ..models.results import MulticastTree
from ..registry import register
from ..topology.base import Node
from ..topology.mesh import Mesh2D

#: Quadrants in paper order: P_0 = NE, P_1 = NW, P_2 = SW, P_3 = SE.
#: Each maps to its (x-direction, y-direction) pair.
_QUADRANT_DIRS = {
    0: ("+X", "+Y"),
    1: ("-X", "+Y"),
    2: ("-X", "-Y"),
    3: ("+X", "-Y"),
}

#: Candidate halves feeding each direction (step 5 of §5.4):
#: +X <- S_0x, S_3x;  -X <- S_1x, S_2x;  +Y <- S_0y, S_1y;  -Y <- S_2y, S_3y.
_DIR_CANDIDATES = {
    "+X": ((0, "x"), (3, "x")),
    "-X": ((1, "x"), (2, "x")),
    "+Y": ((0, "y"), (1, "y")),
    "-Y": ((2, "y"), (3, "y")),
}


def _quadrant(dx: int, dy: int) -> int:
    if dx > 0 and dy > 0:
        return 0
    if dx < 0 and dy > 0:
        return 1
    if dx < 0 and dy < 0:
        return 2
    return 3  # dx > 0 and dy < 0


def divided_greedy_step(local: Node, dests: Sequence[Node]) -> tuple[bool, dict]:
    """One execution of the divided greedy algorithm.

    Returns ``(deliver_local, {direction: sublist})`` with directions
    among ``+X/-X/+Y/-Y``.
    """
    x0, y0 = local
    deliver = False
    out: dict = {"+X": [], "-X": [], "+Y": [], "-Y": []}
    halves: dict = {(i, a): [] for i in range(4) for a in ("x", "y")}

    for d in dests:
        dx, dy = d[0] - x0, d[1] - y0
        if dx == 0 and dy == 0:
            deliver = True
        elif dy == 0:
            out["+X" if dx > 0 else "-X"].append(d)
        elif dx == 0:
            out["+Y" if dy > 0 else "-Y"].append(d)
        else:
            q = _quadrant(dx, dy)
            axis = "x" if abs(dx) >= abs(dy) else "y"
            halves[(q, axis)].append(d)

    opened = {
        direction
        for direction, (c1, c2) in _DIR_CANDIDATES.items()
        if halves[c1] and halves[c2]
    }
    for q, (xdir, ydir) in _QUADRANT_DIRS.items():
        sx, sy = halves[(q, "x")], halves[(q, "y")]
        x_open, y_open = xdir in opened, ydir in opened
        if x_open:
            out[xdir].extend(sx)
        if y_open:
            out[ydir].extend(sy)
        if sx and not x_open:
            # merge into the sibling's direction; default to the other
            # axis (both choices preserve shortest paths).
            out[ydir].extend(sx)
        if sy and not y_open:
            if x_open:
                out[xdir].extend(sy)
            else:
                out[ydir].extend(sy)

    steps = {"+X": (x0 + 1, y0), "-X": (x0 - 1, y0), "+Y": (x0, y0 + 1), "-Y": (x0, y0 - 1)}
    return deliver, {steps[d]: sub for d, sub in out.items() if sub}


@register(
    "divided-greedy",
    kind="static-route",
    topologies=("mesh2d",),
    result_model="multicast-tree",
    reference="§5.3 Fig. 5.6 (divided greedy MT heuristic)",
)
def divided_greedy_route(request: MulticastRequest) -> MulticastTree:
    """Drive the divided greedy multicast over the mesh."""
    if not isinstance(request.topology, Mesh2D):
        raise TypeError("divided greedy multicast is defined for 2D meshes")
    arcs: list[tuple[Node, Node]] = []
    delivered: set = set()
    pending = deque([(request.source, list(request.destinations))])
    while pending:
        w, dlist = pending.popleft()
        deliver, groups = divided_greedy_step(w, dlist)
        if deliver:
            delivered.add(w)
        for nxt, sub in groups.items():
            arcs.append((w, nxt))
            pending.append((nxt, sub))
    if delivered != set(request.destinations):
        raise RuntimeError("divided greedy multicast failed to deliver")
    return MulticastTree(request.topology, request.source, tuple(arcs))
