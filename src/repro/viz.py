"""ASCII rendering of 2D-mesh routing patterns and labelings.

The dissertation communicates its algorithms through routing-pattern
figures (Figs. 5.7, 5.9, 5.11-5.12, 6.13, 6.16-6.17); this module
renders the equivalent diagrams in a terminal so examples and the CLI
can show *where* a route actually goes.

Legend: ``S`` source, ``D`` destination, ``*`` intermediate node on the
route, ``.`` unused node; used links are drawn with ``-`` / ``|``.
"""

from __future__ import annotations

from collections.abc import Iterable

from .models.request import MulticastRequest
from .models.results import MulticastCycle, MulticastPath, MulticastStar, MulticastTree
from .topology.base import Node
from .topology.mesh import Mesh2D


def route_arcs(route) -> set[tuple[Node, Node]]:
    """The set of directed link traversals of any route object."""
    if isinstance(route, MulticastPath):
        return set(zip(route.nodes, route.nodes[1:]))
    if isinstance(route, MulticastCycle):
        closed = list(route.nodes) + [route.nodes[0]]
        return set(zip(closed, closed[1:]))
    if isinstance(route, MulticastTree):
        return set(route.arcs)
    if isinstance(route, MulticastStar):
        arcs: set = set()
        for path in route.paths:
            arcs.update(zip(path, path[1:]))
        return arcs
    raise TypeError(f"cannot extract arcs from {route!r}")


def render_route(mesh: Mesh2D, route, request: MulticastRequest) -> str:
    """Render a route over ``mesh`` as ASCII art (origin bottom-left,
    matching the dissertation's figures)."""
    arcs = route_arcs(route)
    used_nodes = {n for arc in arcs for n in arc}
    dests = set(request.destinations)

    def node_glyph(v: Node) -> str:
        if v == request.source:
            return "S"
        if v in dests:
            return "D"
        if v in used_nodes:
            return "*"
        return "."

    def h_link(a: Node, b: Node) -> str:
        return "--" if (a, b) in arcs or (b, a) in arcs else "  "

    def v_link(a: Node, b: Node) -> str:
        return "|" if (a, b) in arcs or (b, a) in arcs else " "

    lines = []
    for y in range(mesh.height - 1, -1, -1):
        row = []
        for x in range(mesh.width):
            row.append(node_glyph((x, y)))
            if x + 1 < mesh.width:
                row.append(h_link((x, y), (x + 1, y)))
        lines.append("".join(row))
        if y > 0:
            sep = []
            for x in range(mesh.width):
                sep.append(v_link((x, y), (x, y - 1)))
                if x + 1 < mesh.width:
                    sep.append("  ")
            lines.append("".join(sep))
    return "\n".join(lines)


def render_scheme(mesh: Mesh2D, scheme: str, request: MulticastRequest) -> str:
    """Route ``request`` with a registry scheme name and render the
    pattern — e.g. ``render_scheme(mesh, "greedy-st", req)``."""
    from .registry import get as get_spec

    spec = get_spec(scheme)
    if not spec.routable:
        raise ValueError(
            f"scheme {scheme!r} has no static route function to render"
        )
    if not spec.supports(mesh):
        raise ValueError(f"{spec.name} is not defined on {mesh}")
    return render_route(mesh, spec.route(request), request)


def render_labeling(mesh: Mesh2D, labeling) -> str:
    """Render a node labeling as a grid of numbers (cf. Fig. 6.9)."""
    width = len(str(mesh.num_nodes - 1))
    lines = []
    for y in range(mesh.height - 1, -1, -1):
        lines.append(
            " ".join(str(labeling.label((x, y))).rjust(width) for x in range(mesh.width))
        )
    return "\n".join(lines)


def render_quadrants(mesh: Mesh2D, source: Node, destinations: Iterable[Node]) -> str:
    """Render the §6.2.1 quadrant partition of a destination set."""
    from .wormhole.subnetworks import partition_destinations

    parts = partition_destinations(source, tuple(destinations))
    owner = {}
    for q, group in parts.items():
        for d in group:
            owner[d] = q
    lines = []
    for y in range(mesh.height - 1, -1, -1):
        row = []
        for x in range(mesh.width):
            v = (x, y)
            if v == source:
                row.append(" S  ")
            elif v in owner:
                row.append(owner[v].ljust(4))
            else:
                row.append(" .  ")
        lines.append("".join(row).rstrip())
    return "\n".join(lines)
