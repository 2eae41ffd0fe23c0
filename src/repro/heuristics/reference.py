"""Scalar reference implementation of the greedy ST virtual-tree builder.

:func:`repro.heuristics.greedy_st.build_virtual_tree` computes every
(destination, edge) projection of step 4a (Fig. 5.4) as one NumPy
array operation per destination.  This module keeps the original
per-pair loop: one :func:`nearest_on_shortest_paths` call and one
``topology.distance`` call for each live virtual edge, the first
strict minimum winning.

Nothing selects it at runtime.  ``tests/test_greedy_st_parity.py``
checks the kernel returns exactly these edges in exactly this order,
and ``benchmarks/bench_complexity_scaling.py`` counts its
``topology.distance`` calls to fit the Corollary 5.2 projection count.
These functions are intentionally *not* fast.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..topology.base import Node, Topology
from .greedy_st import nearest_on_shortest_paths

__all__ = ["reference_build_virtual_tree"]


def reference_build_virtual_tree(
    topology: Topology, root: Node, dests: Sequence[Node]
) -> list[tuple[Node, Node]]:
    """Steps 3-4 of Fig. 5.4, one scalar projection per (destination,
    edge) pair.  Returns the virtual edge list E(T)."""
    if not dests:
        return []
    edges: list[tuple[Node, Node]] = [(root, dests[0])]
    for u_i in dests[1:]:
        if any(u_i in e for e in edges):
            continue
        best_v: Node | None = None
        best_edge = None
        best_d = None
        for e in edges:
            s, t = e
            v = nearest_on_shortest_paths(topology, s, t, u_i)
            d = topology.distance(u_i, v)
            if best_d is None or d < best_d:
                best_v, best_edge, best_d = v, e, d
        assert best_v is not None and best_edge is not None
        s, t = best_edge
        if best_v != s and best_v != t:
            edges.remove(best_edge)
            edges.append((s, best_v))
            edges.append((best_v, t))
        if u_i != best_v:
            edges.append((best_v, u_i))
    return edges
