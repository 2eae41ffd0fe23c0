"""Fault-tolerant path routing (§2.1 "robustness", §8.2 "it can also
support the fault tolerant routing").

The routing function R normally has exactly one choice per hop; with
faulty channels the adaptive candidate set
(:meth:`Labeling.route_candidates`) lets a message detour around a
broken channel *within the same label-monotone subnetwork* — so fault
tolerance costs nothing in deadlock freedom.  The coverage is partial
by construction (a monotone route cannot always avoid a fault: near the
labeling's extremes there may be a single outgoing channel), which is
precisely the trade-off the benchmark quantifies.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterable, Sequence

from ..labeling import canonical_labeling
from ..labeling.base import Labeling
from ..models.request import MulticastRequest
from ..models.results import MulticastStar
from ..registry import register_fault_router
from ..topology.base import Node
from .star_routing import split_high_low


class Unroutable(RuntimeError):
    """No label-monotone route avoids the faulty channels.

    ``channel`` is the directed channel R would have taken had it not
    been faulty (the blocking channel); ``node`` / ``target`` locate
    the hop where every admissible candidate was faulty.  All three are
    ``None`` for the non-convergence variant.
    """

    def __init__(self, message: str, channel=None, node=None, target=None):
        super().__init__(message)
        self.channel = channel
        self.node = node
        self.target = target


def fault_tolerant_path(
    labeling: Labeling,
    start: Node,
    dests: Sequence[Node],
    faulty: Iterable[tuple],
) -> list[Node]:
    """Like ``route_path_through`` but skipping faulty channels when an
    alternative label-monotone candidate exists.

    ``faulty`` holds directed channels ``(u, v)``.  Raises
    :class:`Unroutable` when every admissible candidate at some hop is
    faulty.
    """
    bad = set(faulty)
    path = [start]
    w = start
    queue = list(dests)
    limit = labeling.topology.num_nodes * 2
    while queue:
        if w == queue[0]:
            queue.pop(0)
            continue
        candidates = labeling.route_candidates(w, queue[0])
        usable = [p for p in candidates if (w, p) not in bad]
        if not usable:
            # last resort: any label-monotone bounded neighbor makes
            # progress (possibly off the shortest path)
            usable = [
                p
                for p in labeling.monotone_candidates(w, queue[0])
                if (w, p) not in bad
            ]
        if not usable:
            raise Unroutable(
                f"all monotone channels out of {w!r} toward {queue[0]!r} are "
                f"faulty (blocking channel {(w, candidates[0])!r})",
                channel=(w, candidates[0]),
                node=w,
                target=queue[0],
            )
        w = usable[0]
        path.append(w)
        if len(path) > limit:
            raise Unroutable("detours failed to converge")
    return path


def fault_tolerant_dual_path(
    request: MulticastRequest,
    faulty: Iterable[tuple],
    labeling: Labeling | None = None,
) -> MulticastStar:
    """Dual-path routing that detours around faulty channels.

    Raises :class:`Unroutable` if either direction's path cannot avoid
    the faults.
    """
    if labeling is None:
        labeling = canonical_labeling(request.topology)
    bad = set(faulty)
    high, low = split_high_low(request, labeling)
    paths, partition = [], []
    for group in (high, low):
        if group:
            paths.append(fault_tolerant_path(labeling, request.source, group, bad))
            partition.append(tuple(group))
    return MulticastStar(request.topology, request.source, tuple(paths), tuple(partition))


# The fault-tolerance conformance hooks (cf. ``cdg_certificate``): the
# dual-path star detour serves both the static dual-path scheme and its
# minimal-adaptive variant, whose per-hop simulation-time avoidance is
# a superset of this static detour.
register_fault_router("dual-path", fault_tolerant_dual_path)
register_fault_router("dual-path-adaptive", fault_tolerant_dual_path)


def routability(
    topology,
    faulty: Iterable[tuple],
    requests: Sequence[MulticastRequest],
    labeling: Labeling | None = None,
) -> float:
    """Fraction of ``requests`` deliverable around the given faults."""
    if labeling is None:
        labeling = canonical_labeling(topology)
    ok = 0
    for request in requests:
        with contextlib.suppress(Unroutable):
            fault_tolerant_dual_path(request, faulty, labeling)
            ok += 1
    return ok / len(requests) if requests else 1.0
