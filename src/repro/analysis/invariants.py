"""Static routing-invariant checkers.

Chapter 6's deadlock-freedom proofs rest on structural invariants that
are stronger than "the simulation didn't wedge": path routes must be
*label monotone* (each message stays inside the high- or low-channel
subnetwork), the labeling must *partition* the channels into those two
acyclic subnetworks, the quadrant subnetworks must cover the doubled
mesh channels exactly twice, and tagged (virtual-channel / quadrant)
CDGs must never leak dependencies across layers.  Each checker below
verifies one such invariant for a registered spec on a concrete
topology and reports :class:`InvariantViolation` records instead of
raising, so the CLI and conformance tests can aggregate them.

Checks are deterministic: sample multicasts are drawn from a seeded
``random.Random`` (never a global RNG — see ``python -m repro lint``'s
``no-unseeded-rng`` rule).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from .. import registry
from ..labeling import canonical_labeling
from ..labeling.base import Labeling
from ..models.request import MulticastRequest, random_multicast
from ..models.results import MulticastStar
from ..topology.base import Topology
from ..topology.mesh import Mesh2D
from .graph import is_acyclic

__all__ = [
    "InvariantViolation",
    "check_label_monotonicity",
    "check_partition_soundness",
    "check_quadrant_coverage",
    "check_reachability",
    "check_spec_invariants",
    "check_vc_layering",
    "sample_requests",
]

@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant check."""

    invariant: str
    scheme: str
    topology: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.scheme} on {self.topology}: {self.detail}"


def sample_requests(
    topology: Topology, count: int = 8, seed: int = 1991
) -> list[MulticastRequest]:
    """Deterministic sample multicasts covering small and large
    destination sets (plus the full broadcast)."""
    rng = random.Random(seed)
    n = topology.num_nodes
    requests = []
    sizes = [1, 2, max(2, n // 3), n - 1]
    for i in range(count):
        k = sizes[i % len(sizes)]
        requests.append(random_multicast(topology, k, rng))
    return requests


def _is_monotone(labels: Sequence[int]) -> bool:
    """Strictly increasing or strictly decreasing throughout."""
    if len(labels) < 2:
        return True
    ascending = labels[1] > labels[0]
    pairs = zip(labels, labels[1:])
    if ascending:
        return all(b > a for a, b in pairs)
    return all(b < a for a, b in pairs)


def check_label_monotonicity(
    spec: registry.AlgorithmSpec,
    topology: Topology,
    requests: Sequence[MulticastRequest] | None = None,
    labeling: Labeling | None = None,
) -> list[InvariantViolation]:
    """Every path of a labeling-based star route must be label
    monotone: it commits to the high- or low-channel subnetwork at the
    source and never leaves it (the premise of Assertions 2-3)."""
    if labeling is None:
        labeling = canonical_labeling(topology)
    violations = []
    for request in requests if requests is not None else sample_requests(topology):
        route = spec.fn(request)
        if not isinstance(route, MulticastStar):
            continue
        for path in route.paths:
            labels = [labeling.label(v) for v in path]
            if not _is_monotone(labels):
                violations.append(
                    InvariantViolation(
                        "label-monotonicity",
                        spec.name,
                        str(topology),
                        f"path {path!r} has non-monotone labels {labels}",
                    )
                )
    return violations


def check_reachability(
    spec: registry.AlgorithmSpec,
    topology: Topology,
    requests: Sequence[MulticastRequest] | None = None,
) -> list[InvariantViolation]:
    """Every routable spec must produce a route that passes the
    registry's check of its declared model (:meth:`AlgorithmSpec.route`):
    it reaches every destination, and a ``multicast-tree`` reaches each
    over a shortest path (Def. 3.4)."""
    violations = []
    for request in requests if requests is not None else sample_requests(topology):
        try:
            spec.route(request)
        except Exception as exc:
            violations.append(
                InvariantViolation(
                    "reachability",
                    spec.name,
                    str(topology),
                    f"request {request.source!r}->{request.destinations!r} "
                    f"failed: {exc}",
                )
            )
    return violations


def check_partition_soundness(
    labeling: Labeling, scheme: str = "<labeling>"
) -> list[InvariantViolation]:
    """The Hamiltonian labeling must split the directed channels into
    *disjoint*, *covering*, individually *acyclic* high/low subnetworks
    — the structure every path-based proof of Ch. 6 assumes."""
    topology = labeling.topology
    violations = []
    name = str(topology)
    if not labeling.is_hamiltonian():
        violations.append(
            InvariantViolation(
                "partition-soundness", scheme, name,
                "labeling does not follow a Hamiltonian path",
            )
        )
    high = set(labeling.high_channels())
    low = set(labeling.low_channels())
    overlap = high & low
    if overlap:
        violations.append(
            InvariantViolation(
                "partition-soundness", scheme, name,
                f"high/low subnetworks share channels: {sorted(map(repr, overlap))[:4]}",
            )
        )
    all_channels = set(topology.channels())
    uncovered = all_channels - (high | low)
    if uncovered:
        violations.append(
            InvariantViolation(
                "partition-soundness", scheme, name,
                f"channels in neither subnetwork: {sorted(map(repr, uncovered))[:4]}",
            )
        )
    for which, channels in (("high", high), ("low", low)):
        if not is_acyclic(channels):
            violations.append(
                InvariantViolation(
                    "partition-soundness", scheme, name,
                    f"{which}-channel subnetwork is cyclic",
                )
            )
    return violations


def check_quadrant_coverage(mesh: Mesh2D) -> list[InvariantViolation]:
    """The four quadrant subnetworks of §6.2.1 must cover every
    directed mesh channel exactly twice — which is precisely why
    doubling the channels (``min_channels=2``) suffices for the
    X-first tree."""
    from ..wormhole.subnetworks import QUADRANTS, quadrant_channels

    counts: dict = {}
    for quadrant in QUADRANTS:
        for channel in quadrant_channels(mesh, quadrant):
            counts[channel] = counts.get(channel, 0) + 1
    violations = []
    bad = {c: k for c, k in counts.items() if k != 2}
    missing = set(mesh.channels()) - set(counts)
    if bad:
        violations.append(
            InvariantViolation(
                "quadrant-coverage", "xfirst-tree", str(mesh),
                f"channels not covered exactly twice: {sorted(bad.items(), key=repr)[:4]}",
            )
        )
    if missing:
        violations.append(
            InvariantViolation(
                "quadrant-coverage", "xfirst-tree", str(mesh),
                f"channels in no quadrant: {sorted(map(repr, missing))[:4]}",
            )
        )
    return violations


def check_vc_layering(
    spec: registry.AlgorithmSpec, topology: Topology
) -> list[InvariantViolation]:
    """Tagged CDGs (virtual-channel planes, quadrant subnetworks) must
    be *layered*: no dependency edge may cross from one layer's channel
    copies to another's, otherwise the per-layer acyclicity arguments
    do not compose."""
    if spec.cdg_certificate is None:
        return []
    violations = []
    for a, b in spec.cdg_edges(topology):
        tag_a = a[1] if isinstance(a, tuple) and len(a) == 2 and not _is_channel(a) else None
        tag_b = b[1] if isinstance(b, tuple) and len(b) == 2 and not _is_channel(b) else None
        if tag_a != tag_b:
            violations.append(
                InvariantViolation(
                    "vc-layering", spec.name, str(topology),
                    f"dependency crosses layers: {a!r} -> {b!r}",
                )
            )
            break  # one witness suffices; the CDG can be large
    return violations


def _is_channel(obj) -> bool:
    """Heuristic: a plain ``(u, v)`` channel has two node-like entries,
    while a tagged CDG node is ``(channel, tag)`` with a tuple first
    entry and a str/int tag."""
    return not (isinstance(obj[0], tuple) and isinstance(obj[1], (str, int)))


def check_spec_invariants(
    spec: registry.AlgorithmSpec,
    topology: Topology,
    requests: Sequence[MulticastRequest] | None = None,
) -> list[InvariantViolation]:
    """Run every applicable invariant check for one spec on one
    topology (routable -> reachability; labeling-based -> monotonicity
    and partition soundness; tagged certificates -> layering; quadrant
    trees -> coverage)."""
    violations: list[InvariantViolation] = []
    if spec.routable:
        violations += check_reachability(spec, topology, requests)
        if spec.requires_labeling and spec.result_model == "star":
            violations += check_label_monotonicity(spec, topology, requests)
    if spec.requires_labeling:
        violations += check_partition_soundness(
            canonical_labeling(topology), scheme=spec.name
        )
    if spec.deadlock_free and spec.cdg_certificate is not None:
        violations += check_vc_layering(spec, topology)
    if spec.min_channels >= 2 and isinstance(topology, Mesh2D):
        # double-channel mesh schemes route on the §6.2.1 quadrant
        # subnetworks, whose soundness is exactly twofold coverage
        violations += check_quadrant_coverage(topology)
    return violations
