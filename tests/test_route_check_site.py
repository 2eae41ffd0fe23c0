"""The one route check site: route functions only build, and
:meth:`repro.registry.AlgorithmSpec.check` tests each route against the
Chapter 3 model its spec declares.

The parity tests show the check only observes (checked and bare entry
points agree; ``Router(validate=True)`` simulates exactly like the
default).  Together they run every worm style's routes through the
check.  The negative tests hit each condition the check took over from
the route functions.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.analysis.invariants import sample_requests
from repro.models import MulticastRequest
from repro.models.results import (
    InvalidRouteError,
    MulticastStar,
    MulticastTree,
    QuadrantTrees,
)
from repro.service.worker import compute_route
from repro.sim import SimConfig, run_dynamic
from repro.sim.faults import FaultState
from repro.sim.runner import DeadlockDetected
from repro.sim.traffic import Router
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D
from repro.wormhole import double_channel_xfirst_route

SMALL = {
    "mesh2d": Mesh2D(4, 4),
    "mesh3d": Mesh3D(3, 3, 2),
    "hypercube": Hypercube(3),
    "torus": KAryNCube(4, 2),
}


def _topologies(spec):
    return [SMALL[f] for f in spec.topologies or ("mesh2d", "hypercube") if f in SMALL]


# ----------------------------------------------------------------------
# Parity: the check never changes a route or a simulation.
# ----------------------------------------------------------------------


def _resolvable(names):
    """Registry names with the family template instantiated."""
    return ["virtual-channel-2" if n == "virtual-channel-<p>" else n for n in names]


@pytest.mark.parametrize("name", _resolvable(registry.names(routable=True)))
def test_checked_route_equals_bare_builder(name):
    spec = registry.get(name)
    for topology in _topologies(spec):
        # exact solvers are exponential: keep their instances tiny
        requests = sample_requests(topology, count=4 if spec.kind == "exact" else 8)
        if spec.kind == "exact":
            requests = [r for r in requests if r.k <= 6]
        for request in requests:
            assert spec.route(request) == spec.fn(request)


def _run(topology, name, channels, validate, fault_state=None):
    cfg = SimConfig(
        num_messages=30,
        num_destinations=3,
        mean_interarrival=300e-6,
        channels_per_link=channels,
        seed=9,
    )
    router = Router(
        topology, name, channels_per_link=channels, validate=validate, fault_state=fault_state
    )
    try:
        return repr(run_dynamic(topology, name, cfg, router=router))
    except DeadlockDetected as exc:
        return f"deadlock: {exc}"


@pytest.mark.parametrize("name", _resolvable(registry.names(simulable=True)))
def test_validating_router_simulates_identically(name):
    spec = registry.get(name)
    for topology in _topologies(spec):
        # single channels, plus the double-channel deployment (the
        # X-first tree's quadrant subnetworks)
        for channels in sorted({1, spec.min_channels}):
            assert _run(topology, name, channels, True) == _run(topology, name, channels, False)


@pytest.mark.parametrize("name", registry.names(simulable=True, fault_tolerant=True))
def test_validating_router_detours_identically_under_faults(name):
    spec = registry.get(name)
    for topology in _topologies(spec):
        source = next(iter(topology.nodes()))
        faults = FaultState()
        faults.down_links.update((source, v) for v in list(topology.neighbors(source))[:1])
        assert _run(topology, name, 1, True, faults) == _run(topology, name, 1, False, faults)


def test_validating_router_checks_every_message():
    """``validate=True`` reaches the spec's check on the hot path."""
    mesh = Mesh2D(4, 4)
    calls = []

    class Spy(Router):
        def checked(self, request, route):
            calls.append(request)
            return super().checked(request, route)

    request = MulticastRequest(mesh, (1, 1), ((3, 3), (0, 2)))
    Spy(mesh, "xfirst-tree", channels_per_link=2, validate=True)(request)
    Spy(mesh, "dual-path", validate=True)(request)
    assert calls == [request, request]


# ----------------------------------------------------------------------
# Negative tests: each moved condition rejects at the check site.
# ----------------------------------------------------------------------

MESH = Mesh2D(4, 4)


def test_detour_tree_is_a_steiner_tree_but_not_a_multicast_tree():
    request = MulticastRequest(MESH, (0, 0), ((1, 0),))
    detour = MulticastTree(MESH, (0, 0), (((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0))))
    assert registry.get("xfirst").result_model == "multicast-tree"
    assert registry.get("kmb").result_model == "steiner-tree"
    registry.get("kmb").check(request, detour)
    with pytest.raises(InvalidRouteError, match="shortest"):
        registry.get("xfirst").check(request, detour)


def test_quadrant_tree_arc_outside_its_quadrant_is_rejected():
    spec = registry.get("xfirst-tree")
    request = MulticastRequest(MESH, (1, 1), ((3, 1),))  # one +X+Y destination
    spec.check(request, double_channel_xfirst_route(request))
    # the same destination reached through a -Y step
    arcs = (((1, 1), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0)), ((3, 0), (3, 1)))
    stray = QuadrantTrees([("+X+Y", MulticastTree(MESH, (1, 1), arcs))])
    with pytest.raises(InvalidRouteError, match="left subnetwork"):
        spec.check(request, stray)


def test_quadrant_trees_must_match_the_destination_partition():
    spec = registry.get("xfirst-tree")
    request = MulticastRequest(MESH, (1, 1), ((3, 1), (0, 3)))
    trees = double_channel_xfirst_route(request)
    with pytest.raises(InvalidRouteError, match="partition"):
        spec.check(request, QuadrantTrees(trees[:1]))


def test_star_partition_missing_a_destination_is_rejected():
    request = MulticastRequest(MESH, (1, 1), ((0, 0), (3, 3)))
    star = registry.get("dual-path").fn(request)
    assert len(star.paths) == 2  # one high and one low path
    short = MulticastStar(MESH, (1, 1), star.paths[:1], star.partition[:1])
    with pytest.raises(InvalidRouteError, match="misses"):
        registry.get("dual-path").check(request, short)


def test_checked_route_rejects_a_builder_that_drops_a_destination(monkeypatch):
    spec = registry.get("xfirst")
    monkeypatch.setitem(registry._SPECS, "xfirst", _dropping(spec))
    request = MulticastRequest(MESH, (0, 0), ((3, 3), (0, 2)))
    with pytest.raises(InvalidRouteError):
        registry.get("xfirst").route(request)


def _dropping(spec):
    """``spec`` with a builder that forgets the last destination."""
    from dataclasses import replace

    def fn(request, **kwargs):
        fewer = MulticastRequest(request.topology, request.source, request.destinations[:-1])
        return spec.fn(fewer, **kwargs)

    return replace(spec, fn=fn)


def test_service_reports_a_failed_route_check_as_internal_error(monkeypatch):
    """A route failing its own scheme's check is a server-side defect,
    not the client's bad request."""
    monkeypatch.setitem(registry._SPECS, "xfirst", _dropping(registry.get("xfirst")))
    ok, reply = compute_route(
        {}, {"scheme": "xfirst", "topology": "mesh:4x4", "source": (0, 0),
             "destinations": [(3, 3), (0, 2)]},
    )
    assert not ok
    assert reply["error"] == "internal-error"
    assert "InvalidRouteError" in reply["detail"]
