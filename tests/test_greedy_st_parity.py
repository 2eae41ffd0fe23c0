"""Parity: the NumPy greedy ST virtual-tree builder vs the scalar loop.

:func:`repro.heuristics.greedy_st.build_virtual_tree` scores every
(destination, edge) projection as one array operation per destination;
the per-pair scan it replaced is kept in
:mod:`repro.heuristics.reference`.  Tie-breaking decides which edge a
destination attaches to, so the two must return the same edges in the
same order, not just trees of equal length.  Driving
:func:`greedy_st_route` with either builder must then give identical
arcs, virtual edges and traffic.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.heuristics import build_virtual_tree, greedy_st, greedy_st_route
from repro.heuristics.reference import reference_build_virtual_tree
from repro.models.request import MulticastRequest
from repro.topology import Hypercube, Mesh2D, Mesh3D

topologies = st.one_of(
    st.builds(Mesh2D, st.integers(1, 7), st.integers(1, 7)),
    st.builds(Mesh2D, st.just(1), st.integers(2, 12)),
    st.builds(Mesh3D, st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
    st.builds(Hypercube, st.integers(1, 6)),
)


def assert_parity(topology, root, dests):
    fast = build_virtual_tree(topology, root, dests)
    slow = reference_build_virtual_tree(topology, root, dests)
    assert fast == slow


@st.composite
def build_case(draw):
    """A root and a destination list of any length, repeats and the root
    itself allowed, so some destinations are already tree endpoints."""
    topology = draw(topologies)
    n = topology.num_nodes
    root = topology.node_at(draw(st.integers(0, n - 1)))
    ids = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return topology, root, [topology.node_at(i) for i in ids]


@st.composite
def dense_case(draw):
    """Every node but the root in a random order: on small meshes and
    cubes many edges tie for the nearest projection."""
    topology = draw(topologies)
    nodes = draw(st.permutations(list(topology.nodes())))
    return topology, nodes[0], nodes[1:]


@st.composite
def request_case(draw):
    topology = draw(topologies.filter(lambda t: t.num_nodes > 1))
    n = topology.num_nodes
    src = draw(st.integers(0, n - 1))
    dests = draw(
        st.lists(
            st.integers(0, n - 1).filter(lambda i: i != src),
            min_size=1,
            max_size=n - 1,
            unique=True,
        )
    )
    return MulticastRequest(
        topology, topology.node_at(src), tuple(topology.node_at(i) for i in dests)
    )


@settings(max_examples=150, deadline=None)
@given(build_case())
def test_builder_matches_reference(case):
    assert_parity(*case)


@settings(max_examples=60, deadline=None)
@given(dense_case())
def test_builder_matches_reference_on_dense_ties(case):
    assert_parity(*case)


@settings(max_examples=60, deadline=None)
@given(dense_case(), st.data())
def test_builder_skips_existing_endpoints(case, data):
    topology, root, dests = case
    # re-append the root and earlier destinations: each must be skipped
    repeats = data.draw(st.lists(st.sampled_from([root, *dests]), max_size=8))
    mixed = list(dests)
    for j, node in enumerate(repeats):
        mixed.insert(min(len(mixed), 2 * j + 1), node)
    assert_parity(topology, root, mixed)


@pytest.mark.parametrize(
    "topology", [Mesh2D(1, 6), Mesh2D(5, 4), Mesh3D(3, 3, 2), Hypercube(4)], ids=repr
)
def test_empty_and_single_destination(topology):
    root, other = topology.node_at(0), topology.node_at(topology.num_nodes - 1)
    assert build_virtual_tree(topology, root, []) == []
    assert build_virtual_tree(topology, root, [other]) == [(root, other)]
    assert_parity(topology, root, [])
    assert_parity(topology, root, [other])
    assert_parity(topology, root, [other, other, root])


@pytest.mark.parametrize("resort", [False, True])
@settings(max_examples=40, deadline=None)
@given(req=request_case())
def test_route_matches_reference_builder(req, resort):
    fast = greedy_st_route(req, resort=resort)
    with mock.patch.object(greedy_st, "build_virtual_tree", reference_build_virtual_tree):
        slow = greedy_st_route(req, resort=resort)
    assert fast.arcs == slow.arcs
    assert fast.virtual_edges == slow.virtual_edges
    assert fast.traffic == slow.traffic
