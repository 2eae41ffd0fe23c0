"""Fuzz the CLI's topology and node parsers: on any text they either
parse or raise :class:`argparse.ArgumentTypeError`, which ``main``
turns into a one-line message and exit 2 — never a traceback."""

from __future__ import annotations

import argparse

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import parse_node, parse_topology
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D

# small-number fragments keep the structured specs cheap to build
# (a cube:N spec allocates 2**N as an int)
numbers = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "x", "0x10", "1e3", "1_0", " 2", "-0", "nan", "٣"]),
)
specs = st.one_of(
    st.text(max_size=20),
    st.builds(
        lambda kind, parts, sep: kind + ":" + sep.join(parts),
        st.sampled_from(["mesh", "mesh3d", "cube", "torus", "ring", ""]),
        st.lists(numbers, max_size=4),
        st.sampled_from(["x", ",", "X"]),
    ),
)
node_texts = st.one_of(
    st.text(max_size=20),
    st.lists(numbers, min_size=1, max_size=4).map(",".join),
)
TOPOLOGIES = [Mesh2D(4, 3), Mesh3D(2, 2, 2), Hypercube(3), KAryNCube(3, 2)]


@settings(max_examples=300, deadline=None)
@given(specs)
def test_parse_topology_parses_or_raises_argument_type_error(spec):
    try:
        topology = parse_topology(spec)
    except argparse.ArgumentTypeError:
        return
    assert topology.num_nodes >= 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TOPOLOGIES), node_texts)
def test_parse_node_parses_or_raises_argument_type_error(topology, text):
    try:
        node = parse_node(topology, text)
    except argparse.ArgumentTypeError:
        return
    assert topology.is_node(node)
