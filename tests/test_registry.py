"""The unified algorithm registry: resolution, aliases, parametric
families, capability filters — and the registry-wide conformance suite
that drives every registered scheme through route validation, a small
dynamic simulation, and CDG acyclicity checks.
"""

from __future__ import annotations

import random

import pytest

from repro import registry
from repro.cli import main as cli_main
from repro.models import random_multicast
from repro.parallel import SweepJob
from repro.registry import UnknownSchemeError, get, known_names, names, specs
from repro.sim import SimConfig, run_dynamic
from repro.sim.runner import DeadlockDetected
from repro.sim.traffic import Router
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D
from repro.wormhole.cdg import is_acyclic

# One small instance per topology family, big enough for every scheme
# (sorted MP/MC need one even mesh side; quadrant trees need >= 2 rows
# and columns around the source).
SMALL = {
    "mesh2d": lambda: Mesh2D(4, 4),
    "mesh3d": lambda: Mesh3D(3, 3, 2),
    "hypercube": lambda: Hypercube(3),
    "torus": lambda: KAryNCube(4, 2),
}


def small_topologies(spec):
    families = spec.topologies or ("mesh2d", "hypercube")
    return [SMALL[f]() for f in families if f in SMALL]


# ----------------------------------------------------------------------
# Resolution: names, aliases, families, errors
# ----------------------------------------------------------------------


def test_get_resolves_canonical_names():
    for name in ("dual-path", "greedy-st", "sorted-mp", "omp", "vct-tree"):
        assert get(name).name == name


def test_alias_resolves_to_the_same_spec_object():
    # satellite: tree-xfirst and xfirst-tree are one scheme, not two
    assert get("tree-xfirst") is get("xfirst-tree")
    assert get("xfirst-tree").name == "xfirst-tree"
    assert "tree-xfirst" in get("xfirst-tree").aliases


@pytest.mark.parametrize(
    "alias, canonical",
    [
        ("optimal-multicast-path", "omp"),
        ("optimal-multicast-cycle", "omc"),
        ("optimal-multicast-star", "oms"),
        ("optimal-multicast-tree", "omt"),
        ("minimal-steiner-tree", "steiner"),
    ],
)
def test_exact_solver_aliases(alias, canonical):
    assert get(alias) is get(canonical)


def test_family_resolution_parses_parameters():
    spec = get("virtual-channel-3")
    assert spec.name == "virtual-channel-3"
    assert spec.params == {"planes": 3}
    # memoized: repeated resolution yields the same object
    assert get("virtual-channel-3") is spec
    # distinct parameters are distinct specs
    assert get("virtual-channel-4") is not spec


def test_family_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        get("virtual-channel-0")
    # a malformed suffix is not of the family's form at all
    with pytest.raises(UnknownSchemeError):
        get("virtual-channel-lots")


def test_unknown_scheme_error_suggests_close_matches():
    with pytest.raises(UnknownSchemeError) as exc_info:
        get("dual-psth")
    message = str(exc_info.value)
    assert "did you mean" in message
    assert "'dual-path'" in message
    assert "registered:" in message
    # UnknownSchemeError must stay a ValueError for pre-registry callers
    assert isinstance(exc_info.value, ValueError)


def test_known_names_covers_aliases_and_families():
    all_names = known_names()
    for name in ("dual-path", "tree-xfirst", "xfirst-tree", "virtual-channel-<p>"):
        assert name in all_names


def test_capability_filters():
    assert set(names(worm_style="star")) == {"dual-path", "fixed-path", "multi-path"}
    assert all(s.kind == "exact" for s in specs(kind="exact"))
    assert "ecube-tree" not in names(deadlock_free=True)
    assert "ecube-tree" in names(deadlock_free=False)
    # topology filter accepts an instance
    mesh_only = names(topology=Mesh2D(4, 4), kind="dynamic-worm")
    assert "xfirst-tree" in mesh_only
    assert "ecube-tree" not in mesh_only


# ----------------------------------------------------------------------
# Conformance: every registered scheme actually works as declared
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", names(routable=True, include_families=False)
)
def test_conformance_every_routable_spec_routes_and_validates(name):
    spec = get(name)
    # exact solvers are exponential: keep their instances tiny
    k = 2 if spec.kind == "exact" else 3
    for topology in small_topologies(spec):
        assert spec.supports(topology)
        rng = random.Random(7)
        for _ in range(3):
            spec.route(random_multicast(topology, k, rng))  # checks the declared model


@pytest.mark.parametrize(
    "name",
    names(simulable=True, include_families=False) + ["virtual-channel-2"],
)
def test_conformance_every_simulable_spec_simulates(name):
    spec = get(name)
    for topology in small_topologies(spec):
        cfg = SimConfig(
            num_messages=40,
            num_destinations=3,
            mean_interarrival=300e-6,
            channels_per_link=spec.min_channels,
            seed=5,
        )
        try:
            result = run_dynamic(topology, name, cfg)
        except DeadlockDetected:
            assert not spec.deadlock_free, (
                f"{name} declares deadlock_free=True but wedged on {topology}"
            )
            continue
        assert result.deliveries > 0


@pytest.mark.parametrize(
    "name",
    names(deadlock_free=True, include_families=False) + ["virtual-channel-2"],
)
def test_conformance_deadlock_free_specs_have_acyclic_cdg(name):
    spec = get(name)
    assert spec.cdg_certificate is not None, (
        f"{name} declares deadlock_free=True without a CDG certificate"
    )
    for topology in small_topologies(spec):
        assert is_acyclic(spec.cdg_edges(topology)), (
            f"{name}'s CDG certificate is cyclic on {topology}"
        )


def test_non_simulable_scheme_rejected_by_router():
    with pytest.raises(ValueError, match="worm adapter"):
        Router(Mesh2D(4, 4), "greedy-st")


def test_router_unknown_scheme_raises_with_suggestions():
    with pytest.raises(UnknownSchemeError, match="did you mean"):
        Router(Mesh2D(4, 4), "dual-psth")


def test_sweep_job_validates_scheme_at_construction():
    cfg = SimConfig(num_messages=10)
    with pytest.raises(UnknownSchemeError):
        SweepJob(Mesh2D(4, 4), "dual-psth", cfg)
    with pytest.raises(ValueError, match="cannot be simulated"):
        SweepJob(Mesh2D(4, 4), "greedy-st", cfg)
    with pytest.raises(ValueError, match="not defined on"):
        SweepJob(Mesh2D(4, 4), "ecube-tree", cfg)
    SweepJob(Mesh2D(4, 4), "dual-path", cfg)  # valid: no raise


# ----------------------------------------------------------------------
# CLI smoke tests, parametrized from the registry
# ----------------------------------------------------------------------

CLI_TOPO = {
    "mesh2d": ("mesh:4x4", "0,0", ["2,3", "3,1"]),
    "mesh3d": ("mesh3d:3x3x2", "0,0,0", ["2,1,1", "1,2,0"]),
    "hypercube": ("cube:3", "0", ["3", "6"]),
    "torus": ("torus:4x2", "0,0", ["2,1", "1,0"]),
}


@pytest.mark.parametrize(
    "name",
    [
        s.name
        for s in specs(routable=True, include_families=False)
        if s.kind != "exact"
    ],
)
def test_cli_route_smoke(name, capsys):
    family = get(name).topologies[0] if get(name).topologies else "mesh2d"
    topo, source, dests = CLI_TOPO[family]
    argv = ["route", "--topology", topo, "--source", source, "--algorithm", name]
    for d in dests:
        argv += ["--dest", d]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert f"{name} on" in out and "traffic=" in out


@pytest.mark.parametrize(
    "name",
    names(simulable=True, deadlock_free=True, include_families=False)
    + ["virtual-channel-2"],
)
def test_cli_simulate_smoke(name, capsys):
    spec = get(name)
    family = spec.topologies[0] if spec.topologies else "mesh2d"
    topo = CLI_TOPO[family][0]
    argv = [
        "simulate", "--topology", topo, "--scheme", name,
        "--messages", "30", "--dests", "3",
    ]
    if spec.min_channels > 1:
        argv.append("--double-channels")
    assert cli_main(argv) == 0
    assert "mean latency" in capsys.readouterr().out


def test_cli_algorithms_lists_the_catalogue(capsys):
    assert cli_main(["algorithms"]) == 0
    out = capsys.readouterr().out
    for name in names(include_families=False):
        assert name in out
    assert "virtual-channel-<p>" in out


def test_cli_algorithms_filters(capsys):
    assert cli_main(["algorithms", "--kind", "exact"]) == 0
    out = capsys.readouterr().out
    assert "omp" in out and "dual-path" not in out


def test_cli_unknown_scheme_exits_with_hint(capsys):
    code = cli_main(
        ["simulate", "--topology", "mesh:4x4", "--scheme", "dual-psth",
         "--messages", "5"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "did you mean" in err
    assert "python -m repro algorithms" in err


def test_cli_route_rejects_unsupported_topology(capsys):
    code = cli_main(
        ["route", "--topology", "cube:3", "--source", "0", "--dest", "3",
         "--algorithm", "xfirst"]
    )
    assert code == 2
    assert "not defined on" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Documentation stays in sync with the live registry
# ----------------------------------------------------------------------


def test_readme_scheme_table_matches_registry():
    from pathlib import Path

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    begin = readme.index("<!-- scheme-table:begin")
    begin = readme.index("-->", begin) + len("-->")
    end = readme.index("<!-- scheme-table:end -->")
    embedded = readme[begin:end].strip()
    assert embedded == registry.scheme_table_markdown().strip(), (
        "README scheme table is stale — regenerate it from "
        "repro.registry.scheme_table_markdown()"
    )
