"""Unified algorithm registry: one capability-typed dispatch layer for
every routing scheme.

The dissertation evaluates ~15 routing algorithms — Chapter 5
heuristics, Chapter 6 wormhole schemes, Chapter 4 exact solvers —
across mesh / hypercube / k-ary n-cube substrates.  Each one registers
here exactly once, as an :class:`AlgorithmSpec` that declares its
capabilities:

* ``kind`` — ``static-route`` (a pure request→route function, Ch. 5),
  ``dynamic-worm`` (a scheme the wormhole simulator can inject worms
  for, Ch. 6/7), or ``exact`` (an exponential optimal solver, Ch. 4);
* ``topologies`` — the topology families the scheme is defined on
  (empty = any);
* ``result_model`` — the Chapter 3 model its routes are checked
  against: ``path`` / ``cycle`` / ``steiner-tree`` (Def. 3.3: reach
  every destination) / ``multicast-tree`` (Def. 3.4: each over a
  shortest path) / ``star`` / ``cost``;
* ``worm_style`` — the worm-injection mechanism
  :class:`repro.sim.traffic.Router` uses (capability-typed dispatch: the
  router selects an adapter by style, never by scheme name);
* ``deadlock_free`` + ``cdg_certificate`` — the Chapter 6 claim and a
  hook producing the conservative channel-dependency graph whose
  acyclicity certifies it (Dally & Seitz);
* ``fault_tolerant`` + :func:`register_fault_router` — the §8.2 claim
  that the scheme can detour around faulty channels, certified by a
  registered fault router ``fn(request, faulty, labeling) -> route``
  (the fault conformance suite routes every fault-tolerant scheme
  around sampled faults and checks the detours).

Consumers — the CLI, ``repro.experiments``, ``repro.parallel``, the
simulator's :class:`Router`, the benchmarks — resolve schemes by name
through :func:`get`; parametric families such as
``virtual-channel-<p>`` resolve like any other name.  Route functions
only build; public surfaces call :meth:`AlgorithmSpec.route` /
:meth:`AlgorithmSpec.fault_route`, which also :meth:`~AlgorithmSpec.check`
the result, and batch loops call the bare ``spec.fn``.  Adding scheme #16
is one decorated function, not five edited files::

    from repro.registry import register

    @register("my-scheme", kind="static-route", topologies=("mesh2d",),
              result_model="multicast-tree", reference="...")
    def my_scheme_route(request): ...
"""

from __future__ import annotations

import difflib
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace

__all__ = [
    "KINDS",
    "RESULT_MODELS",
    "TOPOLOGY_FAMILIES",
    "AlgorithmFamily",
    "AlgorithmSpec",
    "UnknownSchemeError",
    "get",
    "names",
    "register",
    "register_family",
    "register_fault_router",
    "register_spec",
    "scheme_table_markdown",
    "specs",
    "topology_family",
]

#: The three algorithm kinds (see module docstring).
KINDS = ("static-route", "dynamic-worm", "exact")

#: Chapter 3 multicast models an algorithm can produce.  ``cost`` marks
#: exact solvers that return the optimal traffic value without a
#: constructive route.
RESULT_MODELS = ("path", "cycle", "steiner-tree", "multicast-tree", "star", "cost")

#: Topology family keys (see :func:`topology_family`).
TOPOLOGY_FAMILIES = ("mesh2d", "mesh3d", "hypercube", "torus", "grid")

#: Result models that come with a constructive route object (usable by
#: ``python -m repro route`` and the static conformance suite).
_ROUTE_MODELS = ("path", "cycle", "steiner-tree", "multicast-tree", "star")


class UnknownSchemeError(ValueError):
    """An unregistered scheme name, with close-match suggestions.

    Subclasses :class:`ValueError` so pre-registry callers that caught
    ``ValueError`` from :class:`repro.sim.traffic.Router` keep working.
    """

    def __init__(self, name: str, known: Iterable[str]):
        self.name = name
        self.known = sorted(known)
        self.suggestions = difflib.get_close_matches(name, self.known, n=3)
        hint = (
            f"; did you mean {' or '.join(repr(s) for s in self.suggestions)}?"
            if self.suggestions
            else ""
        )
        super().__init__(
            f"unknown routing scheme {name!r}{hint} "
            f"(registered: {', '.join(self.known)})"
        )


@dataclass(frozen=True, eq=False)
class AlgorithmSpec:
    """One registered routing scheme and its declared capabilities.

    ``eq=False`` keeps identity semantics: two names resolve to the same
    scheme iff :func:`get` returns the *same* spec object (aliases do,
    distinct registrations never do).
    """

    #: canonical scheme name (family instances carry the resolved name,
    #: e.g. ``virtual-channel-4``).
    name: str
    #: one of :data:`KINDS`.
    kind: str
    #: the route function (``fn(request, ...) -> route | cost``);
    #: ``None`` for schemes that exist only as worm mechanisms.
    fn: Callable | None = None
    #: supported topology family keys; empty tuple = any topology.
    topologies: tuple[str, ...] = ()
    #: one of :data:`RESULT_MODELS`, or ``None``.
    result_model: str | None = None
    #: worm-injection mechanism the simulator's Router dispatches on;
    #: ``None`` = not simulable.
    worm_style: str | None = None
    #: whether the scheme routes via a Hamiltonian labeling (the Router
    #: precomputes the canonical labeling once per topology).
    requires_labeling: bool = False
    #: Chapter 6 deadlock-freedom claim: ``True`` / ``False`` for
    #: dynamic schemes, ``None`` = not applicable (no worms).
    deadlock_free: bool | None = None
    #: hook producing the conservative CDG edge set certifying
    #: ``deadlock_free=True`` on a concrete topology:
    #: ``cdg_certificate(topology, params) -> iterable of edges``.
    cdg_certificate: Callable | None = None
    #: channel copies per link the deadlock-freedom claim assumes
    #: (the double-channel X-first tree needs 2).
    min_channels: int = 1
    #: dissertation / paper reference.
    reference: str = ""
    #: names of tuning keyword arguments ``fn`` accepts beyond the
    #: request (e.g. ``("budget",)`` on the branch-and-bound solvers);
    #: consumers such as the CLI only forward a tunable the spec
    #: declares, keeping dispatch capability-typed rather than
    #: name-switched.
    tunables: tuple[str, ...] = ()
    #: name of a cheaper registered scheme that approximates this one —
    #: the graceful-degradation capability.  When this scheme keeps
    #: failing (``SearchBudgetExceeded``, timeouts), a consumer such as
    #: the :mod:`repro.service` circuit breaker may route requests to
    #: the fallback instead, tagging results ``degraded=True``.
    #: Resolved lazily through :meth:`fallback_spec` (the fallback may
    #: register later than this spec does).
    fallback: str | None = None
    #: alternative names resolving to this same spec.
    aliases: tuple[str, ...] = ()
    #: family parameters of a resolved parametric instance
    #: (e.g. ``{"planes": 4}``).
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"{self.name}: kind must be one of {KINDS}, got {self.kind!r}")
        if self.result_model is not None and self.result_model not in RESULT_MODELS:
            raise ValueError(
                f"{self.name}: result_model must be one of {RESULT_MODELS}, "
                f"got {self.result_model!r}"
            )
        for fam in self.topologies:
            if fam not in TOPOLOGY_FAMILIES:
                raise ValueError(
                    f"{self.name}: unknown topology family {fam!r} "
                    f"(expected one of {TOPOLOGY_FAMILIES})"
                )
        if self.fallback == self.name:
            raise ValueError(f"{self.name}: a scheme cannot be its own fallback")
        if self.deadlock_free and self.cdg_certificate is None:
            # Hard conformance rule (PR 4): a deadlock-freedom claim is
            # only admissible with a machine-checkable CDG hook behind
            # it — `python -m repro certify` turns the hook into an
            # acyclicity certificate artifact, and CI refuses specs
            # whose certificate fails.
            raise ValueError(
                f"{self.name}: deadlock_free=True requires a cdg_certificate "
                "hook (Dally & Seitz acyclicity must be machine-checkable; "
                "see docs/VERIFICATION.md)"
            )

    @property
    def routable(self) -> bool:
        """Whether the spec can produce a constructive route object."""
        return self.fn is not None and self.result_model in _ROUTE_MODELS

    @property
    def simulable(self) -> bool:
        """Whether the dynamic simulator can inject worms for the spec."""
        return self.worm_style is not None

    @property
    def fault_fn(self) -> Callable | None:
        """The registered fault router ``fn(request, faulty, labeling)``
        — a bare builder, like :attr:`fn` — or ``None``."""
        return _FAULT_ROUTERS.get(self.name)

    @property
    def fault_tolerant(self) -> bool:
        """Whether the scheme declares a fault router — the §8.2
        claim that it can detour around faulty channels."""
        return self.fault_fn is not None

    def check(self, request, route):
        """``route``, once it meets the Chapter 3 condition of
        :attr:`result_model` for ``request`` (raises
        :class:`~repro.models.results.InvalidRouteError` otherwise) —
        the package's one route check site."""
        if self.result_model == "multicast-tree":
            route.validate(request, shortest_paths=True)
        else:
            route.validate(request)
        return route

    def route(self, request, *args, **kwargs):
        """Build a route with :attr:`fn`, then :meth:`check` it."""
        return self.check(request, self.fn(request, *args, **kwargs))

    def fault_route(self, request, faulty, labeling=None):
        """Route ``request`` around the ``faulty`` directed channels
        with the scheme's registered fault router, then :meth:`check`
        the detour (raises if the spec declares no fault router; raises
        ``Unroutable`` when no detour exists)."""
        fn = self.fault_fn
        if fn is None:
            raise ValueError(f"{self.name} declares no fault router")
        return self.check(request, fn(request, faulty, labeling))

    def supports(self, topology) -> bool:
        """Whether ``topology`` belongs to a declared family."""
        return not self.topologies or topology_family(topology) in self.topologies

    def fallback_spec(self) -> "AlgorithmSpec | None":
        """The resolved degradation target (``None`` when the scheme
        declares no fallback).  Raises :class:`UnknownSchemeError` if
        the declared name never registered — a conformance test keeps
        every declared fallback resolvable and routable."""
        if self.fallback is None:
            return None
        return get(self.fallback)

    def cdg_edges(self, topology):
        """The conservative CDG certifying deadlock freedom on
        ``topology`` (raises if the spec declares no certificate)."""
        if self.cdg_certificate is None:
            raise ValueError(f"{self.name} declares no CDG certificate")
        return self.cdg_certificate(topology, self.params)


@dataclass(frozen=True, eq=False)
class AlgorithmFamily:
    """A parametric scheme family, e.g. ``virtual-channel-<p>``.

    ``parse`` maps the name suffix after ``prefix`` to a params mapping
    — returning ``None`` when the suffix is not of this family's form
    (resolution falls through to the unknown-scheme error), and raising
    ``ValueError`` when it is well-formed but invalid (e.g. zero
    virtual-channel planes).
    """

    prefix: str
    parse: Callable[[str], Mapping | None]
    template: AlgorithmSpec

    def resolve(self, name: str) -> AlgorithmSpec | None:
        if not name.startswith(self.prefix):
            return None
        params = self.parse(name[len(self.prefix):])
        if params is None:
            return None
        return replace(self.template, name=name, params=params)


_SPECS: dict[str, AlgorithmSpec] = {}
_ALIASES: dict[str, str] = {}
_FAMILIES: dict[str, AlgorithmFamily] = {}
_RESOLVED: dict[str, AlgorithmSpec] = {}  # memoized family instances
_FAULT_ROUTERS: dict[str, Callable] = {}  # canonical name -> fault router
_LOADED = False


def _ensure_loaded() -> None:
    """Import every registering package once, so lookups see the full
    catalogue regardless of what the caller happened to import."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    import repro.exact  # noqa: F401  (registers Ch. 4 solvers)
    import repro.heuristics  # noqa: F401  (registers Ch. 5 heuristics)
    import repro.sim.traffic  # noqa: F401  (registers the VCT tree scheme)
    import repro.wormhole  # noqa: F401  (registers Ch. 6 schemes)


def register_spec(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add a fully-built spec to the registry (decorators wrap this)."""
    taken = set(_SPECS) | set(_ALIASES)
    for name in (spec.name, *spec.aliases):
        if name in taken:
            raise ValueError(f"scheme name {name!r} is already registered")
    _SPECS[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def register(name: str, **capabilities):
    """Decorator: register the wrapped route function under ``name``.

    The function is returned unchanged, so registration never perturbs
    direct callers::

        @register("greedy-st", kind="static-route", result_model="steiner-tree", ...)
        def greedy_st_route(request): ...
    """

    def decorate(fn: Callable) -> Callable:
        register_spec(AlgorithmSpec(name=name, fn=fn, **capabilities))
        return fn

    return decorate


def register_fault_router(name: str, fn: Callable) -> Callable:
    """Declare scheme ``name`` fault-tolerant by registering its detour
    router ``fn(request, faulty, labeling) -> route``.

    The router is the conformance hook behind the spec's
    ``fault_tolerant`` flag (like ``cdg_certificate`` is behind
    ``deadlock_free``): it must produce a valid route that uses none of
    the ``faulty`` directed channels, raising
    :class:`repro.wormhole.fault_tolerance.Unroutable` when no detour
    exists.  ``name`` must be a canonical scheme name (aliases resolve
    through their canonical spec).
    """
    if name in _FAULT_ROUTERS:
        raise ValueError(f"fault router for {name!r} is already registered")
    _FAULT_ROUTERS[name] = fn
    return fn


def register_family(prefix: str, parse: Callable, **capabilities):
    """Decorator: register a parametric family resolved by prefix.

    The template spec's display name is ``<prefix><param>``;
    :func:`get` materialises concrete instances (``virtual-channel-4``)
    with ``params`` filled in by ``parse``.
    """

    def decorate(fn: Callable) -> Callable:
        template = AlgorithmSpec(name=f"{prefix}<p>", fn=fn, **capabilities)
        if prefix in _FAMILIES:
            raise ValueError(f"family prefix {prefix!r} is already registered")
        _FAMILIES[prefix] = AlgorithmFamily(prefix, parse, template)
        return fn

    return decorate


def get(name: str) -> AlgorithmSpec:
    """Resolve a scheme name — canonical, alias, or parametric-family
    instance — to its spec.  Raises :class:`UnknownSchemeError` (a
    ``ValueError``) with close-match suggestions otherwise."""
    _ensure_loaded()
    spec = _SPECS.get(name)
    if spec is not None:
        return spec
    canonical = _ALIASES.get(name)
    if canonical is not None:
        return _SPECS[canonical]
    spec = _RESOLVED.get(name)
    if spec is not None:
        return spec
    for family in _FAMILIES.values():
        spec = family.resolve(name)
        if spec is not None:
            _RESOLVED[name] = spec
            return spec
    raise UnknownSchemeError(name, known_names())


def known_names(include_aliases: bool = True) -> list[str]:
    """Every resolvable name: canonical names, aliases, and family
    display names (``virtual-channel-<p>``)."""
    _ensure_loaded()
    out = set(_SPECS) | {f.template.name for f in _FAMILIES.values()}
    if include_aliases:
        out |= set(_ALIASES)
    return sorted(out)


def specs(
    kind: str | None = None,
    topology=None,
    deadlock_free: bool | None = None,
    routable: bool | None = None,
    simulable: bool | None = None,
    worm_style: str | None = None,
    fault_tolerant: bool | None = None,
    include_families: bool = True,
) -> list[AlgorithmSpec]:
    """The registered specs matching every given capability filter,
    sorted by name.  ``topology`` accepts a family key or an instance;
    family templates are included unless ``include_families=False``."""
    _ensure_loaded()
    out = list(_SPECS.values())
    if include_families:
        out.extend(f.template for f in _FAMILIES.values())
    if kind is not None:
        out = [s for s in out if s.kind == kind]
    if topology is not None:
        family = topology if isinstance(topology, str) else topology_family(topology)
        out = [s for s in out if not s.topologies or family in s.topologies]
    if deadlock_free is not None:
        out = [s for s in out if s.deadlock_free is deadlock_free]
    if routable is not None:
        out = [s for s in out if s.routable == routable]
    if simulable is not None:
        out = [s for s in out if s.simulable == simulable]
    if worm_style is not None:
        out = [s for s in out if s.worm_style == worm_style]
    if fault_tolerant is not None:
        out = [s for s in out if s.fault_tolerant == fault_tolerant]
    return sorted(out, key=lambda s: s.name)


def names(**filters) -> list[str]:
    """Registered scheme names matching the :func:`specs` filters."""
    return [s.name for s in specs(**filters)]


def topology_family(topology) -> str | None:
    """The registry family key of a topology instance (None if the
    instance belongs to no known family)."""
    from .topology.grid import GridGraph
    from .topology.hypercube import Hypercube
    from .topology.karyncube import KAryNCube
    from .topology.mesh import Mesh2D, Mesh3D

    if isinstance(topology, Mesh2D):
        return "mesh2d"
    if isinstance(topology, Mesh3D):
        return "mesh3d"
    if isinstance(topology, Hypercube):
        return "hypercube"
    if isinstance(topology, KAryNCube):
        return "torus"
    if isinstance(topology, GridGraph):
        return "grid"
    return None


def _flag(value: bool | None) -> str:
    return "n/a" if value is None else ("yes" if value else "no")


def scheme_table_rows() -> list[tuple[str, ...]]:
    """One row per registered scheme (families as their display name):
    ``(name+aliases, kind, topologies, deadlock-free, certified,
    fault-tolerant, reference)``.

    The *certified* column is computed by actually running the PR-4
    deadlock certifier (:func:`repro.analysis.certify.certificate_status`)
    on the smallest representative topology — the table states what was
    machine-checked, not what was declared.
    """
    from .analysis.certify import certificate_status

    rows = []
    for spec in specs():
        name = spec.name
        if spec.aliases:
            name += " (= " + ", ".join(spec.aliases) + ")"
        topologies = ", ".join(spec.topologies) if spec.topologies else "any"
        deadlock = _flag(spec.deadlock_free)
        if spec.deadlock_free and spec.min_channels > 1:
            deadlock += f" ({spec.min_channels}x channels)"
        certified = certificate_status(spec)
        fault = _flag(spec.fault_tolerant if spec.kind == "dynamic-worm" else None)
        rows.append(
            (name, spec.kind, topologies, deadlock, certified, fault, spec.reference)
        )
    return rows


def scheme_table_markdown() -> str:
    """The registry as a GitHub-flavored markdown table (embedded in
    README.md; a conformance test keeps the two in sync)."""
    lines = [
        "| scheme | kind | topologies | deadlock-free | certified | "
        "fault-tolerant | reference |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, kind, topologies, deadlock, certified, fault, reference in scheme_table_rows():
        lines.append(
            f"| `{name}` | {kind} | {topologies} | {deadlock} | {certified} "
            f"| {fault} | {reference} |"
        )
    return "\n".join(lines)
