"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``route``       route one multicast and report traffic / hops (optionally
                drawing the pattern for 2D meshes, optionally around
                ``--fault`` channels);
``simulate``    run the Chapter 7 dynamic study for one scheme;
``faults``      run the fault-injection degradation study (delivery
                ratio and latency vs. link-fault rate, with retry);
``mixed``       run the §8.2 unicast/multicast interaction study;
``reproduce``   regenerate one Chapter 7 figure at a chosen scale;
``algorithms``  list every registered routing scheme, with capability
                filters (kind / topology / deadlock freedom / fault
                tolerance);
``labels``      print a mesh labeling grid (cf. Fig. 6.9);
``deadlock``    run the §6.1 deadlock demonstrations;
``certify``     machine-check every deadlock claim (CDG acyclicity
                certificates / minimized counterexamples, written as
                JSON artifacts) and sweep the routing invariants;
``lint``        run the repo-specific AST lint pass
                (:mod:`repro.analysis.lint`);
``serve``       run the resilient routing daemon on a unix socket
                (:mod:`repro.service`), optionally under a seeded
                chaos plan;
``client``      talk to a running daemon: route requests, stats
                snapshots, shutdown.

Every scheme name is resolved through :mod:`repro.registry`, so new
registrations appear in ``route --algorithm`` choices and the
``algorithms`` listing without touching this module.

Exit codes: 0 success, 1 analysis findings (``certify`` / ``lint``) or
a typed service error, 2 usage errors (unknown scheme, bad topology
or node, invalid :class:`~repro.sim.config.SimConfig` values, a
scheme the fault model does not cover — always a one-line message,
never a traceback), 3 no fault-avoiding
route exists (:class:`Unroutable`, the blocking channel is named on
stderr), 4 an exact solver exceeded its ``--budget`` node-expansion
limit (:class:`repro.exact.SearchBudgetExceeded`).
"""

from __future__ import annotations

import argparse
import sys

from . import registry
from .exact.errors import SearchBudgetExceeded
from .models.request import MulticastRequest
from .sim.config import InvalidConfigError
from .sim.runner import UnsupportedFaultModel
from .topology import Hypercube, KAryNCube, Mesh2D, Mesh3D
from .wormhole.fault_tolerance import Unroutable


def parse_topology(spec: str):
    """Parse ``mesh:WxH``, ``mesh3d:WxHxD``, ``cube:N`` or ``torus:KxN``."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "mesh":
            w, h = (int(p) for p in rest.split("x"))
            return Mesh2D(w, h)
        if kind == "mesh3d":
            w, h, d = (int(p) for p in rest.split("x"))
            return Mesh3D(w, h, d)
        if kind == "cube":
            return Hypercube(int(rest))
        if kind == "torus":
            k, n = (int(p) for p in rest.split("x"))
            return KAryNCube(k, n)
    except (ValueError, TypeError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad topology spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"unknown topology kind {kind!r} (mesh/mesh3d/cube/torus)"
    )


def parse_node(topology, text: str):
    """Parse a node address: comma-separated coordinates, or an integer
    (hypercubes accept binary with an ``0b`` prefix)."""
    try:
        if isinstance(topology, Hypercube):
            node = int(text, 0)
        else:
            coords = tuple(int(p) for p in text.split(","))
            node = coords if len(coords) > 1 else coords[0]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text} is not a node ({exc})") from exc
    if not topology.is_node(node):
        raise argparse.ArgumentTypeError(f"{text} is not a node")
    return node


def _route_choices() -> list:
    """Schemes offered to ``route --algorithm``: every registered spec
    with a constructive route function, the exact branch-and-bound
    solvers included (their exponential searches are kept honest by the
    ``--budget`` node-expansion limit)."""
    return [
        spec.name
        for spec in registry.specs(routable=True, include_families=False)
    ]


def _parse_fault(topology, text: str) -> tuple:
    """Parse a ``--fault`` directed channel, ``SRC>DST``."""
    head, sep, tail = text.partition(">")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"bad fault spec {text!r} (expected SRC>DST, e.g. 1,1>2,1)"
        )
    u = parse_node(topology, head)
    v = parse_node(topology, tail)
    if not topology.are_adjacent(u, v):
        raise argparse.ArgumentTypeError(
            f"fault {text!r} is not a channel: {u!r} and {v!r} are not adjacent"
        )
    return (u, v)


def cmd_route(args) -> int:
    topology = parse_topology(args.topology)
    source = parse_node(topology, args.source)
    dests = tuple(parse_node(topology, d) for d in args.dest)
    request = MulticastRequest(topology, source, dests)
    spec = registry.get(args.algorithm)
    if not spec.supports(topology):
        print(
            f"{spec.name} is not defined on {topology} "
            f"(supported families: {', '.join(spec.topologies)})",
            file=sys.stderr,
        )
        return 2
    if args.fault:
        faults = [_parse_fault(topology, f) for f in args.fault]
        if not spec.fault_tolerant:
            tolerant = ", ".join(
                s.name for s in registry.specs(fault_tolerant=True)
            )
            print(
                f"{spec.name} has no fault-tolerant router; "
                f"fault-tolerant schemes: {tolerant}",
                file=sys.stderr,
            )
            return 2
        route = spec.fault_route(request, faults)
    else:
        kwargs = {}
        if args.budget is not None:
            if "budget" not in spec.tunables:
                print(
                    f"{spec.name} has no search budget "
                    "(--budget applies to the branch-and-bound exact solvers: "
                    + ", ".join(
                        s.name
                        for s in registry.specs(routable=True, include_families=False)
                        if "budget" in s.tunables
                    )
                    + ")",
                    file=sys.stderr,
                )
                return 2
            kwargs["budget"] = args.budget
        route = spec.route(request, **kwargs)
    hops = max(route.dest_hops(request.destinations).values())
    print(f"{args.algorithm} on {topology}: traffic={route.traffic} max_hops={hops}")
    if args.show:
        if not isinstance(topology, Mesh2D):
            print("(--show is only available for 2D meshes)", file=sys.stderr)
        else:
            from .viz import render_route

            print(render_route(topology, route, request))
    return 0


def cmd_simulate(args) -> int:
    from .sim import SimConfig, run_dynamic

    topology = parse_topology(args.topology)
    cfg = SimConfig(
        num_messages=args.messages,
        num_destinations=args.dests,
        mean_interarrival=args.interarrival_us * 1e-6,
        channels_per_link=2 if args.double_channels else 1,
        seed=args.seed,
    )
    if args.replications > 1:
        from .parallel import SweepJob, pooled_latency, replicate, run_sweep

        jobs = [
            SweepJob(topology, args.scheme, c)
            for c in replicate(cfg, args.replications)
        ]
        results = run_sweep(jobs, workers=args.workers)
        pooled = pooled_latency(results)
        print(
            f"{args.scheme} on {topology}: mean latency "
            f"{pooled.mean * 1e6:.2f} us "
            f"(+/- {pooled.ci_halfwidth * 1e6:.2f}, "
            f"{args.replications} replications x {cfg.num_messages} messages, "
            f"{sum(r.deliveries for r in results)} deliveries, "
            f"{args.workers or 'auto'} workers)"
        )
        return 0
    result = run_dynamic(topology, args.scheme, cfg)
    print(
        f"{args.scheme} on {topology}: mean latency "
        f"{result.mean_latency * 1e6:.2f} us "
        f"(+/- {result.latency.ci_halfwidth * 1e6:.2f}, "
        f"{result.deliveries} deliveries, sim time {result.sim_time * 1e3:.2f} ms)"
    )
    return 0


def cmd_faults(args) -> int:
    from .parallel import NoResultsError, SweepJob, pooled_latency, replicate, run_sweep
    from .sim import SimConfig

    topology = parse_topology(args.topology)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    try:
        rates = [float(r) for r in args.fault_rates.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --fault-rates {args.fault_rates!r}: {exc}") from exc
    cfg = SimConfig(
        num_messages=args.messages,
        num_destinations=args.dests,
        mean_interarrival=args.interarrival_us * 1e-6,
        seed=args.seed,
        fault_mtbf=args.mtbf_us * 1e-6,
        fault_mttr=args.mttr_us * 1e-6,
        max_retries=args.max_retries,
    )
    # one sweep point per (scheme, rate); replications derive their
    # seeds from the base seed, so every scheme sees the same traffic
    # and the same fault schedule at a given rate (paired comparison)
    jobs: list = []
    points: list = []
    for scheme in schemes:
        for rate in rates:
            reps = replicate(
                SweepJob(
                    topology,
                    scheme,
                    cfg.replace(link_fault_rate=rate),
                    "resilient",
                ),
                args.replications,
            )
            points.append((scheme, rate, len(jobs), len(reps)))
            jobs.extend(reps)

    failures: list = []
    results = run_sweep(
        jobs,
        workers=args.workers,
        timeout=args.job_timeout,
        retries=args.job_retries,
        checkpoint=args.checkpoint,
        resume=args.resume,
        on_error="record",
        failures=failures,
    )

    records = []
    for scheme, rate, start, count in points:
        chunk = results[start : start + count]
        ok = [r for r in chunk if r is not None]
        delivered = sum(r.stats.delivered for r in ok)
        expected = sum(r.expected_deliveries for r in ok)
        try:
            pooled = pooled_latency(ok, failures)
            mean_us = pooled.mean * 1e6
            ci_us = pooled.ci_halfwidth * 1e6
        except NoResultsError:
            mean_us = ci_us = float("nan")
        records.append(
            {
                "scheme": scheme,
                "fault_rate": rate,
                "delivery_ratio": delivered / expected if expected else float("nan"),
                "mean_latency_us": mean_us,
                "ci_halfwidth_us": ci_us,
                "delivered": delivered,
                "expected": expected,
                "killed_worms": sum(r.stats.killed_worms for r in ok),
                "retries": sum(r.stats.retries for r in ok),
                "detoured": sum(r.stats.detoured for r in ok),
                "replications_ok": len(ok),
                "replications_failed": count - len(ok),
            }
        )

    header = ("scheme", "rate", "delivery", "latency(us)", "killed", "retries", "detoured")
    rows = [
        (
            r["scheme"],
            f"{r['fault_rate']:g}",
            f"{r['delivery_ratio']:.4f}",
            f"{r['mean_latency_us']:.2f}",
            str(r["killed_worms"]),
            str(r["retries"]),
            str(r["detoured"]),
        )
        for r in records
    ]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    for failure in failures:
        print(f"warning: {failure}", file=sys.stderr)

    if args.output:
        import json

        payload = {
            "topology": str(topology),
            "schemes": schemes,
            "fault_rates": rates,
            "replications": args.replications,
            "messages": args.messages,
            "seed": args.seed,
            "results": records,
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


def cmd_mixed(args) -> int:
    from .sim import SimConfig, run_mixed

    topology = parse_topology(args.topology)
    cfg = SimConfig(
        num_messages=args.messages,
        num_destinations=args.dests,
        mean_interarrival=args.interarrival_us * 1e-6,
        seed=args.seed,
    )
    result = run_mixed(
        topology, args.scheme, cfg,
        unicast_fraction=args.unicast_fraction,
    )
    print(
        f"{args.scheme} on {topology} ({args.unicast_fraction:.0%} unicast): "
        f"unicast {result.unicast_latency.mean * 1e6:.2f} us, "
        f"multicast {result.multicast_latency.mean * 1e6:.2f} us"
    )
    return 0


def cmd_reproduce(args) -> int:
    from .experiments import reproduce

    result = reproduce(args.experiment, scale=args.scale)
    print(result.as_table())
    return 0


def cmd_algorithms(args) -> int:
    filters = {}
    if args.kind:
        filters["kind"] = args.kind
    if args.topology:
        filters["topology"] = (
            parse_topology(args.topology) if ":" in args.topology else args.topology
        )
    if args.deadlock_free:
        filters["deadlock_free"] = True
    if args.simulable:
        filters["simulable"] = True
    if args.fault_tolerant:
        filters["fault_tolerant"] = True
    rows = [
        (
            spec.name + (f" (= {', '.join(spec.aliases)})" if spec.aliases else ""),
            spec.kind,
            ", ".join(spec.topologies) if spec.topologies else "any",
            spec.worm_style or "-",
            "n/a" if spec.deadlock_free is None else ("yes" if spec.deadlock_free else "no"),
            ("yes" if spec.fault_tolerant else "no")
            if spec.kind == "dynamic-worm"
            else "n/a",
            spec.reference,
        )
        for spec in registry.specs(**filters)
    ]
    if not rows:
        print("no registered scheme matches the given filters", file=sys.stderr)
        return 1
    header = ("scheme", "kind", "topologies", "worm", "deadlock-free", "fault-tolerant", "reference")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return 0


def cmd_labels(args) -> int:
    topology = parse_topology(args.topology)
    if not isinstance(topology, Mesh2D):
        print("labels rendering is only available for 2D meshes", file=sys.stderr)
        return 2
    from .labeling import BoustrophedonMeshLabeling, SpiralMeshLabeling
    from .viz import render_labeling

    labeling = (
        SpiralMeshLabeling(topology) if args.spiral else BoustrophedonMeshLabeling(topology)
    )
    print(render_labeling(topology, labeling))
    return 0


def cmd_deadlock(args) -> int:
    from .sim import SimConfig, run_static_scenario
    from .wormhole import fig_6_1_broadcast_deadlock_cdg, fig_6_4_xfirst_deadlock_cdg, find_cycle

    cube = Hypercube(3)
    reqs = [
        MulticastRequest(cube, 0, tuple(v for v in cube.nodes() if v != 0)),
        MulticastRequest(cube, 1, tuple(v for v in cube.nodes() if v != 1)),
    ]
    res = run_static_scenario(cube, "ecube-tree", reqs)
    print(f"Fig 6.1 (3-cube e-cube broadcasts): "
          f"{'DEADLOCK' if not res.completed else 'completed'}; "
          f"CDG cycle: {find_cycle(fig_6_1_broadcast_deadlock_cdg())}")
    mesh = Mesh2D(4, 3)
    reqs = [
        MulticastRequest(mesh, (1, 1), ((0, 2), (3, 1))),
        MulticastRequest(mesh, (2, 1), ((0, 1), (3, 0))),
    ]
    res = run_static_scenario(mesh, "xfirst-tree", reqs)
    print(f"Fig 6.4 (3x4-mesh X-first multicasts): "
          f"{'DEADLOCK' if not res.completed else 'completed'}; "
          f"CDG cycle: {find_cycle(fig_6_4_xfirst_deadlock_cdg())}")
    return 0


def cmd_certify(args) -> int:
    from .analysis.certify import REPRESENTATIVE_TOPOLOGIES, Counterexample, certify_all
    from .analysis.invariants import check_spec_invariants

    schemes = args.scheme or None
    artifacts, failures = certify_all(schemes, out_dir=args.out or None)
    for artifact in artifacts:
        if isinstance(artifact, Counterexample):
            label = artifact.construction or "searched"
            print(
                f"REFUTED    {artifact.scheme:<22} {artifact.topology_spec:<12} "
                f"[{label}] cycle: {' -> '.join(artifact.cycle)}"
            )
        else:
            print(
                f"certified  {artifact.scheme:<22} {artifact.topology_spec:<12} "
                f"{len(artifact.order)} nodes / {artifact.num_edges} edges "
                f"(digest {artifact.edge_digest[:12]})"
            )

    violations = []
    if not args.no_invariants:
        # invariant sweep on the smallest representative topology of
        # each family; exact solvers are exponential and have no
        # dynamic claim, so they are skipped
        for spec in registry.specs(include_families=False):
            if spec.kind == "exact" or not (spec.routable or spec.simulable):
                continue
            if schemes is not None and spec.name not in schemes:
                continue
            for family in spec.topologies or ("mesh2d", "hypercube"):
                reps = REPRESENTATIVE_TOPOLOGIES.get(family)
                if not reps:
                    continue
                topology = parse_topology(reps[0])
                violations.extend(check_spec_invariants(spec, topology))
        for violation in violations:
            print(f"INVARIANT  {violation}")

    print(
        f"{sum(1 for a in artifacts if a.kind == 'acyclicity-certificate')} "
        f"certificates, "
        f"{sum(1 for a in artifacts if a.kind == 'deadlock-counterexample')} "
        f"counterexamples, {len(failures)} failures, "
        f"{len(violations)} invariant violations"
        + (f"; artifacts in {args.out}" if args.out else "")
    )
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures or violations else 0


def cmd_modelcheck(args) -> int:
    from .analysis.model import UnknownMachineError, modelcheck_all

    try:
        results, failures = modelcheck_all(
            only=args.machine or None, out_dir=args.out or None
        )
    except UnknownMachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = 0
    for result in results:
        if result.ok:
            print(
                f"verified   {result.machine.name:<22} "
                f"{result.states} states / {result.edges} edges "
                f"(digest {result.relation_digest[:12]})"
            )
        for violation in result.violations:
            violations += 1
            print(f"VIOLATION  {violation}")
    print(
        f"{sum(1 for r in results if r.ok)} machines verified, "
        f"{violations} violations, {len(failures)} conformance failures"
        + (f"; certificates in {args.out}" if args.out else "")
    )
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures or violations else 0


def cmd_lint(args) -> int:
    from .analysis.lint import lint_paths, rules

    if args.list_rules:
        for r in rules():
            print(f"{r.id}: {r.description}")
        return 0
    findings = lint_paths(args.path, select=args.select or None)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


#: Typed service error code -> CLI exit code (unlisted codes exit 1).
_SERVICE_EXITS = {
    "bad-request": 2,
    "unknown-scheme": 2,
    "unsupported-topology": 2,
    "not-routable": 2,
    "unroutable": 3,
    "budget-exceeded": 4,
}


def cmd_serve(args) -> int:
    import json

    from .service import ChaosPlan, ServiceConfig
    from .service.server import serve as serve_daemon

    try:
        chaos = None
        if args.chaos_kill or args.chaos_delay or args.chaos_drop or args.chaos_stall:
            chaos = ChaosPlan(
                seed=args.seed,
                kill_rate=args.chaos_kill,
                delay_rate=args.chaos_delay,
                drop_rate=args.chaos_drop,
                stall_rate=args.chaos_stall,
            )
        config = ServiceConfig(
            workers=args.workers,
            queue_bound=args.queue_bound,
            cache_capacity=args.cache_capacity,
            request_deadline=args.deadline,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            seed=args.seed,
            chaos=chaos,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def ready(report) -> None:
        print(
            json.dumps(
                {
                    "ready": True,
                    "socket": args.socket,
                    "workers": [w["pid"] for w in report["workers"]],
                }
            ),
            flush=True,
        )

    try:
        serve_daemon(args.socket, config, ready)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_client(args) -> int:
    import json

    from .service import ServiceClient

    with ServiceClient(args.socket, timeout=args.timeout) as client:
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.shutdown:
            client.shutdown()
            print("daemon shut down")
            return 0
        if not args.dest:
            print("error: --dest is required to route", file=sys.stderr)
            return 2
        topology = parse_topology(args.topology)
        source = parse_node(topology, args.source)
        dests = tuple(parse_node(topology, d) for d in args.dest)
        worst = 0
        for _ in range(args.count):
            response = client.route(
                args.topology,
                args.scheme,
                source,
                dests,
                budget=args.budget,
                deadline=args.request_deadline,
            )
            if response.ok:
                flags = "".join(
                    f" [{flag}]"
                    for flag, on in (
                        ("degraded", response.degraded),
                        ("cache", response.cache_hit),
                    )
                    if on
                )
                print(
                    f"{response.scheme} on {args.topology}: "
                    f"traffic={response.traffic} max_hops={response.max_hops}"
                    f"{flags}"
                )
            else:
                print(f"error: {response.error}: {response.detail}", file=sys.stderr)
                worst = max(worst, _SERVICE_EXITS.get(response.error, 1))
        return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multicast communication in multicomputer networks (Lin 1991)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("route", help="route one multicast")
    p.add_argument("--topology", required=True, help="mesh:WxH | mesh3d:WxHxD | cube:N | torus:KxN")
    p.add_argument("--source", required=True)
    p.add_argument("--dest", action="append", required=True, help="repeatable")
    p.add_argument("--algorithm", choices=sorted(_route_choices()), default="dual-path")
    p.add_argument("--budget", type=int, default=None,
                   help="node-expansion budget for the exact branch-and-bound "
                        "solvers (omp/omc/oms); exceeding it exits with code 4")
    p.add_argument("--show", action="store_true", help="draw the pattern (2D meshes)")
    p.add_argument("--fault", action="append", default=[],
                   help="faulty directed channel SRC>DST to route around "
                        "(repeatable; needs a fault-tolerant algorithm)")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("simulate", help="dynamic latency study (Ch. 7)")
    p.add_argument("--topology", default="mesh:8x8")
    p.add_argument("--scheme", default="dual-path")
    p.add_argument("--messages", type=int, default=1000)
    p.add_argument("--dests", type=int, default=10)
    p.add_argument("--interarrival-us", type=float, default=300.0)
    p.add_argument("--double-channels", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--replications", type=int, default=1,
                   help="independent replications with derived seeds, pooled")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the replication sweep "
                        "(default: all cores; used when --replications > 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("faults", help="fault-injection degradation study")
    p.add_argument("--topology", default="mesh:8x8")
    p.add_argument("--schemes", default="dual-path,dual-path-adaptive,fixed-path",
                   help="comma-separated scheme list (mix fault-tolerant "
                        "and plain schemes to compare degradation)")
    p.add_argument("--fault-rates", default="0,0.02,0.05,0.1",
                   help="comma-separated link-fault rates (fraction of "
                        "directed channels failing during the run)")
    p.add_argument("--messages", type=int, default=500)
    p.add_argument("--dests", type=int, default=10)
    p.add_argument("--interarrival-us", type=float, default=300.0)
    p.add_argument("--mtbf-us", type=float, default=0.0,
                   help="mean time between failures (0 = one failure per "
                        "faulty element, uniform over the run)")
    p.add_argument("--mttr-us", type=float, default=0.0,
                   help="mean time to repair (0 = permanent faults)")
    p.add_argument("--max-retries", type=int, default=3,
                   help="source-level retransmission budget per message")
    p.add_argument("--replications", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-replication wall-clock limit in seconds")
    p.add_argument("--job-retries", type=int, default=0,
                   help="extra attempts for crashed/timed-out replications")
    p.add_argument("--checkpoint", default=None,
                   help="JSONL file to durably record finished replications")
    p.add_argument("--resume", action="store_true",
                   help="skip replications already in --checkpoint")
    p.add_argument("--output", default=None, help="write the sweep as JSON")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("mixed", help="unicast/multicast interaction study (§8.2)")
    p.add_argument("--topology", default="mesh:8x8")
    p.add_argument("--scheme", default="dual-path")
    p.add_argument("--messages", type=int, default=1000)
    p.add_argument("--dests", type=int, default=10)
    p.add_argument("--interarrival-us", type=float, default=300.0)
    p.add_argument("--unicast-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_mixed)

    p = sub.add_parser("reproduce", help="regenerate one dissertation figure")
    p.add_argument("experiment", help="e.g. fig7.9 (see repro.experiments.EXPERIMENTS)")
    p.add_argument("--scale", type=float, default=0.3,
                   help="replication scale factor (1.0 = benchmark default)")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("algorithms", help="list registered routing schemes")
    p.add_argument("--kind", choices=registry.KINDS, default=None)
    p.add_argument("--topology", default=None,
                   help="family (mesh2d/mesh3d/hypercube/torus/grid) or a "
                        "topology spec like mesh:8x8")
    p.add_argument("--deadlock-free", action="store_true",
                   help="only schemes with a deadlock-freedom certificate")
    p.add_argument("--simulable", action="store_true",
                   help="only schemes the dynamic study can simulate")
    p.add_argument("--fault-tolerant", action="store_true",
                   help="only schemes with a fault-tolerant router")
    p.set_defaults(func=cmd_algorithms)

    p = sub.add_parser("labels", help="print a mesh labeling grid")
    p.add_argument("--topology", default="mesh:4x3")
    p.add_argument("--spiral", action="store_true", help="use the spiral ablation labeling")
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("deadlock", help="run the Fig. 6.1/6.4 deadlock demos")
    p.set_defaults(func=cmd_deadlock)

    p = sub.add_parser(
        "certify",
        help="machine-check every deadlock claim and routing invariant",
    )
    p.add_argument("--scheme", action="append", default=[],
                   help="certify only this scheme (repeatable; default: all)")
    p.add_argument("--only", action="append", dest="scheme",
                   help="alias for --scheme, mirroring `modelcheck --only`")
    p.add_argument("--all", action="store_true",
                   help="certify every registered claim (the default; "
                        "explicit for CI readability)")
    p.add_argument("--out", default="analysis/certificates",
                   help="directory for the JSON certificate artifacts "
                        "('' = do not write artifacts)")
    p.add_argument("--no-invariants", action="store_true",
                   help="skip the routing-invariant sweep")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "modelcheck",
        help="exhaustively verify the service's protocol state machines",
    )
    p.add_argument("--only", action="append", dest="machine", default=[],
                   help="check only this machine (repeatable; default: all — "
                        "request-lifecycle, circuit-breaker, worker-heartbeat)")
    p.add_argument("--out", default="analysis/certificates/service",
                   help="directory for the JSON certificate artifacts "
                        "('' = do not write artifacts)")
    p.set_defaults(func=cmd_modelcheck)

    p = sub.add_parser("serve", help="run the resilient routing daemon")
    p.add_argument("--socket", required=True,
                   help="unix socket path to listen on (JSONL protocol)")
    p.add_argument("--workers", type=int, default=2,
                   help="persistent routing worker processes")
    p.add_argument("--queue-bound", type=int, default=64,
                   help="intake queue bound; beyond it requests are shed "
                        "with a typed `overloaded` response")
    p.add_argument("--cache-capacity", type=int, default=1024,
                   help="route-plan LRU entries (0 disables caching)")
    p.add_argument("--deadline", type=float, default=10.0,
                   help="default per-request deadline in seconds")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive budget/timeout failures per "
                        "(scheme, topology) that open the circuit breaker")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   help="seconds before an open breaker probes the primary")
    p.add_argument("--seed", type=int, default=1,
                   help="seeds retry jitter and the chaos plan")
    p.add_argument("--chaos-kill", type=float, default=0.0,
                   help="fraction of requests whose worker is SIGKILLed "
                        "mid-request (chaos harness)")
    p.add_argument("--chaos-delay", type=float, default=0.0,
                   help="fraction of requests with an injected delay")
    p.add_argument("--chaos-drop", type=float, default=0.0,
                   help="fraction of requests whose response is dropped")
    p.add_argument("--chaos-stall", type=float, default=0.0,
                   help="fraction of requests that hang their worker "
                        "(heartbeats stop)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="talk to a running routing daemon")
    p.add_argument("--socket", required=True, help="daemon unix socket path")
    p.add_argument("--stats", action="store_true",
                   help="print the daemon's drain report as JSON and exit")
    p.add_argument("--shutdown", action="store_true",
                   help="stop the daemon and exit")
    p.add_argument("--topology", default="mesh:8x8")
    p.add_argument("--scheme", default="dual-path")
    p.add_argument("--source", default="0,0")
    p.add_argument("--dest", action="append", default=[], help="repeatable")
    p.add_argument("--count", type=int, default=1,
                   help="send the request this many times (cache warming)")
    p.add_argument("--budget", type=int, default=None,
                   help="search budget forwarded to exact solvers")
    p.add_argument("--request-deadline", type=float, default=None,
                   help="per-request deadline override in seconds")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="client socket timeout in seconds")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("lint", help="run the repo-specific AST lint pass")
    p.add_argument("path", nargs="*",
                   help="files/directories to lint (default: the installed "
                        "repro package source)")
    p.add_argument("--select", action="append", default=[],
                   help="run only this rule id (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="list the registered rules and exit")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except registry.UnknownSchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run `python -m repro algorithms` for the full catalogue",
              file=sys.stderr)
        return 2
    except (InvalidConfigError, UnsupportedFaultModel, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Unroutable as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.channel is not None:
            print(f"blocking channel: {exc.channel[0]!r} -> {exc.channel[1]!r}",
                  file=sys.stderr)
        return 3
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("raise --budget to keep searching (the problem is NP-complete; "
              "cf. Theorems 4.1-4.8)", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # output piped into a pager/head that closed early
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
