"""The routing service's job handler: warm-oracle route computation
plus the chaos directives.

The process around it — the pipe, the heartbeat thread, spawn, kill and
respawn — is the shared worker pool of :mod:`repro.workers`; this
module only says what one worker does with one job.

Warm state: topologies are interned through
:func:`repro.topology.canonical_topology` and kept in the worker's
``cache``, so every request against the same topology spec shares one
:class:`DistanceOracle` and its caches for the lifetime of the worker —
the cache is what the service benchmark's routed-destinations/sec rests
on.

Chaos directives (``hold_s`` / ``delay_s`` / ``drop`` / ``stall``)
arrive inside the job dict; the worker itself stays deterministic — it
only ever does what the supervisor's seeded
:class:`~repro.service.chaos.ChaosPlan` told it to.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from typing import Any

from ..exact.errors import InfeasibleRoute, SearchBudgetExceeded
from ..models.request import MulticastRequest
from ..models.results import InvalidRouteError
from ..registry import UnknownSchemeError, get as get_spec
from ..topology import canonical_topology
from ..workers import NO_REPLY, WorkerState
from ..wormhole.fault_tolerance import Unroutable

__all__ = ["compute_route", "handle_job"]

#: How long a stalled worker sleeps (heartbeats off) before giving up
#: waiting for the supervisor's SIGKILL.
_STALL_S = 600.0


def _parse_topology(spec: str) -> Any:
    """Topology-spec parsing shared with the CLI, with plain
    ``ValueError`` semantics (no argparse error types on this path)."""
    import argparse

    from ..cli import parse_topology

    try:
        return parse_topology(spec)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(str(exc)) from exc


def compute_route(
    topology_cache: dict[str, Any], job: Mapping[str, Any]
) -> tuple[bool, dict[str, Any]]:
    """Answer one job: ``(True, route summary)`` or ``(False, {error,
    detail})`` with a typed error code — exceptions never escape as
    tracebacks.

    ``topology_cache`` maps topology specs to interned instances; pass
    the same dict across calls to keep oracles warm (each pool worker
    does, and so does the in-process benchmark baseline).
    """
    try:
        spec = get_spec(job["scheme"])
    except UnknownSchemeError as exc:
        return False, {"error": "unknown-scheme", "detail": str(exc)}
    try:
        topology = topology_cache.get(job["topology"])
        if topology is None:
            topology = canonical_topology(_parse_topology(job["topology"]))
            topology_cache[job["topology"]] = topology
        if not spec.supports(topology):
            return False, {
                "error": "unsupported-topology",
                "detail": f"{spec.name} is not defined on {topology} "
                f"(supported families: {', '.join(spec.topologies)})",
            }
        if not spec.routable:
            return False, {
                "error": "not-routable",
                "detail": f"{spec.name} produces no constructive route "
                f"(result model: {spec.result_model})",
            }
        request = MulticastRequest(topology, job["source"], tuple(job["destinations"]))
        kwargs: dict[str, Any] = {}
        if job.get("budget") is not None and "budget" in spec.tunables:
            kwargs["budget"] = job["budget"]
        route = spec.route(request, **kwargs)
        hops = route.dest_hops(request.destinations)
        return True, {
            "scheme": spec.name,
            "traffic": route.traffic,
            "max_hops": max(hops.values()) if hops else 0,
        }
    except SearchBudgetExceeded as exc:
        return False, {"error": "budget-exceeded", "detail": str(exc)}
    except (InfeasibleRoute, Unroutable) as exc:
        return False, {"error": "unroutable", "detail": str(exc)}
    except InvalidRouteError as exc:
        # a server-side defect, not a bad request (precedes ValueError)
        return False, {"error": "internal-error", "detail": f"InvalidRouteError: {exc}"}
    except (ValueError, TypeError, KeyError) as exc:
        return False, {"error": "bad-request", "detail": str(exc)}
    except Exception as exc:  # summarize, never traceback across the wire
        return False, {
            "error": "internal-error",
            "detail": f"{type(exc).__name__}: {exc}",
        }


def handle_job(state: WorkerState, job: Mapping[str, Any]) -> Any:
    """The pool handler: :func:`compute_route` on the worker's warm
    topology cache, with the job's chaos directives applied."""
    if job.get("stall"):
        # simulate a hung interpreter: heartbeats go silent and no
        # result ever comes — only the supervisor's heartbeat monitor
        # can reclaim this worker
        state.heartbeating.clear()
        time.sleep(_STALL_S)
        return NO_REPLY
    hold = job.get("hold_s", 0.0)
    if hold:
        time.sleep(hold)  # window for a staged chaos SIGKILL
    outcome = compute_route(state.cache, job)
    delay = job.get("delay_s", 0.0)
    if delay:
        time.sleep(delay)
    if job.get("drop"):
        return NO_REPLY  # chaos: response lost in flight
    return outcome
