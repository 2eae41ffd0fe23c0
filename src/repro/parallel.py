"""Parallel experiment runner for the §7.2 dynamic study.

The dissertation's dynamic evaluation sweeps load × destination-set
size × routing scheme, one CSIM run per point.  Each point is an
independent simulation fully determined by ``(topology, scheme,
SimConfig)`` — including its RNG seed — so the sweep is embarrassingly
parallel: :func:`run_sweep` fans the points out over a pool of
worker processes and returns the :class:`DynamicResult` for
every job *in job order*, bit-for-bit identical to running the same
jobs serially (worker placement never touches a simulation's RNG).

Deterministic replication seeds come from :func:`derive_seed`, a
splitmix64-style mix of a base seed and the run index, so replication
``i`` of a sweep is reproducible regardless of how many workers ran it
or in which order jobs completed.

Robustness
----------

Long sweeps (the fault-degradation study runs hundreds of
replications) need to survive slow points, crashing workers, and being
killed outright, so :func:`run_sweep` also accepts:

* ``timeout`` — per-job wall-clock limit; a job over budget is
  terminated and recorded as failed (it never stalls the sweep);
* ``retries`` — failed jobs (timeout or crash) are re-run up to this
  many extra times before being declared failed;
* ``on_error="record"`` — failures become ``None`` results plus
  :class:`JobFailure` records instead of raising :class:`SweepError`;
* ``checkpoint``/``resume`` — every completed result is appended to a
  JSONL file (flushed and fsynced, so a ``kill -9`` loses at most the
  in-flight jobs); ``resume=True`` reloads matching records and only
  runs the jobs that are missing.

Every sweep that is not run serially in-process runs on the shared
worker pool (:mod:`repro.workers`): one persistent forked worker per
slot, each fed one job at a time over its own pipe.  A worker that
times out, crashes or is killed is recycled (SIGKILL, fresh process)
and its job goes through the retry budget, so the failure is isolated
to that one job.

Usage::

    from repro.parallel import SweepJob, run_sweep
    jobs = [SweepJob(mesh, "dual-path", cfg.replace(seed=s)) for s in seeds]
    results = run_sweep(jobs, workers=4)
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass
from math import sqrt
from collections.abc import Iterable, Sequence

from .registry import get as get_spec
from .sim.config import SimConfig
from .sim.runner import (
    DynamicResult,
    FaultResult,
    check_fault_model,
    check_workload,
    run_dynamic,
    run_resilient,
)
from .sim.stats import SimStats, Summary
from .topology.base import Topology
from .topology.oracle import canonical_topology
from .workers import WorkerHandle, WorkerState, wait_any

__all__ = [
    "JobFailure",
    "NoResultsError",
    "SweepError",
    "SweepJob",
    "SweepStats",
    "derive_seed",
    "replicate",
    "run_sweep",
    "pooled_latency",
]


@dataclass
class SweepStats:
    """Attempt/retry/timeout accounting for one :func:`run_sweep` call.

    Pass an instance as ``stats=`` to observe what the worker pool
    actually did — before this existed, retries that eventually
    *succeeded* were invisible (only terminal failures surfaced, as
    :class:`JobFailure` records), so a sweep that silently burned its
    retry budget looked identical to a clean one.

    ``attempts`` counts jobs handed to a worker; ``resumed`` counts
    results served from the checkpoint instead of being re-run;
    ``retries`` counts re-runs granted after a failed attempt
    (``attempts`` = first tries + retries); ``timeouts`` / ``crashes``
    / ``errors`` classify the failed attempts (over-budget, died
    without reporting, raised in-worker); ``completed`` and
    ``failed_jobs`` partition the jobs' terminal outcomes.
    """

    attempts: int = 0
    completed: int = 0
    resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    failed_jobs: int = 0

    def to_dict(self) -> dict[str, int]:
        from dataclasses import asdict

        return asdict(self)


@dataclass(frozen=True)
class SweepJob:
    """One dynamic-simulation point of a sweep.

    The scheme name is checked against :mod:`repro.registry` at
    construction, so a typo, a non-simulable scheme, a destination count
    the topology cannot supply or a fault-injected scheme the fault
    model does not cover fails in the driving process before any worker
    fans out.  ``runner`` selects the driver: ``"dynamic"``
    (:func:`repro.sim.runner.run_dynamic`) or ``"resilient"``
    (:func:`repro.sim.runner.run_resilient`, fault injection + retry)."""

    topology: Topology
    scheme: str
    config: SimConfig
    runner: str = "dynamic"

    def __post_init__(self):
        spec = get_spec(self.scheme)  # raises UnknownSchemeError on typos
        if not spec.simulable:
            raise ValueError(
                f"scheme {self.scheme!r} is {spec.kind} and cannot be "
                f"simulated by the dynamic study"
            )
        if not spec.supports(self.topology):
            raise ValueError(
                f"{spec.name} is not defined on {self.topology} "
                f"(supported families: {', '.join(spec.topologies)})"
            )
        if self.runner not in ("dynamic", "resilient"):
            raise ValueError(
                f"unknown runner {self.runner!r} (expected 'dynamic' or 'resilient')"
            )
        check_workload(self.topology, self.config)
        if self.runner == "resilient":
            check_fault_model(self.scheme)


@dataclass(frozen=True)
class JobFailure:
    """Why one sweep job produced no result."""

    index: int
    job: SweepJob
    error: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"job {self.index} ({self.job.scheme} on {self.job.topology}) "
            f"failed after {self.attempts} attempt(s): {self.error}"
        )


class SweepError(RuntimeError):
    """One or more sweep jobs failed (``on_error="raise"``).

    ``failures`` holds a :class:`JobFailure` per failed job."""

    def __init__(self, failures: Sequence[JobFailure]):
        self.failures = tuple(failures)
        lines = "\n  ".join(str(f) for f in self.failures)
        super().__init__(f"{len(self.failures)} sweep job(s) failed:\n  {lines}")


class NoResultsError(ValueError):
    """Every replication of a sweep point failed, so there is nothing
    to pool.  ``failures`` carries the per-job failure records (empty
    when the caller didn't collect any)."""

    def __init__(self, message: str, failures: Sequence[JobFailure] = ()):
        super().__init__(message)
        self.failures = tuple(failures)


def derive_seed(base_seed: int, run_index: int) -> int:
    """A deterministic, well-mixed seed for replication ``run_index``.

    Splitmix64 finalizer over ``(base_seed, run_index)``; adjacent run
    indices map to unrelated 63-bit seeds, so replications don't share
    low-bit structure the way ``base_seed + i`` would.
    """
    z = (base_seed * 0x9E3779B97F4A7C15 + run_index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


def replicate(config, num_runs: int):
    """``num_runs`` copies of ``config`` — a :class:`SimConfig` or a
    whole :class:`SweepJob` — with deterministic per-run seeds derived
    from the config's seed."""
    if isinstance(config, SweepJob):
        return [
            SweepJob(config.topology, config.scheme, c, config.runner)
            for c in replicate(config.config, num_runs)
        ]
    return [
        config.replace(seed=derive_seed(config.seed, i)) for i in range(num_runs)
    ]


def _normalize(job) -> SweepJob:
    if isinstance(job, SweepJob):
        return job
    topology, scheme, config = job
    return SweepJob(topology, scheme, config)


def _run_job(job: SweepJob):
    # Worker processes receive one pickled (cache-stripped) topology per
    # job; interning maps every equal copy onto one process-local
    # instance so the distance oracle, neighbor tables and labeling are
    # built once per worker rather than once per job.
    topology = canonical_topology(job.topology)
    if job.runner == "resilient":
        return run_resilient(topology, job.scheme, job.config)
    return run_dynamic(topology, job.scheme, job.config)


# ----------------------------------------------------------------------
# Checkpoint (de)serialization.  Results are plain dataclasses of
# floats/ints, so JSONL keeps checkpoints human-inspectable and immune
# to pickle-versioning; every record carries a hash of its job so a
# resume against different jobs skips nothing it shouldn't.
# ----------------------------------------------------------------------


def _job_key(job: SweepJob) -> str:
    """A stable fingerprint of everything that determines a job's
    result (topology identity, scheme, runner, full config)."""
    from dataclasses import asdict

    fields = [repr(job.topology), job.scheme, job.runner, asdict(job.config)]
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _summary_to_json(s: Summary) -> dict:
    return {
        "mean": s.mean,
        "ci_halfwidth": s.ci_halfwidth,
        "num_observations": s.num_observations,
        "num_batches": s.num_batches,
    }


def _result_to_json(result) -> dict:
    if isinstance(result, FaultResult):
        return {
            "type": "fault",
            "latency": _summary_to_json(result.latency),
            "injected_messages": result.injected_messages,
            "deliveries": result.deliveries,
            "sim_time": result.sim_time,
            "worms": result.worms,
            "stats": result.stats.to_dict(),
            "expected_deliveries": result.expected_deliveries,
        }
    if isinstance(result, DynamicResult):
        return {
            "type": "dynamic",
            "latency": _summary_to_json(result.latency),
            "injected_messages": result.injected_messages,
            "deliveries": result.deliveries,
            "sim_time": result.sim_time,
            "worms": result.worms,
        }
    raise TypeError(f"cannot checkpoint result of type {type(result).__name__}")


def _result_from_json(data: dict):
    latency = Summary(**data["latency"])
    if data["type"] == "fault":
        return FaultResult(
            latency=latency,
            injected_messages=data["injected_messages"],
            deliveries=data["deliveries"],
            sim_time=data["sim_time"],
            worms=data["worms"],
            stats=SimStats.from_dict(data["stats"]),
            expected_deliveries=data["expected_deliveries"],
        )
    if data["type"] == "dynamic":
        return DynamicResult(
            latency=latency,
            injected_messages=data["injected_messages"],
            deliveries=data["deliveries"],
            sim_time=data["sim_time"],
            worms=data["worms"],
        )
    raise ValueError(f"unknown checkpoint result type {data['type']!r}")


def _load_checkpoint(path: str, jobs: Sequence[SweepJob]) -> dict:
    """Results recorded for *these* jobs in a previous (possibly
    killed) sweep.  Unparseable or truncated trailing lines — the
    signature of a crash mid-write — are ignored, as are records whose
    job fingerprint doesn't match."""
    done: dict[int, object] = {}
    if not os.path.exists(path):
        return done
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                index = record["index"]
                if not isinstance(index, int):
                    continue
                if 0 <= index < len(jobs) and record["key"] == _job_key(jobs[index]):
                    done[index] = _result_from_json(record["result"])
            except (ValueError, KeyError, TypeError):
                continue
    return done


def _append_checkpoint(fh, index: int, job: SweepJob, result) -> None:
    fh.write(
        json.dumps(
            {"index": index, "key": _job_key(job), "result": _result_to_json(result)}
        )
        + "\n"
    )
    fh.flush()
    os.fsync(fh.fileno())


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------


def run_sweep(
    jobs: Iterable,
    workers: int | None = None,
    *,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint: str | None = None,
    resume: bool = False,
    on_error: str = "raise",
    failures: list | None = None,
    stats: SweepStats | None = None,
) -> list:
    """Run every job (a :class:`SweepJob` or ``(topology, scheme,
    config)`` tuple) and return its result, in job order.

    ``workers`` defaults to ``os.cpu_count()``.  With none of the
    robustness options below, ``workers <= 1`` (or a single job) runs
    serially in-process; every other sweep runs on the worker pool (see
    the module docstring).  Pool execution is bit-for-bit identical to
    serial execution: every simulation is seeded by its own config and
    shares no state with its siblings.

    Robustness options (any of them runs the sweep on the pool, where
    each job's failure is isolated):

    ``timeout``
        per-job wall-clock budget in seconds; over-budget jobs are
        terminated and treated as failed attempts.
    ``retries``
        extra attempts granted to a failed (timed-out or crashed) job.
    ``checkpoint`` / ``resume``
        JSONL file completed results are durably appended to; with
        ``resume=True`` previously recorded results for identical jobs
        are reused instead of re-run.
    ``on_error``
        ``"raise"`` (default): any job still failing after its retries
        raises :class:`SweepError` once the sweep finishes (completed
        work is still checkpointed).  ``"record"``: failed jobs yield
        ``None`` results and a :class:`JobFailure` appended to
        ``failures``.
    ``failures``
        optional list collecting :class:`JobFailure` records under
        either ``on_error`` policy.
    ``stats``
        optional :class:`SweepStats` populated with attempt/retry/
        timeout/crash accounting (pool only).
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"unknown on_error policy {on_error!r}")
    jobs = [_normalize(j) for j in jobs]
    if workers is None:
        workers = os.cpu_count() or 1
    robust = timeout is not None or retries > 0 or checkpoint is not None or resume
    if not robust and (workers <= 1 or len(jobs) <= 1):
        return [_run_job(j) for j in jobs]
    return _run_pooled(
        jobs,
        workers=max(1, workers),
        timeout=timeout,
        retries=max(0, retries),
        checkpoint=checkpoint,
        resume=resume,
        on_error=on_error,
        failures=failures,
        stats=stats if stats is not None else SweepStats(),
    )


def _sweep_job(state: WorkerState, job: SweepJob) -> tuple:
    """The pool handler: ``(True, result)`` or ``(False, message)``.

    ``_run_job`` is looked up when the job runs, in a worker forked
    from the parent, so a patched ``_run_job`` reaches every worker."""
    try:
        return True, _run_job(job)
    except Exception as exc:  # reported as a failed attempt, not a crash
        return False, f"{type(exc).__name__}: {exc}"


def _run_pooled(
    jobs: Sequence[SweepJob],
    *,
    workers: int,
    timeout: float | None,
    retries: int,
    checkpoint: str | None,
    resume: bool,
    on_error: str,
    failures: list | None,
    stats: SweepStats,
) -> list:
    results: dict[int, object] = {}
    failed: dict[int, JobFailure] = {}

    if checkpoint is not None and resume:
        results.update(_load_checkpoint(checkpoint, jobs))
        stats.resumed = len(results)
    pending = [(i, 0) for i in reversed(range(len(jobs))) if i not in results]

    def record_failure(index: int, attempt: int, error: str) -> None:
        if attempt < retries:
            stats.retries += 1
            pending.append((index, attempt + 1))
            return
        failure = JobFailure(index, jobs[index], error, attempt + 1)
        failed[index] = failure
        stats.failed_jobs += 1
        if failures is not None:
            failures.append(failure)

    with contextlib.ExitStack() as exits:
        ckpt_fh = (
            exits.enter_context(open(checkpoint, "a", encoding="utf-8"))
            if checkpoint
            else None
        )
        pool: list[WorkerHandle] = []
        for _ in range(min(workers, len(pending))):
            pool.append(WorkerHandle(_sweep_job))
            exits.callback(pool[-1].shutdown)
        while True:
            for handle in pool:  # pop() from the end yields jobs in order
                if handle.busy is None and pending:
                    index, attempt = pending.pop()
                    handle.send(index, jobs[index])
                    stats.attempts += 1
                    deadline = None if timeout is None else time.monotonic() + timeout
                    handle.busy = (index, attempt, deadline)
            busy = [handle for handle in pool if handle.busy is not None]
            if not busy:
                break
            wait_any(busy, timeout=0.05)
            for handle in busy:
                index, attempt, deadline = handle.busy
                # liveness first: a worker that replied and then died
                # still has its reply in the pipe
                dead = not handle.alive()
                replies = [reply for seq, reply in handle.drain() if seq == index]
                if replies:
                    handle.busy = None
                    ok, payload = replies[0]
                    if ok:
                        results[index] = payload
                        stats.completed += 1
                        if ckpt_fh is not None:
                            _append_checkpoint(ckpt_fh, index, jobs[index], payload)
                    else:
                        stats.errors += 1
                        record_failure(index, attempt, payload)
                elif dead:
                    handle.busy = None
                    exitcode = handle.recycle()
                    stats.crashes += 1
                    record_failure(index, attempt, f"worker died (exit code {exitcode})")
                elif deadline is not None and time.monotonic() > deadline:
                    handle.busy = None
                    handle.recycle()
                    stats.timeouts += 1
                    record_failure(index, attempt, f"timed out after {timeout:g}s")

    if failed and on_error == "raise":
        raise SweepError([failed[i] for i in sorted(failed)])
    return [results.get(i) for i in range(len(jobs))]


def pooled_latency(
    results: Sequence,
    failures: Sequence[JobFailure] = (),
) -> Summary:
    """Pool the latency estimates of independent replications.

    The pooled mean weights each replication by its observation count;
    the confidence halfwidth combines the replications' halfwidths as
    independent estimates (root-sum-square of observation-weighted
    halfwidths).  This is the standard independent-replications
    estimator (Law & Kelton) the dissertation's §7.2 methodology uses
    across CSIM runs.

    ``None`` entries (failed jobs from ``run_sweep(...,
    on_error="record")``) are skipped; if nothing remains a
    :class:`NoResultsError` is raised carrying ``failures`` so callers
    can report *why* the point is empty.
    """
    results = [r for r in results if r is not None]
    if not results:
        raise NoResultsError("no results to pool", failures)
    weights = [r.latency.num_observations for r in results]
    total = sum(weights)
    if total == 0:
        raise NoResultsError(
            "no observations to pool (all replications delivered nothing)",
            failures,
        )
    mean = sum(w * r.latency.mean for w, r in zip(weights, results)) / total
    halfwidth = (
        sqrt(sum((w * r.latency.ci_halfwidth) ** 2 for w, r in zip(weights, results)))
        / total
    )
    return Summary(
        mean=mean,
        ci_halfwidth=halfwidth,
        num_observations=total,
        num_batches=sum(r.latency.num_batches for r in results),
    )
