"""Tests for the shared worker pool (:mod:`repro.workers`) that both the
sweep runner and the routing service run on: the job round trip, death
and exit codes, recycling a hung worker, the no-misrouted-reply
property of the worker-heartbeat model, and worker reuse by sweeps."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.parallel import SweepJob, replicate, run_sweep
from repro.sim import SimConfig
from repro.topology import Mesh2D
from repro.workers import NO_REPLY, WorkerHandle


def _handler(state, job):
    """Test handler: ``("echo", x)`` replies ``(pid, x)``; ``("exit",
    code)`` dies via ``os._exit``; ``("hang", s)`` sleeps; ``("mute",
    _)`` replies nothing."""
    op, arg = job
    if op == "exit":
        os._exit(arg)
    if op == "hang":
        time.sleep(arg)
    if op == "mute":
        return NO_REPLY
    return os.getpid(), arg


def _collect(handle, seq=None, timeout=10.0):
    """The first reply (optionally for ``seq``) within ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for got, reply in handle.drain():
            if seq is None or got == seq:
                return got, reply
        time.sleep(0.005)
    raise AssertionError("no reply from the worker")


@pytest.fixture
def handle():
    handle = WorkerHandle(_handler)
    yield handle
    handle.shutdown()


def test_job_round_trip(handle):
    assert handle.send(1, ("echo", "a"))
    assert _collect(handle) == (1, (handle.process.pid, "a"))
    # the worker is persistent: a second job runs in the same process
    assert handle.send(2, ("echo", "b"))
    assert _collect(handle) == (2, (handle.process.pid, "b"))
    assert handle.alive()


def test_worker_exit_code_is_reported(handle):
    handle.send(1, ("exit", 42))
    handle.process.join(10)
    assert not handle.alive()
    assert handle.drain() == []
    assert handle.recycle() == 42
    assert handle.alive()


def test_recycle_after_missed_deadline_gives_fresh_worker(handle):
    old_pid = handle.process.pid
    handle.send(1, ("hang", 60))
    time.sleep(0.2)
    assert handle.drain() == []  # deadline missed: no reply yet
    assert handle.alive()  # busy, not dead: heartbeats keep coming
    assert handle.recycle() == -9  # SIGKILL
    assert handle.process.pid != old_pid
    assert handle.alive()
    handle.send(2, ("echo", "after"))
    assert _collect(handle) == (2, (handle.process.pid, "after"))


def test_buffered_reply_never_delivered_after_reclaim(handle):
    """The worker-heartbeat model's ``no-misrouted-reply`` property on
    the real pool: a reply sitting unread in the pipe when its worker is
    SIGKILLed and recycled never reaches the owner afterwards."""
    handle.send(1, ("echo", "stale"))
    deadline = time.monotonic() + 10
    # wait for the reply to be buffered, without reading it
    while not handle.conn.poll(0.01):
        assert time.monotonic() < deadline, "reply never buffered"
    handle.recycle()
    handle.send(2, ("echo", "fresh"))
    seen = []
    deadline = time.monotonic() + 10
    while not any(seq == 2 for seq, _ in seen):
        assert time.monotonic() < deadline, "no reply after reclaim"
        seen += handle.drain()
        time.sleep(0.005)
    assert seen == [(2, (handle.process.pid, "fresh"))]


def test_no_reply_is_sent_for_muted_jobs(handle):
    handle.send(1, ("mute", None))
    handle.send(2, ("echo", "x"))
    assert _collect(handle) == (2, (handle.process.pid, "x"))


def test_heartbeats_refresh_last_heartbeat(handle):
    before = handle.last_heartbeat
    time.sleep(0.2)
    handle.drain()
    assert handle.last_heartbeat > before


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs procfs")
def test_orphaned_worker_exits():
    """An owner killed without shutting its pool down (``kill -9`` of a
    sweep) leaves no worker behind."""
    script = (
        "import os\n"
        "from repro.workers import WorkerHandle\n"
        "handle = WorkerHandle(lambda state, job: job)\n"
        "print(handle.process.pid, flush=True)\n"
        "os._exit(0)\n"
    )
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    owner = subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
    )
    with owner:
        pid = int(owner.stdout.readline())
        owner.wait(timeout=60)
    deadline = time.monotonic() + 10
    while _running(pid):
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            pytest.fail(f"worker {pid} outlived its owner")
        time.sleep(0.02)


def test_clean_sweep_reuses_one_worker_per_slot(monkeypatch):
    """Six jobs on two slots run in at most two worker processes, none
    of them the parent."""
    import repro.parallel as parallel

    monkeypatch.setattr(parallel, "_run_job", lambda job: os.getpid())
    jobs = replicate(SweepJob(Mesh2D(4, 4), "dual-path", SimConfig(seed=1)), 6)
    pids = run_sweep(jobs, workers=2)
    assert len(pids) == 6
    assert len(set(pids)) <= 2
    assert os.getpid() not in pids
