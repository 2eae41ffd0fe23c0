"""One supervised worker pool, shared by the sweep runner and the
routing service.

Both :func:`repro.parallel.run_sweep` and
:class:`repro.service.RouteService` fan jobs out to persistent forked
worker processes and must survive those workers crashing, hanging or
being killed.  This module is the only place that process lifecycle
lives:

* :func:`worker_main` — the child loop: receive ``(seq, job)`` over
  the worker's own :class:`~multiprocessing.Pipe`, run the owner's
  handler, send ``("res", seq, reply)``; a daemon thread streams
  ``("hb", n)`` heartbeats so the owner can tell a *hung* worker
  (stale heartbeats) from a *busy* one (fresh heartbeats, no reply)
  from a *dead* one (process gone / broken pipe);
* :class:`WorkerHandle` — the parent side: ``spawn`` / ``send`` /
  ``drain`` / ``alive`` / ``recycle`` / ``shutdown``.

Why a pipe per worker instead of one shared queue: workers get
SIGKILLed mid-job, and a kill landing mid-``put`` on a shared queue can
corrupt it for everyone.  A per-worker pipe confines the damage to the
one worker, and :meth:`WorkerHandle.recycle` closes that pipe before
respawning, so a reply the dead worker had already buffered can never
be read back and matched to a later job.  ``Connection.send`` writes
the whole message before returning, so a worker that replies and then
dies leaves its reply readable: check :meth:`~WorkerHandle.alive`
*before* :meth:`~WorkerHandle.drain` to tell "finished, then died"
from a crash.

A handler is called as ``handler(state, job)`` with the worker's
:class:`WorkerState`; it returns the reply, or :data:`NO_REPLY` to send
nothing.  An exception out of a handler kills its worker, which the
owner then sees as a death.  Workers are forked, so each one (a
respawned one too) runs with its parent's module state as of its
spawn.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections.abc import Callable, Iterable
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext

__all__ = [
    "NO_REPLY",
    "Handler",
    "WorkerHandle",
    "WorkerState",
    "fork_context",
    "wait_any",
    "worker_main",
]

#: handler return value meaning "send no reply for this job"
NO_REPLY: Any = object()


class WorkerState:
    """A handler's view of its own worker process: ``cache`` keeps warm
    state across the worker's jobs; clearing ``heartbeating`` silences
    the heartbeat stream (a wedged worker, as the owner will see it)."""

    def __init__(self) -> None:
        self.cache: dict[Any, Any] = {}
        self.heartbeating = threading.Event()
        self.heartbeating.set()


Handler = Callable[[WorkerState, Any], Any]


def fork_context() -> BaseContext:
    """Prefer fork (cheap, no re-import) where available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def worker_main(
    conn: Connection, handler: Handler, heartbeat_interval: float, owner: int
) -> None:
    """The child-process loop: heartbeat thread + recv/handle/send.

    Returns if the pipe closes.  The worker holds a copy of its owner's
    pipe end, so it sees no EOF when the owner dies; instead the
    heartbeat thread exits the process once the parent pid is no longer
    ``owner`` (taken before the fork).  Every other exit is a death the
    owner detects."""
    state = WorkerState()
    send_lock = threading.Lock()  # Connection.send is not thread-safe
    stop = threading.Event()

    def beat() -> None:
        n = 0
        while not stop.is_set():
            if os.getppid() != owner:
                os._exit(1)  # orphaned: nobody will read or reap us
            if state.heartbeating.is_set():
                n += 1
                try:
                    with send_lock:
                        conn.send(("hb", n))
                except OSError:
                    return  # owner side gone
            time.sleep(heartbeat_interval)

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            try:
                seq, job = conn.recv()
            except (EOFError, OSError):
                return
            reply = handler(state, job)
            if reply is NO_REPLY:
                continue
            try:
                with send_lock:
                    conn.send(("res", seq, reply))
            except OSError:
                return
    finally:
        stop.set()


class WorkerHandle:
    """The owner's side of one persistent worker process.

    ``busy`` is the owner's record of the job in flight (``None`` when
    idle); the handle never reads it.  ``last_heartbeat`` is the
    monotonic time of the last message :meth:`drain` saw."""

    def __init__(self, handler: Handler, heartbeat_interval: float = 0.05) -> None:
        self._ctx = fork_context()
        self._handler = handler
        self._heartbeat_interval = heartbeat_interval
        self.busy: Any = None
        self.spawn()

    def spawn(self) -> None:
        parent, child = self._ctx.Pipe()
        self.conn = parent
        self.process = self._ctx.Process(
            target=worker_main,
            args=(child, self._handler, self._heartbeat_interval, os.getpid()),
            daemon=True,
        )
        self.process.start()
        child.close()  # the parent keeps only its end, so EOF detection works
        self.last_heartbeat = time.monotonic()
        self.broken = False

    def send(self, seq: int, job: Any) -> bool:
        """Hand the worker one job; ``False`` if its pipe is broken."""
        try:
            self.conn.send((seq, job))
        except OSError:
            self.broken = True
            return False
        return True

    def drain(self) -> list[tuple[int, Any]]:
        """Every ``(seq, reply)`` buffered in the pipe, in order; any
        message, heartbeat or reply, refreshes ``last_heartbeat``."""
        replies: list[tuple[int, Any]] = []
        try:
            while self.conn.poll():
                message = self.conn.recv()
                self.last_heartbeat = time.monotonic()
                if message[0] == "res":
                    replies.append((message[1], message[2]))
        except (EOFError, OSError):
            self.broken = True
        return replies

    def alive(self) -> bool:
        return not self.broken and self.process.is_alive()

    def shutdown(self) -> int | None:
        """SIGKILL the worker (if still alive), reap it and close its
        pipe; returns its exit code."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()
        return self.process.exitcode

    def recycle(self) -> int | None:
        """Shut the worker down (anything it buffered in the pipe dies
        with it) and spawn a fresh one; returns the old exit code."""
        exitcode = self.shutdown()
        self.spawn()
        return exitcode


def wait_any(handles: Iterable[WorkerHandle], timeout: float) -> None:
    """Block until one of ``handles`` has a message or has died, or
    ``timeout`` seconds pass."""
    wait([obj for h in handles for obj in (h.conn, h.process.sentinel)], timeout)
