"""A caller cancelling its :meth:`RouteService.submit` future must not
stop the service: the request still resolves (and is counted) exactly
once, later requests are routed normally, and shutting down with a
cancelled request in flight raises nothing in the dispatcher."""

from __future__ import annotations

import threading
import time

from repro.service import ChaosPlan, RouteRequest, RouteService, ServiceConfig


def _request(request_id: int, dest=(3, 3)) -> RouteRequest:
    return RouteRequest(request_id, "mesh:4x4", "dual-path", (0, 0), (dest,))


def _assert_reconciled(report: dict, submitted: int) -> None:
    counters = report["counters"]
    assert report["outstanding"] == 0
    assert counters["submitted"] == counters["completed"] == submitted
    assert (
        counters["succeeded"] + counters["degraded"] + counters["failed"]
        == counters["completed"]
    )


def test_cancelled_future_does_not_stop_the_service():
    with RouteService(ServiceConfig(workers=1)) as svc:
        first = svc.submit(_request(1))
        assert first.cancel()  # still queued: nothing has resolved it yet
        later = [svc.submit(_request(2, (2, 3))), svc.submit(_request(3, (3, 1)))]
        responses = [future.result(timeout=30) for future in later]
        assert [r.ok for r in responses] == [True, True], responses
        report = svc.drain(timeout=30)
    _assert_reconciled(report, submitted=3)
    assert report["counters"]["failed"] == 0


def test_shutdown_with_cancelled_request_in_flight_is_clean(monkeypatch):
    """The daemon-shutdown path: asyncio teardown cancels a pending
    answer, then the dispatcher resolves that request ``shutdown``."""
    errors: list = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    plan = ChaosPlan(seed=1, stall_rate=1.0)  # the worker never answers
    svc = RouteService(ServiceConfig(workers=1, chaos=plan)).start()
    future = svc.submit(_request(1))
    deadline = time.monotonic() + 10
    while svc.report()["counters"]["chaos_stalls"] == 0:
        assert time.monotonic() < deadline, "request never dispatched"
        time.sleep(0.005)
    assert future.cancel()
    svc.close()
    assert errors == []
    _assert_reconciled(svc.report(), submitted=1)
    assert svc.report()["errors"] == {"shutdown": 1}
