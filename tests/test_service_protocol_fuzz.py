"""Fuzzing the service's request decoder: every JSON line either decodes
to a request whose deadline can fire, or raises :class:`ProtocolError`
— never another exception type that would drop the connection.

Numbers are the sharp edge: ``1e400`` overflows ``int()``, and ``NaN``
or ``Infinity`` deadlines would never expire."""

from __future__ import annotations

import json
import math
import os
import socket
import tempfile
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import RouteRequest, ServiceConfig
from repro.service.protocol import ProtocolError, decode_line, encode_line
from repro.service.server import serve

_FIELDS = ("request_id", "topology", "scheme", "source", "destinations", "budget", "deadline")

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | st.sampled_from(["1e400", "nan", "inf", "-1", "0", "mesh:4x4", "dual-path"])
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
_valid = {
    "request_id": 1,
    "topology": "mesh:4x4",
    "scheme": "dual-path",
    "source": [0, 0],
    "destinations": [[3, 3]],
}
# a mostly well-formed request with some fields replaced or dropped
_requests = st.fixed_dictionaries(
    {},
    optional={name: _values for name in _FIELDS} | {"op": st.just("route")},
).map(lambda over: {**_valid, **over})


def _decode(line: str) -> RouteRequest:
    return RouteRequest.from_json(decode_line(line))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_requests, _values).map(json.dumps))
@example(json.dumps({**_valid, "budget": 1e400}))
@example(json.dumps({**_valid, "request_id": 1e400}))
@example(json.dumps({**_valid, "deadline": float("nan")}))
@example(json.dumps({**_valid, "deadline": float("inf")}))
@example(json.dumps({**_valid, "deadline": 10**400}))
@example('{"request_id": ' + "9" * 5000 + "}")
def test_decoder_raises_only_protocol_error(line):
    try:
        request = _decode(line)
    except ProtocolError:
        return
    assert request.deadline is None or (
        math.isfinite(request.deadline) and request.deadline > 0
    )


@pytest.mark.parametrize("deadline", [float("nan"), float("inf"), -float("inf"), 0, -1.5])
def test_unusable_deadline_rejected(deadline):
    with pytest.raises(ProtocolError, match="deadline"):
        _decode(json.dumps({**_valid, "deadline": deadline}))


def test_finite_deadline_kept():
    assert _decode(json.dumps({**_valid, "deadline": 0.25})).deadline == 0.25


def test_overflowing_number_answered_on_the_same_connection():
    """A valid request followed by ``"budget": 1e400`` on one connection:
    the valid one gets its route, the bad one a ``bad-request`` line,
    and the connection stays usable."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "route.sock")
        server = threading.Thread(
            target=serve, args=(path,), kwargs={"config": ServiceConfig(workers=1)},
            daemon=True,
        )
        server.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(path):
            assert time.monotonic() < deadline, "socket never appeared"
            time.sleep(0.01)
        with socket.socket(socket.AF_UNIX) as sock:
            sock.connect(path)
            sock.settimeout(30)
            stream = sock.makefile("rwb")
            stream.write(encode_line({**_valid, "request_id": 1}))
            stream.write(b'{"request_id": 2, "topology": "mesh:4x4", '
                         b'"scheme": "dual-path", "source": [0, 0], '
                         b'"destinations": [[3, 3]], "budget": 1e400}\n')
            stream.write(encode_line({"op": "ping", "request_id": 3}))
            stream.flush()
            replies = {}
            while len(replies) < 3:
                reply = json.loads(stream.readline())
                replies[reply["request_id"]] = reply
            stream.write(encode_line({"op": "shutdown"}))
            stream.flush()
            stream.readline()
        server.join(timeout=15)
    assert replies[1]["ok"] is True
    assert replies[2]["ok"] is False and replies[2]["error"] == "bad-request"
    assert replies[3]["ok"] is True
