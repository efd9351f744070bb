"""Fuzz of the serve wire decoder: a Frame or a ProtocolError, nothing else.

Every byte string a client can send must decode to a
:class:`~repro.serve.protocol.Frame` or raise
:class:`~repro.errors.ProtocolError` — both from :func:`parse_body` and
from :func:`read_frame` over a fed ``StreamReader`` — because any other
exception escapes the server's read loop and leaks the session.  Inputs
are any type byte with any body, plus near-valid JSON bodies whose
fields stray just outside the protocol's domain.

The HELLO gets the same treatment one layer up: any ``n_threads`` and
``config`` override dict is refused at admission with ERROR ``bad-hello``
(or ``too-large`` past the memory cap), or yields a session of exactly the
requested thread count that ingests and evaluates without raising.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import AdmissionError, ProtocolError
from repro.machine.topology import dual_xeon_e5_2650
from repro.serve import MappingServer, ServeConfig, TenantSession, protocol
from repro.serve.protocol import EventBatch, Frame, MsgType
from repro.serve.session import SESSION_OVERRIDE_KEYS
from repro.units import PAGE_SIZE

#: JSON values that sit at or past the edge of an int64 field
_EDGE_NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.sampled_from([-(1 << 63) - 1, -(1 << 63), (1 << 63) - 1, 1 << 63]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=8), _EDGE_NUMBERS)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def _events_json_bodies(draw) -> bytes:
    """EVENTS_JSON objects with each field valid, odd, missing or extra."""
    payload = {}
    for key in ("tid", "now_ns"):
        if draw(st.booleans()):
            payload[key] = draw(_JSON_VALUES)
    if draw(st.booleans()):
        payload["vaddrs"] = draw(
            st.one_of(st.lists(_EDGE_NUMBERS, max_size=6), _JSON_VALUES)
        )
    payload.update(draw(st.dictionaries(st.text(max_size=6), _JSON_SCALARS, max_size=2)))
    return json.dumps(payload).encode()


_NEAR_VALID_JSON = st.one_of(
    _events_json_bodies(),
    _JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth),
    st.integers(1, 5_000).map(lambda digits: b'{"tid": 1' + b"0" * digits + b"}"),
)
_JSON_TYPES = st.sampled_from([int(t) for t in MsgType if t is not MsgType.EVENTS])

_INPUTS = st.one_of(
    st.tuples(st.integers(0, 255), st.binary(max_size=256)),
    st.tuples(_JSON_TYPES, _NEAR_VALID_JSON),
    st.tuples(st.just(int(MsgType.EVENTS)), st.binary(max_size=64)),
)


def _read_frame_from(data: bytes):
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_frame(reader)

    return asyncio.run(read())


@given(_INPUTS)
def test_parse_body_yields_frame_or_protocol_error(case):
    type_byte, body = case
    try:
        frame = protocol.parse_body(type_byte, body)
    except ProtocolError:
        return
    assert isinstance(frame, Frame)


@given(_INPUTS, st.booleans())
def test_read_frame_yields_frame_or_protocol_error(case, truncate):
    """A framed input, or the same bytes cut short before the body ends."""
    type_byte, body = case
    data = protocol._HEADER.pack(len(body), type_byte) + body
    if truncate:
        data = data[: len(data) // 2]
    try:
        frame = _read_frame_from(data)
    except ProtocolError:
        return
    if not data:
        assert frame is None
    else:
        assert isinstance(frame, Frame)


@given(st.binary(max_size=64))
def test_read_frame_on_arbitrary_bytes(data):
    try:
        frame = _read_frame_from(data)
    except ProtocolError:
        return
    assert frame is None if not data else isinstance(frame, Frame)


#: an in-domain value for every HELLO config override
_VALID_OVERRIDES = {
    "granularity": st.sampled_from([1, 64, PAGE_SIZE, 1 << 20]),
    "window_ns": st.integers(1, 10**12),
    "table_size": st.integers(1, 1 << 16),
    "eval_every_events": st.integers(1, 64),
    "filter_threshold": st.integers(1, 8),
    "filter_enabled": st.booleans(),
    "filter_hysteresis": st.floats(1.0, 8.0),
    "filter_margin": st.floats(0.0, 4.0),
    "filter_min_events": st.floats(0.0, 256.0),
    "min_improvement": st.floats(0.0, 2.0),
    "remap_cooldown_ns": st.integers(0, 10**9),
    "mapper_stickiness": st.floats(0.0, 2.0),
    "matrix_decay": st.floats(0.0, 1.0, exclude_min=True),
}
_HELLO_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        key: st.one_of(_JSON_VALUES, _VALID_OVERRIDES[key])
        for key in sorted(SESSION_OVERRIDE_KEYS)
    },
)
_MACHINE = dual_xeon_e5_2650()
_SERVER = MappingServer(ServeConfig(shards=2, eval_every_events=32), machine=_MACHINE)
_N_THREADS = st.one_of(_JSON_VALUES, st.integers(2, _MACHINE.n_pus))


@given(_N_THREADS, _HELLO_CONFIGS)
@example(float("inf"), {})  # once escaped admission as OverflowError
@example("16", {})  # once admitted as 16
@example(8.9, {})  # once admitted as 8
def test_hello_config_is_refused_or_runs(n_threads, overrides):
    """ERROR ``bad-hello``/``too-large`` at admission, or a session that runs."""
    hello = {"tenant": "fuzz", "n_threads": n_threads, "config": overrides}
    try:
        tenant, config = _SERVER._admit(hello)
    except AdmissionError as exc:
        assert exc.code in ("bad-hello", "too-large"), exc.code
        return
    assert type(n_threads) is int and config.n_threads == n_threads
    session = TenantSession(tenant, config, _MACHINE)
    shared = np.arange(8, dtype=np.int64) * PAGE_SIZE
    for tid, now_ns in ((0, 1_000), (1, 2_000), (2 % n_threads, 3_000)):
        session.ingest(EventBatch(tid, now_ns, shared + tid))
    session.evaluate(force=True)
