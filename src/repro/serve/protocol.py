"""Wire protocol of the mapping service: length-prefixed framed messages.

Every frame is ``!IB`` — a 4-byte big-endian body length and a 1-byte
message type — followed by the body.  Control messages carry a JSON object;
the hot-path :data:`MsgType.EVENTS` frame carries a struct-packed fault
event batch (``!qqI`` header: thread id, virtual timestamp, event count,
then ``count`` big-endian int64 virtual addresses), so a tenant streaming
hundreds of thousands of events never pays JSON encoding on the data path.
A JSON spelling of the same batch (:data:`MsgType.EVENTS_JSON`) exists for
hand-rolled clients.

Flow control is credit-based: :data:`MsgType.WELCOME` grants the client an
initial window of *events* it may have in flight; every processed batch is
acknowledged with a :data:`MsgType.CREDIT` frame returning its event count
to the window.  A client that exhausts its credits must stop sending and
read frames until credits arrive — the server therefore never buffers more
than one window per tenant, and a slow tenant is throttled (its sender
blocks) rather than having events dropped silently.

Both a blocking-socket and an asyncio spelling of the frame I/O live here
so the sync client, the async client and the server share one codec.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "EventBatch",
    "Frame",
    "FrameSplitter",
    "MAX_FRAME_BYTES",
    "MsgType",
    "PROTOCOL_VERSION",
    "decode_events",
    "encode",
    "encode_credit",
    "encode_events",
    "events_body",
    "parse_body",
    "read_frame",
    "recv_frame",
    "send_frame",
    "write_frame",
]

#: bump on incompatible framing/semantics changes; HELLO carries it
PROTOCOL_VERSION = 1

#: hard cap on one frame's body — a malformed length prefix must not make
#: the receiver allocate unbounded memory
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct("!IB")
_EVENTS_HEADER = struct.Struct("!qqI")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class MsgType(IntEnum):
    """Frame type byte."""

    HELLO = 1  # client -> server: open a session (JSON)
    WELCOME = 2  # server -> client: session accepted, initial credits (JSON)
    EVENTS = 3  # client -> server: struct-packed fault event batch
    EVENTS_JSON = 4  # client -> server: JSON fault event batch
    CREDIT = 5  # server -> client: events returned to the send window (JSON)
    MAPPING = 6  # server -> client: new thread->PU mapping decision (JSON)
    FLUSH = 7  # client -> server: force an evaluation now (JSON)
    BYE = 8  # client -> server: done streaming, drain me (JSON)
    SUMMARY = 9  # server -> client: final session summary (JSON)
    ERROR = 10  # server -> client: refusal / protocol violation (JSON)
    DRAINING = 11  # server -> client: server is shutting down (JSON)
    METRICS = 12  # client -> server: request a metrics snapshot (JSON)
    METRICS_TEXT = 13  # server -> client: plaintext metrics exposition (JSON)


_CREDIT, _EVENTS = int(MsgType.CREDIT), int(MsgType.EVENTS)


@dataclass(frozen=True)
class EventBatch:
    """One tenant thread's fault events at one point in virtual time.

    Mirrors the shape of :class:`repro.mem.fault.FaultBatch` — one thread,
    one timestamp, a vector of faulting virtual addresses — so a batch can
    be replayed through the offline detection engine unchanged.
    """

    tid: int
    now_ns: int
    vaddrs: np.ndarray

    @property
    def n_events(self) -> int:
        """Number of fault events in the batch."""
        return int(self.vaddrs.size)


@dataclass(frozen=True)
class Frame:
    """One decoded frame: its type and its parsed payload."""

    type: MsgType
    payload: Any  # dict for JSON bodies, EventBatch for EVENTS


# -- encoding ---------------------------------------------------------------
def encode(msg_type: MsgType, payload: "dict[str, Any] | None" = None) -> bytes:
    """Encode a JSON-bodied frame."""
    body = json.dumps(payload or {}, separators=(",", ":")).encode("utf-8")
    return _frame(msg_type, body)


def encode_credit(n: int) -> bytes:
    """The CREDIT frame returning *n* events to the window.

    The bytes of ``encode(MsgType.CREDIT, {"events": n})`` for an integer
    *n*, filled into a byte template instead of going through the JSON
    encoder: the server sends one per ingested batch.
    """
    body = b'{"events":%d}' % n
    return _HEADER.pack(len(body), _CREDIT) + body


def events_body(tid: int, now_ns: int, vaddrs: np.ndarray) -> bytes:
    """The struct-packed body of an EVENTS frame (header + big-endian i64s)."""
    vaddrs = np.ascontiguousarray(np.asarray(vaddrs, dtype=np.int64))
    body = _EVENTS_HEADER.pack(int(tid), int(now_ns), int(vaddrs.size))
    return body + vaddrs.astype(">i8", copy=False).tobytes()


def encode_events(tid: int, now_ns: int, vaddrs: np.ndarray) -> bytes:
    """Encode a fault event batch as a struct-packed EVENTS frame."""
    return _frame(MsgType.EVENTS, events_body(tid, now_ns, vaddrs))


def _frame(msg_type: MsgType, body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds the cap")
    return _HEADER.pack(len(body), int(msg_type)) + body


# -- decoding ---------------------------------------------------------------
def decode_events(body: "bytes | memoryview") -> EventBatch:
    """Decode the body of a struct-packed EVENTS frame (vectorised).

    The address vector is read in one ``np.frombuffer`` over the body with
    a single ``astype`` to native byte order.  Accepts any buffer
    (``bytes`` or a ``memoryview``).
    """
    if len(body) < _EVENTS_HEADER.size:
        raise ProtocolError("truncated EVENTS frame")
    tid, now_ns, n = _EVENTS_HEADER.unpack_from(body)
    carried = len(body) - _EVENTS_HEADER.size
    if carried != 8 * n:
        raise ProtocolError(f"EVENTS frame declares {n} events, carries {carried} bytes")
    vaddrs = np.frombuffer(body, dtype=">i8", offset=_EVENTS_HEADER.size).astype(np.int64)
    return EventBatch(tid=tid, now_ns=now_ns, vaddrs=vaddrs)


def parse_body(type_byte: int, body: "bytes | bytearray") -> Frame:
    """Parse a raw ``(type, body)`` pair into a typed :class:`Frame`."""
    if type_byte == _EVENTS:
        return Frame(MsgType.EVENTS, decode_events(body))
    try:
        msg_type = MsgType(type_byte)
    except ValueError as exc:
        raise ProtocolError(f"unknown frame type {type_byte}") from exc
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer
        # literals; RecursionError a pathologically nested body.
        raise ProtocolError(f"bad JSON body in {msg_type.name} frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"{msg_type.name} body must be a JSON object")
    if msg_type is MsgType.EVENTS_JSON:
        return Frame(MsgType.EVENTS, _events_from_json(payload))
    return Frame(msg_type, payload)


def _events_from_json(payload: "dict[str, Any]") -> EventBatch:
    """The EVENTS_JSON batch, held to the binary ``!qqI`` header's domain:
    int64 ``tid`` and ``now_ns``, and a flat list of int64 addresses."""
    try:
        tid = int(payload["tid"])
        now_ns = int(payload["now_ns"])
        vaddrs = payload["vaddrs"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad EVENTS_JSON payload: {exc}") from exc
    if not (_INT64_MIN <= tid <= _INT64_MAX and _INT64_MIN <= now_ns <= _INT64_MAX):
        raise ProtocolError("bad EVENTS_JSON payload: tid and now_ns must fit in int64")
    if not isinstance(vaddrs, list) or not all(
        type(v) is int and _INT64_MIN <= v <= _INT64_MAX for v in vaddrs
    ):
        raise ProtocolError("bad EVENTS_JSON payload: vaddrs must be a flat list of int64")
    return EventBatch(tid=tid, now_ns=now_ns, vaddrs=np.asarray(vaddrs, dtype=np.int64))


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")


class FrameSplitter:
    """Frames out of a byte stream that arrives in pieces of any size.

    :meth:`feed` takes what one socket read returned and parses every frame
    it completes, in stream order, through :func:`parse_body`; the bytes of
    an unfinished frame wait in a ``bytearray`` that later pieces extend,
    so a frame that spans many reads costs time in proportion to its size.
    A frame's declared length is checked against :data:`MAX_FRAME_BYTES`
    as soon as its 5-byte header is present.  :meth:`close` marks the end
    of the stream.  Fed the same bytes cut anywhere, it yields the frames,
    and the :class:`~repro.errors.ProtocolError`, that :func:`read_frame`
    calls would.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> "tuple[list[Frame], ProtocolError | None]":
        """The frames *data* completes, and the error that stopped the
        split (``None`` if none did).

        The frames come before the error in the stream; after an error the
        splitter must not be fed again.
        """
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        frames: list[Frame] = []
        start, end = 0, len(data)
        while end - start >= _HEADER.size:
            length, type_byte = _HEADER.unpack_from(data, start)
            stop = start + _HEADER.size + length
            try:
                _check_length(length)
                if stop > end:
                    break
                frames.append(parse_body(type_byte, data[start + _HEADER.size : stop]))
            except ProtocolError as exc:
                return frames, exc
            start = stop
        if data is buffer:
            del buffer[:start]
        else:  # whole frames were parsed straight from *data*; keep the rest
            buffer += memoryview(data)[start:]
        return frames, None

    def close(self) -> None:
        """End of stream: raise :class:`~repro.errors.ProtocolError` if it
        fell inside a frame."""
        if len(self._buffer) >= _HEADER.size:
            raise ProtocolError("connection closed before frame body")
        if self._buffer:
            raise ProtocolError("connection closed mid-header")


# -- blocking-socket I/O ----------------------------------------------------
def send_frame(sock: socket.socket, data: bytes) -> None:
    """Send one already-encoded frame over a blocking socket."""
    sock.sendall(data)


def _recv_exact(sock: socket.socket, n: int) -> "bytes | None":
    """Read exactly *n* bytes; ``None`` on a clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> "Frame | None":
    """Read and parse one frame; ``None`` on a clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, type_byte = _HEADER.unpack(header)
    _check_length(length)
    body = _recv_exact(sock, length) if length else b""
    if length and body is None:
        raise ProtocolError("connection closed before frame body")
    return parse_body(type_byte, body or b"")


# -- asyncio I/O ------------------------------------------------------------
async def write_frame(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Write one already-encoded frame and drain the transport."""
    writer.write(data)
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> "Frame | None":
    """Read and parse one frame; ``None`` on a clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    length, type_byte = _HEADER.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed before frame body") from exc
    return parse_body(type_byte, body)
