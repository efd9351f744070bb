"""The asyncio mapping daemon: multi-tenant SPCD detection as a service.

One event loop multiplexes every tenant connection.  Each accepted session
gets a dedicated :class:`~repro.serve.session.TenantSession` (share
table, matrix, evaluator) plus two tasks: a *reader* that only splits
each socket read into frames and queues them (a read's EVENTS batches as
one item), and a *processor* that owns all detection work and all writes
on that connection.  Both run on
the one event loop, so the reader runs between the processor's bursts; the
split gives every frame a total order per session — which is what makes
the served decisions replayable offline — and lets the processor answer a
whole burst of batches with one socket write (one CREDIT frame per batch,
all sent together).

Backpressure is layered: admission control refuses sessions past
``max_sessions`` or the per-tenant memory cap; the credit window bounds
how many events a client may have in flight (the server *enforces* it —
overrunning the window is a protocol error, so the ingest queue's memory
is bounded even against a misbehaving client); and the queue itself is
drained strictly FIFO, so accepted events are never dropped — a slow
session throttles its own client and nobody else.

Shutdown (SIGTERM/SIGINT → :meth:`MappingServer.drain`) notifies every
client with a DRAINING frame, waits up to ``drain_grace_s`` for them to
finish, then force-drains the stragglers: queued batches are processed,
a final forced evaluation runs, the session summary (with the final matrix
digest) is flushed to the obs trace, and the process exits 0.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any

from repro.errors import AdmissionError, ConfigurationError, ProtocolError
from repro.machine.topology import Machine, dual_xeon_e5_2650
from repro.obs.events import ServeEnd, ServeSessionEnd, ServeSessionStart, ServeStart
from repro.obs.recorder import NullRecorder, TraceRecorder
from repro.serve import protocol
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import EventBatch, MsgType
from repro.serve.session import SessionConfig, TenantSession, _is_int64

__all__ = ["MappingServer", "ServeConfig"]

#: the :class:`ServeConfig` fields that must be integers (not bools)
_INT_FIELDS = (
    "port",
    "metrics_port",
    "max_sessions",
    "shards",
    "eval_every_events",
    "credit_window",
)

#: slack multiplier on the enforced credit window — absorbs the race where
#: a client sends a batch an instant before our CREDIT frame reaches it
_WINDOW_SLACK = 2

#: the queue item of each control frame a client may send
_CONTROL_KINDS = {MsgType.FLUSH: "flush", MsgType.METRICS: "metrics", MsgType.BYE: "bye"}

#: the most bytes one socket read takes: the ``StreamReader``'s 64 KiB
#: limit, 31 serve-narrow batches.  Taking all it holds (up to ~400 KiB)
#: raised serve-narrow's peak RSS by 1.6 MiB, not measurably its speed
_READ_BYTES = 1 << 16


@dataclass(frozen=True)
class ServeConfig:
    """The daemon's deployment settings, one ``python -m repro.serve``
    flag per field.

    Ill-typed or out-of-range values raise
    :class:`~repro.errors.ConfigurationError` at construction: a zero
    credit window or session cap would start a daemon that refuses every
    tenant, and a fractional shard count would fail each tenant's HELLO.
    """

    #: bind address (``--host``)
    host: str = "127.0.0.1"
    #: data port, 0 binds an ephemeral one (``--port``)
    port: int = 0
    #: plaintext ``/metrics`` HTTP port; ``None`` disables the listener,
    #: 0 binds an ephemeral one (``--metrics-port``)
    metrics_port: "int | None" = None
    #: maximum concurrently admitted sessions (``--max-sessions``)
    max_sessions: int = 64
    #: per-tenant detection-state memory cap in MiB (``--max-table-mb``)
    max_table_mb: float = 64.0
    #: each session's table size is rounded up to a multiple of this
    #: (``--shards``)
    shards: int = 4
    #: events between two mapping evaluations of a session (``--eval-every``)
    eval_every_events: int = 8192
    #: per-client send window in events, the backpressure credit (``--credits``)
    credit_window: int = 65536
    #: seconds a drain waits for clients to finish before force-draining
    #: (``--drain-grace``)
    drain_grace_s: float = 5.0

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (_is_int64(value) or value is None and name == "metrics_port"):
                raise ConfigurationError(f"{name} must be an integer, not {value!r}")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ConfigurationError("metrics_port must be in [0, 65535] (or None)")
        if self.max_sessions < 1:
            raise ConfigurationError("max_sessions must be >= 1")
        if not self.max_table_mb > 0:  # written to reject NaN too
            raise ConfigurationError("max_table_mb must be positive")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.eval_every_events < 1:
            raise ConfigurationError("eval_every_events must be >= 1")
        if self.credit_window < 1:
            raise ConfigurationError("credit_window must be >= 1")
        if not self.drain_grace_s >= 0:
            raise ConfigurationError("drain_grace_s must be >= 0")


class _Connection:
    """Book-keeping of one client connection (reader + processor tasks)."""

    def __init__(
        self,
        session: TenantSession,
        writer: asyncio.StreamWriter,
        credit_window: int,
    ) -> None:
        self.session = session
        self.writer = writer
        self.credit_window = credit_window
        #: events enqueued but not yet credited back — the enforced window
        self.outstanding = 0
        #: FIFO of work items; unbounded, but its content is bounded by the
        #: enforced credit window (plus control sentinels)
        self.queue: "asyncio.Queue[tuple[str, Any]]" = asyncio.Queue()
        #: frames of the burst being processed, written together by the
        #: next :meth:`flush`; the processor flushes before it waits on an
        #: empty queue, so this holds at most one burst
        self.pending: list[bytes] = []
        self.write_lock = asyncio.Lock()
        self.finished = asyncio.Event()
        self.ended = False
        self.reader_task: "asyncio.Task | None" = None
        self.processor_task: "asyncio.Task | None" = None

    async def send(self, data: bytes) -> None:
        """Write the buffered frames, then *data*, in one transport write."""
        self.pending.append(data)
        await self.flush()

    async def flush(self) -> None:
        """Write every buffered frame in one transport write, serialised
        against concurrent writers."""
        async with self.write_lock:
            if self.pending:
                data = b"".join(self.pending)
                self.pending.clear()
                self.writer.write(data)
                await self.writer.drain()


class MappingServer:
    """The SPCD mapping-as-a-service daemon.

    Use as an async context manager or call :meth:`start` / :meth:`drain`
    directly; :meth:`serve_forever` blocks until a drain completes.  All
    policy comes from a :class:`ServeConfig`; the server never reads the
    environment.
    """

    def __init__(
        self,
        config: "ServeConfig | None" = None,
        *,
        machine: "Machine | None" = None,
        recorder: "TraceRecorder | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.machine = machine or dual_xeon_e5_2650()
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.metrics = metrics or MetricsRegistry()
        self._connections: "dict[int, _Connection]" = {}
        self._session_ids = itertools.count(1)
        self._server: "asyncio.base_events.Server | None" = None
        self._metrics_server: "asyncio.base_events.Server | None" = None
        self._draining = False
        self._drained = asyncio.Event()
        self.sessions_served = 0
        self.sessions_refused = 0
        self.events_total = 0
        self.batches_total = 0
        self.remaps_total = 0
        # metric instruments (families created eagerly so /metrics is
        # populated before the first session arrives)
        m = self.metrics
        self._m_sessions = m.gauge("serve_sessions", "live tenant sessions")
        self._m_admitted = m.counter("serve_sessions_admitted_total", "sessions admitted")
        self._m_refused = m.counter("serve_sessions_refused_total", "sessions refused")
        self._m_events = m.counter("serve_events_total", "fault events ingested")
        self._m_batches = m.counter("serve_batches_total", "event batches ingested")
        self._m_remaps = m.counter("serve_remaps_total", "mapping updates pushed")
        self._m_ingest = m.histogram(
            "serve_ingest_seconds", "per-batch detection+evaluation latency"
        )

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket(s) and start accepting sessions."""
        cfg = self.config
        self._server = await asyncio.start_server(
            self._handle_client, host=cfg.host, port=cfg.port
        )
        if cfg.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, host=cfg.host, port=cfg.metrics_port
            )
        self.recorder.emit(
            ServeStart(
                host=cfg.host,
                port=self.port,
                machine=self.machine.name,
                max_sessions=cfg.max_sessions,
                max_table_mb=cfg.max_table_mb,
                shards=cfg.shards,
            )
        )

    @property
    def port(self) -> int:
        """The bound data port (resolves an ephemeral ``port=0`` request)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> "int | None":
        """The bound ``/metrics`` port, or ``None`` when disabled."""
        if self._metrics_server is None or not self._metrics_server.sockets:
            return self.config.metrics_port
        return self._metrics_server.sockets[0].getsockname()[1]

    async def __aenter__(self) -> "MappingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        if not self._drained.is_set():
            await self.drain()

    async def serve_forever(self) -> None:
        """Block until :meth:`drain` completes (call it from a signal handler)."""
        if self._server is None:
            await self.start()
        await self._drained.wait()

    async def drain(self, reason: str = "drain") -> None:
        """Graceful shutdown: notify, wait, force-drain, flush, close."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        connections = list(self._connections.values())
        for conn in connections:
            try:
                await conn.send(protocol.encode(MsgType.DRAINING, {"reason": reason}))
            except (ConnectionError, RuntimeError):
                pass
        if connections:
            waits = [
                asyncio.ensure_future(conn.finished.wait()) for conn in connections
            ]
            _, pending = await asyncio.wait(waits, timeout=self.config.drain_grace_s)
            for task in pending:
                task.cancel()
            for conn in connections:
                if not conn.finished.is_set():
                    conn.queue.put_nowait(("drain", None))
            waits = [
                asyncio.ensure_future(conn.finished.wait()) for conn in connections
            ]
            _, pending = await asyncio.wait(waits, timeout=self.config.drain_grace_s)
            for task in pending:
                task.cancel()
        for conn in connections:
            for task in (conn.reader_task, conn.processor_task):
                if task is not None and not task.done():
                    task.cancel()
        if self._server is not None:
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        self.recorder.emit(
            ServeEnd(
                reason=reason,
                sessions_served=self.sessions_served,
                sessions_refused=self.sessions_refused,
                events_total=self.events_total,
                batches_total=self.batches_total,
                remaps_total=self.remaps_total,
                metrics=self.metrics.snapshot(),
            )
        )
        self.recorder.close()
        self._drained.set()

    # -- admission ----------------------------------------------------------
    def _admit(self, payload: "dict[str, Any]") -> "tuple[str, SessionConfig]":
        cfg = self.config
        if self._draining:
            raise AdmissionError("server is draining", code="draining")
        if len(self._connections) >= cfg.max_sessions:
            raise AdmissionError(
                f"at capacity ({cfg.max_sessions} sessions)", code="at-capacity"
            )
        version = payload.get("version", protocol.PROTOCOL_VERSION)
        if version != protocol.PROTOCOL_VERSION:
            raise AdmissionError(
                f"protocol version {version} unsupported", code="bad-hello"
            )
        tenant = payload.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise AdmissionError("HELLO must carry a tenant name", code="bad-hello")
        n_threads = payload.get("n_threads")
        if not _is_int64(n_threads):
            raise AdmissionError("HELLO must carry an integer n_threads", code="bad-hello")
        if not 2 <= n_threads <= self.machine.n_pus:
            raise AdmissionError(
                f"n_threads must be in [2, {self.machine.n_pus}]", code="bad-hello"
            )
        overrides = payload.get("config", {})
        if not isinstance(overrides, dict):
            raise AdmissionError("HELLO config must be an object", code="bad-hello")
        defaults = SessionConfig(
            n_threads=n_threads,
            shards=cfg.shards,
            eval_every_events=cfg.eval_every_events,
        )
        try:
            session_cfg = SessionConfig.from_overrides(defaults, overrides)
        except Exception as exc:  # noqa: BLE001 - any bad config is a refusal
            raise AdmissionError(f"bad session config: {exc}", code="bad-hello") from exc
        memory_mb = session_cfg.memory_bytes() / (1024 * 1024)
        if memory_mb > cfg.max_table_mb:
            raise AdmissionError(
                f"session needs {memory_mb:.1f} MiB, cap is {cfg.max_table_mb} MiB",
                code="too-large",
            )
        return tenant, session_cfg

    # -- connection handling ------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            frame = await protocol.read_frame(reader)
        except ProtocolError:
            writer.close()
            return
        if frame is None or frame.type is not MsgType.HELLO:
            writer.close()
            return
        try:
            tenant, session_cfg = self._admit(frame.payload)
        except AdmissionError as exc:
            self.sessions_refused += 1
            self._m_refused.inc()
            try:
                await protocol.write_frame(
                    writer,
                    protocol.encode(
                        MsgType.ERROR, {"code": exc.code, "message": str(exc)}
                    ),
                )
            except (ConnectionError, RuntimeError):
                pass
            writer.close()
            return
        session = TenantSession(
            tenant,
            session_cfg,
            self.machine,
            session_id=next(self._session_ids),
            recorder=self.recorder,
        )
        conn = _Connection(session, writer, self.config.credit_window)
        self._connections[session.session_id] = conn
        self.sessions_served += 1
        self._m_admitted.inc()
        self._m_sessions.inc()
        self.recorder.emit(
            ServeSessionStart(
                tenant=session.tenant,
                session_id=session.session_id,
                n_threads=session.config.n_threads,
                table_size=session.config.effective_table_size,
                shards=session.config.shards,
                eval_every_events=session.config.eval_every_events,
                memory_bytes=session.config.memory_bytes(),
            )
        )
        await conn.send(
            protocol.encode(
                MsgType.WELCOME,
                {
                    "session_id": session.session_id,
                    "tenant": session.tenant,
                    "version": protocol.PROTOCOL_VERSION,
                    "credits": self.config.credit_window,
                    "table_size": session.config.effective_table_size,
                    "shards": session.config.shards,
                    "eval_every_events": session.config.eval_every_events,
                },
            )
        )
        conn.processor_task = asyncio.current_task()
        conn.reader_task = asyncio.ensure_future(self._read_loop(reader, conn))
        try:
            await self._process_loop(conn)
        finally:
            if conn.reader_task is not None and not conn.reader_task.done():
                conn.reader_task.cancel()
            self._connections.pop(session.session_id, None)
            self._m_sessions.dec()
            conn.finished.set()
            writer.close()

    async def _read_loop(self, reader: asyncio.StreamReader, conn: _Connection) -> None:
        """Split each socket read into frames and queue them; never writes.

        A read takes what the ``StreamReader`` holds, up to
        :data:`_READ_BYTES`.  Its EVENTS batches go on the queue as one
        ``batches`` item; a control frame, a protocol error or a credit
        overrun is queued after the batches that came before it.
        """
        splitter = protocol.FrameSplitter()
        queue = conn.queue
        while not conn.ended:
            try:
                data = await reader.read(_READ_BYTES)
            except ConnectionError:
                queue.put_nowait(("eof", None))
                return
            except asyncio.CancelledError:
                queue.put_nowait(("eof", None))
                raise
            if not data:
                try:
                    splitter.close()
                except ProtocolError as exc:
                    queue.put_nowait(("error", str(exc)))
                else:
                    queue.put_nowait(("eof", None))
                return
            frames, error = splitter.feed(data)
            batches: list[EventBatch] = []
            for frame in frames:
                if frame.type is MsgType.EVENTS:
                    conn.outstanding += frame.payload.n_events
                    if conn.outstanding > _WINDOW_SLACK * conn.credit_window:
                        error = ProtocolError(
                            "credit window exceeded — client must await CREDIT"
                        )
                        break
                    batches.append(frame.payload)
                    continue
                if batches:
                    queue.put_nowait(("batches", batches))
                    batches = []
                kind = _CONTROL_KINDS.get(frame.type)
                if kind is None:
                    error = ProtocolError(f"unexpected {frame.type.name} frame")
                    break
                queue.put_nowait((kind, frame.payload))
                if kind == "bye":
                    return
            if batches:
                queue.put_nowait(("batches", batches))
            if error is not None:
                queue.put_nowait(("error", str(error)))
                return

    def _ingest_batches(self, conn: _Connection, batches: "list[EventBatch]") -> None:
        """Detect + evaluate each batch inline, in order, and buffer its
        frames: any MAPPING it triggered, then its own CREDIT."""
        time = asyncio.get_running_loop().time
        session = conn.session
        pending = conn.pending
        for batch in batches:
            started = time()
            updates = session.ingest(batch)
            self._m_ingest.observe(time() - started)
            n = batch.n_events
            conn.outstanding -= n
            self.events_total += n
            self.batches_total += 1
            self._m_events.inc(n)
            self._m_batches.inc()
            for update in updates:
                self.remaps_total += 1
                self._m_remaps.inc()
                pending.append(protocol.encode(MsgType.MAPPING, update.to_payload()))
            pending.append(protocol.encode_credit(n))

    async def _flush_session(self, conn: _Connection) -> None:
        """Force one evaluation now and acknowledge the FLUSH."""
        update = conn.session.evaluate(force=True)
        if update is not None:
            self.remaps_total += 1
            self._m_remaps.inc()
            await conn.send(protocol.encode(MsgType.MAPPING, update.to_payload()))
        await conn.send(
            protocol.encode(MsgType.CREDIT, {"events": 0, "ack": "flush"})
        )

    async def _process_loop(self, conn: _Connection) -> None:
        """Own all detection work and all writes for one connection.

        The batches queued when the processor wakes (a burst) are ingested
        with no await between them, and their MAPPING and CREDIT frames
        leave together: the buffer is flushed before the processor waits
        on an empty queue, and ahead of any other frame it sends.
        """
        while True:
            try:
                if conn.queue.empty():
                    await conn.flush()
                kind, payload = await conn.queue.get()
                if kind == "batches":
                    self._ingest_batches(conn, payload)
                elif kind == "flush":
                    await self._flush_session(conn)
                elif kind == "metrics":
                    await conn.send(
                        protocol.encode(
                            MsgType.METRICS_TEXT, {"text": self.metrics.render()}
                        )
                    )
                elif kind == "bye":
                    await self._end_session(conn, reason="bye", notify=True)
                    return
                elif kind == "drain":
                    await self._end_session(conn, reason="drain", notify=True)
                    return
                elif kind == "eof":
                    await conn.flush()  # credit what was processed
                    await self._end_session(conn, reason="disconnect", notify=False)
                    return
                elif kind == "error":
                    try:
                        await conn.send(
                            protocol.encode(
                                MsgType.ERROR,
                                {"code": "protocol", "message": str(payload)},
                            )
                        )
                    except (ConnectionError, RuntimeError):
                        pass
                    await self._end_session(conn, reason="error", notify=False)
                    return
            except ProtocolError as exc:
                try:
                    await conn.send(
                        protocol.encode(
                            MsgType.ERROR, {"code": "protocol", "message": str(exc)}
                        )
                    )
                except (ConnectionError, RuntimeError):
                    pass
                await self._end_session(conn, reason="error", notify=False)
                return
            except (ConnectionError, RuntimeError):
                await self._end_session(conn, reason="disconnect", notify=False)
                return

    async def _end_session(self, conn: _Connection, reason: str, notify: bool) -> None:
        """Terminal transition of one session: final evaluation, summary
        flush, trace event — once per session (later calls are no-ops)."""
        if conn.ended:
            return
        conn.ended = True
        session = conn.session
        if reason in ("bye", "drain"):
            update = session.evaluate(force=True)
            if update is not None and notify:
                self.remaps_total += 1
                self._m_remaps.inc()
                try:
                    await conn.send(
                        protocol.encode(MsgType.MAPPING, update.to_payload())
                    )
                except (ConnectionError, RuntimeError):
                    notify = False
        summary = session.summary()
        summary["reason"] = reason
        if notify:
            try:
                await conn.send(protocol.encode(MsgType.SUMMARY, summary))
            except (ConnectionError, RuntimeError):
                pass
        self.recorder.emit(
            ServeSessionEnd(
                tenant=session.tenant,
                session_id=session.session_id,
                reason=reason,
                events=session.events_seen,
                batches=session.batches_seen,
                comm_events=session.comm_events,
                windowed_out=session.windowed_out,
                evaluations=session.evaluator.evaluations,
                remaps=session.evaluator.remaps,
                matrix_digest=session.final_digest(),
                mapping=[int(p) for p in session.evaluator.current],
            )
        )

    # -- /metrics -----------------------------------------------------------
    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.0 responder: any GET gets the plaintext exposition."""
        try:
            await asyncio.wait_for(reader.readline(), timeout=5.0)
            body = self.metrics.render().encode("utf-8")
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
