"""The ``serve-narrow`` and ``serve-wide`` workloads: load on the mapping service.

A benchmark-owned launcher starts the public ``MappingServer`` in its own
process (:mod:`server_main`), so the load generator — this process, one
thread, one asyncio loop, two connections — never shares a core or the
interpreter lock with it.  Each tenant streams
:func:`~repro.serve.client.synthetic_fault_stream` (the far-pair pattern)
as struct-packed EVENTS frames.

A run has an untimed warm-up session, then two timed phases, each on
fresh sessions of both tenants:

* **closed loop** — each connection keeps its credit window full; the
  credited events per second are the service's capacity;
* **open loop** — batches are due at one fixed offered rate below that
  capacity, alternating between the connections, and each batch is timed
  from its due time to the CREDIT that acknowledges it.

Every session is then replayed through ``offline_reference``: its final
matrix digest and mapping must match the server's SUMMARY, and every sent
event must have been credited.

Host time is also given in reference seconds (:mod:`hostspeed`): the
closed loop's by the probes the server process timed during it, each
set-up's by probes this process times right before the spawn and right
after the last HELLO is admitted.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import selectors
import subprocess
import sys
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

import hostspeed
from repro.serve import SessionConfig, offline_reference, protocol, synthetic_fault_stream
from repro.serve.protocol import MsgType
from layers import client_targets
from server_main import CONFIG, MACHINES
from tracer import Tracer

HERE = Path(__file__).resolve().parent

BATCH_EVENTS = 256
#: the session overrides every tenant sends in its HELLO (a 10k-slot table
#: keeps the 256-thread tenant under the server's 64 MiB admission cap)
OVERRIDES = {"table_size": 10_000}
#: set-up samples per run: the main server plus set-up-only spawns
SETUP_SAMPLES = 3
#: batches every tenant sends in the untimed warm-up session
WARMUP_BATCHES = 64


@dataclass(frozen=True)
class ServeWorkload:
    """One traffic mix: the machine model, tenants and open-loop rate."""

    name: str
    machine: str
    #: threads of each tenant (one connection per tenant)
    tenants: "tuple[int, ...]"
    #: nominal closed-loop capacity, events per second over both
    #: connections; it only sizes the closed loop's fixed amount of work
    closed_events_per_s: float
    #: open-loop offered rate, events per second over both connections
    offered_events_per_s: float


WORKLOADS = {
    "serve-narrow": ServeWorkload("serve-narrow", "narrow", (8, 8), 160_000.0, 60_000.0),
    "serve-wide": ServeWorkload("serve-wide", "wide", (64, 256), 70_000.0, 30_000.0),
}


# -- server process ---------------------------------------------------------
def _read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """One line of the child's stdout, or an error after *timeout_s*."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout_s):
            raise RuntimeError("server process did not answer in time")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"server process exited (code {proc.poll()})")
    return line


class ServerProcess:
    """A ``server_main`` child: spawn, port, stop, report."""

    def __init__(self, machine: str, trace: bool, spans: "Path | None" = None) -> None:
        cmd = [sys.executable, str(HERE / "server_main.py"), "--machine", machine]
        cmd += ["--trace", str(int(trace))]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.spawned_at = perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.port = int(json.loads(_read_line(self.proc, 120.0))["port"])
        except BaseException:
            self.kill()
            raise

    def stop(self) -> "dict[str, Any]":
        """Ask the server to drain; return its report line."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            report = json.loads(_read_line(self.proc, 120.0))
            self.proc.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the child has ended (no-op once it exited)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


# -- one tenant connection ----------------------------------------------------
@dataclass(repr=False)
class Tenant:
    """One connection's session state, driven by a reader task."""

    name: str
    n_threads: int
    seed: int
    reader: "asyncio.StreamReader | None" = None
    writer: "asyncio.StreamWriter | None" = None
    credits: int = 0
    sent_events: int = 0
    sent_batches: int = 0
    credited_events: int = 0
    credited_batches: int = 0
    #: due time of every batch still waiting for its CREDIT
    pending: "deque[float]" = field(default_factory=deque)
    #: ``(credit time, due time, events)`` of every credited batch
    acks: "list[tuple[float, float, int]]" = field(default_factory=list)
    mappings: "list[dict[str, Any]]" = field(default_factory=list)
    errors: "list[str]" = field(default_factory=list)
    summary: "dict[str, Any] | None" = None
    credit_event: asyncio.Event = field(default_factory=asyncio.Event)
    task: "asyncio.Task | None" = None
    #: the session's batches, ``(tid, now_ns, vaddrs)``, and their frames
    batches: "list[tuple[int, int, np.ndarray]]" = field(default_factory=list)
    frames: "list[bytes]" = field(default_factory=list)

    def prepare(self, n_batches: int) -> None:
        """Generate and encode the session's batches before it is timed, so
        the load generator does little more than write bytes meanwhile."""
        stream = synthetic_fault_stream(
            self.n_threads, 1 << 40, batch_events=BATCH_EVENTS, seed=self.seed
        )
        self.batches = list(itertools.islice(stream, n_batches))
        self.frames = [protocol.encode_events(*batch) for batch in self.batches]

    async def open(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)
        hello = {
            "tenant": self.name,
            "n_threads": self.n_threads,
            "version": protocol.PROTOCOL_VERSION,
            "config": OVERRIDES,
        }
        await protocol.write_frame(self.writer, protocol.encode(MsgType.HELLO, hello))
        frame = await protocol.read_frame(self.reader)
        if frame is None or frame.type is not MsgType.WELCOME:
            reason = "closed" if frame is None else frame.payload
            raise RuntimeError(f"tenant {self.name} refused: {reason}")
        self.credits = int(frame.payload["credits"])
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        while True:
            frame = await protocol.read_frame(self.reader)
            if frame is None:
                self.errors.append("server closed the connection")
                break
            if frame.type is MsgType.CREDIT:
                n = int(frame.payload.get("events", 0))
                if n:
                    self.acks.append((perf_counter(), self.pending.popleft(), n))
                    self.credited_events += n
                    self.credited_batches += 1
                    self.credits += n
                    self.credit_event.set()
            elif frame.type is MsgType.MAPPING:
                self.mappings.append(frame.payload)
            elif frame.type is MsgType.SUMMARY:
                self.summary = frame.payload
                break
            else:
                self.errors.append(f"{frame.type.name}: {frame.payload}")
                break
        self.credit_event.set()

    async def send(self, index: int, due: float) -> None:
        """Send batch *index* once the credit window covers it."""
        n = int(self.batches[index][2].size)
        while self.credits < n:
            if self.task.done():
                raise RuntimeError(f"tenant {self.name}: connection ended: {self.errors}")
            self.credit_event.clear()
            await self.credit_event.wait()
        self.pending.append(due)
        self.credits -= n
        self.writer.write(self.frames[index])
        await self.writer.drain()
        self.sent_events += n
        self.sent_batches += 1

    async def wait_credited(self) -> None:
        """Block until every sent batch has been credited."""
        while self.credited_batches < self.sent_batches and not self.task.done():
            self.credit_event.clear()
            await self.credit_event.wait()

    async def close(self) -> None:
        """BYE handshake: wait for the SUMMARY, then close the socket."""
        try:
            await protocol.write_frame(self.writer, protocol.encode(MsgType.BYE))
            await asyncio.wait_for(self.task, timeout=120.0)
        finally:
            self.writer.close()


# -- phases -------------------------------------------------------------------
async def _open_all(tenants: "list[Tenant]", port: int) -> None:
    for tenant in tenants:
        await tenant.open(port)


async def _closed_loop(tenants: "list[Tenant]") -> "tuple[float, float]":
    """Keep every window full until each tenant's batches are credited;
    returns the phase's start and the time of its last CREDIT."""

    async def pump(tenant: Tenant) -> None:
        for index in range(len(tenant.frames)):
            await tenant.send(index, perf_counter())

    start = perf_counter()
    await asyncio.gather(*(pump(t) for t in tenants))
    for tenant in tenants:
        await tenant.wait_credited()
    return start, max(t.acks[-1][0] for t in tenants)


async def _open_loop(tenants: "list[Tenant]", events_per_s: float) -> "list[float]":
    """Send batches due at a fixed rate, alternating between the tenants;
    returns how late the generator sent each one."""
    interval = BATCH_EVENTS / events_per_s
    order = [(t, i) for i in range(len(tenants[0].frames)) for t in tenants]
    lags: list[float] = []
    start = perf_counter() + 0.05
    for k, (tenant, index) in enumerate(order):
        due = start + k * interval
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await tenant.send(index, due)
        lags.append(perf_counter() - due)
    for tenant in tenants:
        await tenant.wait_credited()
    return lags


def _make_tenants(
    workload: ServeWorkload, seed: int, phase: int, n_batches: int = 0
) -> "list[Tenant]":
    tenants = [
        Tenant(f"t{i}-p{phase}", n, seed=seed * 1000 + phase * 10 + i)
        for i, n in enumerate(workload.tenants)
    ]
    for tenant in tenants:
        tenant.prepare(n_batches)
    return tenants


async def _session_phase(port, tenants, body):
    await _open_all(tenants, port)
    result = await body
    for tenant in tenants:
        await tenant.close()
    return result


def _batches(events_per_s: float, seconds: float, workload: ServeWorkload) -> int:
    """Batches per tenant for *seconds* of load at *events_per_s*."""
    return max(1, round(events_per_s * seconds / BATCH_EVENTS / len(workload.tenants)))


async def _drive(
    workload: ServeWorkload,
    seed: int,
    server: "ServerProcess",
    closed_s: float,
    open_s: float,
    tracer: "Tracer | None",
) -> dict:
    warm = _make_tenants(workload, seed, 0, WARMUP_BATCHES)
    await _open_all(warm, server.port)
    setup_s = perf_counter() - server.spawned_at
    setup_probes = hostspeed.probes()
    await _closed_loop(warm)
    for tenant in warm:
        await tenant.close()
    if tracer is not None:
        tracer.install(client_targets())
    try:
        with tracer.span("bench.root") if tracer is not None else nullcontext():
            closed = _make_tenants(
                workload, seed, 1, _batches(workload.closed_events_per_s, closed_s, workload)
            )
            opened = _make_tenants(
                workload, seed, 2, _batches(workload.offered_events_per_s, open_s, workload)
            )
            start, end = await _session_phase(server.port, closed, _closed_loop(closed))
            lags = await _session_phase(
                server.port, opened, _open_loop(opened, workload.offered_events_per_s)
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "sessions": {"warm-up": warm, "closed": closed, "open": opened},
        "closed_events": sum(t.credited_events for t in closed),
        "closed_span": (start, end),
        "closed_wall_s": end - start,
        "gen_lag_s": lags,
    }


async def _setup_only(
    workload: ServeWorkload, seed: int, server: "ServerProcess"
) -> "tuple[float, list[float]]":
    tenants = _make_tenants(workload, seed, 9)
    await _open_all(tenants, server.port)
    setup_s = perf_counter() - server.spawned_at
    after = hostspeed.probes()
    for tenant in tenants:
        await tenant.close()
    return setup_s, after


def run_serve(
    name: str,
    seed: int,
    closed_s: float,
    open_s: float,
    *,
    tracer: "Tracer | None" = None,
    spans: "Path | None" = None,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """One serve run: timed phases on one server, then set-up-only spawns.

    The closed loop sends what the workload's nominal capacity would serve
    in *closed_s* seconds; the open loop offers its fixed rate for *open_s*
    seconds.  With a *tracer*, the server process records spans around the
    service's layers and this process records ``bench.*`` spans.  The
    set-up times and ``closed_ref_s`` are in reference seconds.
    """
    workload = WORKLOADS[name]
    before = hostspeed.probes()
    server = ServerProcess(workload.machine, tracer is not None, spans)
    try:
        run = asyncio.run(_drive(workload, seed, server, closed_s, open_s, tracer))
    finally:
        report = server.stop()
    setups = [hostspeed.to_ref(run["setup_s"], before + run["setup_probes"])]
    for _ in range(setup_samples - 1):
        before = hostspeed.probes()
        extra = ServerProcess(workload.machine, trace=False)
        try:
            setup_s, after = asyncio.run(_setup_only(workload, seed, extra))
        finally:
            extra.stop()
        setups.append(hostspeed.to_ref(setup_s, before + after))
    stamps, probes = zip(*report.pop("probes"))
    run["closed_ref_s"] = hostspeed.ref_seconds_between(*run["closed_span"], stamps, probes)
    run["setup_s"] = setups
    run["server"] = report
    return run


# -- output checks --------------------------------------------------------------
def check_sessions(name: str, run: dict) -> "tuple[list[str], int, int]":
    """Replay every session offline; ``(problems, attempted, failed)``."""
    machine = MACHINES[WORKLOADS[name].machine]()
    problems: list[str] = []
    attempted = failed = 0
    for phase, tenants in run["sessions"].items():
        for tenant in tenants:
            attempted += 1 + tenant.sent_batches
            failed += len(tenant.errors) + (tenant.sent_batches - tenant.credited_batches)
            label = f"{name} {phase} {tenant.name}"
            if tenant.errors:
                problems.append(f"{label}: {tenant.errors}")
            if tenant.credited_events != tenant.sent_events:
                problems.append(
                    f"{label}: {tenant.sent_events} events sent, "
                    f"{tenant.credited_events} credited"
                )
            summary = tenant.summary
            if summary is None:
                problems.append(f"{label}: no SUMMARY")
                failed += 1
                continue
            cfg = SessionConfig.from_overrides(
                SessionConfig(
                    n_threads=tenant.n_threads,
                    shards=CONFIG.shards,
                    eval_every_events=CONFIG.eval_every_events,
                ),
                OVERRIDES,
            )
            stream = tenant.batches[: tenant.sent_batches]
            ref = offline_reference(stream, cfg, machine, flush_after=[len(stream) - 1])
            if summary["events"] != tenant.sent_events or ref.events != tenant.sent_events:
                problems.append(f"{label}: server saw {summary['events']} events")
            if summary["matrix_digest"] != ref.final_digest:
                problems.append(f"{label}: matrix digest differs from offline_reference")
            if summary["mapping"] != ref.final_mapping:
                problems.append(f"{label}: mapping differs from offline_reference")
    return problems, attempted, failed
