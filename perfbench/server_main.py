"""The server process of the serve workloads.

Started by :mod:`serve_load` as ``python3 perfbench/server_main.py
--machine <narrow|wide> --trace <0|1> [--spans PATH]``.  It builds the
public ``MappingServer(config, machine=...)``, prints ``{"port": N}`` once
it listens, serves until a line arrives on stdin, drains, and prints one
JSON report line (peak RSS, server counters, the host-speed probes and,
when traced, the layer table of its spans) before it exits.

While it serves, a task on the server's own event loop times a
:func:`hostspeed.probe` every :data:`PROBE_EVERY_S` seconds, so the load
generator can express the service's host time in reference seconds.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
from layers import server_targets  # noqa: E402
from repro.machine.topology import build_machine, dual_xeon_e5_2650  # noqa: E402
from repro.serve import MappingServer, ServeConfig  # noqa: E402
from tracer import Tracer, peak_rss_mb, summarize  # noqa: E402

#: the machine model each workload serves against: the paper's 32-PU box,
#: or a 256-PU model wide enough for a 256-thread tenant
MACHINES = {
    "narrow": dual_xeon_e5_2650,
    "wide": lambda: build_machine(4, 32, 2, name="4s32c2t"),
}

CONFIG = ServeConfig(
    host="127.0.0.1",
    port=0,
    metrics_port=None,
    max_sessions=8,
    max_table_mb=64.0,
    shards=4,
    eval_every_events=8192,
    credit_window=65536,
    drain_grace_s=5.0,
)


#: seconds between two host-speed probes on the server's event loop
PROBE_EVERY_S = 0.02


async def _probe_loop(samples: "list[tuple[float, float]]") -> None:
    """``(time the probe ended, probe time)`` every :data:`PROBE_EVERY_S`."""
    while True:
        await asyncio.sleep(PROBE_EVERY_S)
        duration = hostspeed.probe()
        samples.append((perf_counter(), duration))


async def _serve(machine_name: str, samples: "list[tuple[float, float]]") -> MappingServer:
    server = MappingServer(CONFIG, machine=MACHINES[machine_name]())
    await server.start()
    prober = asyncio.ensure_future(_probe_loop(samples))
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    await stdin.readline()
    prober.cancel()
    await server.drain("bench-stop")
    return server


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--machine", choices=sorted(MACHINES), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(server_targets())
    samples: list[tuple[float, float]] = []
    try:
        server = asyncio.run(_serve(args.machine, samples))
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "sessions_served": server.sessions_served,
        "sessions_refused": server.sessions_refused,
        "events_total": server.events_total,
        "batches_total": server.batches_total,
        "probes": samples,
    }
    if tracer is not None:
        report["layers"] = summarize(tracer.layer_table())
        report["counts"] = tracer.counts
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
