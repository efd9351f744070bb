"""``python -m repro.serve`` — run the mapping daemon.

The flags are the daemon's whole configuration: each one sets the
:class:`~repro.serve.server.ServeConfig` field of the same meaning, an
omitted flag keeps that field's default, and the daemon reads no
environment variable.  A value :class:`ServeConfig` rejects (``--credits
0``) exits with status 2 before anything is bound.  On startup the daemon
prints one machine-parseable ready line::

    repro.serve listening on 127.0.0.1:43211 metrics=127.0.0.1:43212

and then serves until SIGTERM/SIGINT, which triggers a graceful drain:
every live session is notified, queued events are processed, final
matrices are flushed to the obs trace (``--trace``), and the process
exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.recorder import JsonlRecorder, NullRecorder, serve_trace_path
from repro.serve.server import MappingServer, ServeConfig

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    # an omitted flag leaves its attribute unset, so ServeConfig's default
    # applies; every dest is the ServeConfig field the flag sets
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="SPCD mapping-as-a-service daemon",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--host", help="bind address")
    parser.add_argument("--port", type=int, help="data port (0=ephemeral)")
    parser.add_argument(
        "--metrics-port",
        type=int,
        help="plaintext /metrics HTTP port (0=ephemeral; omit to disable)",
    )
    parser.add_argument("--max-sessions", type=int, help="concurrent session cap")
    parser.add_argument(
        "--max-table-mb",
        type=float,
        help="per-tenant detection-state memory cap (MiB)",
    )
    parser.add_argument(
        "--shards", type=int, help="communication-matrix shards per session"
    )
    parser.add_argument(
        "--eval-every",
        dest="eval_every_events",
        type=int,
        help="events between two mapping evaluations",
    )
    parser.add_argument(
        "--credits",
        dest="credit_window",
        type=int,
        help="per-client send window (events)",
    )
    parser.add_argument(
        "--drain-grace",
        dest="drain_grace_s",
        type=float,
        help="seconds to wait for clients during a drain",
    )
    parser.add_argument("--trace", help="obs trace sink (.jsonl file or directory)")
    return parser


async def _run(config: ServeConfig, trace: "str | None") -> int:
    recorder = (
        JsonlRecorder(serve_trace_path(Path(trace))) if trace else NullRecorder()
    )
    server = MappingServer(config, recorder=recorder)
    await server.start()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            sig, lambda s=sig: asyncio.ensure_future(server.drain(signal.Signals(s).name))
        )
    ready = f"repro.serve listening on {config.host}:{server.port}"
    if server.metrics_port is not None:
        ready += f" metrics={config.host}:{server.metrics_port}"
    print(ready, flush=True)
    await server.serve_forever()
    print(
        f"repro.serve drained: {server.sessions_served} sessions, "
        f"{server.events_total} events, {server.remaps_total} remaps",
        flush=True,
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    options = vars(parser.parse_args(argv))
    trace = options.pop("trace", None)
    try:
        config = ServeConfig(**options)
    except ConfigurationError as exc:
        parser.error(str(exc))  # exits with status 2
    return asyncio.run(_run(config, trace))


if __name__ == "__main__":
    sys.exit(main())
