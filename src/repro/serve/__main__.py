"""``python -m repro.serve`` — run the mapping daemon.

Configuration resolves CLI flags over ``REPRO_SERVE_*`` environment
variables (read once, through :class:`~repro.engine.settings.RunSettings`)
over defaults.  On startup the daemon prints one machine-parseable ready
line::

    repro.serve listening on 127.0.0.1:43211 metrics=127.0.0.1:43212

and then serves until SIGTERM/SIGINT, which triggers a graceful drain:
every live session is notified, queued events are processed, final
matrices are flushed to the obs trace (``--trace``/``REPRO_TRACE``), and
the process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

from repro.engine.settings import RunSettings
from repro.obs.recorder import JsonlRecorder, NullRecorder, serve_trace_path
from repro.serve.server import MappingServer, ServeConfig

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="SPCD mapping-as-a-service daemon",
    )
    parser.add_argument("--host", default=None, help="bind address")
    parser.add_argument("--port", type=int, default=None, help="data port (0=ephemeral)")
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="plaintext /metrics HTTP port (0=ephemeral; omit to disable)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=None, help="concurrent session cap"
    )
    parser.add_argument(
        "--max-table-mb",
        type=float,
        default=None,
        help="per-tenant detection-state memory cap (MiB)",
    )
    parser.add_argument("--shards", type=int, default=None, help="communication-matrix shards per session")
    parser.add_argument(
        "--eval-every",
        type=int,
        default=None,
        help="events between two mapping evaluations",
    )
    parser.add_argument(
        "--credits", type=int, default=None, help="per-client send window (events)"
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        help="seconds to wait for clients during a drain",
    )
    parser.add_argument(
        "--trace", default=None, help="obs trace sink (.jsonl file or directory)"
    )
    return parser


def _resolve_config(args: argparse.Namespace, settings: RunSettings) -> ServeConfig:
    base = ServeConfig.from_settings(settings)
    return ServeConfig(
        host=args.host if args.host is not None else base.host,
        port=args.port if args.port is not None else base.port,
        metrics_port=(
            args.metrics_port if args.metrics_port is not None else base.metrics_port
        ),
        max_sessions=(
            args.max_sessions if args.max_sessions is not None else base.max_sessions
        ),
        max_table_mb=(
            args.max_table_mb if args.max_table_mb is not None else base.max_table_mb
        ),
        shards=args.shards if args.shards is not None else base.shards,
        eval_every_events=(
            args.eval_every if args.eval_every is not None else base.eval_every_events
        ),
        credit_window=args.credits if args.credits is not None else base.credit_window,
        drain_grace_s=args.drain_grace,
    )


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
    args = _build_parser().parse_args(argv)
    settings = RunSettings.from_env()
    config = _resolve_config(args, settings)
    trace = args.trace if args.trace is not None else settings.trace
    return asyncio.run(_run(config, trace))


if __name__ == "__main__":
    sys.exit(main())
