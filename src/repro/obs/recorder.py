"""Trace sinks: the JSONL recorder and its zero-cost disabled form.

``REPRO_TRACE=<path>`` enables tracing globally: a path ending in
``.jsonl`` names the trace file itself; anything else is treated as a
directory into which each run writes an auto-named
``run-<workload>-<policy>-seed<seed>.jsonl``.  Grid runs derive one file
per cell (see :func:`cell_trace_path`), so concurrent workers never share
a sink.

Atomicity: a :class:`JsonlRecorder` writes to ``<final>.<pid>.tmp`` and
renames it over the final path on :meth:`close`, so readers only ever see
complete traces and a crashed worker leaves at most a ``*.tmp`` file
behind.

When tracing is disabled components hold ``None`` instead of a recorder
and guard emission with a single ``if rec is not None`` branch — the hot
paths pay one pointer test per fault batch.  :data:`NULL_RECORDER` is
additionally provided for call sites that prefer an object; it is falsy
and drops everything.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.obs.events import TraceEvent

__all__ = [
    "JsonlRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "cell_trace_path",
    "grid_trace_path",
    "run_trace_path",
    "serve_trace_path",
]


class TraceRecorder:
    """Interface: :meth:`emit` events, :meth:`close` the sink."""

    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:
        """Record one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and seal the sink (idempotent)."""

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __bool__(self) -> bool:
        return self.enabled


class NullRecorder(TraceRecorder):
    """Falsy recorder that drops every event (tracing disabled)."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        pass


#: shared no-op instance
NULL_RECORDER = NullRecorder()


class JsonlRecorder(TraceRecorder):
    """Writes one JSON object per line, atomically published on close.

    The file is opened lazily on the first :meth:`emit`, so constructing a
    recorder for a run that never starts leaves no file behind.
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self.path = Path(path)
        self.events_written = 0
        self._file = None
        self._tmp: Path | None = None
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        """Append *event* as one JSONL line."""
        if self._closed:
            return
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
            self._file = open(self._tmp, "w", encoding="utf-8")
        self._file.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._file.write("\n")
        self.events_written += 1

    def close(self) -> None:
        """Seal the trace: flush and atomically rename into place."""
        if self._closed:
            return
        self._closed = True
        if self._file is None:
            return
        self._file.close()
        self._file = None
        assert self._tmp is not None
        os.replace(self._tmp, self.path)


def _slug(text: str) -> str:
    """Filesystem-safe fragment of a workload/policy name."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text) or "x"


def run_trace_path(base: Path, workload: str, policy: str, seed: int) -> Path:
    """Trace file for one ad-hoc :class:`~repro.engine.simulator.Simulator` run.

    A ``.jsonl`` *base* is used verbatim; otherwise *base* is a directory
    and the file is auto-named from the run's identity.
    """
    if base.suffix == ".jsonl":
        return base
    return base / f"run-{_slug(workload)}-{_slug(policy)}-seed{seed}.jsonl"


def cell_trace_path(base: Path, workload: str, policy: str, rep: int) -> Path:
    """Per-cell trace file for a grid run under *base*.

    A ``.jsonl`` *base* becomes a prefix (``<stem>-<cell>.jsonl`` next to
    it); otherwise *base* is a directory holding one file per cell.
    """
    name = f"{_slug(workload)}-{_slug(policy)}-rep{rep}.jsonl"
    if base.suffix == ".jsonl":
        return base.with_name(f"{base.stem}-{name}")
    return base / name


def serve_trace_path(base: Path) -> Path:
    """Trace file for one ``python -m repro.serve`` daemon run.

    A ``.jsonl`` *base* is used verbatim; otherwise *base* is a directory
    and the daemon writes ``serve.jsonl`` inside it.
    """
    if base.suffix == ".jsonl":
        return base
    return base / "serve.jsonl"


def grid_trace_path(base: Path, grid_key: str) -> Path:
    """Trace file for one ``run_grid`` invocation's grid events.

    Named after the grid's key, with an incrementing suffix so a resumed
    sweep's events sit beside (never overwrite) the interrupted
    invocation's.
    """
    stem = f"grid-{grid_key[:8]}" if grid_key else "grid"
    if base.suffix == ".jsonl":
        directory, prefix = base.parent, f"{base.stem}-{stem}"
    else:
        directory, prefix = base, stem
    n = 0
    while True:
        p = directory / (f"{prefix}.jsonl" if n == 0 else f"{prefix}-{n}.jsonl")
        if not p.exists():
            return p
        n += 1
