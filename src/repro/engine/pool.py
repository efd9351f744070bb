"""Fault-tolerant process pool for grid cells.

``multiprocessing.Pool`` is the wrong substrate for long experiment
sweeps: a single hung simulation stalls ``pool.map`` forever, and a
worker killed by the OOM killer (or a segfaulting native extension)
either hangs the pool or poisons every queued task.  This module runs
each cell in its **own** child process and supervises it from the
parent:

* **per-cell timeouts** — a cell exceeding its deadline is terminated
  (SIGTERM, then SIGKILL) and retried;
* **crash detection** — a child that exits without delivering a result
  (killed, crashed, ``os._exit``) is detected through its closed result
  pipe and retried in a fresh process — one lost worker never takes the
  sweep down;
* **bounded retry with exponential backoff** — attempt *n*'s retry waits
  ``backoff_s * 2**(n-1)`` seconds before respawning, so a transiently
  overloaded machine gets room to recover;
* **graceful degradation** — a cell that exhausts its attempts yields a
  :class:`CellOutcome` carrying the failure history instead of raising;
  the caller decides whether that is fatal (strict mode).

The pool is generic (``worker(payload) -> result``); cell semantics —
caching, checkpointing, trace events — live in the caller
(:mod:`repro.engine.gridrunner`), wired through the completion and
*on_event* callbacks, which fire **as cells finish** so progress is
durable even if the sweep itself is later killed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = [
    "AttemptFailure",
    "CellOutcome",
    "CellTask",
    "run_tasks",
]

#: attempt-failure kinds
TIMEOUT = "timeout"
CRASH = "crash"
ERROR = "error"


@dataclass(frozen=True)
class CellTask:
    """One unit of work: an opaque payload plus a human-readable label."""

    index: int
    payload: Any
    label: str = ""


@dataclass(frozen=True)
class AttemptFailure:
    """Why one attempt at a task did not produce a result."""

    #: ``"timeout"`` (deadline exceeded), ``"crash"`` (process died without
    #: delivering a result) or ``"error"`` (the worker raised)
    kind: str
    message: str
    attempt: int


@dataclass
class CellOutcome:
    """Terminal state of one task: a result, or the full failure history."""

    task: CellTask
    result: Any = None
    ok: bool = False
    attempts: int = 0
    failures: list[AttemptFailure] = field(default_factory=list)


#: ``on_event(kind, task, detail)`` with kind one of ``"retry"``,
#: ``"timeout"``, ``"crash"``, ``"error"``, ``"failed"``, ``"done"``
EventCallback = Callable[[str, CellTask, dict], None]


def _child_main(conn, worker, payload) -> None:  # pragma: no cover - subprocess
    """Child entry point: run the worker, ship the result (or the error)."""
    try:
        result = worker(payload)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send((ERROR, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        return
    try:
        conn.send(("ok", result))
    except Exception:
        pass
    finally:
        conn.close()


@dataclass
class _Running:
    task: CellTask
    proc: Any
    conn: Any
    attempt: int
    deadline: "float | None"


def _pick_context(mp_context):
    if mp_context is not None:
        return mp_context
    return get_context("fork" if "fork" in get_all_start_methods() else "spawn")


def run_tasks(
    tasks: "list[CellTask]",
    worker: Callable[[Any], Any],
    *,
    workers: int = 1,
    timeout_s: "float | None" = None,
    retries: int = 2,
    backoff_s: float = 0.25,
    mp_context=None,
    on_event: "EventCallback | None" = None,
    on_result: "Callable[[CellTask, Any, int], None] | None" = None,
) -> "list[CellOutcome]":
    """Run every task through *worker* in supervised child processes.

    Returns one :class:`CellOutcome` per task, in task order, never
    raising for per-task failures.  At most *workers* children run at a
    time; each task gets ``1 + retries`` attempts, each bounded by
    *timeout_s* (``None`` = unbounded).  *on_event* observes the
    scheduler's decisions (retries, timeouts, crashes, completions) as
    they happen; *on_result* fires with ``(task, result, attempts)`` the
    moment a task completes, so callers can persist progress (cache,
    checkpoint manifest) before the sweep finishes.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    ctx = _pick_context(mp_context)
    outcomes = {t.index: CellOutcome(task=t) for t in tasks}
    #: (task, attempt, not_before) awaiting a process slot
    queue: list[tuple[CellTask, int, float]] = [(t, 1, 0.0) for t in tasks]
    inflight: dict[Any, _Running] = {}  # parent conn -> running attempt

    def emit(event: str, task: CellTask, **detail) -> None:
        if on_event is not None:
            on_event(event, task, detail)

    def spawn(task: CellTask, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main, args=(child_conn, worker, task.payload), daemon=True
        )
        proc.start()
        child_conn.close()
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        inflight[parent_conn] = _Running(task, proc, parent_conn, attempt, deadline)

    def reap(run: _Running) -> None:
        """Join a finished/killed child without ever blocking the sweep."""
        run.conn.close()
        run.proc.join(timeout=5.0)
        if run.proc.is_alive():  # pragma: no cover - stuck in kernel space
            run.proc.kill()
            run.proc.join(timeout=5.0)

    def attempt_failed(run: _Running, kind: str, message: str) -> None:
        out = outcomes[run.task.index]
        out.attempts = run.attempt
        out.failures.append(AttemptFailure(kind=kind, message=message, attempt=run.attempt))
        emit(kind, run.task, attempt=run.attempt, message=message)
        if run.attempt <= retries:
            wait = backoff_s * (2.0 ** (run.attempt - 1))
            emit("retry", run.task, attempt=run.attempt + 1, backoff_s=wait)
            queue.append((run.task, run.attempt + 1, time.monotonic() + wait))
        else:
            emit(
                "failed",
                run.task,
                attempts=run.attempt,
                kind=kind,
                message=message,
            )

    try:
        while queue or inflight:
            now = time.monotonic()
            # fill free slots with eligible (backoff-expired) queued attempts
            for entry in sorted(queue, key=lambda e: (e[2], e[0].index)):
                if len(inflight) >= workers:
                    break
                task, attempt, not_before = entry
                if not_before > now:
                    continue
                queue.remove(entry)
                spawn(task, attempt)

            if not inflight:
                if not queue:
                    break
                # every queued attempt is inside its backoff window: sleep it off
                time.sleep(max(0.0, min(e[2] for e in queue) - now) or 0.001)
                continue

            # wait for a result, a death, or the nearest deadline/backoff edge
            wait: "float | None" = None
            deadlines = [r.deadline for r in inflight.values() if r.deadline is not None]
            if deadlines:
                wait = max(0.0, min(deadlines) - now)
            if queue and len(inflight) < workers:
                edge = max(0.0, min(e[2] for e in queue) - now)
                wait = edge if wait is None else min(wait, edge)
            ready = connection.wait(list(inflight), timeout=wait)

            for conn in ready:
                run = inflight.pop(conn)
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    reap(run)
                    code = run.proc.exitcode
                    attempt_failed(
                        run, CRASH, f"worker died without a result (exitcode {code})"
                    )
                    continue
                reap(run)
                if status == "ok":
                    out = outcomes[run.task.index]
                    out.result = value
                    out.ok = True
                    out.attempts = run.attempt
                    if on_result is not None:
                        on_result(run.task, value, run.attempt)
                    emit("done", run.task, attempt=run.attempt)
                else:
                    attempt_failed(run, ERROR, str(value))

            now = time.monotonic()
            for conn, run in list(inflight.items()):
                if run.deadline is not None and now >= run.deadline:
                    del inflight[conn]
                    run.proc.terminate()
                    reap(run)
                    attempt_failed(
                        run, TIMEOUT, f"cell exceeded its {timeout_s:g}s timeout"
                    )
    finally:
        # sweep aborted (strict-mode raise, KeyboardInterrupt): reap children
        for run in inflight.values():
            run.proc.terminate()
        for run in inflight.values():
            reap(run)
        inflight.clear()

    return [outcomes[t.index] for t in tasks]
