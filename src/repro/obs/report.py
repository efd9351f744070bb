"""Reconstruct run-level results — and sweep reliability — from traces.

``python -m repro.obs.report trace.jsonl [more.jsonl ...] [--json]``

The reconstruction uses only the per-decision event stream — migration
events for the paper's Table II migration counts, the cumulative overhead
counters carried by fault-batch / injector-wake / evaluation / migration
events for the Fig. 16 detection-vs-mapping split — and reproduces the
corresponding :class:`~repro.engine.simulator.SimulationResult` fields
*exactly* (same floats, same integers; pinned by ``tests/test_obs.py``).
The ``run_end`` summary event is used only for the run's total virtual
time and as a cross-check: a mismatch between the reconstruction and the
summary means the trace is incomplete or the instrumentation drifted, and
is reported as an error.

Grid traces (the ``grid-*.jsonl`` files :func:`repro.engine.gridrunner.run_grid`
writes under ``REPRO_TRACE``) are summarised the same way: the per-decision
scheduler events (cell attempts, retries, timeouts, crashes, resume counts)
are folded into one :class:`GridReport` per invocation and cross-checked
against the ``grid_end`` summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import ConfigurationError

__all__ = [
    "GridReport",
    "RunReport",
    "ServeReport",
    "grid_report_paths",
    "iter_events",
    "load_events",
    "reconstruct_grids",
    "reconstruct_runs",
    "reconstruct_serves",
    "serve_report_paths",
    "main",
]

#: event types belonging to the grid scheduler's stream, not to any run
GRID_EVENT_TYPES = frozenset(
    {
        "grid_start",
        "grid_end",
        "cell_attempt_failed",
        "cell_retry",
        "cell_completed",
        "cell_failed",
    }
)

#: event types belonging to the mapping daemon's stream, not to any run
SERVE_EVENT_TYPES = frozenset(
    {
        "serve_start",
        "serve_session_start",
        "serve_evaluation",
        "serve_session_end",
        "serve_end",
    }
)


@dataclass
class RunReport:
    """Everything reconstructable about one run from its event stream."""

    workload: str = "?"
    policy: str = "?"
    seed: int = 0
    total_ns: float = 0.0
    steps_run: int = 0
    #: Table II: applied mappings that moved at least one thread
    migrations: int = 0
    #: Fig. 16 numerators (virtual ns)
    detection_ns: float = 0.0
    mapping_ns: float = 0.0
    first_touch_faults: int = 0
    injected_faults: int = 0
    injector_wakes: int = 0
    pages_cleared: int = 0
    evaluations: int = 0
    verdicts: Counter = field(default_factory=Counter)
    mapper_calls: int = 0
    vetoed_mappings: int = 0
    #: mapping decisions per engine ("edmonds"/"hierarchical")
    mapper_algorithms: Counter = field(default_factory=Counter)
    #: host wall-clock spent inside mapping decisions (sum of the
    #: per-decision ``decide_wall_s`` fields; 0.0 for pre-graphs traces)
    decide_wall_s: float = 0.0
    #: nonzero fraction of the last decided matrix (density trajectory tail)
    matrix_density: float = 0.0
    tlb_shootdowns: int = 0
    #: placement-engine effects (all zero for thread-only policies)
    page_migrations: int = 0
    shared_deferred: int = 0
    pt_replications: int = 0
    #: replication share of mapping_ns; summary-sourced like total_ns,
    #: because replica broadcasts accrue silently inside fault handling
    replication_ns: float = 0.0
    events: int = 0
    #: host wall-clock breakdown from run_end's PerfCounters fold (the one
    #: non-deterministic part of a trace; empty for pre-perf traces)
    perf: dict[str, float] = field(default_factory=dict)
    #: inconsistencies against the run_end summary (empty = trace is sound)
    errors: list[str] = field(default_factory=list)

    @property
    def detection_pct(self) -> float:
        """Detection overhead as % of execution time (Fig. 16)."""
        return 100.0 * self.detection_ns / self.total_ns if self.total_ns else 0.0

    @property
    def mapping_pct(self) -> float:
        """Mapping overhead as % of execution time (Fig. 16)."""
        return 100.0 * self.mapping_ns / self.total_ns if self.total_ns else 0.0

    @property
    def injected_ratio(self) -> float:
        """Share of faults that were SPCD-injected."""
        total = self.first_touch_faults + self.injected_faults
        return self.injected_faults / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view (for ``--json`` and downstream tooling)."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "seed": self.seed,
            "total_ns": self.total_ns,
            "steps_run": self.steps_run,
            "migrations": self.migrations,
            "detection_pct": self.detection_pct,
            "mapping_pct": self.mapping_pct,
            "detection_ns": self.detection_ns,
            "mapping_ns": self.mapping_ns,
            "first_touch_faults": self.first_touch_faults,
            "injected_faults": self.injected_faults,
            "injected_ratio": self.injected_ratio,
            "injector_wakes": self.injector_wakes,
            "pages_cleared": self.pages_cleared,
            "evaluations": self.evaluations,
            "verdicts": dict(self.verdicts),
            "mapper_calls": self.mapper_calls,
            "vetoed_mappings": self.vetoed_mappings,
            "mapper_algorithms": dict(self.mapper_algorithms),
            "decide_wall_s": self.decide_wall_s,
            "matrix_density": self.matrix_density,
            "tlb_shootdowns": self.tlb_shootdowns,
            "page_migrations": self.page_migrations,
            "shared_deferred": self.shared_deferred,
            "pt_replications": self.pt_replications,
            "replication_ns": self.replication_ns,
            "events": self.events,
            "perf": dict(self.perf),
            "errors": list(self.errors),
        }


@dataclass
class GridReport:
    """Reliability summary of one ``run_grid`` invocation's trace."""

    grid_key: str = "?"
    workloads: list[str] = field(default_factory=list)
    policies: list[str] = field(default_factory=list)
    reps: int = 0
    cells: int = 0
    cached: int = 0
    #: cells whose terminal state was recovered from the checkpoint manifest
    resumed_done: int = 0
    resumed_failed: int = 0
    to_run: int = 0
    workers: int = 0
    timeout_s: float = 0.0
    retry_budget: int = 0
    strict: bool = False
    completed: int = 0
    #: cells that exhausted their attempt budget, as display strings
    failed_cells: list[str] = field(default_factory=list)
    retries: int = 0
    #: attempt-failure counts by kind (timeout / crash / error)
    attempt_failures: Counter = field(default_factory=Counter)
    events: int = 0
    #: inconsistencies against the grid_end summary (empty = trace is sound)
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Cells that never produced a result."""
        return len(self.failed_cells)

    @property
    def resumed(self) -> bool:
        """True when this invocation continued an interrupted sweep."""
        return bool(self.resumed_done or self.resumed_failed)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view (tagged ``"type": "grid"`` so run and grid
        entries can share one output list)."""
        return {
            "type": "grid",
            "grid_key": self.grid_key,
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "reps": self.reps,
            "cells": self.cells,
            "cached": self.cached,
            "resumed_done": self.resumed_done,
            "resumed_failed": self.resumed_failed,
            "to_run": self.to_run,
            "workers": self.workers,
            "timeout_s": self.timeout_s,
            "retry_budget": self.retry_budget,
            "strict": self.strict,
            "completed": self.completed,
            "failed": self.failed,
            "failed_cells": list(self.failed_cells),
            "retries": self.retries,
            "attempt_failures": dict(self.attempt_failures),
            "events": self.events,
            "errors": list(self.errors),
        }


@dataclass
class ServeReport:
    """Summary of one mapping-daemon lifetime (serve_start .. serve_end)."""

    host: str = "?"
    port: int = 0
    machine: str = "?"
    max_sessions: int = 0
    shards: int = 0
    reason: str = "?"
    #: serve_session_end payloads, in drain order
    sessions: list[dict[str, Any]] = field(default_factory=list)
    sessions_refused: int = 0
    #: evaluation verdict counts across every session
    verdicts: Counter = field(default_factory=Counter)
    events_total: int = 0
    batches_total: int = 0
    remaps_total: int = 0
    #: the ServeEnd metrics snapshot (live-registry fold)
    metrics: dict[str, Any] = field(default_factory=dict)
    events: int = 0
    #: inconsistencies against the serve_end summary (empty = trace is sound)
    errors: list[str] = field(default_factory=list)

    @property
    def sessions_served(self) -> int:
        """Sessions that were admitted and drained."""
        return len(self.sessions)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view (tagged ``"type": "serve"``)."""
        return {
            "type": "serve",
            "host": self.host,
            "port": self.port,
            "machine": self.machine,
            "max_sessions": self.max_sessions,
            "shards": self.shards,
            "reason": self.reason,
            "sessions_served": self.sessions_served,
            "sessions_refused": self.sessions_refused,
            "sessions": list(self.sessions),
            "verdicts": dict(self.verdicts),
            "events_total": self.events_total,
            "batches_total": self.batches_total,
            "remaps_total": self.remaps_total,
            "metrics": dict(self.metrics),
            "events": self.events,
            "errors": list(self.errors),
        }


def reconstruct_serves(events: Iterable[dict[str, Any]]) -> list[ServeReport]:
    """Fold a serve event stream into per-daemon-lifetime reports.

    Totals are rebuilt from the per-session ``serve_session_end`` events
    and cross-checked against the ``serve_end`` summary; non-serve events
    are ignored.
    """
    serves: list[ServeReport] = []
    serve: ServeReport | None = None

    for ev in events:
        kind = ev.get("type", "?")
        if kind not in SERVE_EVENT_TYPES:
            continue
        if kind == "serve_start" or serve is None:
            serve = ServeReport(
                host=str(ev.get("host", "?")),
                port=int(ev.get("port", 0)),
                machine=str(ev.get("machine", "?")),
                max_sessions=int(ev.get("max_sessions", 0)),
                shards=int(ev.get("shards", 0)),
            )
            serves.append(serve)
            if kind == "serve_start":
                serve.events += 1
                continue
        serve.events += 1
        if kind == "serve_evaluation":
            serve.verdicts[str(ev.get("verdict", "?"))] += 1
        elif kind == "serve_session_end":
            session = {k: v for k, v in ev.items() if k != "type"}
            serve.sessions.append(session)
            serve.events_total += int(ev.get("events", 0))
            serve.batches_total += int(ev.get("batches", 0))
            serve.remaps_total += int(ev.get("remaps", 0))
        elif kind == "serve_end":
            serve.reason = str(ev.get("reason", "?"))
            serve.sessions_refused = int(ev.get("sessions_refused", 0))
            serve.metrics = dict(ev.get("metrics", {}))
            _cross_check_serve(serve, ev)
            serve = None
    return serves


def _cross_check_serve(serve: ServeReport, end: dict[str, Any]) -> None:
    """Compare the per-session reconstruction against the serve_end summary."""
    checks = (
        ("sessions_served", serve.sessions_served, int(end.get("sessions_served", 0))),
        ("events_total", serve.events_total, int(end.get("events_total", 0))),
        ("batches_total", serve.batches_total, int(end.get("batches_total", 0))),
    )
    for name, got, want in checks:
        if got != want:
            serve.errors.append(f"{name}: reconstructed {got!r} != summary {want!r}")


def reconstruct_grids(events: Iterable[dict[str, Any]]) -> list[GridReport]:
    """Fold a grid event stream into per-invocation reliability reports.

    A stream may contain several invocations back to back (each bracketed
    by ``grid_start`` / ``grid_end``, e.g. an interrupted sweep and its
    resumption); non-grid events are ignored.
    """
    grids: list[GridReport] = []
    grid: GridReport | None = None
    fresh_completions = 0

    for ev in events:
        kind = ev.get("type", "?")
        if kind not in GRID_EVENT_TYPES:
            continue
        if kind == "grid_start" or grid is None:
            grid = GridReport(
                grid_key=str(ev.get("grid_key", "?")),
                workloads=[str(w) for w in ev.get("workloads", [])],
                policies=[str(p) for p in ev.get("policies", [])],
                reps=int(ev.get("reps", 0)),
                cells=int(ev.get("cells", 0)),
                cached=int(ev.get("cached", 0)),
                resumed_done=int(ev.get("resumed_done", 0)),
                resumed_failed=int(ev.get("resumed_failed", 0)),
                to_run=int(ev.get("to_run", 0)),
                workers=int(ev.get("workers", 0)),
                timeout_s=float(ev.get("timeout_s", 0.0)),
                retry_budget=int(ev.get("retries", 0)),
                strict=bool(ev.get("strict", False)),
            )
            grids.append(grid)
            fresh_completions = 0
            if kind == "grid_start":
                grid.events += 1
                continue
        grid.events += 1
        if kind == "cell_attempt_failed":
            grid.attempt_failures[str(ev.get("kind", "?"))] += 1
        elif kind == "cell_retry":
            grid.retries += 1
        elif kind == "cell_completed":
            fresh_completions += 1
        elif kind == "cell_failed":
            grid.failed_cells.append(
                f"{ev.get('workload', '?')}/{ev.get('policy', '?')}"
                f"/rep{ev.get('rep', 0)} after {ev.get('attempts', 0)} attempts "
                f"({ev.get('kind', '?')}: {ev.get('message', '')})"
            )
        elif kind == "grid_end":
            grid.completed = grid.cached + fresh_completions
            _cross_check_grid(grid, ev)
            grid = None
    return grids


def _cross_check_grid(grid: GridReport, end: dict[str, Any]) -> None:
    """Compare the reconstruction against the grid_end summary."""
    checks = (
        ("completed", grid.completed, int(end.get("completed", 0))),
        ("failed", grid.failed, int(end.get("failed", 0))),
        ("retries", grid.retries, int(end.get("retries", 0))),
        ("timeouts", grid.attempt_failures["timeout"], int(end.get("timeouts", 0))),
        ("crashes", grid.attempt_failures["crash"], int(end.get("crashes", 0))),
    )
    for name, got, want in checks:
        if got != want:
            grid.errors.append(f"{name}: reconstructed {got!r} != summary {want!r}")


def iter_events(path: "str | Path") -> Iterator[dict[str, Any]]:
    """Yield the JSONL events of one trace file."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: not a JSONL trace line: {exc}"
                ) from exc


def load_events(path: "str | Path") -> list[dict[str, Any]]:
    """All events of one trace file, in order."""
    return list(iter_events(path))


def reconstruct_runs(events: Iterable[dict[str, Any]]) -> list[RunReport]:
    """Fold an event stream into per-run reports.

    A stream may contain several runs back to back (each bracketed by
    ``run_start`` / ``run_end``); events outside any bracket are attached
    to the nearest started run.
    """
    runs: list[RunReport] = []
    run: RunReport | None = None
    # cumulative-counter tails of the current run
    hook_ns = inject_ns = mapper_ns = migrate_ns = 0.0

    for ev in events:
        kind = ev.get("type", "?")
        if kind in GRID_EVENT_TYPES or kind in SERVE_EVENT_TYPES:
            continue  # scheduler/daemon streams, not part of any run
        if kind == "run_start" or run is None:
            run = RunReport(
                workload=str(ev.get("workload", "?")),
                policy=str(ev.get("policy", "?")),
                seed=int(ev.get("seed", 0)),
            )
            runs.append(run)
            hook_ns = inject_ns = mapper_ns = migrate_ns = 0.0
            if kind == "run_start":
                run.events += 1
                continue
        run.events += 1
        if kind == "fault_batch":
            run.first_touch_faults += int(ev["first_touch"])
            run.injected_faults += int(ev["injected"])
            hook_ns = float(ev["hook_time_ns"])
        elif kind == "injector_wake":
            run.injector_wakes += 1
            run.pages_cleared += int(ev["cleared"])
            inject_ns = float(ev["inject_time_ns"])
        elif kind == "tlb_shootdown":
            run.tlb_shootdowns += 1
        elif kind == "spcd_evaluation":
            run.evaluations += 1
            run.verdicts[str(ev["verdict"])] += 1
            mapper_ns = float(ev["mapping_ns"])
        elif kind == "mapping_decision":
            run.mapper_calls += 1
            if not ev["accepted"]:
                run.vetoed_mappings += 1
            # Decision-cost observability (graphs subsystem); .get() keeps
            # pre-graphs traces readable.
            run.mapper_algorithms[str(ev.get("algorithm", "edmonds"))] += 1
            run.decide_wall_s += float(ev.get("decide_wall_s", 0.0))
            run.matrix_density = float(ev.get("matrix_density", 0.0))
        elif kind == "migration":
            run.migrations += 1
            migrate_ns = float(ev["cost_ns"])
        elif kind == "placement_applied":
            run.page_migrations += int(ev.get("page_migrations", 0))
            run.shared_deferred += int(ev.get("shared_deferred", 0))
            if ev.get("replicated"):
                run.pt_replications += 1
        elif kind == "run_end":
            run.total_ns = float(ev["total_ns"])
            run.steps_run = int(ev["steps_run"])
            run.perf = {k: float(v) for k, v in ev.get("perf", {}).items()}
            # The replication bill has no per-decision event (coherence
            # broadcasts ride inside fault handling), so it is summary-
            # sourced; zero for every pre-replication trace.
            run.replication_ns = float(ev.get("replication_ns", 0.0))
            # Same additions, same order, as SpcdManager.detection_time_ns /
            # mapping_time_ns — the split is reproduced bit-for-bit.
            run.detection_ns = hook_ns + inject_ns
            run.mapping_ns = mapper_ns + migrate_ns + run.replication_ns
            _cross_check(run, ev)
            run = None
    return runs


def _cross_check(run: RunReport, end: dict[str, Any]) -> None:
    """Compare the reconstruction against the run_end summary."""
    checks = (
        ("migrations", run.migrations, int(end["migrations"])),
        ("first_touch_faults", run.first_touch_faults, int(end["first_touch_faults"])),
        ("injected_faults", run.injected_faults, int(end["injected_faults"])),
        ("detection_ns", run.detection_ns, float(end["detection_ns"])),
        ("mapping_ns", run.mapping_ns, float(end["mapping_ns"])),
        ("detection_pct", run.detection_pct, float(end["detection_pct"])),
        ("mapping_pct", run.mapping_pct, float(end["mapping_pct"])),
    )
    for name, got, want in checks:
        if got != want:
            run.errors.append(f"{name}: reconstructed {got!r} != summary {want!r}")


def report_paths(paths: Iterable["str | Path"]) -> list[RunReport]:
    """Reconstruct every run found in *paths* (one or more trace files)."""
    reports: list[RunReport] = []
    for p in paths:
        reports.extend(reconstruct_runs(iter_events(p)))
    return reports


def grid_report_paths(paths: Iterable["str | Path"]) -> list[GridReport]:
    """Reconstruct every grid invocation found in *paths*."""
    grids: list[GridReport] = []
    for p in paths:
        grids.extend(reconstruct_grids(iter_events(p)))
    return grids


def serve_report_paths(paths: Iterable["str | Path"]) -> list[ServeReport]:
    """Reconstruct every mapping-daemon lifetime found in *paths*."""
    serves: list[ServeReport] = []
    for p in paths:
        serves.extend(reconstruct_serves(iter_events(p)))
    return serves


def _format_table(reports: list[RunReport]) -> str:
    header = (
        f"{'workload':<14} {'policy':<8} {'migr':>5} {'detect%':>8} "
        f"{'map%':>8} {'faults':>9} {'inj%':>6} {'wakes':>6} {'evals':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        faults = r.first_touch_faults + r.injected_faults
        lines.append(
            f"{r.workload:<14.14} {r.policy:<8.8} {r.migrations:>5d} "
            f"{r.detection_pct:>8.3f} {r.mapping_pct:>8.3f} {faults:>9d} "
            f"{100.0 * r.injected_ratio:>6.1f} {r.injector_wakes:>6d} "
            f"{r.evaluations:>6d}"
        )
        if r.page_migrations or r.shared_deferred or r.pt_replications:
            lines.append(
                f"  placement: {r.page_migrations} page migration(s), "
                f"{r.shared_deferred} shared deferral(s), "
                f"{r.pt_replications} PT replication(s) "
                f"({r.replication_ns:.0f} ns)"
            )
        if r.mapper_calls:
            engines = ", ".join(
                f"{name} x{count}" for name, count in sorted(r.mapper_algorithms.items())
            ) or "edmonds (pre-graphs trace)"
            lines.append(
                f"  mapping: {engines} | decide wall "
                f"{1e3 * r.decide_wall_s:.2f} ms | matrix density "
                f"{r.matrix_density:.3f}"
            )
        if r.perf:
            p = r.perf
            lines.append(
                "  host: "
                f"wall {p.get('wall_s', 0.0):.3f}s | "
                f"hierarchy {p.get('hierarchy_s', 0.0):.3f} | "
                f"fault {p.get('fault_s', 0.0):.3f} "
                f"(detect {p.get('detect_s', 0.0):.3f}) | "
                f"spcd {p.get('spcd_s', 0.0):.3f} "
                f"(match {p.get('match_s', 0.0):.3f}) | "
                f"workload {p.get('workload_s', 0.0):.3f}"
            )
        for err in r.errors:
            lines.append(f"  !! {err}")
    return "\n".join(lines)


def _format_grid_table(grids: list[GridReport]) -> str:
    lines = ["sweep reliability"]
    lines.append("-" * len(lines[0]))
    for g in grids:
        resumed = (
            f", resumed ({g.resumed_done} done, {g.resumed_failed} failed)"
            if g.resumed
            else ""
        )
        timeout = f"{g.timeout_s:g}s" if g.timeout_s else "none"
        lines.append(
            f"grid {g.grid_key}: {g.cells} cells ({g.cached} cached, "
            f"{g.to_run} to run{resumed}) on {g.workers} worker(s), "
            f"timeout {timeout}, {g.retry_budget} retries"
        )
        failures = ", ".join(f"{k} x{n}" for k, n in sorted(g.attempt_failures.items()))
        lines.append(
            f"  completed {g.completed}/{g.cells}, failed {g.failed}, "
            f"retries {g.retries}" + (f" ({failures})" if failures else "")
        )
        for cell in g.failed_cells:
            lines.append(f"  failed: {cell}")
        for err in g.errors:
            lines.append(f"  !! {err}")
    return "\n".join(lines)


def _format_serve_table(serves: list[ServeReport]) -> str:
    lines = ["mapping service"]
    lines.append("-" * len(lines[0]))
    for s in serves:
        lines.append(
            f"serve {s.host}:{s.port} on {s.machine} "
            f"({s.shards} shards/session, cap {s.max_sessions}): "
            f"{s.sessions_served} sessions, {s.sessions_refused} refused, "
            f"exit reason {s.reason}"
        )
        verdicts = ", ".join(f"{k} x{n}" for k, n in sorted(s.verdicts.items()))
        lines.append(
            f"  {s.events_total} events in {s.batches_total} batches, "
            f"{s.remaps_total} remaps" + (f" ({verdicts})" if verdicts else "")
        )
        header = (
            f"  {'tenant':<14} {'reason':<10} {'events':>9} {'comm':>9} "
            f"{'evals':>6} {'remaps':>6}  {'digest':<16}"
        )
        lines.append(header)
        for sess in s.sessions:
            lines.append(
                f"  {str(sess.get('tenant', '?')):<14.14} "
                f"{str(sess.get('reason', '?')):<10.10} "
                f"{int(sess.get('events', 0)):>9d} "
                f"{int(sess.get('comm_events', 0)):>9d} "
                f"{int(sess.get('evaluations', 0)):>6d} "
                f"{int(sess.get('remaps', 0)):>6d}  "
                f"{str(sess.get('matrix_digest', '?')):<16}"
            )
        for err in s.errors:
            lines.append(f"  !! {err}")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Reconstruct Table II / Fig. 16 numbers — and grid sweep "
        "reliability — from REPRO_TRACE files.",
    )
    parser.add_argument("traces", nargs="+", type=Path, help="JSONL trace file(s)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    args = parser.parse_args(argv)

    reports = report_paths(args.traces)
    grids = grid_report_paths(args.traces)
    serves = serve_report_paths(args.traces)
    if not reports and not grids and not serves:
        print("no runs found in the given traces", file=sys.stderr)
        return 1
    if args.json:
        payload = (
            [r.as_dict() for r in reports]
            + [g.as_dict() for g in grids]
            + [s.as_dict() for s in serves]
        )
        print(json.dumps(payload, indent=2))
    else:
        sections = []
        if reports:
            sections.append(_format_table(reports))
        if grids:
            sections.append(_format_grid_table(grids))
        if serves:
            sections.append(_format_serve_table(serves))
        print("\n\n".join(sections))
    return (
        1
        if any(r.errors for r in reports)
        or any(g.errors for g in grids)
        or any(s.errors for s in serves)
        else 0
    )


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
