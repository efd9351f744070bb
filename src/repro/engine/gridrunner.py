"""Disk-cached, parallel experiment grids; the result cache is the checkpoint.

The paper's figures are projections of one expensive grid: every NPB
benchmark under every mapping policy, replicated with derived seeds
(Sec. V-A).  :func:`run_grid` executes such a grid as independent
``(workload, policy, rep)`` cells:

* **caching** — each cell's :class:`~repro.engine.simulator.SimulationResult`
  is memoized in a content-addressed on-disk cache
  (:mod:`repro.engine.cache`, ``REPRO_RESULT_CACHE``);
* **parallel execution** — cells missing from the cache run on a
  :class:`concurrent.futures.ProcessPoolExecutor` sized by
  :class:`~repro.engine.settings.RunSettings` (``REPRO_GRID_WORKERS``),
  or in-process with one worker;
* **resume** — each result is stored in the cache the moment it lands,
  so re-invoking a killed or crashed sweep loads every finished cell
  and runs only the rest;
* **failures** — a cell that raises, or that a crashed worker took down,
  becomes a typed :class:`CellFailure` entry instead of aborting the
  sweep (opt-in strict mode raises
  :class:`~repro.errors.GridExecutionError` after draining);
* **observability** — the sweep's cell outcomes are traced through
  :mod:`repro.obs`, and ``python -m repro.obs.report`` summarizes them.

Determinism: a cell's seed is ``derive_seed(base_seed, "rep", rep,
policy)`` and each cell simulation is fully determined by its seed, so
grid results are byte-identical no matter how cells are scheduled across
processes and invocations.  A failed cell is not retried: it would raise
the same exception again.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.manager import SpcdConfig
from repro.engine import cache as _cache_mod
from repro.engine.runner import (
    REPORT_METRICS,
    ReplicatedResult,
    WorkloadFactory,
    summarize,
)
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, SimulationResult, Simulator
from repro.errors import ConfigurationError, GridExecutionError
from repro.machine.topology import Machine, dual_xeon_e5_2650
from repro.obs.events import CellCompleted, CellFailed, GridEnd, GridStart
from repro.obs.recorder import JsonlRecorder, cell_trace_path, grid_trace_path
from repro.placement import PlacementPolicy, resolve_policy
from repro.rng import derive_seed
from repro.workloads.npb import make_npb

__all__ = [
    "CellFailure",
    "GridResult",
    "run_cell",
    "run_grid",
]

#: a workload in a grid: an NPB benchmark name, a zero-arg factory, or an
#: explicit ``(name, factory)`` pair
WorkloadSpec = "str | WorkloadFactory | tuple[str, WorkloadFactory]"


def _unique_by_name(kind: str, items: "Sequence[tuple[str, object]]") -> dict:
    """``{name: item}``, raising :class:`ConfigurationError` on a repeated name."""
    by_name: dict = {}
    for name, item in items:
        if name in by_name:
            raise ConfigurationError(f"run_grid got two {kind} named {name!r}")
        by_name[name] = item
    return by_name


def _resolve_spec(spec: "WorkloadSpec") -> tuple[str, WorkloadFactory]:
    """Normalise a workload spec to ``(name, factory)``."""
    if isinstance(spec, str):
        return spec, partial(make_npb, spec)
    if isinstance(spec, tuple):
        name, factory = spec
        return str(name), factory
    if callable(spec):
        name = getattr(spec, "__name__", None)
        if name is None and isinstance(spec, partial):
            name = getattr(spec.func, "__name__", "workload")
            if spec.args:
                name = f"{name}:{','.join(map(str, spec.args))}"
        return name or "workload", spec
    raise ConfigurationError(f"cannot interpret workload spec {spec!r}")


def _factory_token(factory: WorkloadFactory) -> tuple:
    """A stable, content-addressable identity for a workload factory.

    Built from import path + arguments, never ``repr`` (which leaks memory
    addresses).  Named module-level functions and :func:`functools.partial`
    over named functions yield stable tokens.  Factories *without* a stable
    import path — lambdas, closures (``<locals>`` in the qualname), objects
    with no ``__qualname__`` at all — raise :class:`ConfigurationError`:
    every lambda in a module shares the qualname ``<lambda>``, so two
    different ad-hoc factories would otherwise collide in the cell key and
    silently serve each other's cached results.  Callers bypass the cache
    for such factories (see :func:`_cache_token`).
    """
    if isinstance(factory, partial):
        return (
            "partial",
            _factory_token(factory.func),
            tuple(factory.args),
            tuple(sorted(factory.keywords.items())),
        )
    module = getattr(factory, "__module__", "?")
    qualname = getattr(factory, "__qualname__", getattr(factory, "__name__", None))
    if qualname is None or "<lambda>" in qualname or "<locals>" in qualname:
        raise ConfigurationError(
            f"workload factory {qualname or factory!r} (module {module}) has no "
            "stable import path, so its cached results would collide with any "
            "other such factory; define the factory at module level or use "
            "functools.partial over a named function"
        )
    return ("fn", module, qualname)


def _cache_token(factory: WorkloadFactory) -> "tuple | None":
    """The factory's cache token, or ``None`` to bypass the cache.

    A factory with no stable identity cannot be safely cached; degrade to
    an uncached run (with a warning) rather than failing the experiment or
    — worse — colliding silently.
    """
    try:
        return _factory_token(factory)
    except ConfigurationError as exc:
        warnings.warn(f"{exc}; running without the result cache", stacklevel=3)
        return None


@dataclass(frozen=True)
class _Cell:
    """One grid cell: a fully specified single simulation."""

    workload: str
    policy: str
    rep: int
    seed: int
    key: str  # content-addressed cache key


@dataclass(frozen=True)
class CellFailure:
    """A cell that produced no result (graceful-degradation entry).

    The sweep completes around it; strict mode turns the presence of any
    such entry into a :class:`~repro.errors.GridExecutionError`.
    """

    workload: str
    policy: str
    rep: int
    seed: int
    #: ``error`` (the cell raised, or its payload could not be pickled) or
    #: ``crash`` (a worker process died before the cell finished)
    kind: str
    #: ``"<exception type>: <message>"``
    message: str


def grid_key(cell_keys: Iterable[str]) -> str:
    """Digest identifying one exact grid (order-insensitive over cells);
    grid trace files are named after it."""
    h = hashlib.blake2b(digest_size=12)
    for key in sorted(cell_keys):
        h.update(key.encode())
        h.update(b"\0")
    return h.hexdigest()


def _cell_key(
    wl_token: tuple,
    policy: PlacementPolicy,
    seed: int,
    machine: Machine,
    config: EngineConfig,
    spcd_config: SpcdConfig,
) -> str:
    """Digest of everything that determines one cell's result.

    The policy enters as the ``repr`` of its whole record, so two
    policies that share a name but differ in a flag never share a cache
    entry.  :class:`RunSettings` is not hashed: no setting changes a
    result.
    """
    blob = repr(
        (wl_token, repr(policy), seed, repr(machine), repr(config), repr(spcd_config))
    )
    h = hashlib.blake2b(digest_size=20)
    h.update(_cache_mod.code_version().encode())
    h.update(blob.encode())
    return h.hexdigest()


def _run_cell_job(payload: tuple) -> SimulationResult:
    """Run one cell simulation (module-level, so pool workers can unpickle it)."""
    factory, policy, seed, machine, config, spcd_config, trace_path, settings = payload
    recorder = JsonlRecorder(trace_path) if trace_path else None
    sim = Simulator(
        factory(),
        policy,
        machine=machine,
        seed=seed,
        config=config,
        spcd_config=spcd_config,
        recorder=recorder,
        settings=settings,
    )
    return sim.run()


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: exit once the process running the sweep is gone.

    A SIGKILLed sweep cannot shut its pool down, and its idle workers
    would otherwise wait on the task queue forever.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


# ---------------------------------------------------------------------------
# settings / kwarg resolution
# ---------------------------------------------------------------------------
def _effective_settings(settings: "RunSettings | None", **overrides) -> RunSettings:
    """Explicit kwargs > explicit ``settings`` > the environment."""
    base = settings if settings is not None else RunSettings.from_env()
    return base.with_overrides(**overrides)


def _resolve_cache(cache, eff: RunSettings) -> "_cache_mod.ResultCache | None":
    """The live cache object: an explicit instance wins, else the settings."""
    if isinstance(cache, _cache_mod.ResultCache):
        return cache
    if eff.cache_dir:
        return _cache_mod.ResultCache(eff.cache_dir)
    return None


def run_cell(
    workload: "WorkloadSpec",
    policy: "PlacementPolicy | str",
    rep: int = 0,
    *,
    base_seed: int = 42,
    machine: "Machine | None" = None,
    config: "EngineConfig | None" = None,
    spcd_config: "SpcdConfig | None" = None,
    cache: "object | None" = None,
    trace: "str | os.PathLike | None" = None,
    settings: "RunSettings | None" = None,
) -> tuple[SimulationResult, bool]:
    """One grid cell, through the cache; returns ``(result, was_cached)``.

    *cache* accepts a directory path or a live
    :class:`~repro.engine.cache.ResultCache`; unset, it follows
    *settings* (default: the ``REPRO_RESULT_CACHE`` environment).  With
    *trace* (default: ``REPRO_TRACE``) set, a freshly simulated cell
    writes its JSONL trace to :func:`repro.obs.recorder.cell_trace_path`;
    cells served from the cache do not re-run and produce no trace.  The
    recorder never participates in the cache key.
    """
    eff = _effective_settings(
        settings,
        cache_dir=None
        if cache is None or isinstance(cache, _cache_mod.ResultCache)
        else str(cache),
        trace=str(trace) if trace is not None else None,
    )
    policy = resolve_policy(policy)
    name, factory = _resolve_spec(workload)
    machine = machine or dual_xeon_e5_2650()
    config = config or EngineConfig()
    spcd_config = spcd_config or SpcdConfig()
    seed = derive_seed(base_seed, "rep", rep, policy.name)
    live_cache = _resolve_cache(cache, eff)
    key = ""
    if live_cache is not None:
        token = _cache_token(factory)
        if token is None:
            live_cache = None  # no stable identity: bypass, never collide
        else:
            key = _cell_key(token, policy, seed, machine, config, spcd_config)
            hit = live_cache.load(key)
            if hit is not None:
                return hit, True
    trace_root = Path(eff.trace) if eff.trace else None
    trace_path = (
        str(cell_trace_path(trace_root, name, policy.name, rep))
        if trace_root is not None
        else None
    )
    job_settings = replace(eff, trace=None)  # recorder is built explicitly
    result = _run_cell_job(
        (factory, policy, seed, machine, config, spcd_config, trace_path, job_settings)
    )
    if live_cache is not None:
        live_cache.store(key, result)
    return result, False


@dataclass
class GridResult:
    """All cells of one grid run, plus the cells that failed."""

    #: ``(workload name, policy) -> ReplicatedResult`` (cells where at
    #: least one repetition produced a result)
    cells: dict[tuple[str, str], ReplicatedResult] = field(default_factory=dict)
    #: cells served from the on-disk cache
    cache_hits: int = 0
    #: cells actually simulated (or attempted)
    cache_misses: int = 0
    #: cells that produced no result (graceful degradation)
    failures: list[CellFailure] = field(default_factory=list)
    #: failures of kind ``crash`` (a worker process died)
    crashes: int = 0

    @property
    def ok(self) -> bool:
        """True when every cell produced a result."""
        return not self.failures

    def cell(self, workload: str, policy: str) -> ReplicatedResult:
        """The replicated summary of one ``(workload, policy)`` cell."""
        return self.cells[(workload, resolve_policy(policy).name)]

    def by_workload(self, workload: str) -> dict[str, ReplicatedResult]:
        """``{policy: ReplicatedResult}`` for one workload (for
        :func:`repro.engine.runner.normalized_to`)."""
        return {p: r for (w, p), r in self.cells.items() if w == workload}

    def failed_cells(
        self, workload: "str | None" = None, policy: "str | None" = None
    ) -> list[CellFailure]:
        """Failure records, optionally filtered by workload and/or policy."""
        return [
            f
            for f in self.failures
            if (workload is None or f.workload == workload)
            and (policy is None or f.policy == policy)
        ]

    @property
    def workloads(self) -> list[str]:
        """Workload names present, in insertion order."""
        seen: dict[str, None] = {}
        for w, _ in self.cells:
            seen.setdefault(w)
        return list(seen)


def run_grid(
    workloads: Sequence["WorkloadSpec"],
    policies: Sequence["PlacementPolicy | str"] = (
        "os",
        "random",
        "oracle",
        "spcd",
    ),
    reps: int = 3,
    *,
    base_seed: int = 42,
    machine: "Machine | None" = None,
    config: "EngineConfig | None" = None,
    spcd_config: "SpcdConfig | None" = None,
    workers: "int | None" = None,
    cache: "object | None" = None,
    trace: "str | os.PathLike | None" = None,
    settings: "RunSettings | None" = None,
    strict: "bool | None" = None,
    keep_runs: bool = False,
    progress: "Callable[[str], None] | None" = None,
) -> GridResult:
    """Run a ``workloads x policies x reps`` grid of simulations.

    Configuration resolves explicit keyword > *settings* object >
    environment (:meth:`RunSettings.from_env`).  Cells already in the
    result cache are loaded; the rest run in-process with one worker, or
    on a :class:`~concurrent.futures.ProcessPoolExecutor` of *workers*
    processes (fork start method where available).  Results are
    byte-identical whatever the worker count.

    **Resume.**  Each result is stored in the cache the moment it lands,
    so re-invoking a killed sweep loads every cell that finished and runs
    only the rest.

    **Failure model.**  A cell that raises becomes a
    :class:`CellFailure` of kind ``error``; if a worker process dies,
    every cell not yet finished becomes a ``crash``.  The sweep completes
    around failures; with *strict* it instead raises
    :class:`~repro.errors.GridExecutionError` after draining.  Cells are
    only aggregated over repetitions that produced results.

    With *trace* (default: ``REPRO_TRACE``) set, every freshly simulated
    cell writes one JSONL trace file and the sweep's cell outcomes are
    traced to a ``grid-*.jsonl`` file for ``python -m repro.obs.report``.
    Trace configuration is deliberately excluded from the cell cache
    keys: tracing never changes results.
    """
    if reps <= 0:
        raise ConfigurationError("reps must be positive")
    if not workloads or not policies:
        raise ConfigurationError("run_grid needs at least one workload and one policy")
    eff = _effective_settings(
        settings,
        workers=workers,
        cache_dir=None
        if cache is None or isinstance(cache, _cache_mod.ResultCache)
        else str(cache),
        trace=str(trace) if trace is not None else None,
        strict=strict,
    )
    machine = machine or dual_xeon_e5_2650()
    config = config or EngineConfig()
    spcd_config = spcd_config or SpcdConfig()
    live_cache = _resolve_cache(cache, eff)

    specs = [_resolve_spec(w) for w in workloads]
    pols = [resolve_policy(p) for p in policies]
    # cells, results and seeds are keyed by name: a repeated name would
    # silently merge two different grid rows into one
    factories = _unique_by_name("workloads", specs)
    pol_by_name = _unique_by_name("policies", [(p.name, p) for p in pols])

    cells: list[_Cell] = []
    for name, factory in specs:
        token = _cache_token(factory) if live_cache is not None else None
        for pol in pols:
            for rep in range(reps):
                seed = derive_seed(base_seed, "rep", rep, pol.name)
                key = (
                    _cell_key(token, pol, seed, machine, config, spcd_config)
                    if token is not None
                    else ""
                )
                cells.append(_Cell(name, pol.name, rep, seed, key))

    results: dict[tuple[str, str, int], SimulationResult] = {}
    misses: list[_Cell] = []
    for cell in cells:
        cached = (
            live_cache.load(cell.key) if live_cache is not None and cell.key else None
        )
        if cached is not None:
            results[(cell.workload, cell.policy, cell.rep)] = cached
        else:
            misses.append(cell)
    hits = len(cells) - len(misses)

    gkey = grid_key([c.key for c in cells if c.key])
    trace_root = Path(eff.trace) if eff.trace else None
    grid_rec = (
        JsonlRecorder(grid_trace_path(trace_root, gkey))
        if trace_root is not None
        else None
    )
    if grid_rec is not None:
        grid_rec.emit(
            GridStart(
                grid_key=gkey,
                workloads=[name for name, _ in specs],
                policies=[p.name for p in pols],
                reps=reps,
                cells=len(cells),
                cached=hits,
                to_run=len(misses),
                workers=eff.workers,
                strict=eff.strict,
            )
        )
    if progress is not None:
        progress(f"grid: {hits}/{len(cells)} cells cached, {len(misses)} to run")

    job_settings = replace(eff, trace=None)  # per-cell recorders are explicit

    def payload_of(c: _Cell) -> tuple:
        trace_path = (
            str(cell_trace_path(trace_root, c.workload, c.policy, c.rep))
            if trace_root is not None
            else None
        )
        return (
            factories[c.workload],
            pol_by_name[c.policy],
            c.seed,
            machine,
            config,
            spcd_config,
            trace_path,
            job_settings,
        )

    failures: list[CellFailure] = []

    def settle(cell: _Cell, result: SimulationResult) -> None:
        """Store one finished cell the moment it lands (the resume point)."""
        results[(cell.workload, cell.policy, cell.rep)] = result
        if live_cache is not None and cell.key:
            live_cache.store(cell.key, result)
        if grid_rec is not None:
            grid_rec.emit(
                CellCompleted(workload=cell.workload, policy=cell.policy, rep=cell.rep)
            )

    def settle_failure(cell: _Cell, kind: str, exc: BaseException) -> None:
        message = f"{type(exc).__name__}: {exc}"
        failures.append(
            CellFailure(
                workload=cell.workload,
                policy=cell.policy,
                rep=cell.rep,
                seed=cell.seed,
                kind=kind,
                message=message,
            )
        )
        if grid_rec is not None:
            grid_rec.emit(
                CellFailed(
                    workload=cell.workload,
                    policy=cell.policy,
                    rep=cell.rep,
                    kind=kind,
                    message=message,
                )
            )
        if progress is not None:
            progress(f"grid: {cell.workload}/{cell.policy}/rep{cell.rep} {kind}: {message}")

    if misses and eff.workers == 1:
        for cell in misses:
            try:
                result = _run_cell_job(payload_of(cell))
            except Exception as exc:  # noqa: BLE001 - graceful degradation
                settle_failure(cell, "error", exc)
            else:
                settle(cell, result)
    elif misses:
        ctx = get_context("fork" if "fork" in get_all_start_methods() else "spawn")
        pool = ProcessPoolExecutor(
            max_workers=min(eff.workers, len(misses)),
            mp_context=ctx,
            initializer=_exit_with_parent,
            initargs=(os.getpid(),),
        )
        try:
            futures = {}
            for cell in misses:
                try:
                    futures[pool.submit(_run_cell_job, payload_of(cell))] = cell
                except BrokenProcessPool as exc:  # a worker died mid-submission
                    settle_failure(cell, "crash", exc)
            for future in as_completed(futures):
                cell = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    settle_failure(cell, "crash", exc)
                except Exception as exc:  # noqa: BLE001 - graceful degradation
                    settle_failure(cell, "error", exc)
                else:
                    settle(cell, result)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    crashes = sum(f.kind == "crash" for f in failures)
    if grid_rec is not None:
        grid_rec.emit(
            GridEnd(
                grid_key=gkey,
                cells=len(cells),
                cache_hits=hits,
                cache_misses=len(misses),
                completed=len(results),
                failed=len(failures),
                crashes=crashes,
            )
        )
        grid_rec.close()

    if failures and eff.strict:
        detail = "; ".join(
            f"{f.workload}/{f.policy}/rep{f.rep} ({f.kind}: {f.message})"
            for f in failures
        )
        raise GridExecutionError(
            f"strict grid run: {len(failures)} cell(s) failed: {detail}", failures
        )

    grid = GridResult(
        cache_hits=hits,
        cache_misses=len(misses),
        failures=failures,
        crashes=crashes,
    )
    for name, _ in specs:
        for pol in pols:
            runs = [
                results[(name, pol.name, rep)]
                for rep in range(reps)
                if (name, pol.name, rep) in results
            ]
            if not runs:
                continue  # every repetition failed: see grid.failures
            metrics = {
                m: summarize([r.metric(m) for r in runs]) for m in REPORT_METRICS
            }
            grid.cells[(name, pol.name)] = ReplicatedResult(
                workload=runs[0].workload,
                policy=pol.name,
                metrics=metrics,
                runs=runs if keep_runs else [],
            )
    return grid
