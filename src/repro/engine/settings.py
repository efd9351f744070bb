"""Typed run configuration — the single home of every ``REPRO_*`` env read.

Historically the grid runner, the trace recorder and the engine
selectors each read their own environment variable at their own call
site, so the set of knobs that shaped a run was scattered across four
modules.  :class:`RunSettings` consolidates them: a frozen dataclass
holding the four execution knobs of an experiment grid, built either
explicitly (library use) or from the environment via
:meth:`RunSettings.from_env` (CLI / CI use).  A lone
:class:`~repro.engine.simulator.Simulator` reads only ``REPRO_TRACE``,
through :func:`trace_from_env`.  No other module in ``src/repro`` may
read a ``REPRO_*`` variable — ``tools/check_env_reads.py`` enforces the
ban in CI.  The mapping daemon reads none: its deployment settings are
``python -m repro.serve`` flags, one per
:class:`~repro.serve.server.ServeConfig` field.

Settings describe the execution environment only (workers, cache,
trace, strict mode): none of them changes a simulation result, which is
why the result cache's key leaves them out.  Every switch that does
change a result lives in :class:`~repro.engine.simulator.EngineConfig`,
:class:`~repro.core.manager.SpcdConfig` or the placement policy.

Resolution order used by :func:`repro.engine.gridrunner.run_grid`: an
explicit keyword argument beats a field of an explicit ``settings=``
object, which beats the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from repro.errors import ConfigurationError

__all__ = [
    "ENV_GRID_STRICT",
    "ENV_GRID_WORKERS",
    "ENV_RESULT_CACHE",
    "ENV_TRACE",
    "RunSettings",
    "available_cpus",
    "trace_from_env",
]

#: process-pool size for grid execution (0/1 = serial, in-process)
ENV_GRID_WORKERS = "REPRO_GRID_WORKERS"
#: result-cache directory (empty/unset = caching disabled)
ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"
#: trace sink: a ``.jsonl`` file or a directory (empty/unset = tracing off)
ENV_TRACE = "REPRO_TRACE"
#: strict mode: a failed cell fails the whole sweep
ENV_GRID_STRICT = "REPRO_GRID_STRICT"

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _get(environ: "dict[str, str] | None", name: str) -> str:
    source = os.environ if environ is None else environ
    return source.get(name, "").strip()


def _env_bool(environ: "dict[str, str] | None", name: str) -> bool:
    raw = _get(environ, name)
    if raw.lower() in _TRUE:
        return True
    if raw.lower() in _FALSE:
        return False
    raise ConfigurationError(f"bad {name} value {raw!r} (expected a boolean flag)")


def trace_from_env(environ: "dict[str, str] | None" = None) -> "str | None":
    """The ``REPRO_TRACE`` sink, or ``None`` when tracing is off.

    The one reader of that variable: :meth:`RunSettings.from_env` and a
    :class:`~repro.engine.simulator.Simulator` built without a recorder
    both call it.
    """
    return _get(environ, ENV_TRACE) or None


@dataclass(frozen=True)
class RunSettings:
    """Every knob shaping how experiments execute, in one frozen object.

    Construct directly for programmatic use (fields are validated), or
    with :meth:`from_env` to honor the ``REPRO_*`` environment.  Instances
    are immutable; derive variants with :meth:`with_overrides`.
    """

    #: process-pool size for grid execution; 1 = serial, in-process
    workers: int = 1
    #: result-cache directory; ``None`` disables the on-disk cache
    cache_dir: "str | None" = None
    #: trace sink (``.jsonl`` file or directory); ``None`` disables tracing
    trace: "str | None" = None
    #: strict mode: a failed cell raises
    #: :class:`~repro.errors.GridExecutionError` instead of degrading to a
    #: :class:`~repro.engine.gridrunner.CellFailure` entry
    strict: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    @classmethod
    def from_env(cls, environ: "dict[str, str] | None" = None) -> "RunSettings":
        """Settings from the ``REPRO_*`` environment (*environ* overrides
        :data:`os.environ`, for tests).

        ``REPRO_GRID_WORKERS`` is capped at the CPUs actually available to
        the process: oversubscribing a grid of CPU-bound simulations only
        adds scheduling overhead, so on a constrained machine the env
        default degrades to serial rather than running slower than it.  An
        explicitly constructed :class:`RunSettings` (or an explicit
        ``workers=`` argument to :func:`~repro.engine.gridrunner.run_grid`)
        is honored verbatim.
        """
        raw_workers = _get(environ, ENV_GRID_WORKERS)
        if not raw_workers:
            workers = 1
        else:
            try:
                requested = max(1, int(raw_workers))
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad {ENV_GRID_WORKERS} value {raw_workers!r}"
                ) from exc
            workers = min(requested, available_cpus())
        return cls(
            workers=workers,
            cache_dir=_get(environ, ENV_RESULT_CACHE) or None,
            trace=trace_from_env(environ),
            strict=_env_bool(environ, ENV_GRID_STRICT),
        )

    def with_overrides(self, **overrides: object) -> "RunSettings":
        """A copy with every non-``None`` override applied.

        ``None`` means "keep my value", matching the keyword-argument
        convention of :func:`~repro.engine.gridrunner.run_grid`; fields
        whose ``None`` is meaningful (``cache_dir``, ``trace``) cannot be
        *cleared* through this method — pass an explicitly constructed
        :class:`RunSettings` instead.
        """
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigurationError(f"unknown RunSettings fields: {sorted(unknown)}")
        effective = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **effective) if effective else self
