"""Shared infrastructure for the figure/table reproduction benchmarks.

Running the full NPB suite (10 benchmarks x 4 policies x N repetitions) is
the expensive part; every figure is a different projection of the *same*
runs.  The session-scoped :class:`SuiteCache` therefore executes each
(benchmark, policy, repetition) simulation exactly once per session, and
additionally persists results through the content-addressed disk cache of
:mod:`repro.engine.gridrunner`, so a second benchmark session with the same
configuration and engine sources re-runs nothing.

Environment knobs:

* ``REPRO_BENCH_STEPS``  — simulation steps per run (default 400).
* ``REPRO_BENCH_REPS``   — repetitions per configuration (default 3;
  the paper used 10).
* ``REPRO_BENCH_SET``    — comma-separated benchmark subset (default: all).
* ``REPRO_GRID_WORKERS`` — process-pool size for bulk cell execution.
* ``REPRO_RESULT_CACHE`` — result cache directory (default:
  ``benchmarks/.result_cache``; set to an empty string to disable).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.engine.cache import ResultCache
from repro.engine.gridrunner import run_grid
from repro.engine.runner import MetricStats, summarize
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, SimulationResult, Simulator
from repro.placement import resolve_policy
from repro.rng import derive_seed
from repro.workloads.npb import NPB_SPECS, make_npb

BENCH_STEPS = int(os.environ.get("REPRO_BENCH_STEPS", "400"))
BENCH_REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
BENCH_SET = [
    b.strip().upper()
    for b in os.environ.get("REPRO_BENCH_SET", ",".join(NPB_SPECS)).split(",")
    if b.strip()
]
BASE_SEED = 42
POLICIES = ("os", "random", "oracle", "spcd")

RESULTS_DIR = Path(__file__).parent / "results"


def _result_cache() -> ResultCache | None:
    """The benchmark harness' disk cache (``REPRO_RESULT_CACHE`` override)."""
    if "REPRO_RESULT_CACHE" in os.environ:
        cache_dir = RunSettings.from_env().cache_dir
        return ResultCache(cache_dir) if cache_dir else None
    return ResultCache(Path(__file__).parent / ".result_cache")


def engine_config(**overrides) -> EngineConfig:
    """The benchmark harness' engine configuration."""
    kw = dict(batch_size=256, steps=BENCH_STEPS)
    kw.update(overrides)
    return EngineConfig(**kw)


class SuiteCache:
    """Memoizes (benchmark, policy, rep) simulation results for a session.

    Results flow through :func:`repro.engine.gridrunner.run_grid`, so they
    are also persisted on disk and shared across sessions; ``cache_hits`` /
    ``cache_misses`` count disk-cache outcomes for this session.
    """

    def __init__(self) -> None:
        self._results: dict[tuple[str, str, int], SimulationResult] = {}
        self._sims: dict[tuple[str, str, int], Simulator] = {}
        self._cache = _result_cache()
        self._prefetched = False
        self.cache_hits = 0
        self.cache_misses = 0

    def _row(self, bench: str, policy: str, reps: int) -> list[SimulationResult]:
        """Repetitions ``0..reps-1`` of one cell, memoized in-session and
        cached on disk."""
        keys = [(bench, policy, rep) for rep in range(reps)]
        if any(key not in self._results for key in keys):
            grid = run_grid(
                [bench],
                [policy],
                reps,
                base_seed=BASE_SEED,
                config=engine_config(),
                cache=self._cache,
                strict=True,
                keep_runs=True,
            )
            for key, result in zip(keys, grid.cell(bench, policy).runs):
                self._results.setdefault(key, result)
            self.cache_hits += grid.cache_hits
            self.cache_misses += grid.cache_misses
        return [self._results[key] for key in keys]

    def run(self, bench: str, policy: str, rep: int = 0) -> SimulationResult:
        """Repetition *rep* of one cell (the earlier ones run with it)."""
        return self._row(bench, policy, rep + 1)[rep]

    def simulator(self, bench: str, policy: str, rep: int = 0) -> Simulator:
        """The live simulator behind one cell (runs it locally if needed).

        Benchmarks that inspect simulator internals (e.g. the communication
        matrices of Fig. 7) need the in-process object, which a disk-cached
        result cannot provide — so this always executes locally.
        """
        key = (bench, policy, rep)
        if key not in self._sims:
            seed = derive_seed(BASE_SEED, "rep", rep, resolve_policy(policy).name)
            sim = Simulator(
                make_npb(bench), policy, seed=seed, config=engine_config()
            )
            self._results[key] = sim.run()
            self._sims[key] = sim
        return self._sims[key]

    def ensure_grid(self) -> None:
        """Prefetch the full BENCH_SET x POLICIES x BENCH_REPS grid.

        Uses :func:`repro.engine.gridrunner.run_grid`, so uncached cells run
        on the ``REPRO_GRID_WORKERS`` process pool.
        """
        if self._prefetched:
            return
        grid = run_grid(
            BENCH_SET,
            POLICIES,
            BENCH_REPS,
            base_seed=BASE_SEED,
            config=engine_config(),
            cache=self._cache,
            keep_runs=True,
        )
        for (bench, policy), cell in grid.cells.items():
            for rep, result in enumerate(cell.runs):
                self._results.setdefault((bench, policy, rep), result)
        self.cache_hits += grid.cache_hits
        self.cache_misses += grid.cache_misses
        self._prefetched = True

    def replicated(self, bench: str, policy: str) -> list[SimulationResult]:
        """All repetitions of one cell."""
        return self._row(bench, policy, BENCH_REPS)

    def metric_stats(self, bench: str, policy: str, metric: str) -> MetricStats:
        """Mean + 95% CI of one metric over the repetitions."""
        return summarize([r.metric(metric) for r in self.replicated(bench, policy)])

    def normalized_series(self, metric: str) -> dict[str, dict[str, float]]:
        """{bench: {policy: mean metric normalised to the OS baseline}}."""
        self.ensure_grid()
        out: dict[str, dict[str, float]] = {}
        for bench in BENCH_SET:
            base = self.metric_stats(bench, "os", metric).mean
            out[bench] = {
                policy: (self.metric_stats(bench, policy, metric).mean / base
                         if base else float("nan"))
                for policy in POLICIES
            }
        return out


@pytest.fixture(scope="session")
def suite() -> SuiteCache:
    """The shared suite cache."""
    return SuiteCache()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where figure text/PGM outputs are written."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a figure table and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / name).write_text(text + "\n")
