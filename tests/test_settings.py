"""Tests for the consolidated RunSettings configuration object."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.engine import settings as settings_module
from repro.engine.gridrunner import run_grid
from repro.engine.settings import (
    ENV_GRID_STRICT,
    ENV_GRID_WORKERS,
    ENV_RESULT_CACHE,
    ENV_TRACE,
    RunSettings,
    available_cpus,
    trace_from_env,
)
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import ConfigurationError
from repro.workloads.npb import make_npb


def test_defaults_from_empty_environment():
    s = RunSettings.from_env({})
    assert s == RunSettings()
    assert s.workers == 1
    assert s.cache_dir is None and s.trace is None
    assert not s.strict


def test_from_env_round_trip():
    env = {
        ENV_GRID_WORKERS: "1",
        ENV_RESULT_CACHE: "/tmp/cache",
        ENV_TRACE: "/tmp/trace",
        ENV_GRID_STRICT: "true",
    }
    s = RunSettings.from_env(env)
    assert s == RunSettings(
        workers=1, cache_dir="/tmp/cache", trace="/tmp/trace", strict=True
    )
    assert trace_from_env(env) == "/tmp/trace"
    assert trace_from_env({ENV_TRACE: "  "}) is None


def test_from_env_reads_the_process_environment(monkeypatch):
    monkeypatch.setenv(ENV_RESULT_CACHE, "/tmp/c7")
    monkeypatch.setenv(ENV_GRID_STRICT, "1")
    s = RunSettings.from_env()
    assert s.cache_dir == "/tmp/c7" and s.strict


def test_env_workers_is_capped_at_available_cpus():
    s = RunSettings.from_env({ENV_GRID_WORKERS: "10000"})
    assert s.workers == min(10000, available_cpus())
    # an explicitly constructed instance is honored verbatim
    assert RunSettings(workers=10000).workers == 10000


@pytest.mark.parametrize(
    "env",
    [
        {ENV_GRID_WORKERS: "three"},
        {ENV_GRID_STRICT: "maybe"},
        {ENV_GRID_STRICT: "2"},
        {ENV_GRID_WORKERS: "1.5"},
        {ENV_GRID_WORKERS: "2 workers"},
        {ENV_GRID_STRICT: "-1"},
        {ENV_GRID_STRICT: "kinda"},
    ],
)
def test_garbage_env_values_raise(env):
    with pytest.raises(ConfigurationError, match="bad REPRO_"):
        RunSettings.from_env(env)


def test_bad_grid_workers_message_names_the_variable():
    with pytest.raises(ConfigurationError, match="bad REPRO_GRID_WORKERS value 'three'"):
        RunSettings.from_env({ENV_GRID_WORKERS: "three"})


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        RunSettings(workers=0)
    with pytest.raises(ConfigurationError):
        RunSettings(workers=-3)


def test_settings_are_frozen():
    s = RunSettings()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.workers = 4


def test_with_overrides_semantics():
    base = RunSettings(workers=2, cache_dir="/tmp/c")
    # None keeps the existing value; values replace it
    assert base.with_overrides(workers=None) is base
    derived = base.with_overrides(workers=4, strict=True)
    assert derived.workers == 4 and derived.strict
    assert derived.cache_dir == "/tmp/c"  # untouched fields carry over
    assert base.workers == 2  # the original is untouched (frozen)
    with pytest.raises(ConfigurationError, match="unknown RunSettings"):
        base.with_overrides(warp_speed=9)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_env_table() -> "list[tuple[list[str], list[str]]]":
    """``(env names, field names)`` per row of README's env-variable table."""
    lines = README.read_text().splitlines()
    start = lines.index("| env variable | `RunSettings` field | meaning |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        env_cell, field_cell = line.split("|")[1:3]
        rows.append((re.findall(r"`([^`]+)`", env_cell), re.findall(r"`([^`]+)`", field_cell)))
    return rows


def test_readme_env_table_matches_run_settings():
    rows = _readme_env_table()
    env_names = [name for envs, _ in rows for name in envs]
    field_names = [name for _, fields in rows for name in fields]
    exported = {
        getattr(settings_module, name)
        for name in settings_module.__all__
        if name.startswith("ENV_")
    }
    assert len(rows) == 4
    assert len(env_names) == len(set(env_names))
    assert set(env_names) == exported
    assert sorted(field_names) == sorted(f.name for f in dataclasses.fields(RunSettings))


# ---------------------------------------------------------------------------
# a variable a program does not read cannot stop it
# ---------------------------------------------------------------------------
TINY = EngineConfig(steps=2, batch_size=64)


@pytest.mark.parametrize(
    "name, value",
    [
        ("REPRO_SERVE_PORT", "abc"),
        ("REPRO_SERVE_MAX_SESSIONS", "0"),
        (ENV_GRID_WORKERS, "three"),
    ],
)
def test_a_simulator_reads_only_the_trace_variable(monkeypatch, name, value):
    """A daemon or grid variable once made every Simulator raise while
    parsing it."""
    monkeypatch.setenv(name, value)
    result = Simulator(make_npb("CG"), "os", config=TINY).run()
    assert result.exec_time_s > 0


@pytest.mark.parametrize(
    "name, value", [("REPRO_SERVE_PORT", "abc"), ("REPRO_SERVE_MAX_SESSIONS", "0")]
)
def test_a_grid_ignores_daemon_variables(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    grid = run_grid(["CG"], ["os"], 1, config=TINY)
    assert grid.ok and grid.cache_misses == 1


def test_a_grid_still_rejects_a_bad_grid_variable(monkeypatch):
    monkeypatch.setenv(ENV_GRID_WORKERS, "three")
    with pytest.raises(ConfigurationError, match="bad REPRO_GRID_WORKERS"):
        run_grid(["CG"], ["os"], 1, config=TINY)
