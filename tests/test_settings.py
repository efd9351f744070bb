"""Tests for the consolidated RunSettings configuration object."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.engine import settings as settings_module
from repro.engine.settings import (
    ENV_GRID_STRICT,
    ENV_GRID_WORKERS,
    ENV_RESULT_CACHE,
    ENV_SERVE_EVAL_EVERY,
    ENV_SERVE_MAX_TABLE_MB,
    ENV_SERVE_PORT,
    ENV_TRACE,
    RunSettings,
    available_cpus,
)
from repro.errors import ConfigurationError


def test_defaults_from_empty_environment():
    s = RunSettings.from_env({})
    assert s == RunSettings()
    assert s.workers == 1
    assert s.cache_dir is None and s.trace is None
    assert not s.strict
    assert s.serve_max_table_mb == 64.0


def test_from_env_round_trip():
    env = {
        ENV_GRID_WORKERS: "1",
        ENV_RESULT_CACHE: "/tmp/cache",
        ENV_TRACE: "/tmp/trace",
        ENV_GRID_STRICT: "true",
        ENV_SERVE_MAX_TABLE_MB: "12.5",
        ENV_SERVE_EVAL_EVERY: "4",
    }
    s = RunSettings.from_env(env)
    assert s.workers == 1
    assert s.cache_dir == "/tmp/cache"
    assert s.trace == "/tmp/trace"
    assert s.strict
    assert s.serve_max_table_mb == 12.5
    assert s.serve_eval_every == 4
    # the dict view round-trips into an equal instance
    assert RunSettings(**s.as_dict()) == s


def test_from_env_reads_the_process_environment(monkeypatch):
    monkeypatch.setenv(ENV_SERVE_EVAL_EVERY, "7")
    monkeypatch.setenv(ENV_GRID_STRICT, "1")
    s = RunSettings.from_env()
    assert s.serve_eval_every == 7 and s.strict


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
        {ENV_SERVE_MAX_TABLE_MB: "0"},
        {ENV_SERVE_MAX_TABLE_MB: "-5"},
        {ENV_SERVE_PORT: "70000"},
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
        RunSettings(serve_max_table_mb=0)


def test_settings_are_frozen():
    s = RunSettings()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.workers = 4


def test_with_overrides_semantics():
    base = RunSettings(workers=2, serve_eval_every=100)
    # None keeps the existing value; values replace it
    assert base.with_overrides(workers=None) is base
    derived = base.with_overrides(workers=4, strict=True)
    assert derived.workers == 4 and derived.strict
    assert derived.serve_eval_every == 100  # untouched fields carry over
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
    assert len(env_names) == len(set(env_names))
    assert set(env_names) == exported
    assert sorted(field_names) == sorted(f.name for f in dataclasses.fields(RunSettings))
