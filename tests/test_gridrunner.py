"""Tests for the parallel, disk-cached grid runner."""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from functools import partial

import pytest

from repro.engine.cache import ResultCache, code_version
from repro.engine.gridrunner import (
    _cell_key,
    _factory_token,
    _resolve_spec,
    run_grid,
)
from repro.engine.runner import normalized_to
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig
from repro.errors import ConfigurationError
from repro.machine.topology import dual_xeon_e5_2650
from repro.core.injector import InjectorMode
from repro.core.manager import SpcdConfig
from repro.engine.energy import EnergyParams
from repro.engine.metrics import TimeParams
from repro.placement import PlacementPolicy, resolve_policy
from repro.workloads.npb import make_npb

CFG = EngineConfig(steps=15, batch_size=128)


# ---------------------------------------------------------------------------
# spec / key plumbing
# ---------------------------------------------------------------------------
def test_resolve_spec_forms():
    name, factory = _resolve_spec("CG")
    assert name == "CG" and factory().name == make_npb("CG").name

    name2, factory2 = _resolve_spec(("mine", partial(make_npb, "FT")))
    assert name2 == "mine" and factory2().name == make_npb("FT").name

    bare = partial(make_npb, "IS")
    name3, _ = _resolve_spec(bare)
    assert "IS" in name3

    with pytest.raises(ConfigurationError):
        _resolve_spec(42)


def test_factory_token_is_stable_and_content_based():
    t1 = _factory_token(partial(make_npb, "CG"))
    t2 = _factory_token(partial(make_npb, "CG"))
    t3 = _factory_token(partial(make_npb, "FT"))
    assert t1 == t2  # no object identity / memory addresses leaking in
    assert t1 != t3
    assert "0x" not in repr(t1)


def test_factory_token_rejects_unstable_identities():
    """Every lambda/closure in a module shares one qualname; a token built
    from it would let two different factories serve each other's cached
    results — so unstable factories must be refused, not silently hashed."""
    with pytest.raises(ConfigurationError):
        _factory_token(lambda: make_npb("CG"))

    def local_factory():
        return make_npb("CG")

    with pytest.raises(ConfigurationError):
        _factory_token(local_factory)  # '<locals>' qualname: same collision
    with pytest.raises(ConfigurationError):
        _factory_token(partial(lambda: make_npb("CG")))  # partial can't launder it


def test_lambda_factories_bypass_cache_instead_of_colliding(tmp_path):
    """Two distinct same-module lambdas must never share a cache entry.

    Before the fix both mapped to ("fn", module, "<lambda>") and the second
    grid silently returned the first one's SimulationResult; now the
    cache is bypassed (with a warning) and each factory gets its own run.
    """
    with pytest.warns(UserWarning, match="stable import path"):
        first = run_grid(
            [("wl-a", lambda: make_npb("CG"))], ["os"], 1,
            base_seed=5, config=CFG, cache=tmp_path,
        )
    with pytest.warns(UserWarning, match="stable import path"):
        second = run_grid(
            [("wl-b", lambda: make_npb("FT"))], ["os"], 1,
            base_seed=5, config=CFG, cache=tmp_path,
        )
    assert (first.cache_hits, second.cache_hits) == (0, 0)
    # no cross-served result
    assert first.cell("wl-a", "os").workload != second.cell("wl-b", "os").workload
    # nothing was stored under a colliding key either
    assert list(tmp_path.rglob("*.pkl")) == []


def test_run_grid_with_lambda_factory_warns_and_bypasses_cache(tmp_path):
    with pytest.warns(UserWarning, match="stable import path"):
        grid = run_grid(
            [("wl", lambda: make_npb("CG"))], ["os"], 1,
            base_seed=2, config=CFG, cache=tmp_path,
        )
    assert grid.cache_misses == 1 and grid.cache_hits == 0
    assert list(tmp_path.rglob("*.pkl")) == []
    # named factories keep caching as before, in the same grid call
    with pytest.warns(UserWarning, match="stable import path"):
        mixed = run_grid(
            [("wl", lambda: make_npb("CG")), "FT"], ["os"], 1,
            base_seed=2, config=CFG, cache=tmp_path,
        )
    assert mixed.cache_misses == 2
    assert len(list(tmp_path.rglob("*.pkl"))) == 1  # only FT was stored


#: one alternative value per field of every record that enters a cell key
KEY_ALTERNATIVES = {
    "config": {
        "batch_size": 64,
        "steps": 7,
        "time_scale": 1000.0,
        "time_params": TimeParams(stall_exposure=0.5),
        "energy_params": EnergyParams(dram_access_nj=20.0),
        "capacity_pages": 1 << 16,
        "collect_trace": True,
        "pretouch": "parallel",
    },
    "spcd_config": {
        "granularity": 1 << 13,
        "window_ns": 100_000_000,
        "table_size": 1000,
        "injector_period_ns": 5_000_000,
        "injector_ratio": 0.2,
        "injector_mode": InjectorMode.CUMULATIVE,
        "injector_floor": 128,
        "injector_max_per_wake": 2048,
        "injector_sampling": "uniform",
        "eval_period_ns": 25_000_000,
        "remap_cooldown_ns": 0,
        "min_improvement": 0.9,
        "filter_threshold": 3,
        "filter_enabled": False,
        "filter_hysteresis": 1.5,
        "filter_margin": 0.25,
        "filter_min_events": 64.0,
        "matrix_decay": 1.0,
        "mapper_stickiness": 0.0,
        "mapping_cost_ns_per_n3": 60.0,
        "detect_cost_ns": 300.0,
        "clear_cost_ns": 200.0,
    },
    # past "name", each entry is a same-named variant: a different policy,
    # hence a different key
    "policy": {
        "name": "mine",
        "start": "cfs",
        "maps_threads": False,
        "mapper_algorithm": "hierarchical",
    },
}


def test_cell_key_sensitivity():
    machine = dual_xeon_e5_2650()
    base = dict(
        wl_token=_factory_token(partial(make_npb, "CG")),
        policy=resolve_policy("spcd"),
        seed=1,
        machine=machine,
        config=EngineConfig(),
        spcd_config=SpcdConfig(),
    )
    k = _cell_key(**base)
    assert k == _cell_key(**base)  # deterministic
    assert k != _cell_key(**{**base, "seed": 2})
    assert k != _cell_key(**{**base, "policy": resolve_policy("os")})
    # a field added later without an entry here fails
    records = {"config": EngineConfig, "spcd_config": SpcdConfig, "policy": PlacementPolicy}
    for arg, cls in records.items():
        names = {f.name for f in dataclasses.fields(cls)}
        assert set(KEY_ALTERNATIVES[arg]) == names, cls.__name__
    for arg, alternatives in KEY_ALTERNATIVES.items():
        for field_name, value in alternatives.items():
            record = dataclasses.replace(base[arg], **{field_name: value})
            assert record != base[arg], (arg, field_name)
            assert k != _cell_key(**{**base, arg: record}), (arg, field_name)


def test_code_version_stable_within_process():
    assert code_version() == code_version()
    assert len(code_version()) == 32


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------
def test_result_cache_roundtrip_and_corruption(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.load("ab" * 10) is None
    payload = {"anything": "picklable"}
    cache.store("ab" * 10, payload)
    assert cache.load("ab" * 10) == payload
    # a corrupted entry degrades to a miss, not an exception
    cache.path("ab" * 10).write_bytes(b"not a pickle")
    assert cache.load("ab" * 10) is None


def test_result_cache_sweeps_stale_tmp_files(tmp_path):
    """A worker killed between mkstemp and os.replace (the crash window the
    in-process ``except BaseException`` cannot cover) leaves a ``*.tmp``
    orphan; the next cache construction sweeps it."""
    cache = ResultCache(tmp_path)
    cache.store("cd" * 10, {"ok": 1})
    # simulate the crash: an orphaned temp file next to the stored entry
    orphan = cache.path("cd" * 10).parent / "tmpdead123.tmp"
    orphan.write_bytes(b"partial pickle from a dead worker")
    old = time.time() - 7200
    os.utime(orphan, (old, old))
    # a *young* temp file may belong to a live concurrent writer: kept
    young = cache.path("cd" * 10).parent / "tmplive456.tmp"
    young.write_bytes(b"in-flight write")

    swept = ResultCache(tmp_path)
    assert swept.swept_tmp_files == 1
    assert not orphan.exists() and young.exists()
    assert swept.load("cd" * 10) == {"ok": 1}  # real entries untouched
    # an explicit zero age sweeps everything, orphan age notwithstanding
    assert ResultCache(tmp_path, stale_tmp_age_s=0).swept_tmp_files == 1
    assert not young.exists()


def test_result_cache_store_cleans_up_on_inprocess_failure(tmp_path):
    cache = ResultCache(tmp_path)

    class Unpicklable:
        def __reduce__(self):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        cache.store("ef" * 10, Unpicklable())
    assert list(tmp_path.rglob("*.tmp")) == []
    assert cache.load("ef" * 10) is None


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------
def test_run_grid_parallel_matches_serial_runner(tmp_path):
    """Pool scheduling must not change results: byte-identical to serial."""
    serial = run_grid(
        ["CG"], ["os", "spcd"], 2, base_seed=11, config=CFG, workers=1
    )
    grid = run_grid(
        ["CG"], ["os", "spcd"], 2,
        base_seed=11, config=CFG, workers=2, cache=tmp_path,
    )
    assert grid.cache_misses == 4 and grid.cache_hits == 0
    for p in ("os", "spcd"):
        want = serial.cell("CG", p)
        got = grid.cell("CG", p)
        assert got.workload == want.workload and got.policy == want.policy
        assert pickle.dumps(got.metrics) == pickle.dumps(want.metrics)

    # normalized_to() works straight off a grid row
    norm = normalized_to(grid.by_workload("CG"), "exec_time_s")
    assert norm["os"] == 1.0


def test_run_grid_second_invocation_fully_cached(tmp_path):
    first = run_grid(["CG"], ["os"], 2, base_seed=3, config=CFG, cache=tmp_path)
    assert (first.cache_hits, first.cache_misses) == (0, 2)
    second = run_grid(["CG"], ["os"], 2, base_seed=3, config=CFG, cache=tmp_path)
    assert (second.cache_hits, second.cache_misses) == (2, 0)
    assert pickle.dumps(second.cell("CG", "os").metrics) == pickle.dumps(
        first.cell("CG", "os").metrics
    )
    # different base_seed is a different experiment -> no false sharing
    third = run_grid(["CG"], ["os"], 2, base_seed=4, config=CFG, cache=tmp_path)
    assert third.cache_misses == 2


def test_pretouch_is_in_the_cache_key(tmp_path):
    """A parallel-first-touch run misses a cache that holds the serial result.

    A result-changing switch once came from the environment, outside the
    key, and the second call below returned the cached result of the
    other setting.
    """
    cache = ResultCache(tmp_path)
    serial = EngineConfig(steps=20, batch_size=128)
    parallel = dataclasses.replace(serial, pretouch="parallel")

    def exec_time(grid):
        return grid.cell("CG", "spcd").mean("exec_time_s")

    off = run_grid(["CG"], ["spcd"], 1, config=serial, cache=cache)
    on = run_grid(["CG"], ["spcd"], 1, config=parallel, cache=cache)
    assert (off.cache_hits, on.cache_hits) == (0, 0)
    uncached = run_grid(["CG"], ["spcd"], 1, config=parallel, settings=RunSettings())
    assert exec_time(on) == exec_time(uncached)
    assert exec_time(on) != exec_time(off)


def test_same_named_policy_variant_misses_the_cache(tmp_path):
    """A variant that keeps a canonical name must not be served that
    policy's cached result (the key once hashed only the name)."""
    variant = dataclasses.replace(resolve_policy("spcd"), mapper_algorithm="hierarchical")
    plain = run_grid(["SP"], ["spcd"], 1, config=CFG, cache=tmp_path)
    mine = run_grid(["SP"], [variant], 1, config=CFG, cache=tmp_path)
    assert (plain.cache_hits, mine.cache_hits) == (0, 0)
    again = run_grid(["SP"], [variant], 1, config=CFG, cache=tmp_path)
    assert again.cache_hits == 1
    assert again.cell("SP", "spcd").metrics == mine.cell("SP", "spcd").metrics


def test_run_grid_rejects_duplicate_policy_names():
    """Two policies named ``spcd`` once merged into one grid cell holding
    only the last one's result."""
    variant = dataclasses.replace(resolve_policy("spcd"), mapper_algorithm="hierarchical")
    with pytest.raises(ConfigurationError, match="two policies named 'spcd'"):
        run_grid(["SP"], ["spcd", variant], 1, config=CFG, settings=RunSettings())


def test_run_grid_rejects_duplicate_workload_names():
    with pytest.raises(ConfigurationError, match="two workloads named 'CG'"):
        run_grid(
            ["CG", ("CG", partial(make_npb, "FT"))], ["os"], 1,
            config=CFG, settings=RunSettings(),
        )


def test_run_grid_validates_inputs():
    with pytest.raises(ConfigurationError):
        run_grid(["CG"], ["os"], 0)
    with pytest.raises(ConfigurationError):
        run_grid([], ["os"], 1)


def test_grid_result_accessors(tmp_path):
    grid = run_grid(["CG"], ["os"], 1, base_seed=2, config=CFG, cache=tmp_path)
    assert grid.workloads == ["CG"]
    assert grid.cell("CG", "os").policy == "os"
    assert set(grid.by_workload("CG")) == {"os"}
