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
    run_cell,
    run_grid,
)
from repro.engine.runner import normalized_to, run_replicated
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig
from repro.errors import ConfigurationError
from repro.machine.topology import dual_xeon_e5_2650
from repro.core.manager import SpcdConfig
from repro.placement import resolve_policy
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
    run_cell silently returned the first one's SimulationResult; now the
    cache is bypassed (with a warning) and each factory gets its own run.
    """
    with pytest.warns(UserWarning, match="stable import path"):
        r1, cached1 = run_cell(
            ("wl-a", lambda: make_npb("CG")), "os", 0,
            base_seed=5, config=CFG, cache=tmp_path,
        )
    with pytest.warns(UserWarning, match="stable import path"):
        r2, cached2 = run_cell(
            ("wl-b", lambda: make_npb("FT")), "os", 0,
            base_seed=5, config=CFG, cache=tmp_path,
        )
    assert (cached1, cached2) == (False, False)
    assert r1.workload != r2.workload  # no cross-served result
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
    # a same-named variant is a different policy, hence a different key
    variant = dataclasses.replace(base["policy"], maps_data=True)
    assert variant.name == "spcd"
    assert k != _cell_key(**{**base, "policy": variant})
    assert k != _cell_key(**{**base, "config": EngineConfig(steps=7)})
    assert k != _cell_key(**{**base, "config": EngineConfig(placement_walk=True)})


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
    serial = {
        p: run_replicated(partial(make_npb, "CG"), p, reps=2, base_seed=11, config=CFG)
        for p in ("os", "spcd")
    }
    grid = run_grid(
        ["CG"], ["os", "spcd"], 2,
        base_seed=11, config=CFG, workers=2, cache=tmp_path,
    )
    assert grid.cache_misses == 4 and grid.cache_hits == 0
    for p, want in serial.items():
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


def test_run_cell_reports_cache_state(tmp_path):
    r1, cached1 = run_cell("CG", "os", 0, base_seed=5, config=CFG, cache=tmp_path)
    r2, cached2 = run_cell("CG", "os", 0, base_seed=5, config=CFG, cache=tmp_path)
    assert (cached1, cached2) == (False, True)
    assert pickle.dumps(r1.stats) == pickle.dumps(r2.stats)


def test_placement_walk_is_in_the_cache_key(tmp_path):
    """A walk-on run misses a cache that holds the walk-off result.

    Walk charging once came from the environment, outside the key, and
    the second call below returned the cached walk-off result.
    """
    cache = ResultCache(tmp_path)
    walk_off = EngineConfig(steps=20, batch_size=128)
    walk_on = dataclasses.replace(walk_off, placement_walk=True)
    off, off_cached = run_cell("CG", "spcd", config=walk_off, cache=cache)
    on, on_cached = run_cell("CG", "spcd", config=walk_on, cache=cache)
    assert (off_cached, on_cached) == (False, False)
    uncached, _ = run_cell("CG", "spcd", config=walk_on, settings=RunSettings())
    assert on.exec_time_s == uncached.exec_time_s
    assert on.exec_time_s != off.exec_time_s


def test_same_named_policy_variant_misses_the_cache(tmp_path):
    """A variant that keeps a canonical name must not be served that
    policy's cached result (the key once hashed only the name)."""
    variant = dataclasses.replace(resolve_policy("spcd"), maps_data=True)
    plain, plain_cached = run_cell("SP", "spcd", 0, config=CFG, cache=tmp_path)
    mine, mine_cached = run_cell("SP", variant, 0, config=CFG, cache=tmp_path)
    assert (plain_cached, mine_cached) == (False, False)
    again, again_cached = run_cell("SP", variant, 0, config=CFG, cache=tmp_path)
    assert again_cached and again.exec_time_s == mine.exec_time_s


def test_run_grid_rejects_duplicate_policy_names():
    """Two policies named ``spcd`` once merged into one grid cell holding
    only the last one's result."""
    variant = dataclasses.replace(resolve_policy("spcd"), maps_data=True)
    with pytest.raises(ConfigurationError, match="two policies named 'spcd'"):
        run_grid(["SP"], ["spcd", variant], 1, config=CFG, settings=RunSettings())


def test_run_grid_rejects_duplicate_workload_names():
    with pytest.raises(ConfigurationError, match="two workloads named 'CG'"):
        run_grid(
            ["CG", ("CG", partial(make_npb, "FT"))], ["os"], 1,
            config=CFG, settings=RunSettings(),
        )


def test_run_replicated_workers_kwarg_is_equivalent(tmp_path):
    plain = run_replicated(partial(make_npb, "IS"), "spcd", reps=2, base_seed=9, config=CFG)
    pooled = run_replicated(
        partial(make_npb, "IS"), "spcd", reps=2, base_seed=9, config=CFG,
        workers=2, cache=tmp_path,
    )
    assert pickle.dumps(pooled.metrics) == pickle.dumps(plain.metrics)
    assert pooled.workload == plain.workload and pooled.policy == plain.policy


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
