"""Tests for the end-to-end simulator (small, fast configurations)."""

import gc

import pytest

from repro.core.manager import SpcdConfig
from repro.engine.gridrunner import run_grid
from repro.engine.runner import normalized_to, summarize
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import ConfigurationError
from repro.units import MSEC
from repro.workloads.npb import make_npb
from repro.workloads.producer_consumer import ProducerConsumerWorkload

FAST = EngineConfig(batch_size=128, steps=25)


class TestEngineConfig:
    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(batch_size=0)

    def test_rejects_bad_pretouch(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(pretouch="lazy")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", 2.5),
            ("steps", True),
            ("time_scale", float("nan")),
            ("time_scale", float("inf")),
            ("batch_size", 256.0),
            ("batch_size", True),
        ],
    )
    def test_rejects_malformed_value(self, field, value):
        """Each value used to construct, then fail mid-run or run wrongly."""
        with pytest.raises(ConfigurationError, match=field):
            EngineConfig(**{field: value})


class TestBasicRun:
    def test_produces_metrics(self):
        res = Simulator(make_npb("BT"), "os", seed=1, config=FAST).run()
        assert res.exec_time_s > 0
        assert res.instructions > 0
        assert res.l2_mpki > 0 and res.l3_mpki >= 0
        assert res.proc_energy_j > 0 and res.dram_energy_j > 0
        assert res.workload == "BT" and res.policy == "os"

    def test_deterministic_given_seed(self):
        a = Simulator(make_npb("BT"), "os", seed=7, config=FAST).run()
        b = Simulator(make_npb("BT"), "os", seed=7, config=FAST).run()
        assert a.exec_time_s == b.exec_time_s
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_seed_changes_results(self):
        a = Simulator(make_npb("BT"), "os", seed=7, config=FAST).run()
        b = Simulator(make_npb("BT"), "os", seed=8, config=FAST).run()
        assert a.exec_time_s != b.exec_time_s

    def test_cache_invariants_after_run(self):
        """Coherence invariants hold throughout a run whose threads migrate,
        and every access is counted exactly once per level it reaches."""
        cfg = EngineConfig(batch_size=192, steps=80)
        sim = Simulator(
            make_npb("SP"), "spcd", seed=3, config=cfg,
            spcd_config=SpcdConfig(filter_min_events=32),
        )
        checked = []

        def check(sim, step, now):
            if step % 10 == 9:
                assert sim.hierarchy.check_invariants() == [], f"after step {step}"
                checked.append(step)

        res = sim.run(check)
        assert len(checked) == cfg.steps // 10
        assert res.migrations >= 1
        s = res.stats
        assert s.l1_hits + s.l1_misses == res.perf.accesses
        assert s.l1_misses == s.l2_hits + s.l2_misses
        assert s.l2_misses == s.l3_hits + s.l3_misses
        # every set is a plain dict of bool dirty flags, which the cyclic
        # collector leaves untracked (DESIGN §7.1)
        hier = sim.hierarchy
        for cache in (*hier.l1, *hier.l2, *hier.l3):
            for lines in cache._sets:
                assert type(lines) is dict, cache.name
                assert all(type(dirty) is bool for dirty in lines.values()), cache.name
                assert not gc.is_tracked(lines), cache.name

    def test_instruction_count_matches_config(self):
        wl = make_npb("BT")
        sim = Simulator(wl, "os", seed=1, config=FAST)
        res = sim.run()
        expected = FAST.batch_size * FAST.steps * 32 * wl.instructions_per_access
        assert res.instructions == pytest.approx(expected)

    def test_serial_pretouch_homes_everything_on_node_of_thread0(self):
        sim = Simulator(make_npb("BT"), "random", seed=1, config=FAST)
        table = sim.address_space.page_table
        populated = table.populated_vpns()
        home = sim.machine.numa_node_of(sim.scheduler.pu_of(0))
        assert (table.home_nodes(populated) == home).all()

    def test_parallel_pretouch_spreads_homes(self):
        cfg = EngineConfig(batch_size=128, steps=25, pretouch="parallel")
        sim = Simulator(make_npb("BT"), "random", seed=1, config=cfg)
        sim.run()
        table = sim.address_space.page_table
        homes = table.home_nodes(table.populated_vpns())
        assert len(set(homes.tolist())) == 2

    def test_trace_collection(self):
        cfg = EngineConfig(batch_size=64, steps=5, collect_trace=True)
        sim = Simulator(make_npb("BT"), "os", seed=1, config=cfg)
        sim.run()
        assert sim.trace is not None
        assert sim.trace.total_accesses == 64 * 5 * 32

    def test_step_callback_invoked(self):
        calls = []
        Simulator(make_npb("BT"), "os", seed=1, config=FAST).run(
            lambda sim, step, now: calls.append(step)
        )
        assert calls == list(range(FAST.steps))


class TestSpcdRun:
    def test_spcd_detects_and_migrates(self):
        cfg = EngineConfig(batch_size=192, steps=80)
        scfg = SpcdConfig(filter_min_events=32)
        sim = Simulator(make_npb("SP"), "spcd", seed=3, config=cfg, spcd_config=scfg)
        res = sim.run()
        assert res.migrations >= 1
        assert res.injected_faults > 0
        assert res.detected_matrix is not None
        assert res.detected_matrix.correlation(sim.workload.ground_truth()) > 0.3

    def test_spcd_overheads_reported(self):
        cfg = EngineConfig(batch_size=192, steps=60)
        res = Simulator(make_npb("SP"), "spcd", seed=3, config=cfg).run()
        assert res.detection_pct > 0
        assert res.detection_pct < 5.0

    def test_non_spcd_policies_have_no_detector(self):
        res = Simulator(make_npb("BT"), "oracle", seed=1, config=FAST).run()
        assert res.detected_matrix is None
        assert res.migrations == 0 and res.detection_pct == 0

    def test_os_policy_may_migrate(self):
        res = Simulator(make_npb("BT"), "os", seed=1, config=FAST).run()
        assert res.os_migrations >= 0  # CFS noise, counted separately


class TestRunner:
    def test_summarize_mean_and_ci(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.ci95 > 0
        assert stats.n == 3

    def test_summarize_constant_has_zero_ci(self):
        assert summarize([5.0, 5.0]).ci95 == 0.0

    def test_summarize_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_grid_cell_collects_metrics(self):
        rep = run_grid(["BT"], ["os"], 2, config=FAST).cell("BT", "os")
        assert rep.metrics["exec_time_s"].n == 2
        assert rep.policy == "os" and rep.workload == "BT"

    def test_replications_differ(self):
        rep = run_grid(["BT"], ["random"], 2, config=FAST).cell("BT", "random")
        values = rep.metrics["exec_time_s"].values
        assert values[0] != values[1]

    def test_normalized_to_baseline(self):
        grid = run_grid(["BT"], ["os", "random"], 1, config=FAST)
        norm = normalized_to(grid.by_workload("BT"), "exec_time_s")
        assert norm["os"] == pytest.approx(1.0)
        assert norm["random"] > 0

    def test_normalized_requires_baseline(self):
        with pytest.raises(ConfigurationError):
            normalized_to({}, "exec_time_s")

    def test_rejects_zero_reps(self):
        with pytest.raises(ConfigurationError):
            run_grid(["BT"], ["os"], 0, config=FAST)


class TestProducerConsumerRun:
    def test_runs_under_spcd(self):
        wl = ProducerConsumerWorkload(phase_period_ns=60 * MSEC)
        cfg = EngineConfig(batch_size=128, steps=60)
        res = Simulator(wl, "spcd", seed=2, config=cfg).run()
        assert res.exec_time_s > 0
        assert res.detected_matrix.total() > 0
