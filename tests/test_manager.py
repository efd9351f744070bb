"""Tests for the SPCD manager (detection + filter + mapping orchestration)."""

import numpy as np
import pytest

from repro.core.manager import SpcdConfig, SpcdManager
from repro.kernelsim.kthread import TimerWheel
from repro.kernelsim.scheduler import PinnedScheduler
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.units import MSEC, PAGE_SIZE


@pytest.fixture
def env(small_machine, rng):
    space = AddressSpace(1024)
    space.mmap("shared", 8 * PAGE_SIZE)
    pipeline = FaultPipeline(
        space, FrameAllocator(2, 4000), node_of_pu=small_machine.numa_node_of
    )
    sched = PinnedScheduler(small_machine, 8, list(range(8)))
    sched.start()
    wheel = TimerWheel()
    return space, pipeline, sched, wheel, rng


def feed_pair_communication(space, pipeline, pairs, reps=40, start_ns=0):
    """Simulate heavy page sharing between given thread pairs."""
    table = space.page_table
    base = space.region("shared").base
    now = start_ns
    for rep in range(reps):
        for idx, (a, b) in enumerate(pairs):
            addr = base + idx * PAGE_SIZE
            vpn = addr // PAGE_SIZE
            for tid in (a, b):
                if table.is_present(vpn):
                    table.clear_present(vpn)
                pipeline.handle_fault(tid, tid % 8, addr, is_write=False, now_ns=now)
                now += 10_000
    return now


class TestEvaluate:
    def test_no_mapping_without_evidence(self, env):
        space, pipeline, sched, wheel, rng = env
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng, timer_wheel=wheel)
        assert not mgr.evaluate(50 * MSEC)
        assert mgr.migration_count == 0

    def test_maps_once_evidence_arrives(self, env):
        space, pipeline, sched, wheel, rng = env
        cfg = SpcdConfig(filter_min_events=10)
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng, config=cfg)
        feed_pair_communication(space, pipeline, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert mgr.evaluate(1_000 * MSEC)
        assert mgr.migration_count == 1
        placement = sched.placement()
        for a, b in [(0, 1), (2, 3), (4, 5), (6, 7)]:
            assert sched.machine.core_of(int(placement[a])) == sched.machine.core_of(
                int(placement[b])
            )

    def test_stable_pattern_does_not_remigrate(self, env):
        space, pipeline, sched, wheel, rng = env
        cfg = SpcdConfig(filter_min_events=10, remap_cooldown_ns=0)
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng, config=cfg)
        now = feed_pair_communication(space, pipeline, [(0, 1), (2, 3), (4, 5), (6, 7)])
        mgr.evaluate(now)
        now = feed_pair_communication(
            space, pipeline, [(0, 1), (2, 3), (4, 5), (6, 7)], start_ns=now
        )
        assert not mgr.evaluate(now)
        assert mgr.migration_count == 1

    def test_pattern_change_remaps(self, env):
        space, pipeline, sched, wheel, rng = env
        cfg = SpcdConfig(
            filter_min_events=10, remap_cooldown_ns=0, matrix_decay=0.3
        )
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng, config=cfg)
        now = feed_pair_communication(space, pipeline, [(0, 1), (2, 3), (4, 5), (6, 7)])
        mgr.evaluate(now)
        for _ in range(6):  # decay out the old pattern with fresh evidence
            # Jump past the temporal window so stale sharer timestamps from
            # the previous pattern age out (Sec. III-C2).
            now = feed_pair_communication(
                space,
                pipeline,
                [(0, 4), (1, 5), (2, 6), (3, 7)],
                start_ns=now + 400 * MSEC,
                reps=20,
            )
            if mgr.evaluate(now):
                break
        assert mgr.migration_count == 2
        placement = sched.placement()
        for a, b in [(0, 4), (1, 5), (2, 6), (3, 7)]:
            assert sched.machine.core_of(int(placement[a])) == sched.machine.core_of(
                int(placement[b])
            )

    def test_cooldown_blocks_consecutive_migrations(self, env):
        space, pipeline, sched, wheel, rng = env
        cfg = SpcdConfig(filter_min_events=10, remap_cooldown_ns=10**12, matrix_decay=0.3)
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng, config=cfg)
        now = feed_pair_communication(space, pipeline, [(0, 1), (2, 3), (4, 5), (6, 7)])
        mgr.evaluate(now)
        now = feed_pair_communication(
            space, pipeline, [(0, 4), (1, 5), (2, 6), (3, 7)], start_ns=now
        )
        assert not mgr.evaluate(now)
        assert mgr.migration_count == 1

    def test_improvement_gate_blocks_lateral_moves(self, env):
        space, pipeline, sched, wheel, rng = env
        cfg = SpcdConfig(
            filter_min_events=4,
            remap_cooldown_ns=0,
            min_improvement=0.5,
            matrix_decay=1.0,
        )
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng, config=cfg)
        now = feed_pair_communication(space, pipeline, [(0, 1), (2, 3), (4, 5), (6, 7)])
        mgr.evaluate(now)  # now optimal
        # force the filter to re-trigger by resetting its snapshot
        mgr.filter._partners = np.full(8, -1)
        assert not mgr.evaluate(now + 1)  # new mapping cannot be 2x better
        assert mgr.migration_count == 1


class TestTimers:
    def test_kthreads_registered(self, env):
        space, pipeline, sched, wheel, rng = env
        SpcdManager(sched.machine, 8, pipeline, sched, rng, timer_wheel=wheel)
        names = [kt.name for kt in wheel.threads()]
        assert names == ["spcd-injector", "spcd-evaluate"]

    def test_injector_period_is_10ms(self, env):
        """Paper Sec. III-B2: the kernel thread wakes every 10 ms."""
        space, pipeline, sched, wheel, rng = env
        SpcdManager(sched.machine, 8, pipeline, sched, rng, timer_wheel=wheel)
        injector_kt = wheel.threads()[0]
        assert injector_kt.period_ns == 10 * MSEC


class TestConfig:
    @pytest.mark.parametrize("decay", [1.5, 0.0, -0.25])
    def test_matrix_decay_range_matches_session_config(self, decay):
        """Both configs refuse the same aging factors.  Above 1.0 the
        manager's evaluate() used to skip aging without a word."""
        from repro.errors import ConfigurationError
        from repro.serve.session import SessionConfig

        with pytest.raises(ConfigurationError, match="matrix_decay"):
            SpcdConfig(matrix_decay=decay)
        with pytest.raises(ConfigurationError, match="matrix_decay"):
            SessionConfig(n_threads=4, matrix_decay=decay)

    @pytest.mark.parametrize(
        "field",
        [
            "min_improvement",
            "filter_hysteresis",
            "filter_margin",
            "filter_min_events",
            "mapper_stickiness",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_gate_tunables_must_be_finite_as_in_session_config(self, field, value):
        """Both configs refuse a NaN or infinite gate tunable.  SpcdConfig
        used to take them: a NaN evidence quota let CG (20 steps, seed 1)
        remap once where the default quota never does."""
        from repro.errors import ConfigurationError
        from repro.serve.session import SessionConfig

        with pytest.raises(ConfigurationError, match=field):
            SpcdConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            SessionConfig(n_threads=4, **{field: value})

    def test_both_configs_refuse_a_negative_cooldown(self):
        """A negative cooldown used to pass both records; 0 (no cooldown)
        stays valid."""
        from repro.errors import ConfigurationError
        from repro.serve.session import SessionConfig

        with pytest.raises(ConfigurationError, match="remap_cooldown_ns"):
            SpcdConfig(remap_cooldown_ns=-5)
        with pytest.raises(ConfigurationError, match="remap_cooldown_ns"):
            SessionConfig(n_threads=4, remap_cooldown_ns=-5)
        assert SpcdConfig(remap_cooldown_ns=0).remap_cooldown_ns == 0
        assert SessionConfig(n_threads=4, remap_cooldown_ns=0).remap_cooldown_ns == 0

    @pytest.mark.parametrize("field", ["detect_cost_ns", "clear_cost_ns", "mapping_cost_ns_per_n3"])
    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_cost_that_is_not_finite_and_non_negative(self, env, field, cost):
        """A NaN cost used to run to completion with a NaN overhead share
        (and, for detection, a NaN-shortened execution time); a negative one
        halved the detection share."""
        from repro.errors import ConfigurationError

        space, pipeline, sched, wheel, rng = env
        with pytest.raises(ConfigurationError, match=field):
            SpcdManager(
                sched.machine, 8, pipeline, sched, rng, config=SpcdConfig(**{field: cost})
            )

    @pytest.mark.parametrize("table_size", [2.5, True, "1000"])
    def test_rejects_a_table_size_that_is_not_an_int(self, table_size):
        """A float, bool or string size used to escape as numpy's TypeError."""
        from repro.engine.simulator import Simulator
        from repro.errors import ConfigurationError
        from repro.workloads.npb import make_npb

        with pytest.raises(ConfigurationError, match="table size"):
            Simulator(make_npb("CG"), "spcd", spcd_config=SpcdConfig(table_size=table_size))

    @pytest.mark.parametrize("table_size", [2**62, 2**63, 2**64])
    def test_rejects_a_table_size_too_large_to_allocate(self, table_size):
        """Each used to escape from numpy as an untyped ValueError ("array
        is too big" at 2**62, "Maximum allowed dimension exceeded" from
        2**63)."""
        from repro.engine.simulator import Simulator
        from repro.errors import ConfigurationError
        from repro.workloads.npb import make_npb

        with pytest.raises(ConfigurationError, match="64-bit|too large to allocate"):
            Simulator(make_npb("CG"), "spcd", spcd_config=SpcdConfig(table_size=table_size))

    def test_rejects_a_policy_that_maps_nothing(self, env):
        """A policy that does not map threads has nothing to evaluate."""
        from repro.errors import ConfigurationError

        space, pipeline, sched, wheel, rng = env
        with pytest.raises(ConfigurationError, match="does not map threads"):
            SpcdManager(sched.machine, 8, pipeline, sched, rng, placement="random")


class TestOverheadAccounting:
    def test_detection_time_includes_hook_and_injection(self, env):
        space, pipeline, sched, wheel, rng = env
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng)
        feed_pair_communication(space, pipeline, [(0, 1)], reps=5)
        mgr.injector.wake(0)
        expected = pipeline.hook_time_ns + mgr.injector.inject_time_ns
        assert mgr.detection_time_ns() == expected
        assert expected > 0

    def test_mapping_time_counts_calls_and_moves(self, env):
        space, pipeline, sched, wheel, rng = env
        cfg = SpcdConfig(filter_min_events=5)
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng, config=cfg)
        now = feed_pair_communication(space, pipeline, [(0, 1), (2, 3), (4, 5), (6, 7)])
        mgr.evaluate(now)
        assert mgr.mapping_time_ns() > 0
        summary = mgr.overhead_summary(10**9)
        assert summary["migrations"] == 1
        assert summary["mapping_pct"] > 0

    def test_mapping_history(self, env):
        space, pipeline, sched, wheel, rng = env
        cfg = SpcdConfig(filter_min_events=5)
        mgr = SpcdManager(sched.machine, 8, pipeline, sched, rng, config=cfg)
        now = feed_pair_communication(space, pipeline, [(0, 1), (2, 3), (4, 5), (6, 7)])
        mgr.evaluate(now)
        history = mgr.mapping_history
        assert len(history) == 1
        assert history[0][0] == now
