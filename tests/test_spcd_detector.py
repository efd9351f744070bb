"""Tests for the SPCD detection hook."""

import gc
import weakref

import pytest

from repro.core.spcd import SpcdDetector
from repro.errors import ConfigurationError
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.units import MSEC, PAGE_SIZE


@pytest.fixture
def setup():
    space = AddressSpace(256)
    space.mmap("data", 32 * PAGE_SIZE)
    pipeline = FaultPipeline(space, FrameAllocator(2, 1000), node_of_pu=lambda pu: 0)
    detector = SpcdDetector(4, window_ns=100 * MSEC, pipeline=pipeline)
    return space, pipeline, detector


def fault(pipeline, space, tid, page, now, write=False):
    addr = space.region("data").base + page * PAGE_SIZE
    table = space.page_table
    vpn = addr // PAGE_SIZE
    if table.is_present(vpn):
        table.clear_present(vpn)
    pipeline.handle_fault(tid, tid, addr, is_write=write, now_ns=now)


class TestDetection:
    def test_single_thread_no_communication(self, setup):
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 0, 0, 10)
        assert det.matrix.total() == 0
        assert det.stats.comm_events == 0

    def test_two_threads_one_page_is_communication(self, setup):
        """The paper's Figure 3 timeline."""
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 1, 0, 10)
        assert det.matrix.matrix[0, 1] == 1
        assert det.stats.comm_events == 1

    def test_third_thread_communicates_with_both(self, setup):
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 1, 0, 10)
        fault(pipeline, space, 2, 0, 20)
        assert det.matrix.matrix[2, 0] == 1
        assert det.matrix.matrix[2, 1] == 1

    def test_distinct_pages_do_not_communicate(self, setup):
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 1, 1, 10)
        assert det.matrix.total() == 0

    def test_shared_region_count(self, setup):
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 1, 0, 1)
        fault(pipeline, space, 0, 1, 2)
        assert det.shared_region_count() == 1


class TestTemporalWindow:
    def test_old_access_windowed_out(self, setup):
        """Sec. III-C2: accesses far apart are temporal false communication."""
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 1, 0, 200 * MSEC)  # window is 100 ms
        assert det.matrix.total() == 0
        assert det.stats.windowed_out == 1

    def test_boundary_inclusive(self, setup):
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 1, 0, 100 * MSEC)
        assert det.matrix.matrix[0, 1] == 1

    def test_timestamp_refresh_extends_window(self, setup):
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 0, 0, 90 * MSEC)  # refreshes thread 0's stamp
        fault(pipeline, space, 1, 0, 150 * MSEC)
        assert det.matrix.matrix[0, 1] == 1


class TestGranularity:
    def test_sub_page_granularity_separates_halves(self):
        """Sec. III-C1: detection granularity is decoupled from page size."""
        space = AddressSpace(64)
        space.mmap("d", 2 * PAGE_SIZE)
        pipeline = FaultPipeline(space, FrameAllocator(1, 100), node_of_pu=lambda pu: 0)
        det = SpcdDetector(2, granularity=PAGE_SIZE // 2, pipeline=pipeline)
        base = space.region("d").base
        pipeline.handle_fault(0, 0, base, is_write=False, now_ns=0)
        space.page_table.clear_present(base // PAGE_SIZE)
        # Second thread touches the *other half* of the same page.
        pipeline.handle_fault(1, 1, base + PAGE_SIZE // 2, is_write=False, now_ns=1)
        assert det.matrix.total() == 0  # different sub-page regions

    def test_coarse_granularity_merges_pages(self):
        space = AddressSpace(64)
        space.mmap("d", 4 * PAGE_SIZE)
        pipeline = FaultPipeline(space, FrameAllocator(1, 100), node_of_pu=lambda pu: 0)
        det = SpcdDetector(2, granularity=4 * PAGE_SIZE, pipeline=pipeline)
        base = space.region("d").base  # vpn 1: pages 1 and 2 share region 0
        pipeline.handle_fault(0, 0, base, is_write=False, now_ns=0)
        pipeline.handle_fault(1, 1, base + PAGE_SIZE, is_write=False, now_ns=1)
        assert det.matrix.matrix[0, 1] == 1  # adjacent pages, same region

    def test_rejects_bad_granularity(self):
        with pytest.raises(ConfigurationError):
            SpcdDetector(2, granularity=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            SpcdDetector(2, window_ns=0)


class TestAccounting:
    def test_hook_time_charged(self, setup):
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        assert pipeline.hook_time_ns == det.detect_cost_ns

    def test_detach_stops_detection(self, setup):
        space, pipeline, det = setup
        det.detach()
        fault(pipeline, space, 0, 0, 0)
        assert det.stats.faults_seen == 0

    def test_a_dropped_simulator_frees_its_detector_without_a_collection(self):
        """The detector holds its pipeline weakly, so no reference cycle
        keeps a finished run's table and pipeline alive until a full
        garbage collection."""
        from repro.engine.simulator import EngineConfig, Simulator
        from repro.workloads.npb import make_npb

        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim = Simulator(
                make_npb("CG"), "spcd", seed=1, config=EngineConfig(steps=2, batch_size=64)
            )
            sim.run()
            detector = weakref.ref(sim.manager.detector)
            pipeline = weakref.ref(sim.pipeline)
            del sim
            assert detector() is None
            assert pipeline() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_snapshot_is_copy(self, setup):
        space, pipeline, det = setup
        fault(pipeline, space, 0, 0, 0)
        fault(pipeline, space, 1, 0, 1)
        snap = det.snapshot_matrix()
        fault(pipeline, space, 0, 0, 2)
        assert snap.matrix[0, 1] == 1
        assert det.matrix.matrix[0, 1] == 2
