"""Tests for the page-fault pipeline and its hooks."""

import pytest

from repro.errors import PageFaultError
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultInfo, FaultKind, FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import TlbArray
from repro.units import PAGE_SIZE


@pytest.fixture
def pipeline():
    space = AddressSpace(256)
    space.mmap("data", 16 * PAGE_SIZE)
    frames = FrameAllocator(2, 1000)
    tlbs = TlbArray(4)
    return FaultPipeline(space, frames, tlbs, node_of_pu=lambda pu: pu % 2)


def _addr(pipeline, page=0):
    return pipeline.address_space.region("data").base + page * PAGE_SIZE


class TestFirstTouch:
    def test_first_touch_allocates_on_local_node(self, pipeline):
        info = pipeline.handle_fault(0, 1, _addr(pipeline), is_write=False, now_ns=0)
        assert info.kind is FaultKind.FIRST_TOUCH
        assert info.home_node == 1  # pu 1 -> node 1

    def test_page_present_after_first_touch(self, pipeline):
        info = pipeline.handle_fault(0, 0, _addr(pipeline), is_write=True, now_ns=0)
        table = pipeline.address_space.page_table
        assert table.is_present(info.vpn)
        assert table.entry(info.vpn).dirty

    def test_tlb_filled(self, pipeline):
        info = pipeline.handle_fault(0, 2, _addr(pipeline), is_write=False, now_ns=0)
        assert info.vpn in pipeline.tlbs[2]

    def test_fault_on_present_page_rejected(self, pipeline):
        pipeline.handle_fault(0, 0, _addr(pipeline), is_write=False, now_ns=0)
        with pytest.raises(PageFaultError):
            pipeline.handle_fault(0, 0, _addr(pipeline), is_write=False, now_ns=1)

    def test_counters(self, pipeline):
        pipeline.handle_fault(0, 0, _addr(pipeline, 0), is_write=False, now_ns=0)
        pipeline.handle_fault(0, 0, _addr(pipeline, 1), is_write=False, now_ns=0)
        assert pipeline.first_touch_faults == 2
        assert pipeline.total_faults == 2
        assert pipeline.fault_time_ns == 2 * pipeline.first_touch_cost_ns


class TestInjectedFaults:
    def test_injected_fault_restores_present(self, pipeline):
        info = pipeline.handle_fault(0, 0, _addr(pipeline), is_write=False, now_ns=0)
        table = pipeline.address_space.page_table
        table.clear_present(info.vpn)
        info2 = pipeline.handle_fault(1, 1, _addr(pipeline), is_write=False, now_ns=10)
        assert info2.kind is FaultKind.INJECTED
        assert table.is_present(info.vpn)
        # frame unchanged: injected faults do not reallocate
        assert info2.home_node == info.home_node

    def test_injected_fraction(self, pipeline):
        table = pipeline.address_space.page_table
        for page in range(9):
            pipeline.handle_fault(0, 0, _addr(pipeline, page), is_write=False, now_ns=0)
        info = pipeline.handle_fault(0, 0, _addr(pipeline, 9), is_write=False, now_ns=0)
        table.clear_present(info.vpn)
        pipeline.handle_fault(1, 1, _addr(pipeline, 9), is_write=False, now_ns=1)
        assert pipeline.injected_faults == 1
        assert pipeline.injected_fraction() == pytest.approx(1 / 11)

    def test_injected_cheaper_than_first_touch(self, pipeline):
        assert pipeline.injected_cost_ns < pipeline.first_touch_cost_ns


class TestHooks:
    def test_hook_sees_fault_info(self, pipeline):
        seen: list[FaultInfo] = []
        pipeline.add_batch_hook(lambda batch: seen.extend(batch.infos()))
        pipeline.handle_fault(3, 1, _addr(pipeline) + 123, is_write=True, now_ns=55)
        assert len(seen) == 1
        info = seen[0]
        assert info.thread_id == 3 and info.pu_id == 1
        assert info.vaddr % PAGE_SIZE == 123
        assert info.now_ns == 55 and info.is_write

    def test_hook_removal(self, pipeline):
        seen = []
        pipeline.add_batch_hook(seen.append)
        pipeline.remove_batch_hook(seen.append)
        pipeline.handle_fault(0, 0, _addr(pipeline), is_write=False, now_ns=0)
        assert not seen

    def test_hook_time_charged_separately(self, pipeline):
        pipeline.add_batch_hook(lambda batch: pipeline.charge_hook_time(100.0))
        pipeline.handle_fault(0, 0, _addr(pipeline), is_write=False, now_ns=0)
        assert pipeline.hook_time_ns == 100.0


class TestFaultingMask:
    def test_mask_tracks_present_bits(self, pipeline):
        region = pipeline.address_space.region("data")
        vpns = region.vpns()[:4]
        assert pipeline.faulting_mask(vpns).all()
        pipeline.handle_fault(0, 0, _addr(pipeline, 1), is_write=False, now_ns=0)
        mask = pipeline.faulting_mask(vpns)
        assert mask.tolist() == [True, False, True, True]
