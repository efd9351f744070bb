"""Page-fault pipeline with hook points.

This is the simulation analogue of the paper's modified Linux page-fault
handler (their Figure 2): resolve the fault — first-touch allocation or
restoring a present bit SPCD cleared — and then run registered hooks with the
full fault information (faulting thread, address, time, kind).  SPCD's
communication detection registers exactly one such hook,
:meth:`repro.core.spcd.SpcdDetector.on_fault_batch`; a hook takes whole
batches.

:meth:`FaultPipeline.handle_fault_batch` is the fault path: it resolves
every unique faulting VPN of one thread batch in a single vectorised pass
(bulk present-bit restore, bulk frame allocation, bulk mapping and TLB
refill) and hands the whole fault vector to the hooks as one
:class:`FaultBatch` (:meth:`FaultBatch.infos` lists its faults one by one,
in resolution order).  Batches of at most :data:`_SCALAR_RESOLVE_MAX` faults
take a scalar resolver with the same contract and results;
:meth:`FaultPipeline.handle_fault` is that resolver called on one fault.
Called once per faulting VPN, with a per-fault detector that the test
itself builds, it is the reference ``tests/test_spcd_parity.py`` checks the
vectorised pass against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from repro.errors import PageFaultError
from repro.mem.addresspace import AddressSpace
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import TlbArray
from repro.units import PAGE_SHIFT


class FaultKind(enum.Enum):
    """Why the fault happened."""

    #: First access ever to the page — demand paging / first touch.
    FIRST_TOUCH = "first_touch"
    #: Present bit was cleared by the SPCD injector; page already has a frame.
    INJECTED = "injected"


@dataclass(frozen=True)
class FaultInfo:
    """Everything a fault hook may observe about one page fault."""

    thread_id: int
    pu_id: int
    vaddr: int
    vpn: int
    now_ns: int
    is_write: bool
    kind: FaultKind
    home_node: int


@dataclass(frozen=True)
class FaultBatch:
    """One thread batch's resolved faults, as parallel arrays.

    Faults are ordered by ascending VPN (the order the per-fault reference
    loop resolves them in); ``vaddrs``/``is_write`` carry the first faulting
    access of each unique VPN.
    """

    thread_id: int
    pu_id: int
    now_ns: int
    #: first faulting virtual address per unique VPN
    vaddrs: np.ndarray
    vpns: np.ndarray
    is_write: np.ndarray
    #: True where the fault was SPCD-injected; False means first touch
    injected: np.ndarray
    home_nodes: np.ndarray

    @property
    def n_faults(self) -> int:
        """Number of faults in the batch."""
        return int(self.vpns.size)

    def infos(self) -> list[FaultInfo]:
        """Materialise per-fault :class:`FaultInfo` records, in batch order."""
        return [
            FaultInfo(
                thread_id=self.thread_id,
                pu_id=self.pu_id,
                vaddr=int(self.vaddrs[i]),
                vpn=int(self.vpns[i]),
                now_ns=self.now_ns,
                is_write=bool(self.is_write[i]),
                kind=FaultKind.INJECTED if self.injected[i] else FaultKind.FIRST_TOUCH,
                home_node=int(self.home_nodes[i]),
            )
            for i in range(self.n_faults)
        ]


FaultBatchHook = Callable[[FaultBatch], None]

#: batches with at most this many faulting accesses resolve scalarly inside
#: :meth:`FaultPipeline.handle_fault_batch`: a steady-state thread batch
#: faults on only a few pages, where the vectorised pass's fixed cost
#: (np.unique, mask building, fancy indexing) exceeds the per-fault loop.
#: Performance-only — both resolutions are bit-identical.
_SCALAR_RESOLVE_MAX = 4


class FaultPipeline:
    """Per-application fault handling: resolution, TLB refill, hooks.

    Attributes:
        first_touch_cost_ns: resolution cost of a demand-paging fault.
        injected_cost_ns: resolution cost of an SPCD-injected fault
            (page-table walk + present-bit restore + return; the paper's
            "resolved quickly" minor-fault path).
    """

    def __init__(
        self,
        address_space: AddressSpace,
        frames: FrameAllocator,
        tlbs: TlbArray | None = None,
        *,
        node_of_pu: Callable[[int], int],
        first_touch_cost_ns: float = 2500.0,
        injected_cost_ns: float = 900.0,
    ) -> None:
        self.address_space = address_space
        self.frames = frames
        self.tlbs = tlbs
        self.node_of_pu = node_of_pu
        self.first_touch_cost_ns = first_touch_cost_ns
        self.injected_cost_ns = injected_cost_ns
        self._batch_hooks: list[FaultBatchHook] = []
        self.first_touch_faults = 0
        self.injected_faults = 0
        self.fault_time_ns = 0.0
        #: extra time spent inside hooks (SPCD detection overhead), charged
        #: separately so Fig. 16 can report it.
        self.hook_time_ns = 0.0
        #: host wall-clock spent dispatching hooks (feeds ``PerfCounters.detect_s``)
        self.hook_wall_s = 0.0

    # -- hooks -------------------------------------------------------------
    def add_batch_hook(self, hook: FaultBatchHook) -> None:
        """Register *hook* to run once per resolved :class:`FaultBatch`."""
        self._batch_hooks.append(hook)

    def remove_batch_hook(self, hook: FaultBatchHook) -> None:
        """Unregister a batch hook."""
        self._batch_hooks.remove(hook)

    def charge_hook_time(self, ns: float) -> None:
        """Hooks call this to account their processing cost (virtual ns)."""
        self.hook_time_ns += ns

    def _dispatch(self, batch: FaultBatch) -> None:
        """Run every hook on *batch*, in registration order."""
        if not self._batch_hooks:
            return
        t0 = perf_counter()
        for hook in self._batch_hooks:
            hook(batch)
        self.hook_wall_s += perf_counter() - t0

    # -- fault handling ------------------------------------------------------
    def faulting_mask(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorised: which of *vpns* would fault right now?"""
        return ~self.address_space.page_table.present_mask(vpns)

    def handle_fault(
        self,
        thread_id: int,
        pu_id: int,
        vaddr: int,
        *,
        is_write: bool,
        now_ns: int,
    ) -> FaultInfo:
        """Resolve one fault and run the hooks; returns the fault record."""
        batch = self._handle_small_batch(
            thread_id,
            pu_id,
            np.array([vaddr], dtype=np.int64),
            np.array([is_write], dtype=bool),
            now_ns,
        )
        return batch.infos()[0]

    def handle_fault_batch(
        self,
        thread_id: int,
        pu_id: int,
        vaddrs: np.ndarray,
        is_write: np.ndarray,
        *,
        now_ns: int,
    ) -> FaultBatch:
        """Resolve every unique faulting VPN of one batch in one pass.

        *vaddrs*/*is_write* are the batch's faulting accesses (duplicates per
        VPN allowed; the first access of each VPN wins, as in the per-fault
        loop).  Every VPN must currently be non-present.  Returns the
        resolved :class:`FaultBatch` after dispatching the hooks.
        """
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if vaddrs.size <= _SCALAR_RESOLVE_MAX:
            return self._handle_small_batch(thread_id, pu_id, vaddrs, is_write, now_ns)
        all_vpns = vaddrs >> PAGE_SHIFT
        vpns, first = np.unique(all_vpns, return_index=True)
        vaddrs = vaddrs[first]
        writes = is_write[first]

        table = self.address_space.page_table
        table.walk_batch(vpns)  # bounds-checks and accounts one walk per fault
        if table.present_mask(vpns).any():
            bad = vpns[table.present_mask(vpns)][0]
            raise PageFaultError(f"vpn {int(bad)} is present; no fault to handle")

        injected = table.populated_mask(vpns).copy()
        frames = np.empty(vpns.size, dtype=np.int64)
        home_nodes = np.empty(vpns.size, dtype=np.int64)

        inj_vpns = vpns[injected]
        if inj_vpns.size:
            table.restore_present_batch(inj_vpns)
            home_nodes[injected] = table.home_nodes(inj_vpns)
            frames[injected] = table.frames_of(inj_vpns)
            self.injected_faults += int(inj_vpns.size)
            self.fault_time_ns += inj_vpns.size * self.injected_cost_ns

        first_touch = ~injected
        ft_vpns = vpns[first_touch]
        if ft_vpns.size:
            node = self.node_of_pu(pu_id)
            new_frames = self.frames.allocate_batch(node, int(ft_vpns.size))
            nodes = self.frames.nodes_of_frames(new_frames)
            table.map_pages(ft_vpns, new_frames, nodes)
            frames[first_touch] = new_frames
            home_nodes[first_touch] = nodes
            self.first_touch_faults += int(ft_vpns.size)
            self.fault_time_ns += ft_vpns.size * self.first_touch_cost_ns

        table.mark_accessed_batch(vpns, dirty=writes)
        if self.tlbs is not None:
            self.tlbs[pu_id].insert_batch(vpns, frames, assume_unique=True)

        batch = FaultBatch(
            thread_id=thread_id,
            pu_id=pu_id,
            now_ns=now_ns,
            vaddrs=vaddrs,
            vpns=vpns,
            is_write=writes,
            injected=injected,
            home_nodes=home_nodes,
        )
        self._dispatch(batch)
        return batch

    def _handle_small_batch(
        self,
        thread_id: int,
        pu_id: int,
        vaddrs: np.ndarray,
        is_write: np.ndarray,
        now_ns: int,
    ) -> FaultBatch:
        """Scalar resolution of a small batch (same contract and results)."""
        by_vpn: dict[int, tuple[int, bool]] = {}
        for va, w in zip(vaddrs.tolist(), is_write.tolist()):
            vpn = va >> PAGE_SHIFT
            if vpn not in by_vpn:
                by_vpn[vpn] = (va, w)
        order = sorted(by_vpn)

        table = self.address_space.page_table
        tlb = self.tlbs[pu_id] if self.tlbs is not None else None
        node: int | None = None
        u_vaddrs: list[int] = []
        u_writes: list[bool] = []
        injected: list[bool] = []
        homes: list[int] = []
        for vpn in order:
            va, w = by_vpn[vpn]
            if table.is_present(vpn):
                raise PageFaultError(f"vpn {vpn} is present; no fault to handle")
            table.walk(vpn)
            if table.is_populated(vpn):
                table.restore_present(vpn)
                home = table.home_node_of(vpn)
                frame = table.frame_of(vpn)
                self.injected_faults += 1
                self.fault_time_ns += self.injected_cost_ns
                inj = True
            else:
                if node is None:
                    node = self.node_of_pu(pu_id)
                frame = self.frames.allocate(node)
                home = self.frames.node_of_frame(frame)
                table.map_page(vpn, frame, home)
                self.first_touch_faults += 1
                self.fault_time_ns += self.first_touch_cost_ns
                inj = False
            table.mark_accessed(vpn, dirty=w)
            if tlb is not None:
                tlb.insert(vpn, frame)
            u_vaddrs.append(va)
            u_writes.append(w)
            injected.append(inj)
            homes.append(home)

        batch = FaultBatch(
            thread_id=thread_id,
            pu_id=pu_id,
            now_ns=now_ns,
            vaddrs=np.asarray(u_vaddrs, dtype=np.int64),
            vpns=np.asarray(order, dtype=np.int64),
            is_write=np.asarray(u_writes, dtype=bool),
            injected=np.asarray(injected, dtype=bool),
            home_nodes=np.asarray(homes, dtype=np.int64),
        )
        self._dispatch(batch)
        return batch

    @property
    def total_faults(self) -> int:
        """All faults handled so far."""
        return self.first_touch_faults + self.injected_faults

    def injected_fraction(self) -> float:
        """Share of faults that were SPCD-injected (the paper targets ~10%)."""
        total = self.total_faults
        return self.injected_faults / total if total else 0.0
