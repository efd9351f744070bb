"""Replica-coherence enumeration for the Mitosis-style page table.

The placement engine's replication directive
(:class:`~repro.mem.ptreplica.ReplicatedPageTable`) must keep every
node's replica element-wise identical to the primary across *any*
interleaving of the three mutator streams that run concurrently in a
real run: the fault path (``map_page`` / ``restore_present``), the data
mapper's page migrations (the real
:meth:`~repro.core.datamap.SpcdDataMapper.apply_moves`: ``unmap_page`` +
``map_page`` + TLB shootdown), and SPCD's fault injection
(``clear_present`` + shootdown).  Hypothesis shrinks poorly over such
schedules, so this module brute-forces them with the enumerator of
:mod:`repro.check.interleave`: every op sequence over a tiny model
(2 nodes × 4 pages by default) is executed against the **real** ``mem/``
stack, and after every single op two invariants are checked:

* **replica coherence**: :meth:`ReplicatedPageTable.replica_divergence`
  must be ``None`` — no replica may disagree with the primary on
  present / populated / frame / home-node state;
* **TLB coherence** (carried over from the interleave check): every
  cached translation must match a page the primary currently marks
  present, with the same frame.

Two negative controls prove the checker has teeth before we trust its
silence:

* ``broadcast_present=False`` drops the present-bit half of every
  coherence broadcast — the enumerator must find the divergence;
* ``migrate_noshoot`` runs the same ``apply_moves`` through a
  :class:`~repro.mem.fault.FaultPipeline` over the same address space
  with no TLBs attached, so the page moves *without* the TLB shootdown —
  the exact data-mapper bug the shootdown in ``apply_moves`` exists to
  prevent.
"""

from __future__ import annotations

import numpy as np

from repro.check.interleave import Counterexample, find_counterexamples, tlb_violation
from repro.core.datamap import SpcdDataMapper
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.ptreplica import ReplicatedPageTable
from repro.mem.tlb import TlbArray

__all__ = ["ReplicaModel", "check_replica_interleavings", "replica_alphabet"]

#: one op: ("fault", node, page) | ("migrate", page, node)
#:       | ("migrate_noshoot", page, node) | ("clear", page)
Op = tuple


def replica_alphabet(
    n_nodes: int = 2, n_pages: int = 4, *, with_noshoot: bool = False
) -> "list[Op]":
    """The op alphabet of the small model (optionally with the bug op)."""
    ops: "list[Op]" = [
        ("fault", node, page) for node in range(n_nodes) for page in range(n_pages)
    ]
    ops += [
        ("migrate", page, node) for page in range(n_pages) for node in range(n_nodes)
    ]
    if with_noshoot:
        ops += [
            ("migrate_noshoot", page, node)
            for page in range(n_pages)
            for node in range(n_nodes)
        ]
    ops += [("clear", page) for page in range(n_pages)]
    return ops


class ReplicaModel:
    """One fresh n-node × n-page instance of the real mem/ stack, replicated.

    One PU per node (``node_of_pu`` is the identity), so a ``fault`` op
    names both the faulting PU and the node its frame lands on.  The
    replicas are activated mid-setup — after the region exists, before
    any page is touched — matching the placement engine's mid-run
    activation path.
    """

    def __init__(
        self,
        n_nodes: int,
        n_pages: int,
        tlb_capacity: int,
        *,
        broadcast_present: bool = True,
    ) -> None:
        table = ReplicatedPageTable(
            n_pages + 8, n_nodes, broadcast_present=broadcast_present
        )
        self.space = AddressSpace(capacity_pages=n_pages + 8, page_table=table)
        self.region = self.space.mmap("model", n_pages * 4096)
        self.vpns = [int(v) for v in self.region.vpns()]
        self.frames = FrameAllocator(n_nodes=n_nodes, frames_per_node=n_pages + 8)
        self.tlbs = TlbArray(n_pus=n_nodes, capacity=tlb_capacity)
        self.pipeline = FaultPipeline(
            self.space, self.frames, self.tlbs, node_of_pu=lambda pu: pu
        )

        def data_mapper(tlbs: "TlbArray | None") -> SpcdDataMapper:
            # apply_moves uses only its pipeline's address space, frames
            # and TLBs, so each mapper gets a pipeline of its own over this
            # stack, and no fault reaches its counting hook
            pipeline = FaultPipeline(self.space, self.frames, tlbs, node_of_pu=lambda pu: pu)
            return SpcdDataMapper(pipeline, n_nodes, lambda pu: pu)

        self.mapper = data_mapper(self.tlbs)
        # the migrate_noshoot control: no TLBs, so nothing is shot down
        self.noshoot_mapper = data_mapper(None)
        table.activate()
        self.clock = 0

    def apply(self, op: Op) -> None:
        table = self.space.page_table
        self.clock += 1
        if op[0] == "fault":
            _, node, page = op
            vpn = self.vpns[page]
            if self.tlbs[node].lookup(vpn) is not None:
                # TLB hit: hardware translates without consulting the table.
                # The invariant check below catches a stale hit; nothing to do.
                return
            if table.is_present(vpn):
                # soft miss: refill from the page table, no fault
                self.tlbs[node].insert(vpn, table.frame_of(vpn))
                return
            self.pipeline.handle_fault(
                node, node, vpn * 4096, is_write=False, now_ns=self.clock
            )
        elif op[0] in ("migrate", "migrate_noshoot"):
            _, page, node = op
            vpn = self.vpns[page]
            if not table.is_populated(vpn):
                return  # SpcdDataMapper.decide only moves populated pages
            mapper = self.mapper if op[0] == "migrate" else self.noshoot_mapper
            mapper.apply_moves([(vpn, node)])
        elif op[0] == "clear":
            # the injector's wake: clear the present bit, shoot the TLBs
            vpn = self.vpns[op[1]]
            if not (table.is_populated(vpn) and table.is_present(vpn)):
                return
            cleared = np.array([vpn], dtype=np.int64)
            table.clear_present(cleared)
            self.tlbs.shootdown(cleared)
        else:  # pragma: no cover - enumerator misuse
            raise ValueError(f"unknown op {op!r}")

    def violation(self) -> "str | None":
        """First violated invariant (replica coherence, then TLB), or None."""
        table = self.space.page_table
        return table.replica_divergence() or tlb_violation(self.tlbs, table)


def check_replica_interleavings(
    *,
    n_nodes: int = 2,
    n_pages: int = 4,
    max_len: int = 4,
    tlb_capacity: int = 2,
    broadcast_present: bool = True,
    with_noshoot: bool = False,
    max_counterexamples: int = 1,
) -> "list[Counterexample]":
    """Exhaustively run every op sequence up to *max_len*; return violations.

    A fresh real ``mem/`` stack (with active replicas) is built per
    sequence and both invariants are asserted after every op.  An empty
    list is the pass verdict; counterexamples are greedily minimised.
    """
    return find_counterexamples(
        lambda: ReplicaModel(
            n_nodes, n_pages, tlb_capacity, broadcast_present=broadcast_present
        ),
        replica_alphabet(n_nodes, n_pages, with_noshoot=with_noshoot),
        max_len=max_len,
        max_counterexamples=max_counterexamples,
    )
