"""Page table shared by the threads of one parallel application.

Linux keeps one page table per process; all threads share it, which is why
the paper must *re-create* faults on already-mapped pages (Sec. III-A).  The
table here is stored flat by VPN in numpy arrays (fast vectorised present-bit
checks for the execution engine) while :meth:`walk` exposes the 4-level radix
view used for walk-cost accounting.  Both views are kept consistent by
funnelling all mutation through this class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError, PageFaultError
from repro.mem.address import radix_indices

#: Sentinel frame number for "no frame mapped".
NO_FRAME: int = -1


@dataclass
class PageTableEntry:
    """Materialised view of one PTE (copies, not live references)."""

    vpn: int
    present: bool
    populated: bool
    frame: int
    accessed: bool
    dirty: bool
    home_node: int


class PageTable:
    """Flat-stored page table over a bounded VPN range ``[0, capacity)``.

    Attributes:
        capacity: number of VPNs addressable through this table.  Workload
            address spaces are compact, so a dense table is practical and
            allows vectorised fault detection.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise AddressError("page table capacity must be positive")
        self.capacity = capacity
        self._present = np.zeros(capacity, dtype=bool)
        self._populated = np.zeros(capacity, dtype=bool)
        self._accessed = np.zeros(capacity, dtype=bool)
        self._dirty = np.zeros(capacity, dtype=bool)
        self._frame = np.full(capacity, NO_FRAME, dtype=np.int64)
        self._home_node = np.full(capacity, -1, dtype=np.int32)
        #: Counts of structural operations, for the overhead model.
        self.walk_count = 0
        self.present_clear_count = 0

    # -- bounds ---------------------------------------------------------
    def _check(self, vpn: int) -> None:
        if not 0 <= vpn < self.capacity:
            raise AddressError(f"vpn {vpn} outside table capacity {self.capacity}")

    # -- queries ----------------------------------------------------------
    def entry(self, vpn: int) -> PageTableEntry:
        """Snapshot of the PTE for *vpn*."""
        self._check(vpn)
        return PageTableEntry(
            vpn=vpn,
            present=bool(self._present[vpn]),
            populated=bool(self._populated[vpn]),
            frame=int(self._frame[vpn]),
            accessed=bool(self._accessed[vpn]),
            dirty=bool(self._dirty[vpn]),
            home_node=int(self._home_node[vpn]),
        )

    def is_present(self, vpn: int) -> bool:
        """Present-bit state of one VPN."""
        self._check(vpn)
        return bool(self._present[vpn])

    def is_populated(self, vpn: int) -> bool:
        """True once a frame has ever been mapped at *vpn*."""
        self._check(vpn)
        return bool(self._populated[vpn])

    def frame_of(self, vpn: int) -> int:
        """Physical frame number backing *vpn* (``NO_FRAME`` if none)."""
        self._check(vpn)
        return int(self._frame[vpn])

    def home_node_of(self, vpn: int) -> int:
        """NUMA node of the frame backing *vpn* (-1 if unpopulated)."""
        self._check(vpn)
        return int(self._home_node[vpn])

    def present_mask(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorised present-bit lookup for an int array of VPNs."""
        return self._present[vpns]

    def populated_mask(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorised populated-bit lookup for an int array of VPNs."""
        return self._populated[vpns]

    def frames_of(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorised frame lookup (``NO_FRAME`` where unpopulated)."""
        return self._frame[vpns]

    def populated_vpns(self) -> np.ndarray:
        """All VPNs that currently have a frame (sorted)."""
        return np.flatnonzero(self._populated)

    def present_vpns(self) -> np.ndarray:
        """All VPNs whose present bit is set (sorted)."""
        return np.flatnonzero(self._present)

    def home_nodes(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorised NUMA-home lookup."""
        return self._home_node[vpns]

    @property
    def n_populated(self) -> int:
        """Number of pages with frames."""
        return int(self._populated.sum())

    # -- mutation --------------------------------------------------------
    def map_page(self, vpn: int, frame: int, home_node: int) -> None:
        """Install a frame at *vpn* (first-touch population)."""
        self._check(vpn)
        if self._populated[vpn]:
            raise PageFaultError(f"vpn {vpn} already populated")
        self._populated[vpn] = True
        self._present[vpn] = True
        self._frame[vpn] = frame
        self._home_node[vpn] = home_node

    def map_pages(self, vpns: np.ndarray, frames: np.ndarray, home_nodes: np.ndarray) -> None:
        """Bulk first-touch population: install *frames* at *vpns*.

        Equivalent to calling :meth:`map_page` per VPN; the VPNs must be
        distinct and none of them populated.
        """
        vpns = np.asarray(vpns, dtype=np.int64)
        if vpns.size == 0:
            return
        if vpns.min() < 0 or vpns.max() >= self.capacity:
            raise AddressError("vpn out of range in map_pages")
        if self._populated[vpns].any():
            bad = vpns[self._populated[vpns]][0]
            raise PageFaultError(f"vpn {int(bad)} already populated")
        self._populated[vpns] = True
        self._present[vpns] = True
        self._frame[vpns] = frames
        self._home_node[vpns] = home_nodes

    def clear_present(self, vpns: np.ndarray | int) -> int:
        """Clear the present bit of populated pages (SPCD fault injection).

        Returns the number of bits actually cleared (pages that were both
        populated and present).
        """
        vpns = np.atleast_1d(np.asarray(vpns, dtype=np.int64))
        if vpns.size and (vpns.min() < 0 or vpns.max() >= self.capacity):
            raise AddressError("vpn out of range in clear_present")
        eligible = self._populated[vpns] & self._present[vpns]
        targets = vpns[eligible]
        self._present[targets] = False
        self.present_clear_count += int(targets.size)
        return int(targets.size)

    def restore_present(self, vpn: int) -> None:
        """Set the present bit back after an SPCD-injected fault."""
        self._check(vpn)
        if not self._populated[vpn]:
            raise PageFaultError(f"cannot restore present bit of unpopulated vpn {vpn}")
        self._present[vpn] = True

    def restore_present_batch(self, vpns: np.ndarray) -> None:
        """Bulk present-bit restore after SPCD-injected faults."""
        vpns = np.asarray(vpns, dtype=np.int64)
        if vpns.size == 0:
            return
        if vpns.min() < 0 or vpns.max() >= self.capacity:
            raise AddressError("vpn out of range in restore_present_batch")
        if not self._populated[vpns].all():
            bad = vpns[~self._populated[vpns]][0]
            raise PageFaultError(f"cannot restore present bit of unpopulated vpn {int(bad)}")
        self._present[vpns] = True

    def mark_accessed(self, vpn: int, dirty: bool = False) -> None:
        """Set accessed (and optionally dirty) bits, as the MMU would."""
        self._check(vpn)
        self._accessed[vpn] = True
        if dirty:
            self._dirty[vpn] = True

    def mark_accessed_batch(self, vpns: np.ndarray, dirty: np.ndarray | None = None) -> None:
        """Vectorised accessed-bit setting (the MMU sets A on TLB refill).

        *dirty*, when given, is a boolean mask aligned with *vpns* marking
        which of them were written.
        """
        self._accessed[vpns] = True
        if dirty is not None and dirty.any():
            self._dirty[vpns[dirty]] = True

    def accessed_present_vpns(self) -> np.ndarray:
        """VPNs that are present and were accessed since the last aging."""
        return np.flatnonzero(self._accessed & self._present)

    def age_accessed(self) -> None:
        """Clear every accessed bit (kswapd-style aging sweep).

        Unpopulated pages must stay clear for :meth:`consistency_ok`; since
        aging clears everything, the invariant holds trivially.
        """
        self._accessed[:] = False

    # -- radix view -------------------------------------------------------
    def walk(self, vpn: int) -> tuple[int, int, int, int]:
        """Radix walk of *vpn*; counts toward :attr:`walk_count`.

        Returns the (PML4, PDPT, PD, PT) indices.  In the cost model every
        injected fault and every resolution performs one walk, mirroring the
        constant-time operations the paper describes (Sec. III-C4).
        """
        self._check(vpn)
        self.walk_count += 1
        return radix_indices(vpn)

    def walk_batch(self, vpns: np.ndarray) -> None:
        """Account one radix walk per VPN (the batched fault path's walks)."""
        vpns = np.asarray(vpns, dtype=np.int64)
        if vpns.size and (vpns.min() < 0 or vpns.max() >= self.capacity):
            raise AddressError("vpn out of range in walk_batch")
        self.walk_count += int(vpns.size)

    def consistency_ok(self) -> bool:
        """Structural invariants (used by property tests).

        * present implies populated,
        * populated iff a frame is mapped,
        * unpopulated pages carry no home node and no status bits.
        """
        if np.any(self._present & ~self._populated):
            return False
        if np.any(self._populated != (self._frame != NO_FRAME)):
            return False
        if np.any((~self._populated) & (self._home_node != -1)):
            return False
        if np.any((~self._populated) & (self._accessed | self._dirty)):
            return False
        return True
