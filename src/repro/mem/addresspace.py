"""Process address space: named regions over a compact VPN range.

Workloads allocate their shared vectors / private arrays as regions; the
address space hands out page-aligned base addresses and owns the process's
page table.  Keeping the VPN range compact lets the page table store entries
flat (see :mod:`repro.mem.pagetable`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError
from repro.mem.pagetable import PageTable
from repro.units import PAGE_SHIFT, PAGE_SIZE, align_up


@dataclass(frozen=True)
class Region:
    """A contiguous mapped region (mmap-style)."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.base + self.size

    @property
    def first_vpn(self) -> int:
        """VPN of the first page."""
        return self.base >> PAGE_SHIFT

    @property
    def n_pages(self) -> int:
        """Number of pages spanned."""
        return (align_up(self.size, PAGE_SIZE)) >> PAGE_SHIFT

    def vpns(self) -> np.ndarray:
        """All VPNs of the region as an int64 array."""
        return np.arange(self.first_vpn, self.first_vpn + self.n_pages, dtype=np.int64)

    def contains(self, vaddr: int) -> bool:
        """True if *vaddr* lies inside the region."""
        return self.base <= vaddr < self.end

    def addr(self, offset: int) -> int:
        """Virtual address at byte *offset* into the region."""
        if not 0 <= offset < self.size:
            raise AddressError(f"offset {offset} outside region {self.name!r}")
        return self.base + offset


class AddressSpace:
    """The shared address space of one parallel application.

    Attributes:
        capacity_pages: maximum pages this space may span (page-table size).
        guard_pages: unmapped pages placed between regions so off-by-one
            region accesses fault loudly rather than aliasing.
    """

    def __init__(self, capacity_pages: int = 1 << 18, guard_pages: int = 1) -> None:
        self.page_table = PageTable(capacity_pages)
        self.capacity_pages = capacity_pages
        self.guard_pages = guard_pages
        self._regions: dict[str, Region] = {}
        self._next_vpn = 1  # keep page 0 unmapped (null-page convention)

    # -- allocation ---------------------------------------------------------
    def mmap(self, name: str, size: int) -> Region:
        """Create a new region of *size* bytes; returns it."""
        if size <= 0:
            raise AddressError("region size must be positive")
        if name in self._regions:
            raise AddressError(f"region {name!r} already exists")
        n_pages = align_up(size, PAGE_SIZE) >> PAGE_SHIFT
        if self._next_vpn + n_pages > self.capacity_pages:
            raise AddressError(
                f"address space exhausted: need {n_pages} pages at vpn "
                f"{self._next_vpn}, capacity {self.capacity_pages}"
            )
        region = Region(name=name, base=self._next_vpn << PAGE_SHIFT, size=size)
        self._next_vpn += n_pages + self.guard_pages
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        """Look up a region by name."""
        try:
            return self._regions[name]
        except KeyError:
            raise AddressError(f"no region named {name!r}") from None

    def regions(self) -> list[Region]:
        """All regions in allocation order."""
        return sorted(self._regions.values(), key=lambda r: r.base)

    def region_of(self, vaddr: int) -> Region | None:
        """The region containing *vaddr*, or ``None`` (guard / unmapped)."""
        for region in self._regions.values():
            if region.contains(vaddr):
                return region
        return None

    @property
    def span_pages(self) -> int:
        """Pages from 0 to the highest allocated VPN (dense-table extent)."""
        return self._next_vpn

    def total_mapped_bytes(self) -> int:
        """Sum of region sizes."""
        return sum(r.size for r in self._regions.values())
