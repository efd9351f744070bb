"""Workload interface: per-thread memory-access stream generators.

A workload owns regions in the application's address space and produces, for
any thread and point in virtual time, a batch of virtual addresses plus
read/write flags.  Communication is *implicit*, exactly as in shared-memory
programs: it exists only as overlapping page accesses between threads, which
is all SPCD ever observes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.errors import WorkloadError
from repro.mem.addresspace import AddressSpace, Region
from repro.units import CACHE_LINE_SIZE, PAGE_SIZE

#: lines used per page of a cold region (see ``Workload._addresses_in_region``)
_COLD_LINE_SPAN = 8


@dataclass(frozen=True)
class AccessBatch:
    """A batch of memory accesses by one thread."""

    tid: int
    vaddrs: np.ndarray
    is_write: np.ndarray

    def __post_init__(self) -> None:
        if self.vaddrs.shape != self.is_write.shape:
            raise WorkloadError("vaddrs and is_write must have equal shape")

    def __len__(self) -> int:
        return int(self.vaddrs.size)


@dataclass(frozen=True)
class SharedPairSpec:
    """One shared region between a pair (or clique) of threads."""

    threads: tuple[int, ...]
    region: Region
    weight: float


class Workload(abc.ABC):
    """Base class for all synthetic workloads."""

    def __init__(self, name: str, n_threads: int) -> None:
        if n_threads < 2:
            raise WorkloadError("workloads need at least two threads")
        self.name = name
        self.n_threads = n_threads
        self._setup_done = False
        #: each thread's private working set, mapped at setup
        self._private: list[Region] = []
        #: each thread's shared-channel table, built at setup by
        #: :meth:`_set_channels`: (choice CDF, region bases, page counts)
        self._channels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # -- lifecycle ---------------------------------------------------------
    @abc.abstractmethod
    def setup(self, address_space: AddressSpace) -> None:
        """Allocate this workload's regions in *address_space*."""

    def _mark_setup(self) -> None:
        """Claim this instance for one address space (call first in setup()).

        Setup maps regions into the address space it is given and builds
        tables over them, so a second setup would change the stream: one
        workload instance serves one ``Simulator``.
        """
        if self._setup_done:
            raise WorkloadError(
                f"{self.name}: setup() already ran; use a new workload instance "
                "for each Simulator"
            )
        self._setup_done = True

    def _require_setup(self) -> None:
        if not self._setup_done:
            raise WorkloadError(f"{self.name}: setup() must run before generate()")

    # -- stream generation -----------------------------------------------------
    @abc.abstractmethod
    def generate(
        self, tid: int, n: int, now_ns: int, rng: np.random.Generator
    ) -> AccessBatch:
        """*n* accesses by thread *tid* at virtual time *now_ns*."""

    # -- ground truth ------------------------------------------------------------
    @abc.abstractmethod
    def ground_truth(self, now_ns: int | None = None) -> CommunicationMatrix:
        """The true communication pattern (overall, or at a given time)."""

    #: non-memory instructions executed per memory access (time model input)
    instructions_per_access: float = 3.0
    #: fraction of accesses that are writes
    write_fraction: float = 0.3
    #: fraction of accesses hitting the thread's hot set (stack, loop
    #: variables, registers spilled to L1-resident lines) — gives realistic
    #: L1 hit rates; the remaining *cold* accesses carry the sharing pattern
    hot_fraction: float = 0.78
    #: size of the per-thread hot set in pages (fits comfortably in L1)
    hot_pages: int = 2

    # -- shared helpers -----------------------------------------------------------
    @staticmethod
    def _addresses_in_region(
        region: Region,
        n: int,
        rng: np.random.Generator,
        *,
        locality: float = 2.0,
        line_span: int = _COLD_LINE_SPAN,
    ) -> np.ndarray:
        """Random line-aligned addresses in *region* with temporal locality.

        Page choice follows ``floor(pages * u**locality)`` — a power-law
        favouring low page indices, so each thread has a hot subset and
        caches behave realistically.  ``locality=1`` is uniform.

        Only the first *line_span* lines of each page are used: the paper's
        codes stride through arrays with strong spatial reuse, so the number
        of distinct lines per resident page is far below 64; sampling all 64
        would turn the access stream into a compulsory-miss generator and
        drown every placement effect in DRAM traffic.
        """
        pages = max(1, region.size // PAGE_SIZE)
        page_idx = np.floor(pages * rng.random(n) ** locality).astype(np.int64)
        span = min(line_span, PAGE_SIZE // CACHE_LINE_SIZE)
        line_idx = rng.integers(0, span, size=n)
        return region.base + page_idx * PAGE_SIZE + line_idx * CACHE_LINE_SIZE

    def _set_channels(self, channels: list[tuple[list[Region], np.ndarray]]) -> None:
        """Build each thread's channel table from its ``(regions, probs)``.

        The table holds the CDF of the channel choice, built as numpy's
        ``Generator.choice`` builds it from ``p``, and each channel's region
        base and page count.
        """
        self._channels = []
        for regions, probs in channels:
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            bases = np.array([r.base for r in regions], dtype=np.int64)
            pages = np.array([max(1, r.size // PAGE_SIZE) for r in regions], dtype=np.int64)
            self._channels.append((cdf, bases, pages))

    def _mixed_cold(
        self,
        tid: int,
        n: int,
        rng: np.random.Generator,
        shared_fraction: float,
        locality: float,
    ) -> np.ndarray:
        """Private-working-set addresses mixed with shared-channel ones.

        A *shared_fraction* share of the accesses picks one of the thread's
        channels and a page and line in it.  The draws are those of
        ``rng.choice(channels, p=probs)`` followed by one
        :meth:`_addresses_in_region` per chosen channel, in channel order:
        ``choice`` with ``p`` is a ``searchsorted`` of uniform draws in the
        CDF, and each channel's page and line draws keep their size and
        order.  Only the assembly is vectorised: the channels' draws are
        concatenated and scattered back through a stable sort of the choice.
        """
        shared_mask = rng.random(n) < shared_fraction
        n_shared = int(shared_mask.sum())
        vaddrs = np.empty(n, dtype=np.int64)
        vaddrs[~shared_mask] = self._addresses_in_region(
            self._private[tid], n - n_shared, rng, locality=locality
        )
        if n_shared:
            cdf, bases, pages = self._channels[tid]
            choice = cdf.searchsorted(rng.random(n_shared), side="right")
            counts = np.bincount(choice, minlength=cdf.size)
            u = np.empty(n_shared)
            line_idx = np.empty(n_shared, dtype=np.int64)
            start = 0
            for count in counts.tolist():
                if count:
                    stop = start + count
                    rng.random(out=u[start:stop])
                    line_idx[start:stop] = rng.integers(0, _COLD_LINE_SPAN, size=count)
                    start = stop
            # u**locality is at least 0, so the cast floors like
            # _addresses_in_region does
            page_idx = (np.repeat(pages, counts) * u**locality).astype(np.int64)
            shared = np.empty(n_shared, dtype=np.int64)
            shared[np.argsort(choice, kind="stable")] = (
                np.repeat(bases, counts) + page_idx * PAGE_SIZE + line_idx * CACHE_LINE_SIZE
            )
            vaddrs[shared_mask] = shared
        return vaddrs

    def _write_flags(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Bernoulli write flags at the workload's write fraction."""
        return rng.random(n) < self.write_fraction

    # -- hot-set mixture -----------------------------------------------------------
    def _setup_hot(self, address_space: AddressSpace) -> None:
        """Allocate each thread's private hot region (call from setup())."""
        self._hot_regions = [
            address_space.mmap(f"{self.name}.hot{t}", self.hot_pages * PAGE_SIZE)
            for t in range(self.n_threads)
        ]

    def _mix_hot(
        self,
        tid: int,
        n: int,
        rng: np.random.Generator,
        cold_fn,
    ) -> np.ndarray:
        """Addresses: hot-set hits mixed with *cold_fn(n_cold)* addresses.

        ``cold_fn`` receives the number of cold accesses and returns their
        addresses; the sharing pattern lives entirely in the cold stream.
        """
        if not hasattr(self, "_hot_regions"):
            raise WorkloadError(f"{self.name}: _setup_hot() was not called")
        hot_mask = rng.random(n) < self.hot_fraction
        n_hot = int(hot_mask.sum())
        vaddrs = np.empty(n, dtype=np.int64)
        vaddrs[hot_mask] = self._addresses_in_region(
            self._hot_regions[tid], n_hot, rng, locality=1.0, line_span=64
        )
        vaddrs[~hot_mask] = cold_fn(n - n_hot)
        return vaddrs
