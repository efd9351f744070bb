"""Workload interface: per-thread memory-access stream generators.

A workload owns regions in the application's address space and produces, for
any thread and point in virtual time, a batch of virtual addresses plus
read/write flags.  Communication is *implicit*, exactly as in shared-memory
programs: it exists only as overlapping page accesses between threads, which
is all SPCD ever observes.

Generation works a step at a time (:meth:`Workload.generate_step`): each
thread draws from its own generator exactly as a one-thread call would, and
the addresses of every thread are then assembled in one vectorised pass.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

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


def region_table(regions: Sequence[Region]) -> tuple[np.ndarray, np.ndarray]:
    """Bases and page counts of *regions* as int64 arrays (a region smaller
    than a page counts as one page)."""
    bases = np.array([r.base for r in regions], dtype=np.int64)
    pages = np.array([max(1, r.size // PAGE_SIZE) for r in regions], dtype=np.int64)
    return bases, pages


class Workload(abc.ABC):
    """Base class for all synthetic workloads."""

    def __init__(self, name: str, n_threads: int) -> None:
        if n_threads < 2:
            raise WorkloadError("workloads need at least two threads")
        self.name = name
        self.n_threads = n_threads
        self._setup_done = False
        #: each thread's private working set, mapped at setup (see
        #: :meth:`_set_private`), and its bases and page counts
        self._private: list[Region] = []
        self._private_table = region_table([])
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

    def _set_private(self, regions: list[Region]) -> None:
        """Record each thread's private working set (call from setup())."""
        self._private = regions
        self._private_table = region_table(regions)

    # -- stream generation -----------------------------------------------------
    def generate(
        self, tid: int, n: int, now_ns: int, rng: np.random.Generator
    ) -> AccessBatch:
        """*n* accesses by thread *tid* at virtual time *now_ns*: the
        one-thread call of :meth:`generate_step`."""
        vaddrs, is_write = self.generate_step([tid], n, now_ns, [rng])
        return AccessBatch(tid=tid, vaddrs=vaddrs[0], is_write=is_write[0])

    @abc.abstractmethod
    def generate_step(
        self,
        tids: Sequence[int],
        n: int,
        now_ns: int,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        """*n* accesses by each thread of *tids* at virtual time *now_ns*.

        Thread ``tids[i]`` draws from ``rngs[i]`` only, and makes the same
        draws, in the same order and sizes, whatever other threads the call
        holds, so its row equals ``generate(tids[i], n, now_ns, rngs[i])``.
        Returns ``[len(tids), n]`` arrays of addresses (int64) and write
        flags (bool).  Implementations start with :meth:`_check_step`.
        """

    def _check_step(
        self, tids: Sequence[int], n: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Check one generation call's arguments; returns *tids* as an
        int64 array.

        Raises :class:`WorkloadError` before setup, for a batch size that
        is not a non-negative integer, for a thread id outside
        ``[0, n_threads)`` or repeated, and for *rngs* not holding one
        distinct generator per thread (a generator shared by two threads
        would interleave their draws).
        """
        if not self._setup_done:
            raise WorkloadError(f"{self.name}: setup() must run before generate()")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise WorkloadError(
                f"{self.name}: batch size must be a non-negative integer, got {n!r}"
            )
        ids = np.asarray(tids)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise WorkloadError(f"{self.name}: thread ids must be integers, got {tids!r}")
        id_list = ids.tolist()
        if id_list and (min(id_list) < 0 or max(id_list) >= self.n_threads):
            raise WorkloadError(
                f"{self.name}: thread ids must lie in [0, {self.n_threads}), got {tids!r}"
            )
        if len(set(id_list)) != len(id_list):
            raise WorkloadError(f"{self.name}: a thread id is repeated in {tids!r}")
        if len(rngs) != len(id_list):
            raise WorkloadError(
                f"{self.name}: {len(rngs)} generators for {len(id_list)} threads"
            )
        if len({id(rng) for rng in rngs}) != len(id_list):
            raise WorkloadError(f"{self.name}: a generator is shared by two threads")
        return ids.astype(np.int64, copy=False)

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
    # Each helper serves a whole step: thread i's draws come from rngs[i],
    # in the order and sizes of one thread's call, and the addresses of
    # every thread are then built in one pass.  Per-thread counts are lists
    # of ints; addresses come back concatenated in thread order.
    @staticmethod
    def _uniforms(rngs: Sequence[np.random.Generator], counts: list[int]) -> np.ndarray:
        """``rngs[i].random(counts[i])`` for each thread, concatenated.

        A zero-size draw advances no generator, so it is skipped.
        """
        out = np.empty(sum(counts))
        start = 0
        for rng, count in zip(rngs, counts):
            if count:
                stop = start + count
                rng.random(out=out[start:stop])
                start = stop
        return out

    @staticmethod
    def _counts_per_thread(mask: np.ndarray, counts: list[int]) -> list[int]:
        """True entries of *mask* in each of its consecutive per-thread segments
        (thread *i* owns the next ``counts[i]`` entries)."""
        owner = np.repeat(np.arange(len(counts)), counts)
        return np.bincount(owner[mask], minlength=len(counts)).tolist()

    @staticmethod
    def _addresses_in_region(
        bases: np.ndarray,
        pages: np.ndarray,
        counts: list[int],
        rngs: Sequence[np.random.Generator],
        *,
        locality: float = 2.0,
        line_span: int = _COLD_LINE_SPAN,
    ) -> np.ndarray:
        """Random line-aligned addresses in each thread's region, with
        temporal locality (``counts[i]`` in the region at ``bases[i]`` of
        ``pages[i]`` pages).

        Page choice follows ``floor(pages * u**locality)`` — a power-law
        favouring low page indices, so each thread has a hot subset and
        caches behave realistically.  ``locality=1`` is uniform.  Each
        thread draws its ``counts[i]`` uniforms, then as many line indices.

        A line index is ``floor(span * v)`` for a float32 uniform ``v``: the
        value, and the generator state after it, of
        ``rng.integers(0, span, size=k)``.  Both take one 32-bit word per
        value; for a power-of-two span numpy's bounded-integer method never
        rejects and returns the word's top ``log2(span)`` bits, and a
        float32 uniform is the word's top 24 bits over ``2**24``.  So the
        span must be a power of two of at least 2 (``integers(0, 1)``
        draws nothing), or :class:`WorkloadError` is raised.

        Only the first *line_span* lines of each page are used: the paper's
        codes stride through arrays with strong spatial reuse, so the number
        of distinct lines per resident page is far below 64; sampling all 64
        would turn the access stream into a compulsory-miss generator and
        drown every placement effect in DRAM traffic.
        """
        span = min(line_span, PAGE_SIZE // CACHE_LINE_SIZE)
        if span < 2 or span & (span - 1):
            raise WorkloadError(f"line span must be a power of two of at least 2, got {span}")
        u = np.empty(sum(counts))
        v = np.empty(u.size, dtype=np.float32)
        start = 0
        for rng, count in zip(rngs, counts):
            if count:
                stop = start + count
                rng.random(out=u[start:stop])
                rng.random(dtype=np.float32, out=v[start:stop])
                start = stop
        # u**locality and span * v are at least 0, so the casts floor
        page_idx = (np.repeat(pages, counts) * u**locality).astype(np.int64)
        line_idx = (span * v).astype(np.int64)
        return np.repeat(bases, counts) + page_idx * PAGE_SIZE + line_idx * CACHE_LINE_SIZE

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
            self._channels.append((cdf, *region_table(regions)))

    def _mixed_cold(
        self,
        tids: np.ndarray,
        counts: list[int],
        rngs: Sequence[np.random.Generator],
        shared_fraction: float,
        locality: float,
    ) -> np.ndarray:
        """Private-working-set addresses mixed with shared-channel ones.

        A *shared_fraction* share of each thread's ``counts[i]`` accesses
        picks one of its channels and a page and line in it.  A thread's
        draws are those of ``rng.choice(channels, p=probs)`` followed by
        one :meth:`_addresses_in_region` per chosen channel, in channel
        order: ``choice`` with ``p`` is a ``searchsorted`` of uniform draws
        in the CDF, and each channel's page and line draws keep their size
        and order.  Only the assembly is vectorised, over the whole step:
        the draws are concatenated, thread by thread and channel by
        channel, and scattered back through one stable argsort keyed by
        thread, then channel.
        """
        draws = self._uniforms(rngs, counts)
        shared_mask = draws < shared_fraction
        n_shared = self._counts_per_thread(shared_mask, counts)
        bases, pages = self._private_table
        vaddrs = np.empty(draws.size, dtype=np.int64)
        vaddrs[~shared_mask] = self._addresses_in_region(
            bases[tids],
            pages[tids],
            [c - s for c, s in zip(counts, n_shared)],
            rngs,
            locality=locality,
        )
        if not any(n_shared):
            return vaddrs
        # Each sharing thread's channel choice; then its channels are drawn
        # as regions of their own, in channel order, from its generator.
        keys, ch_counts, ch_bases, ch_pages, ch_rngs = [], [], [], [], []
        first = 0
        for tid, rng, k in zip(tids.tolist(), rngs, n_shared):
            if k:
                cdf, bases, pages = self._channels[tid]
                choice = cdf.searchsorted(rng.random(k), side="right")
                # channel numbers made unique across the step, in thread order
                keys.append(choice + first)
                first += cdf.size
                ch_counts.append(np.bincount(choice, minlength=cdf.size))
                ch_bases.append(bases)
                ch_pages.append(pages)
                ch_rngs += [rng] * cdf.size
        shared = np.empty(sum(n_shared), dtype=np.int64)
        shared[np.argsort(np.concatenate(keys), kind="stable")] = self._addresses_in_region(
            np.concatenate(ch_bases),
            np.concatenate(ch_pages),
            np.concatenate(ch_counts).tolist(),
            ch_rngs,
            locality=locality,
        )
        vaddrs[shared_mask] = shared
        return vaddrs

    def _write_flags(
        self,
        n: int,
        rngs: Sequence[np.random.Generator],
        fraction: float | None = None,
    ) -> np.ndarray:
        """``[len(rngs), n]`` Bernoulli write flags at *fraction* (default:
        the workload's write fraction)."""
        draws = self._uniforms(rngs, [n] * len(rngs)).reshape(len(rngs), n)
        return draws < (self.write_fraction if fraction is None else fraction)

    # -- hot-set mixture -----------------------------------------------------------
    def _setup_hot(self, address_space: AddressSpace) -> None:
        """Allocate each thread's private hot region (call from setup())."""
        self._hot_table = region_table(
            [
                address_space.mmap(f"{self.name}.hot{t}", self.hot_pages * PAGE_SIZE)
                for t in range(self.n_threads)
            ]
        )

    def _mix_hot(
        self,
        tids: np.ndarray,
        n: int,
        rngs: Sequence[np.random.Generator],
        cold_fn: Callable[[list[int]], np.ndarray],
    ) -> np.ndarray:
        """``[len(tids), n]`` addresses: hot-set hits mixed with cold ones.

        ``cold_fn`` receives each thread's number of cold accesses and
        returns their addresses, concatenated in thread order; the sharing
        pattern lives entirely in the cold stream.
        """
        if not hasattr(self, "_hot_table"):
            raise WorkloadError(f"{self.name}: _setup_hot() was not called")
        draws = self._uniforms(rngs, [n] * tids.size).reshape(tids.size, n)
        hot_mask = draws < self.hot_fraction
        n_hot = np.count_nonzero(hot_mask, axis=1).tolist()
        bases, pages = self._hot_table
        vaddrs = np.empty((tids.size, n), dtype=np.int64)
        vaddrs[hot_mask] = self._addresses_in_region(
            bases[tids], pages[tids], n_hot, rngs, locality=1.0, line_span=64
        )
        vaddrs[~hot_mask] = cold_fn([n - h for h in n_hot])
        return vaddrs
