"""The two-phase producer/consumer benchmark (paper Sec. V-B, Fig. 5).

Pairs of threads communicate through a shared vector; the pairing switches
periodically between two phases:

* **phase 1** — neighbouring threads pair up: (0,1), (2,3), ...
* **phase 2** — distant threads pair up: (i, i + n/2).

The producer of a pair (its lower-id thread) mostly writes the shared
vector, the consumer mostly reads it, and both also touch a small private
region.  The best mapping changes with the phase, which is exactly what the
paper uses to demonstrate SPCD's *dynamic* detection (Fig. 6).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.errors import WorkloadError
from repro.mem.addresspace import AddressSpace, Region
from repro.units import MSEC, PAGE_SIZE
from repro.workloads.base import Workload, region_table
from repro.workloads.patterns import distant_pairs_pattern, neighbor_pairs_pattern


class ProducerConsumerWorkload(Workload):
    """16 producer/consumer pairs (32 threads) with periodic phase changes."""

    def __init__(
        self,
        n_threads: int = 32,
        *,
        phase_period_ns: int = 150 * MSEC,
        shared_fraction: float = 0.5,
        vector_pages: int = 8,
        private_pages: int = 32,
        start_phase: int = 0,
    ) -> None:
        if n_threads % 2:
            raise WorkloadError("producer/consumer needs an even thread count")
        super().__init__("producer_consumer", n_threads)
        self.phase_period_ns = phase_period_ns
        self.shared_fraction = shared_fraction
        self.vector_pages = vector_pages
        self.private_pages = private_pages
        self.start_phase = start_phase
        self.instructions_per_access = 2.0
        self.write_fraction = 0.5
        self._vectors: dict[tuple[int, int], Region] = {}

    # -- pairings ---------------------------------------------------------
    def partner_of(self, tid: int, phase: int) -> int:
        """The thread *tid* communicates with during *phase* (0 or 1)."""
        n = self.n_threads
        if phase % 2 == 0:
            return tid + 1 if tid % 2 == 0 else tid - 1
        half = n // 2
        return tid + half if tid < half else tid - half

    def phase_at(self, now_ns: int) -> int:
        """Which phase is active at time *now_ns* (0 or 1)."""
        return (now_ns // self.phase_period_ns + self.start_phase) % 2

    def is_producer(self, tid: int, phase: int) -> bool:
        """The lower-id member of each pair produces (mostly writes)."""
        return tid < self.partner_of(tid, phase)

    # -- lifecycle -----------------------------------------------------------
    def setup(self, address_space: AddressSpace) -> None:
        self._mark_setup()
        n = self.n_threads
        self._setup_hot(address_space)
        self._set_private(
            [
                address_space.mmap(f"pc.priv{t}", self.private_pages * PAGE_SIZE)
                for t in range(n)
            ]
        )
        #: per phase, each thread's shared vector
        self._phase_vectors: list[list[Region]] = []
        for phase in (0, 1):
            vectors = []
            for tid in range(n):
                partner = self.partner_of(tid, phase)
                key = (min(tid, partner), max(tid, partner))
                if key not in self._vectors:
                    self._vectors[key] = address_space.mmap(
                        f"pc.vec{key[0]}_{key[1]}", self.vector_pages * PAGE_SIZE
                    )
                vectors.append(self._vectors[key])
            self._phase_vectors.append(vectors)

    # -- generation -------------------------------------------------------------
    def generate_step(
        self,
        tids: Sequence[int],
        n: int,
        now_ns: int,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        tids = self._check_step(tids, n, rngs)
        phase = self.phase_at(now_ns)
        vectors = [self._phase_vectors[phase][t] for t in tids.tolist()]
        vec_bases, vec_pages = region_table(vectors)
        priv_bases, priv_pages = self._private_table

        def cold(counts: list[int]) -> np.ndarray:
            shared_mask = self._uniforms(rngs, counts) < self.shared_fraction
            n_shared = self._counts_per_thread(shared_mask, counts)
            out = np.empty(shared_mask.size, dtype=np.int64)
            out[shared_mask] = self._addresses_in_region(
                vec_bases, vec_pages, n_shared, rngs, locality=1.2
            )
            out[~shared_mask] = self._addresses_in_region(
                priv_bases[tids],
                priv_pages[tids],
                [c - s for c, s in zip(counts, n_shared)],
                rngs,
                locality=2.0,
            )
            return out

        vaddrs = self._mix_hot(tids, n, rngs, cold)
        # Producers write the shared vector, consumers read it; everything
        # else keeps the workload-level write fraction.
        writes = self._write_flags(n, rngs)
        vec_ends = np.array([v.end for v in vectors], dtype=np.int64)
        in_vector = (vaddrs >= vec_bases[:, None]) & (vaddrs < vec_ends[:, None])
        n_vec = np.count_nonzero(in_vector, axis=1).tolist()
        write_prob = [
            0.8 if self.is_producer(t, phase) else 0.1 for t in tids.tolist()
        ]
        writes[in_vector] = self._uniforms(rngs, n_vec) < np.repeat(write_prob, n_vec)
        return vaddrs, writes

    # -- ground truth ---------------------------------------------------------------
    def ground_truth(self, now_ns: int | None = None) -> CommunicationMatrix:
        """True pattern: phase-specific if *now_ns* given, else the blend."""
        n = self.n_threads
        if now_ns is not None:
            phase = self.phase_at(now_ns)
            pattern = (
                neighbor_pairs_pattern(n) if phase == 0 else distant_pairs_pattern(n)
            )
            return CommunicationMatrix(n, pattern)
        blend = 0.5 * neighbor_pairs_pattern(n) + 0.5 * distant_pairs_pattern(n)
        return CommunicationMatrix(n, blend)


#: communication events an interval matrix must hold to count as a view
#: of its phase (fewer is sampling noise)
MIN_INTERVAL_EVENTS = 20.0


def phase_intervals(
    workload: ProducerConsumerWorkload,
    snapshots: "list[tuple[int, CommunicationMatrix]]",
) -> "dict[str, CommunicationMatrix | None]":
    """The paper's Fig. 6a-c interval matrices from detector snapshots.

    *snapshots* are ``(now_ns, matrix)`` pairs in time order.  Each pair
    of consecutive snapshots is one interval, read with
    :meth:`~repro.core.commmatrix.CommunicationMatrix.diff`; one holding
    fewer than :data:`MIN_INTERVAL_EVENTS` events is skipped.  Returns the
    first interval wholly inside phase 1 (``phase_at`` 0) that starts
    after a quarter period (``"phase1"``), the first wholly inside phase 2
    (``"phase2"``), and the first that straddles a phase change
    (``"transition"``).  A straddling pair holding too few events is
    widened by one snapshot on each side at a time until it holds enough;
    ``None`` marks an interval the snapshots do not contain.
    """
    intervals: "dict[str, CommunicationMatrix | None]" = {
        "phase1": None,
        "phase2": None,
        "transition": None,
    }
    quarter = workload.phase_period_ns // 4
    for i, ((t0, m0), (t1, m1)) in enumerate(zip(snapshots, snapshots[1:])):
        p0, p1 = workload.phase_at(t0), workload.phase_at(t1)
        if p0 != p1:
            if intervals["transition"] is None:
                intervals["transition"] = _widened_interval(snapshots, i)
            continue
        diff = m1.diff(m0)
        if diff.total() < MIN_INTERVAL_EVENTS:
            continue
        if p0 == 0 and intervals["phase1"] is None and t0 > quarter:
            intervals["phase1"] = diff
        elif p0 == 1 and intervals["phase2"] is None:
            intervals["phase2"] = diff
    return intervals


def _widened_interval(
    snapshots: "list[tuple[int, CommunicationMatrix]]", i: int
) -> "CommunicationMatrix | None":
    """Snapshots *i* to *i*+1, widened until the interval holds enough events."""
    lo, hi = i, i + 1
    while True:
        diff = snapshots[hi][1].diff(snapshots[lo][1])
        if diff.total() >= MIN_INTERVAL_EVENTS:
            return diff
        if lo == 0 or hi == len(snapshots) - 1:
            return None
        lo, hi = lo - 1, hi + 1
