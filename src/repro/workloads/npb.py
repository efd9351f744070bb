"""Synthetic NAS Parallel Benchmark workloads.

One generator class, ten parameterisations.  The parameters encode what the
paper reports about each benchmark (Sec. V-C, Fig. 7, Table II):

* **pattern** — BT, LU, SP, UA and MG are domain-decomposition codes whose
  communication is a neighbour chain (heterogeneous); CG and DC are chains
  over an all-to-all background (slightly heterogeneous); FT and IS are
  homogeneous all-to-all; EP barely communicates.
* **intensity** (``shared_fraction``) — how much of the access stream hits
  shared data; SP communicates the most (largest gains in the paper), MG has
  a visible pattern but little shared traffic relative to its memory-bound
  private streams (and indeed gains nothing in the paper).
* **footprint** — private pages per thread; larger values make a benchmark
  DRAM-bound (MG, DC).
* **instructions per access** — compute-bound codes like EP have high
  values, so their time barely depends on the memory system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.errors import WorkloadError
from repro.mem.addresspace import AddressSpace, Region
from repro.units import CACHE_LINE_SIZE, PAGE_SIZE
from repro.workloads.base import SharedPairSpec, Workload
from repro.workloads.patterns import (
    chain_pattern,
    mixed_pattern,
    none_pattern,
    uniform_pattern,
)


@dataclass(frozen=True)
class NpbSpec:
    """Parameters of one synthetic NPB benchmark."""

    name: str
    pattern: str  # "chain" | "mixed" | "uniform" | "none"
    classification: str  # "heterogeneous" | "homogeneous"
    shared_fraction: float = 0.2
    pair_pages: int = 8
    global_pages: int = 128
    private_pages: int = 160
    write_fraction: float = 0.3
    instructions_per_access: float = 3.0
    locality: float = 2.0
    chain_weight: float = 1.0
    background_weight: float = 0.12
    #: fraction of the cold stream that scans sequentially through a large
    #: per-thread buffer.  Streaming traffic is compulsory-miss DRAM load
    #: that no placement can avoid — it models the memory-bound character
    #: of DC/MG (high MPKI, no mapping gains) without creating a giant
    #: resident working set that would have to be refetched after every
    #: thread migration.
    stream_fraction: float = 0.15
    #: size of the per-thread streaming buffer in pages
    stream_pages: int = 192


#: The ten NPB-OMP benchmarks of the paper's evaluation, in its order.
NPB_SPECS: dict[str, NpbSpec] = {
    "BT": NpbSpec("BT", "chain", "heterogeneous", shared_fraction=0.30,
                  private_pages=64, instructions_per_access=3.0,
                  stream_fraction=0.05, stream_pages=192),
    "CG": NpbSpec("CG", "mixed", "heterogeneous", shared_fraction=0.26,
                  private_pages=48, instructions_per_access=2.5,
                  background_weight=0.05, stream_fraction=0.06, stream_pages=128),
    "DC": NpbSpec("DC", "mixed", "heterogeneous", shared_fraction=0.20,
                  private_pages=64, instructions_per_access=4.0,
                  background_weight=0.05, stream_fraction=0.40, stream_pages=512),
    "EP": NpbSpec("EP", "none", "homogeneous", shared_fraction=0.015,
                  private_pages=24, instructions_per_access=16.0,
                  global_pages=32, stream_fraction=0.0),
    "FT": NpbSpec("FT", "uniform", "homogeneous", shared_fraction=0.24,
                  private_pages=64, instructions_per_access=3.5,
                  global_pages=192, stream_fraction=0.35, stream_pages=256),
    "IS": NpbSpec("IS", "uniform", "homogeneous", shared_fraction=0.22,
                  private_pages=48, instructions_per_access=2.0,
                  global_pages=160, stream_fraction=0.30, stream_pages=192),
    "LU": NpbSpec("LU", "chain", "heterogeneous", shared_fraction=0.30,
                  private_pages=56, instructions_per_access=2.8,
                  stream_fraction=0.05, stream_pages=192),
    "MG": NpbSpec("MG", "chain", "heterogeneous", shared_fraction=0.07,
                  private_pages=64, instructions_per_access=2.2,
                  stream_fraction=0.55, stream_pages=512),
    "SP": NpbSpec("SP", "chain", "heterogeneous", shared_fraction=0.48,
                  private_pages=56, instructions_per_access=2.6,
                  stream_fraction=0.04, stream_pages=160),
    "UA": NpbSpec("UA", "chain", "heterogeneous", shared_fraction=0.33,
                  private_pages=56, instructions_per_access=3.0,
                  stream_fraction=0.06, stream_pages=176),
}


class SyntheticNpbWorkload(Workload):
    """Access-stream generator for one :class:`NpbSpec`."""

    def __init__(self, spec: NpbSpec, n_threads: int = 32) -> None:
        super().__init__(spec.name, n_threads)
        self.spec = spec
        self.instructions_per_access = spec.instructions_per_access
        self.write_fraction = spec.write_fraction
        self._ground = self._build_pattern()
        self._global: Region | None = None
        self._pair_specs: list[SharedPairSpec] = []

    def _build_pattern(self) -> np.ndarray:
        n = self.n_threads
        spec = self.spec
        if spec.pattern == "chain":
            return chain_pattern(n, spec.chain_weight)
        if spec.pattern == "mixed":
            return mixed_pattern(n, spec.chain_weight, spec.background_weight)
        if spec.pattern == "uniform":
            return uniform_pattern(n, 1.0)
        if spec.pattern == "none":
            return none_pattern(n)
        raise WorkloadError(f"unknown pattern kind {spec.pattern!r}")

    # -- lifecycle -----------------------------------------------------------
    def setup(self, address_space: AddressSpace) -> None:
        self._mark_setup()
        spec = self.spec
        n = self.n_threads
        self._setup_hot(address_space)
        self._set_private(
            [
                address_space.mmap(f"{spec.name}.priv{t}", spec.private_pages * PAGE_SIZE)
                for t in range(n)
            ]
        )
        if spec.stream_fraction > 0:
            streams = [
                address_space.mmap(f"{spec.name}.stream{t}", spec.stream_pages * PAGE_SIZE)
                for t in range(n)
            ]
            self._stream_bases = np.array([r.base for r in streams], dtype=np.int64)
            self._stream_lines = np.array(
                [r.size // CACHE_LINE_SIZE for r in streams], dtype=np.int64
            )
            #: each thread's next line in its stream buffer
            self._stream_pos = np.zeros(n, dtype=np.int64)
        # All-to-all communication flows through one global shared region.
        uses_global = spec.pattern in ("uniform", "mixed", "none")
        if uses_global:
            self._global = address_space.mmap(
                f"{spec.name}.global", spec.global_pages * PAGE_SIZE
            )
        # Pairwise chain links get dedicated small shared regions.
        if spec.pattern in ("chain", "mixed"):
            base = chain_pattern(n, spec.chain_weight)
            for i in range(n):
                for j in range(i + 1, n):
                    if base[i, j] > 0:
                        # The shared halo between two sub-domains grows with
                        # the amount of communication, so SPCD's page-level
                        # sampling sees amplitudes, not just adjacency.
                        pages = max(1, round(spec.pair_pages * base[i, j]))
                        region = address_space.mmap(
                            f"{spec.name}.pair{i}_{j}", pages * PAGE_SIZE
                        )
                        self._pair_specs.append(
                            SharedPairSpec(threads=(i, j), region=region, weight=base[i, j])
                        )
        self._build_channels()

    def _build_channels(self) -> None:
        """Per-thread list of shared regions with selection probabilities."""
        spec = self.spec
        channels = []
        for t in range(self.n_threads):
            regions: list[Region] = []
            weights: list[float] = []
            for ps in self._pair_specs:
                if t in ps.threads:
                    regions.append(ps.region)
                    weights.append(ps.weight)
            if self._global is not None:
                # Background weight: this thread's total all-to-all traffic.
                bg = {
                    "uniform": float(self.n_threads - 1),
                    "mixed": spec.background_weight * (self.n_threads - 1),
                    "none": 1.0,
                }.get(spec.pattern, 0.0)
                regions.append(self._global)
                weights.append(bg)
            w = np.asarray(weights, dtype=float)
            if w.sum() <= 0:
                w = np.ones_like(w) if len(w) else np.array([1.0])
                if not regions:
                    regions = [self._private[t]]
            channels.append((regions, w / w.sum()))
        self._set_channels(channels)

    # -- generation ------------------------------------------------------------
    def _stream_addresses(self, tids: np.ndarray, counts: list[int]) -> np.ndarray:
        """Sequential line-granular scans: ``counts[i]`` lines onward from
        thread ``tids[i]``'s position in its stream buffer, concatenated."""
        counts = np.asarray(counts, dtype=np.int64)
        pos = self._stream_pos[tids]
        lines = self._stream_lines[tids]
        starts = np.cumsum(counts) - counts
        idx = np.arange(counts.sum()) + np.repeat(pos - starts, counts)
        idx %= np.repeat(lines, counts)
        self._stream_pos[tids] = (pos + counts) % lines
        return np.repeat(self._stream_bases[tids], counts) + idx * CACHE_LINE_SIZE

    def _cold_addresses(
        self, tids: np.ndarray, counts: list[int], rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Cold-stream addresses: scan + shared channels + private set."""
        spec = self.spec
        if spec.stream_fraction <= 0:
            return self._mixed_cold(tids, counts, rngs, spec.shared_fraction, spec.locality)
        stream_mask = self._uniforms(rngs, counts) < spec.stream_fraction
        n_stream = self._counts_per_thread(stream_mask, counts)
        out = np.empty(stream_mask.size, dtype=np.int64)
        out[stream_mask] = self._stream_addresses(tids, n_stream)
        out[~stream_mask] = self._mixed_cold(
            tids,
            [c - s for c, s in zip(counts, n_stream)],
            rngs,
            spec.shared_fraction,
            spec.locality,
        )
        return out

    def generate_step(
        self,
        tids: Sequence[int],
        n: int,
        now_ns: int,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        tids = self._check_step(tids, n, rngs)
        vaddrs = self._mix_hot(
            tids, n, rngs, lambda counts: self._cold_addresses(tids, counts, rngs)
        )
        return vaddrs, self._write_flags(n, rngs)

    # -- ground truth -------------------------------------------------------------
    def ground_truth(self, now_ns: int | None = None) -> CommunicationMatrix:
        return CommunicationMatrix(self.n_threads, self._ground)

    @property
    def classification(self) -> str:
        """Paper's pattern class: heterogeneous or homogeneous."""
        return self.spec.classification


def make_npb(name: str, n_threads: int = 32) -> SyntheticNpbWorkload:
    """Instantiate one of the ten NPB benchmarks by name (case-insensitive)."""
    key = name.upper()
    if key not in NPB_SPECS:
        raise WorkloadError(f"unknown NPB benchmark {name!r}; have {sorted(NPB_SPECS)}")
    return SyntheticNpbWorkload(NPB_SPECS[key], n_threads)
