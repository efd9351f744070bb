"""SPCD orchestration: detection + injection + filter + mapping + migration.

:class:`SpcdManager` wires the pieces the way the paper's kernel module does:

* the detector hooks the page-fault pipeline;
* the injector runs as a 10 ms kernel thread;
* a second periodic activity evaluates the communication matrix, asks the
  communication filter whether the pattern changed, and if so computes a new
  hierarchical mapping and migrates the threads (:meth:`SpcdManager.evaluate`).

It also carries the virtual-time overhead accounting that reproduces the
paper's Fig. 16 split into *detection overhead* (fault hook + injection) and
*mapping overhead* (matrix analysis, matching, migrations).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.core.decide import RemapGate
from repro.core.filter import CommunicationFilter
from repro.core.injector import FaultInjector, InjectorMode
from repro.core.mapping import make_mapper, select_mapper_algorithm
from repro.core.spcd import SpcdDetector
from repro.errors import ConfigurationError
from repro.kernelsim.kthread import TimerWheel
from repro.kernelsim.migration import MigrationEngine
from repro.kernelsim.scheduler import PinnedScheduler
from repro.machine.topology import Machine
from repro.mem.fault import FaultPipeline
from repro.mem.tlb import TlbArray
from repro.obs.events import MappingDecision, SpcdEvaluation
from repro.obs.recorder import TraceRecorder
from repro.placement.policy import PlacementPolicy, resolve_policy
from repro.units import MSEC, PAGE_SIZE


def matrix_digest(matrix) -> str:
    """Short content digest of a communication matrix (trace audit anchor).

    BLAKE2b over the raw float64 payload, 8-byte digest — the format every
    trace event (:class:`~repro.obs.events.SpcdEvaluation`, the serve
    layer's evaluation events) uses, so digests from any pipeline that
    detected the same matrix compare equal byte for byte.
    """
    return hashlib.blake2b(
        np.ascontiguousarray(matrix.matrix).tobytes(), digest_size=8
    ).hexdigest()


@dataclass
class SpcdConfig:
    """Tunables of the full SPCD mechanism (defaults follow Table I)."""

    granularity: int = PAGE_SIZE
    window_ns: int = 250 * MSEC
    table_size: int = 256_000
    injector_period_ns: int = 10 * MSEC
    injector_ratio: float = 0.10
    injector_mode: InjectorMode = InjectorMode.STEADY
    #: pages cleared per wake at minimum.  The paper keeps injected faults at
    #: ~10 % of total faults on a machine taking millions of faults; a
    #: sampled simulation has ~10^3x fewer natural faults per unit of virtual
    #: time, so STEADY mode keeps a fixed trickle instead to reach the same
    #: effective detection density (CUMULATIVE mode is the paper-literal
    #: controller, used by the rate ablation).
    injector_floor: int = 256
    injector_max_per_wake: int = 4096
    #: "accessed" (default) or "uniform" — see FaultInjector.sampling
    injector_sampling: str = "accessed"
    eval_period_ns: int = 50 * MSEC
    #: minimum time between two migration events.  Thread migration costs a
    #: working-set refill; production schedulers rate-limit migrations for
    #: exactly this reason, and the paper's low migration counts (Table II:
    #: at most 6) show SPCD remaps sparingly.
    remap_cooldown_ns: int = 250 * MSEC
    #: migrate only when the proposed mapping's communication cost (under
    #: the detected matrix) is below this fraction of the current
    #: placement's cost.  Homogeneous patterns, where every placement is
    #: equivalent, therefore migrate at most once — matching the paper's
    #: Table II (FT/IS/EP: 0-1 migrations) — while a genuine pattern change
    #: clears the bar easily.
    min_improvement: float = 0.85
    filter_threshold: int = 2
    filter_enabled: bool = True
    filter_hysteresis: float = 1.25
    filter_margin: float = 0.5
    #: do not trigger the first mapping before this many communication
    #: events were observed (guards against mapping pure noise right after
    #: start-up, when the matrix holds a handful of samples)
    filter_min_events: float = 128.0
    #: matrix aging factor applied after every evaluation; makes the
    #: partner/pattern view an exponential moving average so the mechanism
    #: can follow dynamic phase changes (Sec. V-B) instead of being
    #: dominated by stale history.  1.0 disables aging.
    matrix_decay: float = 0.92
    #: mapper tie-breaking bonus toward the current placement (see
    #: HierarchicalMapper.stickiness)
    mapper_stickiness: float = 0.75
    #: virtual cost of one mapper call, per thread^3 (blossom is O(N^3))
    mapping_cost_ns_per_n3: float = 30.0
    detect_cost_ns: float = 250.0
    clear_cost_ns: float = 150.0

    def __post_init__(self) -> None:
        # the range SessionConfig enforces; evaluate() only ages below 1.0,
        # so an out-of-range factor would otherwise run silently unaged
        if not 0.0 < self.matrix_decay <= 1.0:
            raise ConfigurationError("matrix_decay must be in (0, 1]")
        # SessionConfig refuses these too: a NaN compares false, so a NaN
        # evidence quota, say, never blocks a remap
        for name in (
            "filter_hysteresis",
            "filter_margin",
            "filter_min_events",
            "min_improvement",
            "mapper_stickiness",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be a finite number, not {value!r}")
        if self.remap_cooldown_ns < 0:
            raise ConfigurationError("remap_cooldown_ns must be non-negative")
        # the detector and the injector check their own costs; this one
        # feeds only the manager's mapping-overhead accounting
        cost = self.mapping_cost_ns_per_n3
        if not (math.isfinite(cost) and cost >= 0):
            raise ConfigurationError("mapping_cost_ns_per_n3 must be finite and non-negative")


@dataclass
class SpcdOverheads:
    """Virtual-time overhead split, as in the paper's Fig. 16 / Table II."""

    detection_ns: float = 0.0
    mapping_ns: float = 0.0
    migrations: int = 0
    mapper_calls: int = 0
    filter_evaluations: int = 0

    def detection_pct(self, total_ns: float) -> float:
        """Detection overhead as % of total execution time."""
        return 100.0 * self.detection_ns / total_ns if total_ns else 0.0

    def mapping_pct(self, total_ns: float) -> float:
        """Mapping overhead as % of total execution time."""
        return 100.0 * self.mapping_ns / total_ns if total_ns else 0.0


class SpcdManager:
    """The complete SPCD mechanism bound to one running application."""

    def __init__(
        self,
        machine: Machine,
        n_threads: int,
        pipeline: FaultPipeline,
        scheduler: PinnedScheduler,
        rng: np.random.Generator,
        *,
        tlbs: TlbArray | None = None,
        timer_wheel: TimerWheel | None = None,
        config: SpcdConfig | None = None,
        recorder: TraceRecorder | None = None,
        placement: PlacementPolicy | str | None = None,
    ) -> None:
        self.machine = machine
        self.n_threads = n_threads
        self.config = config or SpcdConfig()
        cfg = self.config
        #: the policy whose mapper the evaluations use; the default is the
        #: paper's ``spcd``
        self.placement = resolve_policy("spcd" if placement is None else placement)
        if not self.placement.maps_threads:
            raise ConfigurationError(
                f"policy {self.placement.name!r} does not map threads"
            )
        self.pipeline = pipeline
        self.recorder = recorder
        self.detector = SpcdDetector(
            n_threads,
            granularity=cfg.granularity,
            window_ns=cfg.window_ns,
            table_size=cfg.table_size,
            detect_cost_ns=cfg.detect_cost_ns,
            pipeline=pipeline,
        )
        self.injector = FaultInjector(
            pipeline,
            rng,
            tlbs=tlbs,
            target_ratio=cfg.injector_ratio,
            mode=cfg.injector_mode,
            floor_per_wake=cfg.injector_floor,
            max_per_wake=cfg.injector_max_per_wake,
            clear_cost_ns=cfg.clear_cost_ns,
            sampling=cfg.injector_sampling,
            recorder=recorder,
        )
        self.filter = CommunicationFilter(
            n_threads,
            cfg.filter_threshold,
            hysteresis=cfg.filter_hysteresis,
            margin=cfg.filter_margin,
        )
        self.mapper_algorithm = select_mapper_algorithm(machine, self.placement)
        self.mapper = make_mapper(
            self.mapper_algorithm, machine, stickiness=cfg.mapper_stickiness
        )
        self.gate = RemapGate(machine, self.mapper, self.filter, cfg)
        self.migrator = MigrationEngine(scheduler, tlbs, recorder=recorder)
        self.overheads = SpcdOverheads()
        #: host wall-clock spent in the mapping kernels (grouping + matching
        #: + layout); harvested into ``PerfCounters.match_s`` at run end
        self.map_wall_s = 0.0
        self._mapping_history: list[tuple[int, np.ndarray]] = []
        if timer_wheel is not None:
            timer_wheel.register("spcd-injector", cfg.injector_period_ns, self.injector.wake)
            timer_wheel.register("spcd-evaluate", cfg.eval_period_ns, self.evaluate)

    # -- periodic evaluation ---------------------------------------------------
    def evaluate(self, now_ns: int) -> bool:
        """One SPCD evaluation: the paper's thread remap.

        The remap gate (:class:`~repro.core.decide.RemapGate`) proposes a
        mapping, an accepted one migrates the threads, and the matrix is
        aged afterwards.

        Returns True if a thread migration was performed.
        """
        self.overheads.filter_evaluations += 1
        matrix = self.detector.matrix
        verdict = "insufficient-evidence"
        # Each mapping decision requires a quota of *fresh* communication
        # evidence since the previous one; barely-communicating
        # applications (EP) accumulate events so slowly that they remap
        # at most once, as in the paper's Table II.
        fresh = self.gate.fresh_events(self.detector.stats.comm_events)
        try:
            mapping, verdict = self._propose_thread_mapping(now_ns, matrix)
            if mapping is None:
                return False
            moved = self.migrator.apply_mapping(mapping, now_ns)
            if moved:
                self.gate.record_remap(now_ns)
                self._mapping_history.append((now_ns, mapping.copy()))
            verdict = "migrated" if moved else "no-move"
            return moved > 0
        finally:
            if self.recorder is not None:
                self.recorder.emit(
                    SpcdEvaluation(
                        now_ns=int(now_ns),
                        evaluation=self.overheads.filter_evaluations,
                        verdict=verdict,
                        fresh_events=float(fresh),
                        partners=[int(p) for p in matrix.partners()],
                        matrix_digest=matrix_digest(matrix),
                        mapping_ns=self.overheads.mapping_ns,
                    )
                )
            if self.config.matrix_decay < 1.0:
                matrix.decay(self.config.matrix_decay)

    def _propose_thread_mapping(
        self, now_ns: int, matrix
    ) -> "tuple[np.ndarray | None, str]":
        """The remap gate plus the simulator's bookkeeping.

        Returns ``(mapping|None, verdict)``; the mapping is ``None``
        unless every gate, the improvement veto included, accepted it.
        The gate (:class:`~repro.core.decide.RemapGate`) decides;
        whenever the mapper ran, the manager charges its virtual cost,
        adds its host time to :attr:`map_wall_s` and traces a
        :class:`MappingDecision`.
        """
        current = self.migrator.scheduler.placement()
        proposal = self.gate.decide(
            matrix,
            current,
            comm_events=self.detector.stats.comm_events,
            now_ns=now_ns,
        )
        if proposal.mapping is None:
            return None, proposal.verdict
        self.map_wall_s += proposal.map_wall_s
        self.overheads.mapper_calls += 1
        n = self.n_threads
        if self.mapper_algorithm == "hierarchical":
            # Recursive bisection + bounded refinement: ~n^2 log n work, so
            # its virtual cost scales the same way (same per-unit constant).
            self.overheads.mapping_ns += (
                self.config.mapping_cost_ns_per_n3 * n * n * max(1.0, math.log2(n))
            )
        else:
            self.overheads.mapping_ns += self.config.mapping_cost_ns_per_n3 * n**3
        if self.recorder is not None:
            self.recorder.emit(
                MappingDecision(
                    now_ns=int(now_ns),
                    current=[int(p) for p in current],
                    proposed=[int(p) for p in proposal.mapping],
                    cost_now=proposal.cost_now,
                    cost_new=proposal.cost_new,
                    accepted=proposal.accepted,
                    algorithm=self.mapper_algorithm,
                    matrix_density=float(matrix.density()),
                    decide_wall_s=float(proposal.map_wall_s),
                )
            )
        if not proposal.accepted:
            return None, proposal.verdict
        return np.array(proposal.mapping, dtype=np.int64), proposal.verdict

    # -- reporting ---------------------------------------------------------------
    @property
    def migration_count(self) -> int:
        """Full-mapping migration events performed (Table II row)."""
        return self.migrator.migration_events

    def detection_time_ns(self) -> float:
        """Virtual time spent detecting (hook work + injection walks)."""
        return self.pipeline.hook_time_ns + self.injector.inject_time_ns

    def mapping_time_ns(self) -> float:
        """Virtual time spent mapping and migrating."""
        return self.overheads.mapping_ns + self.migrator.cost_ns

    def overhead_summary(self, total_ns: float) -> dict[str, float]:
        """Percentages for the Fig. 16 reproduction."""
        return {
            "detection_pct": 100.0 * self.detection_time_ns() / total_ns if total_ns else 0.0,
            "mapping_pct": 100.0 * self.mapping_time_ns() / total_ns if total_ns else 0.0,
            "migrations": float(self.migration_count),
        }

    @property
    def mapping_history(self) -> list[tuple[int, np.ndarray]]:
        """(time, mapping) for every applied migration."""
        return list(self._mapping_history)
