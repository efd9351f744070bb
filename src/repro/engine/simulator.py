"""The execution-driven simulator.

One :class:`Simulator` instance runs one workload under one mapping policy.
Per simulation step it lets every thread issue a batch of memory accesses
(generated for all threads in one call; threads run concurrently, so the
step's duration is the slowest batch),
resolves page faults through the fault pipeline (where SPCD's detector is
hooked), feeds every access to the MESI hierarchy, advances the virtual
clock, and fires due kernel threads (SPCD's injector and evaluator, the
baseline scheduler's balancer).

Sampling semantics: simulating every access of an NPB run is infeasible, so
the access stream is a sample — each simulated access stands for
``time_scale`` real ones.  The clock advances by scaled batch time, so the
10 ms injector period, the temporal window and phase periods are meaningful;
event *counts* (faults, misses) stay raw and are scaled only where physical
units require it (energy).  Ratios such as MPKI are scale-free.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.cachesim.stats import CacheStats
from repro.core.commmatrix import CommunicationMatrix
from repro.core.manager import SpcdConfig, SpcdManager
from repro.engine.energy import EnergyBreakdown, EnergyModel, EnergyParams
from repro.engine.metrics import TimeModel, TimeParams
from repro.engine.perf import PerfCounters
from repro.engine.settings import trace_from_env
from repro.errors import ConfigurationError, SimulationError
from repro.kernelsim.clock import VirtualClock
from repro.kernelsim.kthread import TimerWheel
from repro.kernelsim.scheduler import PinnedScheduler
from repro.machine.topology import Machine, dual_xeon_e5_2650
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import TlbArray
from repro.obs.events import CacheEpoch, FaultBatchSummary, RunEnd, RunStart
from repro.obs.recorder import JsonlRecorder, TraceRecorder, run_trace_path
from repro.placement import PlacementPolicy, resolve_policy
from repro.rng import RngFactory
from repro.units import CACHE_LINE_SHIFT, PAGE_SHIFT
from repro.workloads.base import Workload
from repro.workloads.trace import TraceCollector

StepCallback = Callable[["Simulator", int, int], None]


@dataclass
class EngineConfig:
    """Simulation parameters."""

    batch_size: int = 256
    steps: int = 400
    #: sampling factor: each simulated access represents this many real ones
    time_scale: float = 1500.0
    time_params: TimeParams = field(default_factory=TimeParams)
    energy_params: EnergyParams = field(default_factory=EnergyParams)
    #: capacity of the flat page table (pages)
    capacity_pages: int = 1 << 17
    collect_trace: bool = False
    #: how the workload's memory is first touched: "serial" pre-faults every
    #: region page from thread 0 before the parallel phase (NPB-OMP
    #: initialises its arrays in the serial master region, so all data lands
    #: on the master's NUMA node); "parallel" leaves demand first-touch to
    #: whichever thread reaches a page first.
    pretouch: str = "serial"

    def __post_init__(self) -> None:
        # refused here, since a float count fails only mid-run, True runs
        # one step, and a NaN or infinite scale breaks the clock
        for name in ("batch_size", "steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
                raise ConfigurationError(f"{name} must be a positive integer, not {value!r}")
        scale = self.time_scale
        if (
            isinstance(scale, bool)
            or not isinstance(scale, numbers.Real)
            or not (math.isfinite(scale) and scale > 0)
        ):
            raise ConfigurationError(
                f"time_scale must be a finite positive number, not {scale!r}"
            )
        if self.pretouch not in ("serial", "parallel"):
            raise ConfigurationError("pretouch must be 'serial' or 'parallel'")


@dataclass
class SimulationResult:
    """Everything one run produces (the paper's Table II row, per policy)."""

    workload: str
    policy: str
    exec_time_s: float
    instructions: float
    l2_mpki: float
    l3_mpki: float
    c2c_transactions: int
    c2c_inter: int
    invalidations: int
    proc_energy_j: float
    dram_energy_j: float
    proc_epi_nj: float
    dram_epi_nj: float
    migrations: int
    os_migrations: int
    detection_pct: float
    mapping_pct: float
    first_touch_faults: int
    injected_faults: int
    injected_ratio: float
    stats: CacheStats
    energy: EnergyBreakdown
    detected_matrix: CommunicationMatrix | None = None
    #: host-side wall-clock breakdown of the run (not simulated time)
    perf: PerfCounters | None = None

    def metric(self, name: str) -> float:
        """Uniform numeric access for the analysis layer."""
        return float(getattr(self, name))


class Simulator:
    """Runs one workload under one policy on one machine."""

    def __init__(
        self,
        workload: Workload,
        policy: "PlacementPolicy | str",
        *,
        machine: Machine | None = None,
        seed: int = 0,
        config: EngineConfig | None = None,
        spcd_config: SpcdConfig | None = None,
        recorder: TraceRecorder | None = None,
    ) -> None:
        self.workload = workload
        #: the placement policy record; ``policy`` accepts a record or a
        #: name string
        self.placement: PlacementPolicy = resolve_policy(policy)
        #: the policy's stable name (seed derivation, result rows, traces)
        self.policy: str = self.placement.name
        self.machine = machine or dual_xeon_e5_2650()
        self.config = config or EngineConfig()
        self.seed = seed
        self.rngs = RngFactory(seed)
        # Tracing: an explicit recorder wins; otherwise REPRO_TRACE enables
        # a JSONL recorder (a NullRecorder or an unset REPRO_TRACE leaves
        # tracing off, and the hot paths then pay a single None test per
        # fault batch).
        if recorder is None:
            trace = trace_from_env()
            if trace:
                recorder = JsonlRecorder(
                    run_trace_path(Path(trace), workload.name, self.policy, seed)
                )
        self.recorder: TraceRecorder | None = recorder if recorder else None

        n = workload.n_threads
        self.clock = VirtualClock()
        self.address_space = AddressSpace(self.config.capacity_pages)
        workload.setup(self.address_space)
        self.tlbs = TlbArray(self.machine.n_pus)
        frames = FrameAllocator.for_memory(
            self.machine.n_numa_nodes, self.machine.memory_per_node
        )
        self.pipeline = FaultPipeline(
            self.address_space,
            frames,
            self.tlbs,
            node_of_pu=self.machine.numa_node_of,
        )
        self.hierarchy = CoherentHierarchy(self.machine)
        self.time_model = TimeModel(self.machine, params=self.config.time_params)
        self.energy_model = EnergyModel(self.machine, params=self.config.energy_params)
        self.wheel = TimerWheel()
        self.scheduler = self.placement.make_scheduler(
            self.machine, workload, self.rngs.rng("policy")
        )
        # Serial pretouch runs before SPCD hooks the fault pipeline, exactly
        # as an application's init phase precedes the detector's attachment.
        if self.config.pretouch == "serial":
            self._pretouch_serial()
        self.manager: SpcdManager | None = None
        if self.placement.maps_threads:
            if not isinstance(self.scheduler, PinnedScheduler):
                raise SimulationError("SPCD requires a pinnable scheduler")
            self.manager = SpcdManager(
                self.machine,
                n,
                self.pipeline,
                self.scheduler,
                self.rngs.rng("injector"),
                tlbs=self.tlbs,
                timer_wheel=self.wheel,
                config=spcd_config or SpcdConfig(),
                recorder=self.recorder,
                placement=self.placement,
            )
        self.trace = TraceCollector() if self.config.collect_trace else None
        self._tids = np.arange(n)
        self._thread_rngs = [self.rngs.rng("workload", t) for t in range(n)]
        self._sched_rng = self.rngs.rng("scheduler")
        self._order_rng = self.rngs.rng("step-order")
        self.instructions = 0.0
        self._accounted_overhead_ns = 0.0
        self.steps_run = 0
        self.perf = PerfCounters()

    def _pretouch_serial(self) -> None:
        """Fault in every region page from thread 0 (serial init phase)."""
        pu0 = int(self.scheduler.pu_of(0))
        for region in self.address_space.regions():
            vpns = region.vpns()
            if vpns.size == 0:
                continue
            self.pipeline.handle_fault_batch(
                0,
                pu0,
                vpns << PAGE_SHIFT,
                np.ones(vpns.size, dtype=bool),
                now_ns=self.clock.now_ns,
            )

    # ------------------------------------------------------------------
    def run(self, step_callback: StepCallback | None = None) -> SimulationResult:
        """Execute the configured number of steps and return the metrics."""
        cfg = self.config
        rec = self.recorder
        if rec is not None:
            rec.emit(
                RunStart(
                    workload=self.workload.name,
                    policy=self.policy,
                    seed=self.seed,
                    n_threads=self.workload.n_threads,
                    steps=cfg.steps,
                    batch_size=cfg.batch_size,
                )
            )
            # The serial pretouch phase faulted before run() — summarise it
            # as a step -1 batch so fault totals reconstruct from the trace.
            if self.pipeline.total_faults:
                rec.emit(
                    FaultBatchSummary(
                        step=-1,
                        now_ns=self.clock.now_ns,
                        thread_id=0,
                        pu_id=int(self.scheduler.pu_of(0)),
                        first_touch=self.pipeline.first_touch_faults,
                        injected=self.pipeline.injected_faults,
                        fault_time_ns=self.pipeline.fault_time_ns,
                        hook_time_ns=self.pipeline.hook_time_ns,
                    )
                )
        t0 = perf_counter()
        for step in range(cfg.steps):
            self._step()
            if step_callback is not None:
                step_callback(self, step, self.clock.now_ns)
        self.perf.wall_s += perf_counter() - t0
        if self.manager is not None:
            self.perf.match_s = self.manager.map_wall_s
        result = self._result()
        if rec is not None:
            self._emit_run_end(rec, result)
            rec.close()
        return result

    def _step(self) -> None:
        cfg = self.config
        workload = self.workload
        pipeline = self.pipeline
        hierarchy = self.hierarchy
        table = self.address_space.page_table
        now = self.clock.now_ns
        batch = cfg.batch_size
        scale = cfg.time_scale

        placement = self.scheduler.placement()
        perf = self.perf
        step_time_ns = 0.0
        # Every thread's batch for the step at once: each thread draws from
        # its own generator, so generating ahead of the fault and MESI
        # loop changes no address.
        t_gen = perf_counter()
        step_vaddrs, step_writes = workload.generate_step(
            self._tids, batch, now, self._thread_rngs
        )
        perf.workload_s += perf_counter() - t_gen
        step_vpns = step_vaddrs >> PAGE_SHIFT
        step_lines = step_vaddrs >> CACHE_LINE_SHIFT
        # Randomised thread order: with a fixed order the same thread would
        # always be first to re-fault on a cleared shared page, so its
        # partners would never be recorded in the sharing table.  Real
        # hardware interleaves threads arbitrarily.
        for tid in self._order_rng.permutation(workload.n_threads).tolist():
            pu = int(placement[tid])
            vaddrs = step_vaddrs[tid]
            writes = step_writes[tid]
            if self.trace is not None:
                self.trace.record(tid, now, vaddrs, writes)
            vpns = step_vpns[tid]

            t_fault = perf_counter()
            fault_ns_0 = pipeline.fault_time_ns + pipeline.hook_time_ns
            hook_wall_0 = pipeline.hook_wall_s
            fault_mask = pipeline.faulting_mask(vpns)
            had_faults = bool(fault_mask.any())
            ft_0 = pipeline.first_touch_faults
            inj_0 = pipeline.injected_faults
            if had_faults:
                fb = pipeline.handle_fault_batch(
                    tid,
                    pu,
                    vaddrs[fault_mask],
                    writes[fault_mask],
                    now_ns=now,
                )
                perf.faults += fb.n_faults
            fault_ns = (pipeline.fault_time_ns + pipeline.hook_time_ns) - fault_ns_0
            perf.detect_s += pipeline.hook_wall_s - hook_wall_0
            perf.fault_s += perf_counter() - t_fault
            if had_faults and self.recorder is not None:
                self.recorder.emit(
                    FaultBatchSummary(
                        step=self.steps_run,
                        now_ns=now,
                        thread_id=tid,
                        pu_id=pu,
                        first_touch=pipeline.first_touch_faults - ft_0,
                        injected=pipeline.injected_faults - inj_0,
                        fault_time_ns=pipeline.fault_time_ns,
                        hook_time_ns=pipeline.hook_time_ns,
                    )
                )

            homes = table.home_nodes(vpns)
            table.mark_accessed_batch(vpns)
            t_hier = perf_counter()
            counts = hierarchy.access_batch_pu(pu, step_lines[tid], writes, homes)
            perf.hierarchy_s += perf_counter() - t_hier
            perf.accesses += batch

            instructions = batch * workload.instructions_per_access
            self.instructions += instructions
            self.scheduler.tasks[tid].instructions += int(instructions)
            batch_ns = scale * self.time_model.batch_time_ns(instructions, counts)
            batch_ns += fault_ns
            step_time_ns = max(step_time_ns, batch_ns)

        self.clock.advance(step_time_ns)
        # Charge SPCD's asynchronous work (injection walks, mapping,
        # migrations) as it accrues.
        t_spcd = perf_counter()
        overhead_now = self._spcd_async_overhead_ns()
        self.wheel.tick(self.clock.now_ns)
        self.scheduler.on_quantum(self.clock.now_ns, self._sched_rng)
        overhead_delta = self._spcd_async_overhead_ns() - overhead_now
        if overhead_delta > 0:
            self.clock.advance(overhead_delta)
        perf.spcd_s += perf_counter() - t_spcd
        self.steps_run += 1

    def _emit_run_end(self, rec: TraceRecorder, result: SimulationResult) -> None:
        """Seal the trace: cache epoch snapshot + run summary (PerfCounters)."""
        rec.emit(
            CacheEpoch(
                step=self.steps_run,
                now_ns=self.clock.now_ns,
                stats=self.hierarchy.stats.as_dict(),
            )
        )
        detection_ns = mapping_ns = 0.0
        if self.manager is not None:
            detection_ns = self.manager.detection_time_ns()
            mapping_ns = self.manager.mapping_time_ns()
        rec.emit(
            RunEnd(
                total_ns=float(self.clock.now_ns),
                steps_run=self.steps_run,
                migrations=result.migrations,
                os_migrations=result.os_migrations,
                first_touch_faults=result.first_touch_faults,
                injected_faults=result.injected_faults,
                detection_ns=detection_ns,
                mapping_ns=mapping_ns,
                detection_pct=result.detection_pct,
                mapping_pct=result.mapping_pct,
                perf=self.perf.as_dict(),
                perf_other_s=self.perf.other_s,
            )
        )

    def _spcd_async_overhead_ns(self) -> float:
        if self.manager is None:
            return 0.0
        return self.manager.injector.inject_time_ns + self.manager.mapping_time_ns()

    # ------------------------------------------------------------------
    def _result(self) -> SimulationResult:
        cfg = self.config
        stats = self.hierarchy.stats
        total_ns = float(self.clock.now_ns)
        instructions = self.instructions
        energy = self.energy_model.compute(
            total_ns, instructions, stats, scale=cfg.time_scale
        )
        scaled_instr = instructions * cfg.time_scale
        detection_pct = mapping_pct = 0.0
        migrations = 0
        detected: CommunicationMatrix | None = None
        if self.manager is not None:
            detection_pct = 100.0 * self.manager.detection_time_ns() / total_ns
            mapping_pct = 100.0 * self.manager.mapping_time_ns() / total_ns
            migrations = self.manager.migration_count
            detected = self.manager.detector.snapshot_matrix()
        os_migrations = self.scheduler.total_migrations()
        return SimulationResult(
            workload=self.workload.name,
            policy=self.policy,
            exec_time_s=total_ns * 1e-9,
            instructions=instructions,
            l2_mpki=stats.mpki(2, int(instructions)),
            l3_mpki=stats.mpki(3, int(instructions)),
            c2c_transactions=stats.c2c_total,
            c2c_inter=stats.c2c_inter,
            invalidations=stats.invalidations,
            proc_energy_j=energy.processor_j,
            dram_energy_j=energy.dram_j,
            proc_epi_nj=energy.proc_epi_nj(scaled_instr),
            dram_epi_nj=energy.dram_epi_nj(scaled_instr),
            migrations=migrations,
            os_migrations=os_migrations,
            detection_pct=detection_pct,
            mapping_pct=mapping_pct,
            first_touch_faults=self.pipeline.first_touch_faults,
            injected_faults=self.pipeline.injected_faults,
            injected_ratio=self.pipeline.injected_fraction(),
            stats=stats,
            energy=energy,
            detected_matrix=detected,
            perf=self.perf,
        )
