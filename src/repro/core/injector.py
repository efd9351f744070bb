"""Additional page-fault injection (paper Sec. III-B2).

A kernel thread wakes at a fixed 10 ms interval, walks the application's
page table, and clears the present bit of a random sample of pages (plus a
TLB shootdown), so that pages already mapped fault again and the detector
keeps seeing accesses.  The thread *dynamically adjusts* how many faults it
creates so extra faults track a chosen ratio of total faults.

Two controller interpretations are provided:

* ``CUMULATIVE`` — paper-literal: injected faults never exceed
  ``ratio/(1-ratio) * natural_faults`` cumulatively.  In a long steady-state
  run (no new first-touch faults) injection stops once the budget is spent.
* ``STEADY`` (default) — the cumulative budget plus a small per-wake floor,
  keeping detection alive in steady state.  This is what a practical
  deployment needs to track *dynamic* pattern changes (the paper's
  producer/consumer experiment demonstrates exactly that ability), and the
  floor is small enough to stay within the paper's <2 % overhead envelope.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.fault import FaultPipeline
from repro.mem.tlb import TlbArray
from repro.obs.events import InjectorWake, TlbShootdown
from repro.obs.recorder import TraceRecorder
from repro.units import MSEC


class InjectorMode(enum.Enum):
    """How the injection budget is computed (see module docstring)."""

    CUMULATIVE = "cumulative"
    STEADY = "steady"


class FaultInjector:
    """Clears present bits of random mapped pages on a periodic wakeup.

    Attributes:
        target_ratio: desired share of injected faults among all faults
            (paper: ~10 %, Table I).
        mode: budget controller interpretation.
        floor_per_wake: minimum pages cleared per wake in ``STEADY`` mode.
        max_per_wake: safety cap on pages cleared in one wake.
        clear_cost_ns: virtual cost per cleared page (one page-table walk
            plus TLB shootdown work) — feeds the overhead accounting.  Must
            be finite and non-negative.
    """

    #: wake interval from the paper (Sec. III-B2)
    DEFAULT_PERIOD_NS = 10 * MSEC

    def __init__(
        self,
        pipeline: FaultPipeline,
        rng: np.random.Generator,
        *,
        tlbs: TlbArray | None = None,
        target_ratio: float = 0.10,
        mode: InjectorMode = InjectorMode.STEADY,
        floor_per_wake: int = 32,
        max_per_wake: int = 4096,
        clear_cost_ns: float = 150.0,
        sampling: str = "accessed",
        recorder: TraceRecorder | None = None,
    ) -> None:
        if not 0.0 < target_ratio < 1.0:
            raise ConfigurationError("target ratio must be in (0, 1)")
        if floor_per_wake < 0 or max_per_wake <= 0:
            raise ConfigurationError("invalid per-wake bounds")
        if sampling not in ("accessed", "uniform"):
            raise ConfigurationError("sampling must be 'accessed' or 'uniform'")
        if not (math.isfinite(clear_cost_ns) and clear_cost_ns >= 0):
            raise ConfigurationError("clear_cost_ns must be finite and non-negative")
        self.pipeline = pipeline
        self.rng = rng
        self.tlbs = tlbs
        self.target_ratio = target_ratio
        self.mode = mode
        self.floor_per_wake = floor_per_wake
        self.max_per_wake = max_per_wake
        self.clear_cost_ns = clear_cost_ns
        #: "accessed" restricts the random sample to pages whose accessed
        #: bit was set since the previous wake (the page-table walk already
        #: reads the PTEs, so filtering on the A bit is free) — injected
        #: faults then land on the application's *live* working set instead
        #: of cold streaming pages.  "uniform" is the paper-literal random
        #: sample over all present pages (kept for the ablation).
        self.sampling = sampling
        self.recorder = recorder
        self.cleared_total = 0
        self.wakes = 0
        self.inject_time_ns = 0.0

    # -- budget -------------------------------------------------------------
    def _budget(self) -> int:
        """Pages to clear on this wake, per the configured controller."""
        natural = self.pipeline.first_touch_faults
        injected = self.pipeline.injected_faults
        ratio = self.target_ratio
        # Injected / (natural + injected) == ratio  =>  allowed below:
        allowed = ratio / (1.0 - ratio) * natural
        deficit = int(allowed) - injected
        # Clearing a present bit only *eventually* produces a fault; pages
        # cleared but not yet re-touched are in flight.  Subtract them so
        # the cumulative controller does not overshoot.  The STEADY floor is
        # intentionally exempt: rarely-touched pages stay in flight forever
        # and would otherwise strangle the trickle that keeps detection
        # alive.
        in_flight = max(0, self.cleared_total - injected)
        deficit -= in_flight
        if self.mode is InjectorMode.STEADY:
            deficit = max(deficit, self.floor_per_wake)
        return int(np.clip(deficit, 0, self.max_per_wake))

    # -- wakeup -------------------------------------------------------------
    def wake(self, now_ns: int) -> int:
        """One injector wakeup: sample pages, clear bits, shoot down TLBs.

        Returns the number of present bits cleared.
        """
        self.wakes += 1
        want = self._budget()
        table = self.pipeline.address_space.page_table
        if want <= 0:
            if self.sampling == "accessed":
                table.age_accessed()
            return self._record_wake(now_ns, want, 0, 0)
        if self.sampling == "accessed":
            candidates = table.accessed_present_vpns()
            table.age_accessed()
            if candidates.size < want:
                candidates = table.present_vpns()
        else:
            candidates = table.present_vpns()
        if candidates.size == 0:
            return self._record_wake(now_ns, want, 0, 0)
        count = min(want, candidates.size)
        chosen = self.rng.choice(candidates, size=count, replace=False)
        cleared = table.clear_present(chosen)
        if self.tlbs is not None:
            removed = self.tlbs.shootdown(chosen)  # bulk ndarray path
            if self.recorder is not None:
                self.recorder.emit(
                    TlbShootdown(
                        now_ns=int(now_ns),
                        n_vpns=int(chosen.size),
                        entries_removed=int(removed),
                        shootdowns=self.tlbs.shootdowns,
                    )
                )
        self.cleared_total += cleared
        self.inject_time_ns += cleared * self.clear_cost_ns
        return self._record_wake(now_ns, want, int(candidates.size), cleared)

    def _record_wake(self, now_ns: int, budget: int, candidates: int, cleared: int) -> int:
        """Emit this wake's adaptivity record; returns *cleared* (pass-through)."""
        if self.recorder is not None:
            self.recorder.emit(
                InjectorWake(
                    now_ns=int(now_ns),
                    wake=self.wakes,
                    budget=int(budget),
                    candidates=candidates,
                    cleared=cleared,
                    cleared_total=self.cleared_total,
                    inject_time_ns=self.inject_time_ns,
                )
            )
        return cleared

    def achieved_ratio(self) -> float:
        """Observed injected-fault share (should approach ``target_ratio``)."""
        return self.pipeline.injected_fraction()
