"""Replicated experiments with confidence intervals.

The paper runs each configuration 10 times and reports means with 95 %
confidence intervals from a Student's t-distribution (Sec. V-A).
:func:`repro.engine.gridrunner.run_grid` runs the repetitions; this module
summarises them into those statistics and normalises them against the OS
baseline for the figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.engine.simulator import SimulationResult
from repro.errors import ConfigurationError
from repro.workloads.base import Workload

from typing import Callable

WorkloadFactory = Callable[[], Workload]


@dataclass(frozen=True)
class MetricStats:
    """Mean and 95 % CI of one metric over repetitions."""

    mean: float
    ci95: float
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        """Number of repetitions."""
        return len(self.values)


def _t_central_mass(theta: float, df: int) -> float:
    """``P(|T| < sqrt(df) * tan(theta))`` for Student's t with integer *df*:
    Abramowitz & Stegun 26.7.3 (odd *df*) and 26.7.4 (even *df*)."""
    sin, cos2 = math.sin(theta), math.cos(theta) ** 2
    total = 0.0
    if df % 2 == 0:
        term = 1.0
        for k in range(1, df // 2 + 1):
            total += term
            term *= cos2 * (2 * k - 1) / (2 * k)
        return sin * total
    term = math.cos(theta)
    for k in range(1, (df + 1) // 2):
        total += term
        term *= cos2 * (2 * k) / (2 * k + 1)
    return 2.0 / math.pi * (theta + sin * total)


def _t_quantile(q: float, df: int) -> float:
    """Student-t quantile at *q* (``0.5 <= q < 1``) for integer *df*: the
    closed-form CDF inverted by bisection on ``theta = atan(t / sqrt(df))``
    down to adjacent floats (``tests/test_numpy_runtime.py`` holds it to a
    reference quantile)."""
    target = 2.0 * q - 1.0
    lo, hi = 0.0, math.pi / 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return math.sqrt(df) * math.tan(mid)
        if _t_central_mass(mid, df) < target:
            lo = mid
        else:
            hi = mid


def summarize(values: list[float] | np.ndarray, confidence: float = 0.95) -> MetricStats:
    """Mean + Student-t confidence half-width of *values*."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence!r}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("cannot summarise zero repetitions")
    mean = float(arr.mean())
    if arr.size == 1 or np.allclose(arr, mean):
        return MetricStats(mean=mean, ci95=0.0, values=tuple(arr))
    sem = arr.std(ddof=1) / np.sqrt(arr.size)
    half = float(sem * _t_quantile(0.5 + confidence / 2.0, arr.size - 1))
    return MetricStats(mean=mean, ci95=half, values=tuple(arr))


#: metrics extracted from each run for the replicated summaries
REPORT_METRICS = (
    "exec_time_s",
    "l2_mpki",
    "l3_mpki",
    "c2c_transactions",
    "proc_energy_j",
    "dram_energy_j",
    "proc_epi_nj",
    "dram_epi_nj",
    "migrations",
    "detection_pct",
    "mapping_pct",
)


@dataclass
class ReplicatedResult:
    """Per-metric statistics of one (workload, policy) cell."""

    workload: str
    policy: str
    metrics: dict[str, MetricStats]
    runs: list[SimulationResult] = field(default_factory=list)

    def mean(self, metric: str) -> float:
        """Mean of *metric*."""
        return self.metrics[metric].mean


def normalized_to(
    results: dict[str, ReplicatedResult], metric: str, baseline_policy: str = "os"
) -> dict[str, float]:
    """Each policy's mean *metric* divided by the baseline's (Fig. 8-15 style)."""
    if baseline_policy not in results:
        raise ConfigurationError(f"baseline policy {baseline_policy!r} missing")
    base = results[baseline_policy].mean(metric)
    if base == 0:
        return {p: (0.0 if r.mean(metric) == 0 else float("inf")) for p, r in results.items()}
    return {p: r.mean(metric) / base for p, r in results.items()}
