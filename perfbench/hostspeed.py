"""Host-speed reference: a fixed kernel timed between units of measured work.

On a shared host the same code runs at different speeds from minute to
minute (neighbours contend for the physical cores and caches), so a raw
host-time throughput moves by tens of percent between runs of the same
code.  The benchmark therefore times :func:`probe` — a fixed mix of
interpreter work and small numpy kernels, owned by the benchmark and never
by the program — right next to each unit of measured work, and expresses
host time in *reference seconds*: ``seconds * (REF_NOMINAL_S / local
probe time) ** ELASTICITY``, where the local probe time is the rolling median
of the probes around that unit.  A throughput over reference seconds is
the throughput the host would give when the probe takes ``REF_NOMINAL_S``;
it moves with the program's own cost, not with the host's speed of the
moment.

The probe is not slowed quite as much as the simulator by the same
contention: on two records of 28 and 32 ``fig8-sp`` pairs (2-vCPU x86_64
guest, raw pair times 7.0-15.1 s), the log of a step's slowdown grew 1.14
times as fast as the log of the probe's.  :data:`ELASTICITY` applies that
factor; it cut the spread (IQR/median) of single-pair costs from
0.054/0.066 to 0.042/0.043 on the two records.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: the probe time that defines a reference second (a probe takes about
#: 0.64 ms in the fast spells and 1.05 ms in the slow ones of a shared
#: 2-vCPU x86_64 guest)
REF_NOMINAL_S = 1.0e-3
#: probes in the rolling median that gives the local host speed
WINDOW = 21
#: how much faster host contention slows the measured work than the probe
#: (in log terms); fitted on the records described above
ELASTICITY = 1.15

_KEYS = np.random.default_rng(20130520).integers(0, 1 << 16, 4096)
_TABLE = {i: i for i in range(512)}


def probe() -> float:
    """Run the reference kernel once; returns its host time in seconds."""
    t0 = perf_counter()
    total = 0
    for i in range(1500):
        total += _TABLE[i & 511]
    np.add.at(np.zeros(1 << 16), _KEYS, 1.0)
    np.unique(_KEYS)
    return perf_counter() - t0


def rolling_median(values, window: int = WINDOW) -> np.ndarray:
    """Median of each value and its neighbours, *window* wide (clipped at
    the ends)."""
    x = np.asarray(values, dtype=float)
    half = window // 2
    return np.array([np.median(x[max(0, i - half) : i + half + 1]) for i in range(len(x))])


def ref_seconds(durations, probes) -> float:
    """Total of *durations* in reference seconds; ``probes[i]`` was timed
    right next to ``durations[i]``."""
    local = rolling_median(probes)
    return float(np.sum(np.asarray(durations, dtype=float) * _scale(local)))


def ref_seconds_between(start: float, end: float, stamps, probes) -> float:
    """Reference seconds of the host-time interval ``[start, end]``, given
    probes timed at ``stamps`` (sorted, on the same clock) throughout it.

    Each piece of the interval between two stamps is scaled by the local
    probe time at the stamp that ends it (the last piece by the first probe
    after *end*, if there is one).  Probes outside the interval only count
    in the rolling medians.
    """
    t = np.asarray(stamps, dtype=float)
    local = rolling_median(probes)
    inside = np.flatnonzero((t > start) & (t < end))
    after = np.flatnonzero(t >= end)[:1]
    if inside.size == 0 and after.size == 0:
        raise ValueError("no probe was timed during or after the interval")
    scale = local[np.concatenate((inside, after if after.size else inside[-1:]))]
    pieces = np.diff(np.concatenate(([start], t[inside], [end])))
    return float(np.sum(pieces * _scale(scale)))


def probes(n: int = 3) -> "list[float]":
    """*n* probe times in a row (taken before and after a one-off interval
    such as a set-up)."""
    return [probe() for _ in range(n)]


def to_ref(seconds: float, around) -> float:
    """*seconds* of one interval in reference seconds, given the probe
    times taken *around* it."""
    return seconds * float(_scale(np.median(around)))


def _scale(local):
    """Host seconds -> reference seconds at local probe time(s) *local*."""
    return (REF_NOMINAL_S / np.asarray(local, dtype=float)) ** ELASTICITY
