"""Live metrics of the mapping service: counters, gauges, histograms.

A tiny dependency-free registry in the Prometheus exposition idiom: metric
*families* (name + help + kind) own one instrument per label set, and
:meth:`MetricsRegistry.render` emits the standard plaintext format
(``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples) that
the server's ``/metrics`` listener serves verbatim.  :meth:`snapshot`
returns the same data as a JSON-friendly dict — the shape the
:class:`~repro.obs.events.ServeEnd` trace event carries, which is how the
service's final metrics fold into ``python -m repro.obs.report``.

Rendering is deterministic: families sort by name, children by label
values, so two registries holding the same values render byte-identically.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Iterable

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: default latency buckets (seconds) — a 256-event batch ingests in about
#: 0.2 ms, evaluation stalls run to seconds
DEFAULT_BUCKETS = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """Value that can go up and down (queue depth, live sessions)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract *amount*."""
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest, NaN included.  ``observe`` finds a value's one bucket by
    bisection and bumps that bucket's own count; :attr:`counts` sums them
    into the cumulative counts that :meth:`quantile`, the exposition and
    the snapshot read.
    """

    __slots__ = ("buckets", "_hits", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ConfigurationError("histogram buckets must be strictly increasing")
        self.buckets = bounds
        #: observations in ``(bounds[i - 1], bounds[i]]``, per bound
        self._hits = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        if value <= self.buckets[-1]:  # False past the last bound and for NaN
            self._hits[bisect_left(self.buckets, value)] += 1

    @property
    def counts(self) -> "list[int]":
        """Cumulative count per bound: the observations ``<= bound``."""
        return list(accumulate(self._hits))

    def quantile(self, q: float) -> float:
        """Approximate quantile from the cumulative buckets (upper bound).

        Returns the smallest bucket bound covering fraction *q* of the
        observations, or the largest bound if *q* falls in the +Inf bucket
        — good enough for a load benchmark's p99 latency gate.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        for bound, cumulative in zip(self.buckets, self.counts):
            if cumulative >= target:
                return bound
        return self.buckets[-1]


@dataclass
class _Family:
    """One metric family: help text, kind, and per-label-set children."""

    name: str
    help: str
    kind: str  # "counter" | "gauge" | "histogram"
    buckets: "tuple[float, ...] | None" = None
    children: "dict[tuple[tuple[str, str], ...], Any]" = field(default_factory=dict)


def _label_key(labels: "dict[str, str]") -> "tuple[tuple[str, str], ...]":
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(key: "tuple[tuple[str, str], ...]") -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class MetricsRegistry:
    """Registry of metric families, rendered in Prometheus text format."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # -- instrument access -----------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter child of family *name* for *labels* (created lazily)."""
        return self._child(name, help, "counter", labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge child of family *name* for *labels* (created lazily)."""
        return self._child(name, help, "gauge", labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """The histogram child of family *name* for *labels* (created lazily)."""
        return self._child(name, help, "histogram", labels, buckets=tuple(buckets))

    def _child(
        self,
        name: str,
        help: str,
        kind: str,
        labels: "dict[str, str]",
        buckets: "tuple[float, ...] | None" = None,
    ) -> Any:
        family = self._families.get(name)
        if family is None:
            family = _Family(name=name, help=help, kind=kind, buckets=buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name} is a {family.kind}, not a {kind}"
            )
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            if kind == "counter":
                child = Counter()
            elif kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(family.buckets or DEFAULT_BUCKETS)
            family.children[key] = child
        return child

    # -- exposition ---------------------------------------------------------
    def render(self) -> str:
        """Prometheus-style plaintext exposition of every family."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                if family.kind == "histogram":
                    cumulative_labels = dict(key)
                    for bound, cum in zip(child.buckets, child.counts):
                        le = _label_text(_label_key({**cumulative_labels, "le": repr(bound)}))
                        lines.append(f"{name}_bucket{le} {cum}")
                    inf = _label_text(_label_key({**cumulative_labels, "le": "+Inf"}))
                    lines.append(f"{name}_bucket{inf} {child.count}")
                    lines.append(f"{name}_sum{_label_text(key)} {_num(child.sum)}")
                    lines.append(f"{name}_count{_label_text(key)} {child.count}")
                else:
                    lines.append(f"{name}{_label_text(key)} {_num(child.value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> "dict[str, Any]":
        """JSON-friendly dump: family -> list of {labels, value|histogram}.

        Histogram entries carry their cumulative per-bucket counts (bound
        -> count, ``+Inf`` last) alongside sum/count, so the exposition
        and the snapshot describe the same distribution — a snapshot
        folded into a trace loses no latency information.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            entries = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                    buckets = {
                        repr(bound): cum
                        for bound, cum in zip(child.buckets, child.counts)
                    }
                    buckets["+Inf"] = child.count
                    entry["buckets"] = buckets
                else:
                    entry["value"] = child.value
                entries.append(entry)
            out[name] = {"kind": family.kind, "values": entries}
        return out


def _num(value: float) -> str:
    """Render integers without a trailing .0 (stable, diff-friendly output)."""
    return str(int(value)) if float(value).is_integer() else repr(value)
