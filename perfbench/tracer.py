"""In-memory span tracer that wraps public functions from the outside.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces a function attribute (a method on a class, or a function on a
module) with a wrapper that records one span per call: name, start, end
and the index of the enclosing span.  :meth:`Tracer.uninstall` puts every
original object back, so the program is unchanged after a traced run.

Spans stay in plain lists while the run lasts and are written out once,
as an ``.npz`` file, when the benchmark ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import numpy as np

def peak_rss_mb() -> float:
    """Peak resident set of this process since it was exec'd, MiB.

    ``VmHWM`` belongs to the process image; ``ru_maxrss`` would carry over
    the peak of the parent a child was forked from.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` holds *attr*."""
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, key: str, n: int) -> None:
        """Add *n* to the counter *key*."""
        self.counts[key] = self.counts.get(key, 0) + int(n)

    # -- wrappers -----------------------------------------------------------
    def install(self, targets: "list[tuple[Any, str, str, Any]]") -> None:
        """Wrap every ``(owner, attribute, span name, counter)`` target.

        *owner* is a class or a module; *counter*, when not ``None``, maps
        the call's arguments to ``{counter name: increment}``.
        """
        for owner, attr, name, counter in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrapper(original, name, counter))
            self._patches.append((owner, attr, original))

    def _wrapper(self, original, name: str, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, n in counter(*args, **kwargs).items():
                    tracer.count(key, n)
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- analysis -----------------------------------------------------------
    def arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """``(name_of, starts, ends, parents)`` as numpy arrays."""
        return (
            np.asarray(self.name_of, dtype=np.int32),
            np.asarray(self.starts, dtype=np.float64),
            np.asarray(self.ends, dtype=np.float64),
            np.asarray(self.parents, dtype=np.int64),
        )

    def layer_table(self) -> "dict[str, dict[str, Any]]":
        """Per span name: calls, busy (self) seconds, inclusive seconds, both
        split by the caller's span name, and the inclusive duration of every
        call (for percentiles)."""
        name_of, starts, ends, parents = self.arrays()
        durations = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=durations.size
        )
        self_s = durations - covered
        parent_name = np.where(has_parent, name_of[np.maximum(parents, 0)], -1)
        table: dict[str, dict[str, Any]] = {}
        for name_id, name in enumerate(self.names):
            mask = name_of == name_id
            table[name] = {
                "calls": int(mask.sum()),
                "busy_s": float(self_s[mask].sum()),
                "inclusive_s": float(durations[mask].sum()),
                "busy_by_caller": _by_caller(self.names, parent_name, mask, self_s),
                "inclusive_by_caller": _by_caller(self.names, parent_name, mask, durations),
                "durations": durations[mask],
            }
        return table

    def write(self, path: Path) -> None:
        """Write every span to *path* (``.npz``)."""
        name_of, starts, ends, parents = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_of=name_of,
            starts=starts,
            ends=ends,
            parents=parents,
        )


def _by_caller(names, parent_name, mask, seconds) -> "dict[str, float]":
    """Sum *seconds* over the masked spans, keyed by their caller's name."""
    return {
        (names[p] if p >= 0 else "-"): float(seconds[mask & (parent_name == p)].sum())
        for p in np.unique(parent_name[mask]).tolist()
    }


def summarize(table: "dict[str, dict[str, Any]]") -> "dict[str, dict[str, float]]":
    """JSON-ready layer rows: the per-call durations become percentiles."""
    out = {}
    for name, row in table.items():
        durations = row["durations"]
        out[name] = {
            "calls": row["calls"],
            "busy_s": row["busy_s"],
            "inclusive_s": row["inclusive_s"],
            "busy_by_caller": row["busy_by_caller"],
            "p50_ms": float(np.percentile(durations, 50)) * 1e3,
            "p99_ms": float(np.percentile(durations, 99)) * 1e3,
            "max_ms": float(durations.max()) * 1e3,
        }
    return out
