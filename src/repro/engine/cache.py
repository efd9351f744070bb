"""The content-addressed on-disk result cache (the grid's storage layer).

A :class:`ResultCache` memoizes each grid cell's
:class:`~repro.engine.simulator.SimulationResult` under a BLAKE2 key of
everything the result depends on, and :func:`code_version` contributes
the engine-source digest to that key so any engine change invalidates
cleanly.  :func:`repro.engine.gridrunner.run_grid` stores each result
the moment it lands, so the cache is also a sweep's resume point.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path

from repro.engine.simulator import SimulationResult

__all__ = ["ResultCache", "code_version"]

_CODE_VERSION: "str | None" = None


def code_version() -> str:
    """Digest of the ``src/repro`` python sources (cache-key component).

    Any change to the engine invalidates cached results; edits outside the
    package (tests, benchmarks, docs) do not.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        h = hashlib.blake2b(digest_size=16)
        root = Path(__file__).resolve().parents[1]
        for p in sorted(root.rglob("*.py")):
            h.update(str(p.relative_to(root)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
            h.update(b"\0")
        _CODE_VERSION = h.hexdigest()
    return _CODE_VERSION


class ResultCache:
    """Content-addressed pickle store for :class:`SimulationResult`.

    Layout: ``<root>/<key[:2]>/<key>.pkl``.  Writes go through a temp file
    in the target directory followed by :func:`os.replace`, so readers
    never observe partial files and concurrent writers are safe.

    A writer killed between ``mkstemp`` and the rename (SIGKILL, OOM, power
    loss — paths the in-process ``except`` cannot cover) leaves an orphaned
    ``*.tmp`` file behind; construction sweeps any such file older than
    *stale_tmp_age_s* (young ones may belong to a live concurrent writer).
    """

    def __init__(
        self, root: "str | os.PathLike", *, stale_tmp_age_s: float = 3600.0
    ) -> None:
        self.root = Path(root)
        #: orphaned temp files removed by the construction-time sweep
        self.swept_tmp_files = self._sweep_stale_tmp(stale_tmp_age_s)

    def _sweep_stale_tmp(self, max_age_s: float) -> int:
        """Delete orphaned ``*.tmp`` files older than *max_age_s* seconds."""
        if not self.root.is_dir():
            return 0
        cutoff = time.time() - max_age_s
        swept = 0
        for tmp in self.root.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    swept += 1
            except OSError:  # pragma: no cover - raced by a concurrent sweep
                continue
        return swept

    def path(self, key: str) -> Path:
        """On-disk location for *key*."""
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> "SimulationResult | None":
        """Cached result for *key*, or ``None`` (missing or unreadable)."""
        try:
            with open(self.path(key), "rb") as f:
                return pickle.load(f)
        except (OSError, EOFError, pickle.PickleError, AttributeError, ImportError):
            return None

    def store(self, key: str, result: SimulationResult) -> None:
        """Atomically persist *result* under *key*."""
        target = self.path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(result, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
