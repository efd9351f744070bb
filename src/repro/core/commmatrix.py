"""The communication matrix (paper Sec. II-B).

Cell ``(i, j)`` holds the amount of communication detected between threads
*i* and *j*.  The matrix is symmetric with an all-zero diagonal; complexity
of everything here is at most Theta(N^2) as the paper requires.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["CommunicationMatrix"]


class CommunicationMatrix:
    """Symmetric, zero-diagonal communication counts between thread pairs."""

    def __init__(self, n_threads: int, data: np.ndarray | None = None) -> None:
        if n_threads <= 0:
            raise ConfigurationError("need at least one thread")
        self.n = n_threads
        if data is None:
            self._m = np.zeros((n_threads, n_threads), dtype=np.float64)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (n_threads, n_threads):
                raise ConfigurationError(f"matrix shape {data.shape} != ({n_threads},)*2")
            if not np.isfinite(data).all():
                raise ConfigurationError("communication matrix must be finite")
            if not np.allclose(data, data.T):
                raise ConfigurationError("communication matrix must be symmetric")
            self._m = data.copy()
            np.fill_diagonal(self._m, 0.0)

    # -- mutation -----------------------------------------------------------
    def add(self, i: int, j: int, amount: float = 1.0) -> None:
        """Record *amount* of communication between threads *i* and *j*."""
        if i == j:
            return  # a thread does not communicate with itself
        self._m[i, j] += amount
        self._m[j, i] += amount

    def add_events(self, i: int, partners: np.ndarray) -> None:
        """Record one unit event between *i* and every thread in *partners*.

        *partners* may repeat ids; each occurrence is one event.  Uses
        ``np.add.at``, which applies the additions one by one — bit-identical
        to the equivalent sequence of :meth:`add` calls even where repeated
        float rounding matters (e.g. after :meth:`decay` left fractions).
        Small event lists take a plain loop of the same additions instead
        (cheaper than two ``np.add.at`` dispatches).
        """
        if len(partners) <= 8:
            m = self._m
            for j in partners.tolist() if hasattr(partners, "tolist") else partners:
                if j != i:
                    m[i, j] += 1.0
                    m[j, i] += 1.0
            return
        partners = np.asarray(partners, dtype=np.int64)
        partners = partners[partners != i]
        if partners.size == 0:
            return
        np.add.at(self._m, (i, partners), 1.0)
        np.add.at(self._m, (partners, i), 1.0)

    def merge(self, other: "CommunicationMatrix", scale: float = 1.0) -> "CommunicationMatrix":
        """Accumulate *other* into this matrix in place; returns ``self``.

        ``self[i, j] += scale * other[i, j]`` for every cell.  For
        integer-valued matrices the result is exact and therefore
        independent of merge order — folding partial matrices in any order
        produces bit-identical aggregates (pinned by
        ``tests/test_commmatrix.py``).
        """
        if other.n != self.n:
            raise ConfigurationError("matrices must have the same size")
        if scale == 1.0:
            self._m += other._m
        else:
            self._m += scale * other._m
        return self

    def decay(self, factor: float) -> None:
        """Multiply everything by *factor* (aging for dynamic detection)."""
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError("decay factor must be in [0, 1]")
        self._m *= factor

    def reset(self) -> None:
        """Zero the matrix."""
        self._m[:] = 0.0

    # -- views ---------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The underlying array (a live view; do not mutate directly)."""
        return self._m

    def copy(self) -> "CommunicationMatrix":
        """Deep copy."""
        return CommunicationMatrix(self.n, self._m)

    def diff(self, earlier: "CommunicationMatrix") -> "CommunicationMatrix":
        """Cell-wise ``self - earlier``, clipped at zero.

        Used to extract per-interval matrices — e.g. the per-phase views of
        the producer/consumer experiment (paper Fig. 6a-c) — from two
        snapshots of one detector.  The difference is the interval's
        communication only if the snapshots are cumulative, that is under
        ``SpcdConfig.matrix_decay == 1``.  With aging, every evaluation
        between the snapshots shrinks the earlier counts, so the clipped
        difference undercounts: a cell that decayed by more than it gained
        reads zero.
        """
        if earlier.n != self.n:
            raise ConfigurationError("matrices must have the same size")
        return CommunicationMatrix(self.n, np.clip(self._m - earlier._m, 0.0, None))

    def total(self) -> float:
        """Total communication (each pair counted once)."""
        return float(self._m.sum() / 2.0)

    def nnz(self) -> int:
        """Nonzero off-diagonal cells (both triangles counted)."""
        return int(np.count_nonzero(self._m))

    def density(self) -> float:
        """Nonzero fraction of the off-diagonal cells, in [0, 1].

        Power-law patterns at large n sit well below 0.1, blocky NAS
        patterns near 1.0.  Emitted with every ``MappingDecision`` event.
        """
        off_diag = self.n * (self.n - 1)
        return self.nnz() / off_diag if off_diag else 0.0

    def normalized(self) -> np.ndarray:
        """Matrix scaled to [0, 1] by its maximum (for heatmaps)."""
        peak = self._m.max()
        return self._m / peak if peak > 0 else self._m.copy()

    def partners(self) -> np.ndarray:
        """Each thread's single most-communicating partner (-1 if none).

        This is the subgroup-of-size-2 notion the communication filter uses
        (paper Sec. IV-A).  Ties resolve to the lowest thread id, and threads
        with an all-zero row have no partner.
        """
        out = np.full(self.n, -1, dtype=np.int64)
        row_max = self._m.max(axis=1)
        has_comm = row_max > 0
        out[has_comm] = np.argmax(self._m[has_comm], axis=1)
        return out

    # -- comparison / accuracy ------------------------------------------------
    def correlation(self, other: "CommunicationMatrix") -> float:
        """Pearson correlation of the upper triangles (pattern accuracy).

        Used to quantify how well a detected matrix matches the ground
        truth; 1.0 is a perfect pattern match (scale-invariant).
        """
        if other.n != self.n:
            raise ConfigurationError("matrices must have the same size")
        iu = np.triu_indices(self.n, k=1)
        a, b = self._m[iu], other._m[iu]
        if a.std() == 0 or b.std() == 0:
            return 1.0 if np.allclose(a, a.mean()) and np.allclose(b, b.mean()) else 0.0
        return float(np.corrcoef(a, b)[0, 1])

    def heterogeneity(self) -> float:
        """Coefficient of variation of the off-diagonal cells.

        The paper classifies patterns as *homogeneous* (similar amounts
        everywhere — low value) or *heterogeneous* (clear sub-groups — high
        value).  We use CV = std/mean of the upper triangle; a matrix with
        no communication at all reports 0 (homogeneous, like EP).
        """
        iu = np.triu_indices(self.n, k=1)
        vals = self._m[iu]
        mean = vals.mean()
        if mean == 0:
            return 0.0
        return float(vals.std() / mean)

    # -- serialisation ---------------------------------------------------------
    def to_csv(self, path: "str | os.PathLike") -> None:
        """Write the matrix as CSV, atomically.

        The data goes to a temp file next to *path* and is moved into place
        with :func:`os.replace`, so a concurrent reader (or a crash mid-write)
        never observes a truncated matrix.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                np.savetxt(f, self._m, delimiter=",", fmt="%.6g")
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def from_csv(cls, path: "str | os.PathLike") -> "CommunicationMatrix":
        """Read a matrix previously written by :meth:`to_csv`."""
        data = np.loadtxt(Path(path), delimiter=",")
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ConfigurationError("CSV does not contain a square matrix")
        return cls(data.shape[0], data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommunicationMatrix(n={self.n}, total={self.total():.0f})"
