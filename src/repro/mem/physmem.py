"""Physical frame allocation with NUMA first-touch policy.

Linux's default policy backs a page with memory from the NUMA node of the CPU
that first touches it.  The paper's baseline relies on this, and SPCD does not
change data placement (it notes data mapping as possible future use), so the
simulator reproduces first-touch faithfully.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, PageFaultError
from repro.units import PAGE_SIZE


class FrameAllocator:
    """Bump frame allocator over per-node frame ranges."""

    def __init__(self, n_nodes: int, frames_per_node: int) -> None:
        if n_nodes <= 0 or frames_per_node <= 0:
            raise ConfigurationError("need positive node count and frames per node")
        self.n_nodes = n_nodes
        self.frames_per_node = frames_per_node
        self._next = [node * frames_per_node for node in range(n_nodes)]

    def node_of_frame(self, frame: int) -> int:
        """NUMA node owning *frame*."""
        node = frame // self.frames_per_node
        if not 0 <= node < self.n_nodes:
            raise PageFaultError(f"frame {frame} outside any node")
        return node

    def allocate(self, node: int) -> int:
        """Allocate one frame on *node* (falls back to other nodes if full).

        Returns the frame number.  Fallback mirrors the kernel's zone
        fallback order (nearest node first, here: increasing node distance
        in id space).
        """
        order = sorted(range(self.n_nodes), key=lambda n: abs(n - node))
        for candidate in order:
            limit = (candidate + 1) * self.frames_per_node
            if self._next[candidate] < limit:
                frame = self._next[candidate]
                self._next[candidate] += 1
                return frame
        raise PageFaultError("out of physical memory on all nodes")

    def allocate_batch(self, node: int, count: int) -> np.ndarray:
        """Allocate *count* frames on *node*, with the same fallback order.

        Returns exactly the frames ``count`` successive :meth:`allocate`
        calls would return, in the same order: bump allocation, walking
        nodes by increasing id distance.
        """
        if count < 0:
            raise ConfigurationError("cannot allocate a negative frame count")
        out = np.empty(count, dtype=np.int64)
        filled = 0
        order = sorted(range(self.n_nodes), key=lambda n: abs(n - node))
        for candidate in order:
            if filled >= count:
                break
            limit = (candidate + 1) * self.frames_per_node
            nxt = self._next[candidate]
            take = min(limit - nxt, count - filled)
            if take > 0:
                out[filled : filled + take] = np.arange(nxt, nxt + take, dtype=np.int64)
                self._next[candidate] = nxt + take
                filled += take
        if filled < count:
            raise PageFaultError("out of physical memory on all nodes")
        return out

    def nodes_of_frames(self, frames: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`node_of_frame`."""
        frames = np.asarray(frames, dtype=np.int64)
        nodes = frames // self.frames_per_node
        if frames.size and (nodes.min() < 0 or nodes.max() >= self.n_nodes):
            raise PageFaultError("frame outside any node")
        return nodes

    def available(self, node: int) -> int:
        """Frames still allocatable on *node*."""
        limit = (node + 1) * self.frames_per_node
        return limit - self._next[node]

    @classmethod
    def for_memory(cls, n_nodes: int, bytes_per_node: int) -> "FrameAllocator":
        """Allocator sized for *bytes_per_node* of DRAM per node."""
        return cls(n_nodes, max(1, bytes_per_node // PAGE_SIZE))
