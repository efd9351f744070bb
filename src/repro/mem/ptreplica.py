"""Mitosis-style per-node page-table replication.

On a NUMA machine the page-table pages themselves live somewhere; a TLB
miss from the wrong socket walks up to four remote memory references.
Mitosis (PAPERS.md) replicates the page table on every node so walks
resolve locally, paying instead a coherence broadcast on every
page-table mutation.  :class:`ReplicatedPageTable` models exactly that
trade: it *is* a :class:`~repro.mem.pagetable.PageTable` (the primary),
plus per-node replica arrays kept coherent by broadcasting every batch
of mutated VPNs.

Coherence rules (pinned by the small-model check in
:mod:`repro.check.replica` and DESIGN.md §14):

* every mutation of translation state — ``map_page`` / ``map_pages``
  (fault path), ``unmap_page`` (migration), ``clear_present`` (SPCD
  injection), ``restore_present`` / ``restore_present_batch`` (fault
  resolution) — broadcasts the touched VPNs to every replica *in the
  same operation* (the model analogue of Mitosis' eager pvops hooks);
* accessed/dirty bits are deliberately **not** replicated: they are
  per-walk metadata, harvested from the primary only (Mitosis likewise
  treats A/D as reconcilable);
* broadcasts are batched: one per mutation call, charging a fixed
  per-replica cost plus a per-entry cost into
  :attr:`replication_cost_ns` (virtual time, folded into the SPCD
  mapping-overhead bucket).

Replicas start **inactive** — an inactive replicated table is
bit-identical to a plain :class:`PageTable` in behaviour, counters and
cost (the differential parity suite pins this).  The first SPCD
evaluation of a policy with ``replicate_pt=True`` activates them mid-run
via :meth:`activate`, copying the current page-table pages to every node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.address import N_LEVELS
from repro.mem.pagetable import PageTable

__all__ = ["PtReplica", "ReplicatedPageTable"]


@dataclass
class PtReplica:
    """One node's replica of the translation-relevant PTE arrays."""

    node: int
    present: np.ndarray
    populated: np.ndarray
    frame: np.ndarray
    home_node: np.ndarray


class ReplicatedPageTable(PageTable):
    """A page table that can keep coherent per-node replicas (Mitosis).

    Attributes:
        n_nodes: NUMA nodes (one replica each once active).
        update_cost_ns: virtual cost per replicated PTE update.
        broadcast_cost_ns: fixed virtual cost per replica per batched
            broadcast (the IPI/pvop dispatch).
        page_copy_cost_ns: virtual cost of copying one page-table page
            to one node at activation.
    """

    def __init__(
        self,
        capacity: int,
        n_nodes: int,
        *,
        update_cost_ns: float = 40.0,
        broadcast_cost_ns: float = 400.0,
        page_copy_cost_ns: float = 950.0,
        broadcast_present: bool = True,
    ) -> None:
        if n_nodes <= 0:
            raise ConfigurationError("need at least one NUMA node to replicate over")
        super().__init__(capacity)
        self.n_nodes = n_nodes
        self.update_cost_ns = update_cost_ns
        self.broadcast_cost_ns = broadcast_cost_ns
        self.page_copy_cost_ns = page_copy_cost_ns
        #: negative control for the model check: with ``False`` the
        #: present-bit half of every broadcast is dropped — the replica
        #: bug the coherence check must be able to catch (same pattern as
        #: ``inject_noshoot`` in :mod:`repro.check.interleave`).
        self.broadcast_present = broadcast_present
        self.active = False
        self.replicas: "list[PtReplica]" = []
        self.replica_updates = 0
        self.replication_cost_ns = 0.0

    # -- activation ---------------------------------------------------------
    def activate(self) -> float:
        """Build one replica per node from the primary; returns the cost.

        Activation copies every page-table directory page to every node
        (Mitosis' initial replication pass); the cost lands in
        :attr:`replication_cost_ns` and is also returned so the caller
        can attribute it to the decision that directed it.  Idempotent.
        """
        if self.active:
            return 0.0
        self.replicas = [
            PtReplica(
                node=node,
                present=self._present.copy(),
                populated=self._populated.copy(),
                frame=self._frame.copy(),
                home_node=self._home_node.copy(),
            )
            for node in range(self.n_nodes)
        ]
        self.active = True
        cost = self.n_nodes * self.dir_page_count() * self.page_copy_cost_ns
        self.replication_cost_ns += cost
        return cost

    # -- coherence broadcast ------------------------------------------------
    def _broadcast(self, vpns: "np.ndarray | int") -> None:
        if not self.active:
            return
        vpns = np.atleast_1d(np.asarray(vpns, dtype=np.int64))
        if vpns.size == 0:
            return
        for replica in self.replicas:
            if self.broadcast_present:
                replica.present[vpns] = self._present[vpns]
            replica.populated[vpns] = self._populated[vpns]
            replica.frame[vpns] = self._frame[vpns]
            replica.home_node[vpns] = self._home_node[vpns]
        n = len(self.replicas)
        self.replica_updates += int(vpns.size) * n
        self.replication_cost_ns += n * (
            self.broadcast_cost_ns + int(vpns.size) * self.update_cost_ns
        )

    # -- mutation overrides (primary first, then broadcast) -----------------
    def map_page(self, vpn: int, frame: int, home_node: int) -> None:
        """Install a frame at *vpn* and broadcast the new PTE."""
        super().map_page(vpn, frame, home_node)
        self._broadcast(vpn)

    def map_pages(self, vpns, frames, home_nodes) -> None:
        """Bulk install and broadcast (one batched update per call)."""
        super().map_pages(vpns, frames, home_nodes)
        self._broadcast(vpns)

    def unmap_page(self, vpn: int) -> int:
        """Remove the mapping at *vpn* on the primary and every replica."""
        frame = super().unmap_page(vpn)
        self._broadcast(vpn)
        return frame

    def clear_present(self, vpns) -> int:
        """Clear present bits (SPCD injection) coherently across replicas."""
        cleared = super().clear_present(vpns)
        self._broadcast(vpns)
        return cleared

    def restore_present(self, vpn: int) -> None:
        """Restore a present bit and broadcast it."""
        super().restore_present(vpn)
        self._broadcast(vpn)

    def restore_present_batch(self, vpns) -> None:
        """Bulk present-bit restore with one batched broadcast."""
        super().restore_present_batch(vpns)
        self._broadcast(vpns)

    # -- walks --------------------------------------------------------------
    def charge_walk(self, vpns, node: int) -> float:
        """Walk cost with replicas: every level resolves on the local node."""
        if not self.active:
            return super().charge_walk(vpns, node)
        vpns = np.atleast_1d(np.asarray(vpns, dtype=np.int64))
        if vpns.size == 0:
            return 0.0
        levels = int(vpns.size) * N_LEVELS
        self.walk_levels_local += levels
        cost = levels * self.level_local_ns
        self.walk_cost_ns += cost
        return cost

    # -- invariants ---------------------------------------------------------
    def replica_divergence(self) -> "str | None":
        """First replica/primary mismatch, or ``None`` when coherent.

        Accessed/dirty bits are excluded by design (not replicated); the
        translation-relevant arrays must match element-wise.
        """
        if not self.active:
            return None
        for replica in self.replicas:
            for label, primary, mirrored in (
                ("present", self._present, replica.present),
                ("populated", self._populated, replica.populated),
                ("frame", self._frame, replica.frame),
                ("home_node", self._home_node, replica.home_node),
            ):
                bad = np.flatnonzero(primary != mirrored)
                if bad.size:
                    vpn = int(bad[0])
                    return (
                        f"replica on node {replica.node} diverged at vpn {vpn}: "
                        f"{label} is {mirrored[vpn]!r}, primary says {primary[vpn]!r}"
                    )
        return None

    def replicas_coherent(self) -> bool:
        """True when every active replica matches the primary."""
        return self.replica_divergence() is None

    def consistency_ok(self) -> bool:
        """Structural invariants of the primary *and* replica coherence."""
        return super().consistency_ok() and self.replicas_coherent()
