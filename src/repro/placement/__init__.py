"""Unified NUMA placement: thread + data + page-table placement, co-decided.

The paper maps threads only; Phoenix shows thread and page-table placement
must be orchestrated together on NUMA, and Mitosis shows per-node
page-table replication pays off once walks routinely cross sockets
(PAPERS.md).  A :class:`PlacementPolicy` is one frozen record that names
which of those mechanisms run; each periodic SPCD evaluation
(:meth:`repro.core.manager.SpcdManager.evaluate`) reads its flags and runs
the data scan, the thread proposal, replication, page moves and the
thread remap in one fixed order.

Policies are named; :func:`resolve_policy` is the front door::

    from repro import Simulator
    result = Simulator(make_npb("SP"), "spcd-combined", seed=1).run()

The mechanisms live elsewhere (thread remap in
:mod:`repro.kernelsim.migration`, page migration in
:mod:`repro.core.datamap`, replication in :mod:`repro.mem.ptreplica`).
DESIGN.md §14 documents the architecture, the evaluation order and the
replication coherence rules.
"""

from repro.placement.policy import PlacementPolicy, canonical_policies, resolve_policy

__all__ = ["PlacementPolicy", "canonical_policies", "resolve_policy"]
