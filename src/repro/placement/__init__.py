"""Placement policies: how threads start and whether SPCD remaps them.

A :class:`PlacementPolicy` is one frozen record of four fields; the five
canonical policies (``os``, ``random``, ``oracle``, ``spcd``,
``spcd-hier``) are five rows of it.  Each periodic SPCD evaluation
(:meth:`repro.core.manager.SpcdManager.evaluate`) of a policy that maps
threads is the paper's thread-only evaluation.

Policies are named; :func:`resolve_policy` is the front door::

    from repro import Simulator
    result = Simulator(make_npb("SP"), "spcd", seed=1).run()

The thread remap itself lives in :mod:`repro.kernelsim.migration`.
DESIGN.md §14 documents the records and the evaluation.
"""

from repro.placement.policy import PlacementPolicy, canonical_policies, resolve_policy

__all__ = ["PlacementPolicy", "canonical_policies", "resolve_policy"]
