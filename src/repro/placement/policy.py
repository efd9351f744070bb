"""Placement policies: one frozen record per strategy.

A :class:`PlacementPolicy` is a row of flags: how threads start
(``start``), which SPCD mechanisms each periodic evaluation runs
(``maps_threads``, ``maps_data``, ``replicate_pt``) and which mapping
engine decides thread remaps (``mapper_algorithm``).  The policy does
not evaluate anything itself: :meth:`repro.core.manager.SpcdManager.evaluate`
reads the flags and runs the mechanisms in one fixed order.

The canonical registry:

========================  ======== ======= ======== =============
name                      threads  data    replica  start
========================  ======== ======= ======== =============
``os``                    —        —       —        CFS-like
``random``                —        —       —        random pin
``oracle``                —        —       —        ground truth
``spcd``                  ✓        —       —        random pin
``spcd-hier``             ✓        —       —        random pin
``spcd-data``             —        ✓       —        random pin
``spcd-combined``         ✓        ✓       —        random pin
``spcd-replicated``       ✓        ✓       ✓        random pin
========================  ======== ======= ======== =============

The policy is the only way to choose a placement mechanism or a mapping
engine.  ``spcd-hier`` is ``spcd`` with the scalable hierarchical mapper
(:mod:`repro.graphs.hiermap`) forced regardless of machine size;
``mapper_algorithm=None`` leaves the engine to the PU-count auto-switch
of :func:`repro.core.mapping.select_mapper_algorithm`.  A
variant is one :func:`dataclasses.replace` away::

    variant = dataclasses.replace(resolve_policy("spcd"), name="spcd+data",
                                  maps_data=True)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.kernelsim.scheduler import CfsLikeScheduler, PinnedScheduler, Scheduler
from repro.oracle.analyzer import oracle_mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.topology import Machine
    from repro.workloads.base import Workload

__all__ = ["PlacementPolicy", "canonical_policies", "resolve_policy"]

#: how a policy's threads start: the CFS-like baseline scheduler, a random
#: pinning drawn per repetition, or the ground-truth oracle pinning
STARTS = ("cfs", "random", "oracle")


@dataclass(frozen=True)
class PlacementPolicy:
    """One placement strategy.

    Attributes:
        name: stable identifier (seed derivation, result rows, traces).
        start: initial thread placement, one of :data:`STARTS`.
        maps_threads: evaluations may remap threads (the paper's SPCD).
        maps_data: evaluations scan the per-page node-fault counters and
            migrate node-dominated pages (the paper's Sec. IV extension).
        replicate_pt: the first evaluation activates per-node page-table
            replicas (Mitosis).
        mapper_algorithm: registered mapping engine
            (:func:`repro.core.mapping.make_mapper`); ``None`` leaves it to
            the PU-count auto-switch.
    """

    name: str
    start: str = "random"
    maps_threads: bool = False
    maps_data: bool = False
    replicate_pt: bool = False
    mapper_algorithm: "str | None" = None

    def __post_init__(self) -> None:
        if self.start not in STARTS:
            raise ConfigurationError(
                f"policy {self.name!r}: unknown start {self.start!r}; "
                f"expected one of {list(STARTS)}"
            )

    @property
    def uses_spcd(self) -> bool:
        """Whether the SPCD detector, injector and evaluator run."""
        return self.maps_threads or self.maps_data

    def make_scheduler(
        self, machine: "Machine", workload: "Workload", rng: np.random.Generator
    ) -> Scheduler:
        """Build and start the scheduler this policy begins with."""
        n = workload.n_threads
        if n > machine.n_pus:
            raise ConfigurationError(
                f"{n} threads exceed the machine's {machine.n_pus} hardware contexts"
            )
        if self.start == "cfs":
            scheduler: Scheduler = CfsLikeScheduler(machine, n, rng)
        elif self.start == "oracle":
            mapping = oracle_mapping(workload, machine)
            scheduler = PinnedScheduler(machine, n, [int(p) for p in mapping])
        else:
            pus = rng.permutation(machine.n_pus)[:n]
            scheduler = PinnedScheduler(machine, n, [int(p) for p in pus])
        scheduler.start()
        return scheduler


_CANONICAL = (
    PlacementPolicy("os", start="cfs"),
    PlacementPolicy("random"),
    PlacementPolicy("oracle", start="oracle"),
    PlacementPolicy("spcd", maps_threads=True),
    PlacementPolicy("spcd-hier", maps_threads=True, mapper_algorithm="hierarchical"),
    PlacementPolicy("spcd-data", maps_data=True),
    PlacementPolicy("spcd-combined", maps_threads=True, maps_data=True),
    PlacementPolicy(
        "spcd-replicated", maps_threads=True, maps_data=True, replicate_pt=True
    ),
)


def canonical_policies() -> "dict[str, PlacementPolicy]":
    """Every registered policy, by name."""
    return {p.name: p for p in _CANONICAL}


def resolve_policy(policy: "PlacementPolicy | str") -> PlacementPolicy:
    """Resolve *policy* to a :class:`PlacementPolicy`.

    Accepts a policy record (returned as-is) or a case-insensitive name
    string.
    """
    if isinstance(policy, str):
        registry = canonical_policies()
        name = policy.lower()
        if name not in registry:
            raise ConfigurationError(
                f"unknown policy {policy!r}; expected one of {sorted(registry)}"
            )
        return registry[name]
    if isinstance(policy, PlacementPolicy):
        return policy
    raise ConfigurationError(
        f"cannot resolve {policy!r} to a placement policy"
    )
