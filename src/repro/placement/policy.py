"""Typed placement policies.

A :class:`PlacementPolicy` bundles everything one placement strategy
needs: how threads start (``make_scheduler``), whether the SPCD machinery
runs at all (``uses_spcd``), and how one periodic evaluation turns the
communication matrix + per-page node-fault counters into a single
:class:`~repro.placement.decision.PlacementDecision` (``evaluate``).

The canonical registry:

========================  ======== ======= ======== =============
name                      threads  data    replica  scheduler
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
engine: thread mapping, data mapping and page-table replication come
from its flags, and ``spcd-hier`` is ``spcd`` with the scalable
hierarchical mapper (:mod:`repro.graphs.hiermap`) forced regardless of
thread count.  A policy's ``mapper_algorithm`` attribute names a
registered engine (:func:`repro.core.mapping.make_mapper`); ``None``
leaves it to the thread-count auto-switch of
:func:`repro.core.mapping.select_mapper_algorithm`.

``spcd`` reproduces the pre-placement engine bit for bit
(``tests/test_placement.py`` pins it); the new names compose the
mechanisms the paper's Sec. IV sketches and Phoenix/Mitosis motivate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.kernelsim.scheduler import CfsLikeScheduler, PinnedScheduler, Scheduler
from repro.oracle.analyzer import oracle_mapping
from repro.placement.decision import PlacementDecision, PlacementView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.topology import Machine
    from repro.workloads.base import Workload

__all__ = [
    "CombinedPlacementPolicy",
    "DataPlacementPolicy",
    "HierThreadPlacementPolicy",
    "OraclePolicy",
    "OsPolicy",
    "PlacementPolicy",
    "RandomPolicy",
    "ReplicatedPlacementPolicy",
    "ThreadPlacementPolicy",
    "canonical_policies",
    "resolve_policy",
]


@runtime_checkable
class PlacementPolicy(Protocol):
    """The typed policy surface the simulator consumes.

    Attributes:
        name: stable identifier (seed derivation, cache keys, results).
        uses_spcd: whether the SPCD detector/injector/evaluator run.
        maps_threads: whether evaluations may propose a thread remap.
        maps_data: whether evaluations may propose page migrations.
        replicate_pt: whether the first evaluation directs per-node
            page-table replication (Mitosis).
    """

    name: str
    uses_spcd: bool
    maps_threads: bool
    maps_data: bool
    replicate_pt: bool

    def make_scheduler(
        self, machine: "Machine", workload: "Workload", rng: np.random.Generator
    ) -> Scheduler:
        """Build and start the scheduler this policy begins with."""
        ...  # pragma: no cover - protocol

    def evaluate(self, view: PlacementView) -> PlacementDecision:
        """Turn one evaluation's evidence into one placement decision."""
        ...  # pragma: no cover - protocol


def _check_fits(machine: "Machine", workload: "Workload") -> int:
    n = workload.n_threads
    if n > machine.n_pus:
        raise ConfigurationError(
            f"{n} threads exceed the machine's {machine.n_pus} hardware contexts"
        )
    return n


def _random_pinned(
    machine: "Machine", workload: "Workload", rng: np.random.Generator
) -> PinnedScheduler:
    n = _check_fits(machine, workload)
    pus = rng.permutation(machine.n_pus)[:n]
    return PinnedScheduler(machine, n, [int(p) for p in pus])


class _StaticPolicy:
    """Base of the non-SPCD policies: placement fixed at start, no decisions."""

    name = "static"
    uses_spcd = False
    maps_threads = False
    maps_data = False
    replicate_pt = False

    def evaluate(self, view: PlacementView) -> PlacementDecision:
        """Static policies never re-place anything."""
        return PlacementDecision(verdict="static")

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"{type(self).__name__}({self.name!r})"


class OsPolicy(_StaticPolicy):
    """The Linux-baseline: a CFS-like scheduler, no explicit placement."""

    name = "os"

    def make_scheduler(
        self, machine: "Machine", workload: "Workload", rng: np.random.Generator
    ) -> Scheduler:
        """CFS-like scheduler over all PUs (the figures' baseline)."""
        n = _check_fits(machine, workload)
        scheduler: Scheduler = CfsLikeScheduler(machine, n, rng)
        scheduler.start()
        return scheduler


class RandomPolicy(_StaticPolicy):
    """A static random thread→PU pinning, fresh per repetition."""

    name = "random"

    def make_scheduler(
        self, machine: "Machine", workload: "Workload", rng: np.random.Generator
    ) -> Scheduler:
        """Random pinning drawn from *rng* (one mapping per execution)."""
        scheduler = _random_pinned(machine, workload, rng)
        scheduler.start()
        return scheduler


class OraclePolicy(_StaticPolicy):
    """A static pinning computed from full communication knowledge."""

    name = "oracle"

    def make_scheduler(
        self, machine: "Machine", workload: "Workload", rng: np.random.Generator
    ) -> Scheduler:
        """Pin threads by mapping the ground-truth communication matrix."""
        n = _check_fits(machine, workload)
        mapping = oracle_mapping(workload, machine)
        scheduler = PinnedScheduler(machine, n, [int(p) for p in mapping])
        scheduler.start()
        return scheduler


class ThreadPlacementPolicy:
    """SPCD thread mapping only — the paper's mechanism, bit for bit.

    Starts from an arbitrary (OS-like) placement and migrates threads when
    the communication filter reports a changed pattern.  This is the
    canonical ``"spcd"`` policy; the differential parity suite pins its
    digests against the pre-placement engine.
    """

    name = "spcd"
    uses_spcd = True
    maps_threads = True
    maps_data = False
    replicate_pt = False
    #: mapping engine this policy requests from the registry
    #: (:func:`repro.core.mapping.make_mapper`); ``None`` leaves it to the
    #: thread-count auto-switch
    mapper_algorithm: "str | None" = None

    def make_scheduler(
        self, machine: "Machine", workload: "Workload", rng: np.random.Generator
    ) -> Scheduler:
        """Random pinned start; SPCD migrates from there."""
        scheduler = _random_pinned(machine, workload, rng)
        scheduler.start()
        return scheduler

    def evaluate(self, view: PlacementView) -> PlacementDecision:
        """Co-decide remap + migration + replication from one view."""
        migrations, deferred = (
            view.propose_page_migrations() if self.maps_data else ((), 0)
        )
        replicate = self.replicate_pt and not view.pt_replicated
        if self.maps_threads:
            mapping, verdict, cost_now, cost_new = view.propose_thread_mapping()
        else:
            mapping, verdict, cost_now, cost_new = None, "data-idle", 0.0, 0.0
        thread_mapping = (
            None if mapping is None else tuple(int(p) for p in mapping)
        )
        return PlacementDecision(
            verdict=verdict,
            thread_mapping=thread_mapping,
            page_migrations=tuple(migrations),
            replicate_pt=replicate,
            cost_now=cost_now,
            cost_new=cost_new,
            shared_deferred=deferred,
        )

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"{type(self).__name__}({self.name!r})"


class HierThreadPlacementPolicy(ThreadPlacementPolicy):
    """SPCD thread mapping decided by the scalable hierarchical mapper.

    Identical pipeline and gates to ``spcd``; only the mapping engine
    differs (:class:`~repro.graphs.hiermap.ScalableHierarchicalMapper`,
    recursive bisection + local search instead of Edmonds matching).  Use
    it to force the scalable engine below the auto-switch
    (:data:`repro.core.mapping.AUTO_HIERARCHICAL_THREADS`), e.g. for
    quality comparisons at paper scale.
    """

    name = "spcd-hier"
    mapper_algorithm = "hierarchical"


class DataPlacementPolicy(ThreadPlacementPolicy):
    """SPCD data mapping only: migrate pages, never remap threads.

    Pages whose recent fault mass is dominated by a remote node move
    there; pages shared between nodes are vetoed (there is no thread
    mapper to hand them to).  One
    :class:`~repro.core.datamap.SpcdDataMapper` scan runs per
    evaluation.
    """

    name = "spcd-data"
    maps_threads = False
    maps_data = True


class CombinedPlacementPolicy(ThreadPlacementPolicy):
    """Phoenix-style co-decision: thread remap + page migration together.

    One evaluation sees the communication matrix *and* the per-page
    node-fault counters: node-dominated pages migrate, while pages whose
    fault mass is split between nodes — true communication pages — are
    deferred to the thread mapper in the very same decision instead of
    being blindly vetoed.
    """

    name = "spcd-combined"
    maps_data = True


class ReplicatedPlacementPolicy(CombinedPlacementPolicy):
    """Combined placement plus Mitosis-style page-table replication.

    The first evaluation's decision additionally directs per-node
    page-table replicas; subsequent walks resolve locally (see
    :class:`~repro.mem.ptreplica.ReplicatedPageTable`) at the price of
    keeping the replicas coherent on every mutation.
    """

    name = "spcd-replicated"
    replicate_pt = True


def canonical_policies() -> "dict[str, PlacementPolicy]":
    """Fresh instances of every registered policy, by name."""
    return {
        p.name: p
        for p in (
            OsPolicy(),
            RandomPolicy(),
            OraclePolicy(),
            ThreadPlacementPolicy(),
            HierThreadPlacementPolicy(),
            DataPlacementPolicy(),
            CombinedPlacementPolicy(),
            ReplicatedPlacementPolicy(),
        )
    }


def resolve_policy(policy: "PlacementPolicy | str") -> PlacementPolicy:
    """Resolve *policy* to a :class:`PlacementPolicy` instance.

    Accepts a policy object (returned as-is) or a case-insensitive name
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
