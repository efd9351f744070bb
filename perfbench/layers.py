"""Which public functions the traced run wraps, and under which span name.

Span names are ``<module>.<function>``, where ``<module>`` is the
``repro`` subpackage that owns the function.  Every mapper's ``map`` is
recorded as ``core.map`` whichever engine made the decision.
"""

from __future__ import annotations

from tracer import defining_class


def _accesses(self, pu, lines, *args, **kwargs) -> "dict[str, int]":
    return {"cachesim.access_batch_pu.accesses": len(lines)}


def _lookups(self, regions, *args, **kwargs) -> "dict[str, int]":
    return {"serve.table.lookups": len(regions)}


def mapper_targets() -> list:
    """Every registered mapping engine's ``map``."""
    from repro.core.mapping import HierarchicalMapper
    from repro.graphs.hiermap import ScalableHierarchicalMapper

    return [
        (HierarchicalMapper, "map", "core.map", None),
        (ScalableHierarchicalMapper, "map", "core.map", None),
    ]


def sim_targets() -> list:
    """The simulator's layers, as the Fig. 8 cell calls them."""
    from repro.cachesim.hierarchy import CoherentHierarchy
    from repro.core.commmatrix import CommunicationMatrix
    from repro.core.injector import FaultInjector
    from repro.core.manager import SpcdManager
    from repro.core.spcd import SpcdDetector
    from repro.engine.simulator import Simulator
    from repro.kernelsim.kthread import TimerWheel
    from repro.kernelsim.scheduler import CfsLikeScheduler, Scheduler
    from repro.mem.fault import FaultPipeline
    from repro.workloads.npb import SyntheticNpbWorkload

    return [
        (Simulator, "__init__", "engine.setup", None),
        (Simulator, "run", "engine.run", None),
        (defining_class(SyntheticNpbWorkload, "setup"), "setup", "workloads.setup", None),
        (
            defining_class(SyntheticNpbWorkload, "generate"),
            "generate",
            "workloads.generate",
            None,
        ),
        (CoherentHierarchy, "access_batch_pu", "cachesim.access_batch_pu", _accesses),
        (FaultPipeline, "faulting_mask", "mem.faulting_mask", None),
        (FaultPipeline, "handle_fault_batch", "mem.handle_fault_batch", None),
        (SpcdDetector, "on_fault_batch", "core.on_fault_batch", None),
        (FaultInjector, "wake", "core.wake", None),
        (SpcdManager, "evaluate", "core.evaluate", None),
        (CommunicationMatrix, "add_events", "core.add_events", None),
        *mapper_targets(),
        (TimerWheel, "tick", "kernelsim.tick", None),
        (Scheduler, "on_quantum", "kernelsim.on_quantum", None),
        (CfsLikeScheduler, "on_quantum", "kernelsim.on_quantum", None),
    ]


def server_targets() -> list:
    """The mapping service's layers, inside the server process."""
    from repro.core.commmatrix import CommunicationMatrix
    from repro.serve import protocol
    from repro.serve.evaluator import MappingEvaluator
    from repro.serve.session import ShardedShareTable, TenantSession

    return [
        (protocol, "decode_events", "serve.decode_events", None),
        (TenantSession, "ingest", "serve.ingest", None),
        (ShardedShareTable, "touch_batch", "serve.touch_batch", _lookups),
        (CommunicationMatrix, "add_events", "core.add_events", None),
        (TenantSession, "evaluate", "serve.evaluate", None),
        (MappingEvaluator, "decide", "serve.decide", None),
        *mapper_targets(),
    ]


def client_targets() -> list:
    """The load generator's own encoding cost."""
    from repro.serve import protocol

    return [(protocol, "encode_events", "bench.encode", None)]
