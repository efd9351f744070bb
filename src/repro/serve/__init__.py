"""``repro.serve`` — SPCD mapping as a service.

An asyncio daemon that turns the offline SPCD pipeline into a
multi-tenant service, in one process on one event loop: clients stream
page-fault event batches over a length-prefixed framed protocol, each
session runs the detection pipeline (one sharing table + one
communication matrix) and a periodic filter + hierarchical-mapper
evaluation, and accepted remaps are pushed back as MAPPING frames.  The
numeric path is engineered to stay **bit-identical** to the offline
engine — see :func:`repro.serve.evaluator.offline_reference` for the
replay that pins it.

Layout:

* :mod:`~repro.serve.protocol` — wire framing and the credit flow-control
  vocabulary;
* :mod:`~repro.serve.session` — per-tenant detection state;
* :mod:`~repro.serve.evaluator` — evaluation gates + the offline replay;
* :mod:`~repro.serve.server` — the daemon (admission, backpressure,
  drain);
* :mod:`~repro.serve.client` — sync and async clients + the synthetic
  load generator;
* :mod:`~repro.serve.metrics` — the live metrics registry behind
  ``/metrics``;
* ``python -m repro.serve`` — the CLI entry point.
"""

from repro.serve.client import AsyncServeClient, ServeClient, synthetic_fault_stream
from repro.serve.evaluator import (
    EvalCadence,
    MappingEvaluator,
    MappingUpdate,
    ReplayResult,
    offline_reference,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import PROTOCOL_VERSION, EventBatch, Frame, MsgType
from repro.serve.server import MappingServer, ServeConfig
from repro.serve.session import SessionConfig, ShardedShareTable, TenantSession

__all__ = [
    "AsyncServeClient",
    "EvalCadence",
    "EventBatch",
    "Frame",
    "MappingEvaluator",
    "MappingServer",
    "MappingUpdate",
    "MetricsRegistry",
    "MsgType",
    "PROTOCOL_VERSION",
    "ReplayResult",
    "ServeClient",
    "ServeConfig",
    "SessionConfig",
    "ShardedShareTable",
    "TenantSession",
    "offline_reference",
    "synthetic_fault_stream",
]
