"""The full mapping-service load benchmark, runnable under pytest.

The acceptance sweep (1/4/8 tenants x 100k events per thread) takes
minutes; it is marked ``slow`` so routine benchmark sessions can skip it
with ``-m "not slow"`` while CI's scheduled runs (or an explicit
``pytest benchmarks -m slow``) still exercise the whole thing.  The
driver itself lives in :mod:`serve_loadbench` (standalone, no pytest
imports) and every tenant is verified bit-identical against an offline
replay before any throughput is reported.
"""

from __future__ import annotations

import json

import pytest

from conftest import emit
from serve_loadbench import run_bench


@pytest.mark.slow
def test_full_loadbench(results_dir):
    payload = run_bench()
    emit(results_dir, "BENCH_serve.json", json.dumps(payload, indent=1))
    acceptance = payload["rows"][-1]
    assert acceptance["tenants"] == 8
    assert acceptance["parity"] == "bit-identical"
