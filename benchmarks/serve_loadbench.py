"""Load benchmark for the mapping service: the PR's acceptance scenario.

Runs a :class:`~repro.serve.MappingServer` in-process and drives it with
concurrent asyncio tenants, each streaming the far-pair synthetic fault
pattern through the credit-window protocol.  For every tenant it asserts
the service-side state is *bit-identical* to an offline replay of the same
stream (zero lost events, same matrix digest, same final mapping) and that
at least one MAPPING push arrived — correctness first, then throughput.

Reported per tenant count: aggregate ingest rate (events/s), per-batch
detection+evaluation latency p50/p99 from the server's own histogram, and
the remap count.  The acceptance row is 8 tenants x 100k events.  The
client coroutines run on the server's own event loop, so the rate is that
of one process serving and generating the load together.

Standalone on purpose: no pytest/conftest imports, so the tier-1 smoke
test can import it and CI can run it directly.  Only needs ``src`` on
``sys.path``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.machine.topology import dual_xeon_e5_2650  # noqa: E402
from repro.serve import (  # noqa: E402
    AsyncServeClient,
    MappingServer,
    ServeConfig,
    SessionConfig,
    offline_reference,
    synthetic_fault_stream,
)

N_THREADS = 8
TABLE_SIZE = 10_000
EVAL_EVERY = 8192
OVERRIDES = {"table_size": TABLE_SIZE, "eval_every_events": EVAL_EVERY}


async def _run_tenant(port: int, name: str, seed: int, events_per_thread: int):
    """Stream one tenant's synthetic load; return (stream, summary, pushes)."""
    client = await AsyncServeClient.connect(
        "127.0.0.1", port, tenant=name, n_threads=N_THREADS, config=OVERRIDES
    )
    stream = list(synthetic_fault_stream(N_THREADS, events_per_thread, seed=seed))
    for tid, now_ns, vaddrs in stream:
        await client.send_events(tid, now_ns, vaddrs)
    summary = await client.close()
    return stream, summary, list(client.mappings)


def _verify_tenant(machine, stream, summary, pushes) -> int:
    """Assert service/offline bit-parity for one tenant; return remaps."""
    cfg = SessionConfig.from_overrides(
        SessionConfig(n_threads=N_THREADS, shards=4, eval_every_events=EVAL_EVERY),
        OVERRIDES,
    )
    ref = offline_reference(stream, cfg, machine, flush_after=[len(stream) - 1])
    sent = sum(len(v) for _, _, v in stream)
    assert summary["events"] == sent == ref.events, "lost events"
    assert summary["matrix_digest"] == ref.final_digest, "digest mismatch"
    assert summary["mapping"] == ref.final_mapping, "mapping mismatch"
    assert pushes, "tenant received no mapping notification"
    assert pushes[-1]["mapping"] == ref.final_mapping
    return int(summary["remaps"])


async def run_load(n_tenants: int, events_per_thread: int) -> dict:
    """One measured round: ``n_tenants`` concurrent sessions, full parity.

    Every tenant is verified bit-identical against the offline replay, and
    the row carries the per-tenant digest map.
    """
    machine = dual_xeon_e5_2650()
    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        metrics_port=None,
        max_sessions=max(8, n_tenants),
        max_table_mb=64.0,
        shards=4,
        eval_every_events=EVAL_EVERY,
        credit_window=65536,
        drain_grace_s=5.0,
    )
    async with MappingServer(config, machine=machine) as server:
        start = perf_counter()
        results = await asyncio.gather(
            *(
                _run_tenant(server.port, f"tenant-{i}", 100 + i, events_per_thread)
                for i in range(n_tenants)
            )
        )
        elapsed = perf_counter() - start
        total_events = server.events_total
        hist = server.metrics.histogram("serve_ingest_seconds")
        p50 = hist.quantile(0.5)
        p99 = hist.quantile(0.99)
        assert server.sessions_served == n_tenants
    remaps = sum(
        _verify_tenant(machine, stream, summary, pushes)
        for stream, summary, pushes in results
    )
    expected = n_tenants * N_THREADS * events_per_thread
    assert total_events == expected, f"server saw {total_events}, sent {expected}"
    return {
        "tenants": n_tenants,
        "events_per_thread": events_per_thread,
        "events_total": total_events,
        "elapsed_s": elapsed,
        "events_per_s": total_events / elapsed,
        "ingest_p50_s": p50,
        "ingest_p99_s": p99,
        "remaps": remaps,
        "parity": "bit-identical",
        "digests": {
            f"tenant-{i}": summary["matrix_digest"]
            for i, (_, summary, _) in enumerate(results)
        },
    }


def run_bench(events_per_thread: int = 100_000, tenant_counts=(1, 4, 8)) -> dict:
    """The full sweep; the last row is the acceptance configuration."""
    rows = [asyncio.run(run_load(n, events_per_thread)) for n in tenant_counts]
    return {
        "n_threads_per_tenant": N_THREADS,
        "table_size": TABLE_SIZE,
        "eval_every_events": EVAL_EVERY,
        "host_cpus": os.cpu_count() or 1,
        "rows": rows,
    }


def _print_row(row: dict) -> None:
    print(
        f"tenants={row['tenants']:2d}  "
        f"events={row['events_total']:>9,}  "
        f"rate={row['events_per_s']:>12,.0f} ev/s  "
        f"ingest p50={row['ingest_p50_s'] * 1e3:6.2f} ms "
        f"p99={row['ingest_p99_s'] * 1e3:6.2f} ms  "
        f"remaps={row['remaps']}  {row['parity']}"
    )


def main(argv: "list[str] | None" = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    events = int(args[0]) if args else 100_000
    result = run_bench(events_per_thread=events)
    for row in result["rows"]:
        _print_row(row)
    out = REPO / "benchmarks" / "results" / "BENCH_serve.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
