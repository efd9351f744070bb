#!/usr/bin/env python
"""Smoke-test the mapping daemon end to end, as CI runs it.

Starts ``python -m repro.serve`` as a subprocess, streams a synthetic
far-pair fault pattern from a real socket client, and asserts the
acceptance behaviour:

* the tenant receives at least one MAPPING push;
* the session summary's matrix digest and final mapping are bit-identical
  to :func:`repro.serve.evaluator.offline_reference` for the same stream;
* a second tenant is admitted concurrently and drains cleanly;
* SIGTERM while a session is still open drains the daemon, flushes the
  obs trace (ServeSessionEnd/ServeEnd events), and exits 0.

Exit code 0 on success; prints a FAIL line and exits 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve import (  # noqa: E402
    ServeClient,
    SessionConfig,
    offline_reference,
    synthetic_fault_stream,
)

N_THREADS = 8
EVENTS_PER_THREAD = 20_000
TABLE_SIZE = 10_000
EVAL_EVERY = 4_096


def _start_daemon(trace: Path) -> "tuple[subprocess.Popen, int]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            "0",
            "--eval-every",
            str(EVAL_EVERY),
            "--trace",
            str(trace),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    ready = proc.stdout.readline()
    match = re.search(r"listening on [^:]+:(\d+)", ready)
    if not match:
        proc.kill()
        raise AssertionError(f"no ready line from daemon, got: {ready!r}")
    return proc, int(match.group(1))


def _stream_tenant(port: int, tenant: str, seed: int) -> "dict":
    stream = list(
        synthetic_fault_stream(N_THREADS, EVENTS_PER_THREAD, seed=seed)
    )
    with ServeClient(
        "127.0.0.1",
        port,
        tenant=tenant,
        n_threads=N_THREADS,
        config={"table_size": TABLE_SIZE},
    ) as client:
        for tid, now_ns, vaddrs in stream:
            client.send_events(tid, now_ns, vaddrs)
        summary = client.close()
    assert summary is not None, "no SUMMARY frame"
    cfg = SessionConfig(
        n_threads=N_THREADS,
        table_size=TABLE_SIZE,
        eval_every_events=EVAL_EVERY,
    )
    reference = offline_reference(stream, cfg, flush_after=[len(stream) - 1])
    assert summary["events"] == N_THREADS * EVENTS_PER_THREAD, summary["events"]
    assert summary["matrix_digest"] == reference.final_digest, (
        f"digest mismatch: served {summary['matrix_digest']} "
        f"vs offline {reference.final_digest}"
    )
    assert summary["mapping"] == reference.final_mapping
    assert client.mappings, "tenant never received a MAPPING push"
    assert client.mappings[-1]["mapping"] == reference.final_mapping
    return summary


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        trace = Path(tmp) / "serve.jsonl"
        proc, port = _start_daemon(trace)
        try:
            for index, tenant in enumerate(("smoke-a", "smoke-b")):
                summary = _stream_tenant(port, tenant, seed=index)
                print(
                    f"{tenant}: {summary['events']} events, "
                    f"{summary['remaps']} remaps, digest {summary['matrix_digest']}"
                )
            # leave one session open mid-stream, then SIGTERM the daemon
            client = ServeClient(
                "127.0.0.1",
                port,
                tenant="smoke-open",
                n_threads=N_THREADS,
                config={"table_size": TABLE_SIZE},
            )
            for tid, now_ns, vaddrs in synthetic_fault_stream(
                N_THREADS, 2_000, seed=7
            ):
                client.send_events(tid, now_ns, vaddrs)
            proc.send_signal(signal.SIGTERM)
            exit_code = proc.wait(timeout=30)
            assert exit_code == 0, f"daemon exited {exit_code} on SIGTERM"
            client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        types = [e["type"] for e in events]
        assert types[0] == "serve_start", types[:3]
        assert types[-1] == "serve_end", types[-3:]
        session_ends = [e for e in events if e["type"] == "serve_session_end"]
        assert len(session_ends) == 3, f"{len(session_ends)} session_end events"
        drained = [e for e in session_ends if e["reason"] == "drain"]
        assert len(drained) == 1 and drained[0]["tenant"] == "smoke-open", session_ends
        assert all(e["matrix_digest"] for e in session_ends)
        end = events[-1]
        assert end["sessions_served"] == 3 and end["events_total"] > 0, end
        print(
            f"drain ok: trace has {len(events)} events, "
            f"{end['events_total']} events served, exit 0"
        )
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        sys.exit(1)
