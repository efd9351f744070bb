"""Placement-engine comparison: thread-only vs data-only vs combined vs
combined+replication (the Phoenix/Mitosis extension of Fig. 8).

Runs each workload under serial first-touch — NPB-OMP initialises its
arrays from the serial master region, so every page lands on the
master's NUMA node and half the machine starts with a fully remote
working set — with NUMA-aware page-table-walk charging enabled, and
compares the placement policies end to end:

* ``os``               — the Linux baseline (no explicit placement);
* ``spcd``             — the paper's thread mapping, bit-for-bit;
* ``spcd-data``        — page migration only, shared pages vetoed;
* ``spcd-combined``    — one decision co-placing threads *and* pages,
  shared pages handed to the thread mapper instead of vetoed;
* ``spcd-replicated``  — combined plus Mitosis-style per-node page-table
  replicas (local walks, paid for with coherence broadcasts).

The acceptance gate is the Phoenix claim: for at least one workload the
combined policy must beat *both* single-mechanism policies on execution
time.  Emits ``BENCH_placement.json``.

Standalone on purpose: no pytest/conftest imports, so CI can run
``python benchmarks/bench_fig_placement.py --smoke`` directly and the
tier-1 smoke tests can import the driver.  Only needs ``src`` on
``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":  # pragma: no cover - CLI convenience
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.engine.gridrunner import run_grid
from repro.engine.simulator import EngineConfig

POLICIES = ("os", "spcd", "spcd-data", "spcd-combined", "spcd-replicated")
WORKLOADS = ("SP", "CG")
METRICS = ("exec_time_s", "l3_mpki", "c2c_transactions", "migrations", "mapping_pct")
BASE_SEED = 42
FULL_STEPS = int(os.environ.get("REPRO_BENCH_PLACEMENT_STEPS", "500"))
SMOKE_STEPS = 40

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_placement.json"


def run_placement_bench(*, steps: int, reps: int) -> dict:
    """The full policy × workload sweep; returns the JSON payload."""
    config = EngineConfig(
        batch_size=256, steps=steps, pretouch="serial", placement_walk=True
    )
    t0 = perf_counter()
    grid = run_grid(
        WORKLOADS, POLICIES, reps, base_seed=BASE_SEED, config=config, strict=True
    )
    cells = {
        w: {p: {m: grid.cell(w, p).mean(m) for m in METRICS} for p in POLICIES}
        for w in WORKLOADS
    }
    combined_wins = [
        w
        for w in WORKLOADS
        if cells[w]["spcd-combined"]["exec_time_s"]
        < cells[w]["spcd"]["exec_time_s"]
        and cells[w]["spcd-combined"]["exec_time_s"]
        < cells[w]["spcd-data"]["exec_time_s"]
    ]
    return {
        "steps": steps,
        "reps": reps,
        "base_seed": BASE_SEED,
        "placement_walk": True,
        "pretouch": "serial",
        "policies": list(POLICIES),
        "workloads": list(WORKLOADS),
        "cells": cells,
        "combined_wins": combined_wins,
        "wall_s": perf_counter() - t0,
    }


def _format(payload: dict) -> str:
    lines = ["placement policies — mean exec time (s), normalised to os"]
    header = f"{'workload':<10}" + "".join(f"{p:>18}" for p in payload["policies"])
    lines += ["-" * len(header), header]
    for workload in payload["workloads"]:
        row = payload["cells"][workload]
        base = row["os"]["exec_time_s"]
        lines.append(
            f"{workload:<10}"
            + "".join(
                f"{row[p]['exec_time_s']:>10.4f} ({row[p]['exec_time_s'] / base:>4.2f})"
                for p in payload["policies"]
            )
        )
    lines.append(f"combined beats both single mechanisms on: {payload['combined_wins']}")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration: prove every policy runs end to end; "
        "no result file, no performance assertion",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_placement_bench(steps=SMOKE_STEPS, reps=1)
        print(_format(payload))
        print(f"smoke OK in {payload['wall_s']:.1f}s")
        return 0

    payload = run_placement_bench(steps=FULL_STEPS, reps=2)
    print(_format(payload))
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
    if not payload["combined_wins"]:
        print("FAIL: combined beat both single mechanisms on no workload")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
