"""Mapping-engine comparison: Edmonds matching vs scalable hierarchical.

Two questions, two sections:

* **Quality** — on every paper-scale matrix (the Fig. 7 suite: all ten
  NPB ground-truth matrices at n = 32, plus the synthetic pair/chain/
  uniform patterns) the recursive-bisection mapper must place within 10%
  of the Edmonds engine's communication cost.
* **Scale** — decision latency on power-law communication matrices at
  n ∈ {128, 256, 512, 1024} threads (machines sized to match).  The
  Edmonds engine is O(n^3) per grouping level and is timed up to n = 512;
  the hierarchical engine must decide the 1024-thread case in under 0.5 s
  wall.  Both engines take the same dense :class:`CommunicationMatrix`.

Emits ``BENCH_mapping.json``.  Standalone on purpose: no pytest/conftest
imports, so CI can run ``python benchmarks/bench_fig_mapping_scale.py
--smoke`` directly.  Only needs ``src`` on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":  # pragma: no cover - CLI convenience
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.mapping import HierarchicalMapper, mapping_comm_cost
from repro.graphs.graph import partition_comm_matrix, partition_rows, powerlaw_graph
from repro.graphs.hiermap import ScalableHierarchicalMapper
from repro.machine.topology import build_machine, dual_xeon_e5_2650
from repro.workloads.npb import NPB_SPECS, make_npb
from repro.workloads.patterns import (
    chain_pattern,
    distant_pairs_pattern,
    neighbor_pairs_pattern,
    uniform_pattern,
)

QUALITY_GATE = 1.10  # hier cost <= 1.10 x Edmonds cost on every matrix
LATENCY_GATE_S = 0.5  # hier decision wall at n = 1024
EDMONDS_MAX_N = 512  # O(n^3): timing it at 1024 serves nobody

#: n_threads -> (sockets, cores/socket, smt) with exactly n PUs
SCALE_MACHINES = {
    128: (2, 32, 2),
    256: (2, 64, 2),
    512: (4, 64, 2),
    1024: (4, 128, 2),
}

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_mapping.json"


def _quality_matrices() -> "dict[str, np.ndarray]":
    out = {name: make_npb(name, 32).ground_truth().matrix for name in sorted(NPB_SPECS)}
    out["neighbor_pairs"] = neighbor_pairs_pattern(32, 100)
    out["distant_pairs"] = distant_pairs_pattern(32, 100)
    out["chain"] = chain_pattern(32)
    out["uniform"] = uniform_pattern(32, 10)
    return out


def _powerlaw_comm(n: int) -> CommunicationMatrix:
    """An irregular thread-level matrix: power-law graph, block-partitioned."""
    graph = powerlaw_graph(16 * n, 8.0, seed=n)
    dense = partition_comm_matrix(graph, partition_rows(16 * n, n), n)
    return CommunicationMatrix(n, dense)


def run_quality() -> dict:
    """Comm-cost ratio hier/Edmonds on every paper-scale matrix."""
    machine = dual_xeon_e5_2650()
    rows: dict[str, dict[str, float]] = {}
    for name, comm in _quality_matrices().items():
        cost_e = mapping_comm_cost(comm, HierarchicalMapper(machine).map(comm), machine)
        cost_h = mapping_comm_cost(
            comm, ScalableHierarchicalMapper(machine).map(comm), machine
        )
        rows[name] = {
            "edmonds_cost": cost_e,
            "hier_cost": cost_h,
            "ratio": cost_h / cost_e if cost_e else 1.0,
        }
    return rows


def run_scale(sizes: "tuple[int, ...]", reps: int) -> dict:
    """Decision latency per engine at each thread count (best of *reps*)."""
    rows: dict[str, dict[str, float]] = {}
    for n in sizes:
        sockets, cores, smt = SCALE_MACHINES[n]
        machine = build_machine(sockets, cores, smt, name=f"scale{n}")
        comm = _powerlaw_comm(n)
        hier_s = min(
            _time_once(ScalableHierarchicalMapper(machine), comm) for _ in range(reps)
        )
        row = {
            "hier_ms": hier_s * 1e3,
            "density": comm.density(),
            "nnz": float(comm.nnz()),
        }
        if n <= EDMONDS_MAX_N:
            row["edmonds_ms"] = (
                min(_time_once(HierarchicalMapper(machine), comm) for _ in range(reps))
                * 1e3
            )
        rows[str(n)] = row
    return rows


def _time_once(mapper, comm) -> float:
    t0 = perf_counter()
    mapper.map(comm)
    return perf_counter() - t0


def _format(payload: dict) -> str:
    lines = ["mapping quality at n=32 — comm cost, hier vs Edmonds"]
    lines.append(f"{'matrix':<16}{'edmonds':>12}{'hier':>12}{'ratio':>8}")
    for name, row in payload["quality"].items():
        lines.append(
            f"{name:<16}{row['edmonds_cost']:>12.1f}{row['hier_cost']:>12.1f}"
            f"{row['ratio']:>8.3f}"
        )
    lines.append(f"worst ratio: {payload['worst_ratio']:.3f} (gate {QUALITY_GATE})")
    lines.append("")
    lines.append("decision latency — power-law matrices (best of reps)")
    lines.append(f"{'n':>6}{'density':>10}{'edmonds ms':>12}{'hier ms':>10}")
    for n, row in payload["scale"].items():
        edmonds = f"{row['edmonds_ms']:.1f}" if "edmonds_ms" in row else "-"
        lines.append(
            f"{n:>6}{row['density']:>10.3f}{edmonds:>12}{row['hier_ms']:>10.1f}"
        )
    return "\n".join(lines)


def run_mapping_bench(*, sizes: "tuple[int, ...]", reps: int) -> dict:
    t0 = perf_counter()
    quality = run_quality()
    scale = run_scale(sizes, reps)
    return {
        "quality_gate": QUALITY_GATE,
        "latency_gate_s": LATENCY_GATE_S,
        "quality": quality,
        "scale": scale,
        "worst_ratio": max(r["ratio"] for r in quality.values()),
        "wall_s": perf_counter() - t0,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small configuration: quality suite + latency at n <= 256; "
        "quality gate enforced, no result file, no latency gate",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_mapping_bench(sizes=(128, 256), reps=1)
        print(_format(payload))
        if payload["worst_ratio"] > QUALITY_GATE:
            print(f"FAIL: worst quality ratio {payload['worst_ratio']:.3f}")
            return 1
        print(f"smoke OK in {payload['wall_s']:.1f}s")
        return 0

    payload = run_mapping_bench(sizes=(128, 256, 512, 1024), reps=3)
    print(_format(payload))
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
    failed = False
    if payload["worst_ratio"] > QUALITY_GATE:
        print(f"FAIL: worst quality ratio {payload['worst_ratio']:.3f}")
        failed = True
    hier_1024_s = payload["scale"]["1024"]["hier_ms"] / 1e3
    if hier_1024_s > LATENCY_GATE_S:
        print(f"FAIL: 1024-thread decision took {hier_1024_s:.3f}s")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
