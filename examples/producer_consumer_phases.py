#!/usr/bin/env python
"""The paper's producer/consumer experiment (Figs. 5 and 6).

16 producer/consumer pairs communicate through shared vectors; the pairing
alternates between neighbouring threads (phase 1) and distant threads
(phase 2).  SPCD must detect each phase's pattern and follow the change.

The script reproduces Fig. 6: the per-phase detected matrices (a, b), a
transition matrix (c) and the overall blended matrix (d), rendered as ASCII
heatmaps and written as PGM images next to this script.
"""

from pathlib import Path

import numpy as np

from repro import EngineConfig, ProducerConsumerWorkload, Simulator
from repro.analysis.heatmap import heatmap_ascii, heatmap_pgm
from repro.units import MSEC
from repro.workloads.patterns import distant_pairs_pattern, neighbor_pairs_pattern
from repro.workloads.producer_consumer import phase_intervals

OUT_DIR = Path(__file__).parent / "out"
PHASE_NS = 400 * MSEC


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    workload = ProducerConsumerWorkload(phase_period_ns=PHASE_NS)
    sim = Simulator(workload, "spcd", seed=5, config=EngineConfig(batch_size=256, steps=300))

    snapshots = []

    def snapshot(s, step, now):
        if step % 10 == 9:
            snapshots.append((now, s.manager.detector.snapshot_matrix()))

    result = sim.run(snapshot)
    print(f"run finished: {result.exec_time_s:.3f}s virtual, "
          f"{result.migrations} migrations, "
          f"{sim.manager.detector.stats.comm_events} communication events")

    # Classify intervals by the phase active during them.
    intervals = phase_intervals(workload, snapshots)
    overall = snapshots[-1][1]

    figures = [
        ("fig6a_phase1", "Fig. 6a — phase 1 (neighbours)", intervals["phase1"]),
        ("fig6b_phase2", "Fig. 6b — phase 2 (distant)", intervals["phase2"]),
        ("fig6c_transition", "Fig. 6c — transition", intervals["transition"]),
        ("fig6d_overall", "Fig. 6d — overall", overall),
    ]
    n = workload.n_threads
    iu = np.triu_indices(n, 1)
    for stem, title, matrix in figures:
        if matrix is None:
            print(f"{title}: (no interval captured)")
            continue
        print()
        print(heatmap_ascii(matrix, title=title))
        path = heatmap_pgm(matrix, OUT_DIR / f"{stem}.pgm")
        vec = matrix.matrix[iu]
        c_nb = np.corrcoef(vec, neighbor_pairs_pattern(n)[iu])[0, 1]
        c_ds = np.corrcoef(vec, distant_pairs_pattern(n)[iu])[0, 1]
        print(f"  correlation with neighbour pattern: {c_nb:+.2f}, "
              f"with distant pattern: {c_ds:+.2f}  -> {path}")


if __name__ == "__main__":
    main()
