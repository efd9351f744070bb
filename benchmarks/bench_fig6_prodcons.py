"""E2 — Fig. 6: producer/consumer communication matrices.

Runs the two-phase producer/consumer benchmark under SPCD and extracts the
four matrices of the paper's Fig. 6: phase 1, phase 2, a transition
interval, and the overall pattern.  Writes ASCII + PGM heatmaps and checks
the headline claim — SPCD detects the dynamic behaviour, while the overall
(static) view blurs both phases together.
"""

import numpy as np
from conftest import emit, engine_config

from repro.analysis.heatmap import heatmap_ascii, heatmap_pgm
from repro.engine.simulator import Simulator
from repro.units import MSEC
from repro.workloads.patterns import distant_pairs_pattern, neighbor_pairs_pattern
from repro.workloads.producer_consumer import ProducerConsumerWorkload, phase_intervals

PHASE_NS = 400 * MSEC


def run_experiment():
    workload = ProducerConsumerWorkload(phase_period_ns=PHASE_NS)
    sim = Simulator(workload, "spcd", seed=5, config=engine_config(steps=320))
    snapshots = []

    def capture(s, step, now):
        if step % 10 == 9:
            snapshots.append((now, s.manager.detector.snapshot_matrix()))

    result = sim.run(capture)

    intervals = phase_intervals(workload, snapshots)
    intervals["overall"] = snapshots[-1][1]
    return workload, result, intervals


def test_fig6_producer_consumer_matrices(benchmark, results_dir):
    workload, result, intervals = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    n = workload.n_threads
    iu = np.triu_indices(n, 1)
    neighbor = neighbor_pairs_pattern(n)[iu]
    distant = distant_pairs_pattern(n)[iu]

    lines = [f"Fig. 6 — producer/consumer, {result.migrations} migrations"]
    corr = {}
    for key, label in (
        ("phase1", "a: phase 1"),
        ("phase2", "b: phase 2"),
        ("transition", "c: transition"),
        ("overall", "d: overall"),
    ):
        matrix = intervals[key]
        assert matrix is not None, f"no interval captured for {key}"
        vec = matrix.matrix[iu]
        c_nb = float(np.corrcoef(vec, neighbor)[0, 1])
        c_ds = float(np.corrcoef(vec, distant)[0, 1])
        corr[key] = (c_nb, c_ds)
        heatmap_pgm(matrix, results_dir / f"fig6{label[0]}_{key}.pgm")
        lines.append(f"\n{heatmap_ascii(matrix, title=f'Fig. 6{label}')}")
        lines.append(f"corr(neighbour)={c_nb:+.2f} corr(distant)={c_ds:+.2f}")
    # Shape checks (the paper's qualitative claims): 6a shows the neighbour
    # pattern, 6b the distant one, 6c and 6d traces of both phases.
    (p1_nb, p1_ds), (p2_nb, p2_ds), (tr_nb, tr_ds), (all_nb, all_ds) = (
        corr[key] for key in ("phase1", "phase2", "transition", "overall")
    )
    checks = [
        (f"6a: phase 1 corr(neighbour) {p1_nb:+.2f} > corr(distant) {p1_ds:+.2f}",
         p1_nb > p1_ds),
        (f"6b: phase 2 corr(distant) {p2_ds:+.2f} > corr(neighbour) {p2_nb:+.2f}",
         p2_ds > p2_nb),
        (f"6c: transition corr(neighbour) {tr_nb:+.2f} and corr(distant) {tr_ds:+.2f} > 0",
         tr_nb > 0 and tr_ds > 0),
        (f"6d: overall corr(neighbour) {all_nb:+.2f} and corr(distant) {all_ds:+.2f} > 0.15",
         all_nb > 0.15 and all_ds > 0.15),
    ]
    emit(
        results_dir, "fig6_prodcons.txt", "\n".join(lines), checks=checks,
        config=f"producer/consumer, phase {PHASE_NS // MSEC} ms, spcd, seed 5, steps=320",
    )
