"""E3 — Fig. 7: communication matrices of the NAS benchmarks.

Takes the detected matrix of each benchmark's SPCD run from the shared
suite, renders the heatmaps (the paper's Fig. 7), classifies each pattern as
heterogeneous or homogeneous, and verifies the classification matches the
paper's (Table II row 1).
"""

from conftest import BENCH_SET, emit

from repro.analysis.heatmap import heatmap_ascii, heatmap_pgm
from repro.analysis.report import format_table
from repro.workloads.npb import NPB_SPECS

#: heterogeneity threshold separating the two classes (CV of the cells)
HETERO_CV = 1.0


def test_fig7_nas_communication_patterns(benchmark, suite, results_dir):
    def collect():
        rows = []
        for bench in BENCH_SET:
            sim = suite.simulator(bench, "spcd", 0)
            res = suite.run(bench, "spcd", 0)
            det = res.detected_matrix
            corr = det.correlation(sim.workload.ground_truth())
            cv = det.heterogeneity()
            detected_class = "heterogeneous" if cv > HETERO_CV else "homogeneous"
            rows.append((bench, det, corr, cv, detected_class))
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    lines = ["Fig. 7 — NAS communication matrices (SPCD-detected)"]
    table_rows = []
    for bench, det, corr, cv, detected_class in rows:
        heatmap_pgm(det, results_dir / f"fig7_{bench}.pgm")
        lines.append("")
        lines.append(heatmap_ascii(det, title=f"{bench} (corr vs truth: {corr:.2f})"))
        table_rows.append(
            [bench, f"{corr:.3f}", f"{cv:.2f}", detected_class,
             NPB_SPECS[bench].classification]
        )
    lines.append("")
    lines.append(
        format_table(
            ["bench", "corr vs truth", "heterogeneity", "detected class", "paper class"],
            table_rows,
            title="Pattern classification",
        )
    )
    # Shape checks: detected classes match the paper for the clear-cut
    # cases, and chains are detected accurately.
    by_bench = {r[0]: r for r in rows}
    checks = []
    for bench in ("BT", "LU", "SP", "UA", "MG"):
        if bench in by_bench:
            _, _, corr, cv, detected_class = by_bench[bench]
            checks.append((
                f"{bench} detected {detected_class} (CV {cv:.2f}) is heterogeneous",
                detected_class == "heterogeneous",
            ))
            checks.append((f"{bench} corr vs truth {corr:.3f} > 0.8", corr > 0.8))
    for bench in ("FT", "IS", "EP"):
        if bench in by_bench:
            _, _, _, cv, detected_class = by_bench[bench]
            checks.append((
                f"{bench} detected {detected_class} (CV {cv:.2f}) is homogeneous",
                detected_class == "homogeneous",
            ))
    emit(results_dir, "fig7_nas_patterns.txt", "\n".join(lines), checks=checks)
