"""E12 — Fig. 16: overhead of SPCD and the mapping mechanism.

Per benchmark: the virtual time spent in detection (fault hook + injection
walks) and in mapping (matrix analysis, matching, migrations), as a
percentage of total execution time — the paper reports <1.5% and <0.5%.
"""

from conftest import BENCH_SET, emit

from repro.analysis.report import format_table


def test_fig16_spcd_overhead(benchmark, suite, results_dir):
    def collect():
        rows = []
        for bench in BENCH_SET:
            det = suite.metric_stats(bench, "spcd", "detection_pct").mean
            mapping = suite.metric_stats(bench, "spcd", "mapping_pct").mean
            rows.append([bench, f"{det:.2f}%", f"{mapping:.2f}%", f"{det + mapping:.2f}%"])
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    # Paper Sec. V-F: detection < 1.5%, mapping < 0.5%, total < 2%.
    checks = []
    for bench, det, mapping, total in rows:
        checks.append((f"{bench} detection {det} < 2.0%", float(det[:-1]) < 2.0))
        checks.append((f"{bench} mapping {mapping} < 1.0%", float(mapping[:-1]) < 1.0))
        checks.append((f"{bench} total {total} < 2.5%", float(total[:-1]) < 2.5))
    emit(
        results_dir,
        "fig16_overhead.txt",
        format_table(
            ["bench", "detection", "mapping", "total"],
            rows,
            title="Fig. 16 — SPCD overhead (% of execution time)",
        ),
        checks=checks,
    )
