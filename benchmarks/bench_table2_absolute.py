"""E13 — Table II: absolute results of the SPCD mechanism.

For every benchmark: classification, execution time, L2/L3 MPKI,
cache-to-cache transactions, energies, number of migrations and the
detection/mapping overheads — with the relative difference to the OS
baseline in parentheses, exactly the paper's layout.
"""

from conftest import BENCH_SET, emit

from repro.analysis.report import format_table
from repro.workloads.npb import NPB_SPECS

METRICS = (
    ("exec_time_s", "Execution time (s)", "{:.3f}"),
    ("l2_mpki", "L2 cache MPKI", "{:.2f}"),
    ("l3_mpki", "L3 cache MPKI", "{:.2f}"),
    ("c2c_transactions", "Cache-to-cache transactions", "{:.0f}"),
    ("proc_energy_j", "Total processor energy (J)", "{:.2f}"),
    ("dram_energy_j", "Total DRAM energy (J)", "{:.3f}"),
    ("proc_epi_nj", "Proc. energy per inst. (nJ)", "{:.3f}"),
    ("dram_epi_nj", "DRAM energy per inst. (nJ)", "{:.4f}"),
)


def test_table2_absolute_results(benchmark, suite, results_dir):
    def collect():
        header = ["parameter"] + list(BENCH_SET)
        rows = [["Communication pattern"] + [
            NPB_SPECS[b].classification[:6] for b in BENCH_SET
        ]]
        for metric, label, fmt in METRICS:
            row = [label]
            for bench in BENCH_SET:
                spcd = suite.metric_stats(bench, "spcd", metric).mean
                base = suite.metric_stats(bench, "os", metric).mean
                delta = 100.0 * (spcd / base - 1.0) if base else 0.0
                row.append(f"{fmt.format(spcd)} ({delta:+.1f}%)")
            rows.append(row)
        rows.append(
            ["Number of migrations"]
            + [f"{suite.metric_stats(b, 'spcd', 'migrations').mean:.0f}" for b in BENCH_SET]
        )
        rows.append(
            ["Detection overhead"]
            + [f"{suite.metric_stats(b, 'spcd', 'detection_pct').mean:.2f}%" for b in BENCH_SET]
        )
        rows.append(
            ["Mapping overhead"]
            + [f"{suite.metric_stats(b, 'spcd', 'mapping_pct').mean:.2f}%" for b in BENCH_SET]
        )
        return header, rows

    header, rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    # Migrations stay in the paper's range (0..6 per benchmark).
    migration_row = rows[-3]
    checks = [
        (f"{bench} migrations {value} in [0, 6]", 0 <= float(value) <= 6)
        for bench, value in zip(header[1:], migration_row[1:])
    ]
    emit(
        results_dir,
        "table2_absolute.txt",
        format_table(header, rows, title="Table II — absolute SPCD results"),
        checks=checks,
    )
