"""E11 — Fig. 15: DRAM energy per instruction normalised to the OS."""

from conftest import emit

from repro.analysis.report import format_figure_table


def test_fig15_dram_energy_per_instruction(benchmark, suite, results_dir):
    series = benchmark.pedantic(
        lambda: suite.normalized_series("dram_epi_nj"), rounds=1, iterations=1
    )
    checks = []
    for bench in ("BT", "LU", "SP", "UA"):
        if bench in series:
            oracle = series[bench]["oracle"]
            checks.append((f"{bench} oracle {oracle:.3f} < 1.0", oracle < 1.0))
    emit(
        results_dir,
        "fig15_dram_epi.txt",
        format_figure_table(
            series, title="Fig. 15 — DRAM energy per instruction (normalised to OS)"
        ),
        checks=checks,
    )
