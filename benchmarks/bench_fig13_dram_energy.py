"""E9 — Fig. 13: total DRAM energy normalised to the OS scheduler."""

from conftest import emit

from repro.analysis.report import format_figure_table


def test_fig13_dram_energy(benchmark, suite, results_dir):
    series = benchmark.pedantic(
        lambda: suite.normalized_series("dram_energy_j"), rounds=1, iterations=1
    )
    # DRAM energy couples background power (time) with miss traffic; chain
    # benchmarks save energy under the oracle mapping, as in the paper.
    checks = []
    for bench in ("BT", "LU", "SP", "UA"):
        if bench in series:
            oracle = series[bench]["oracle"]
            checks.append((f"{bench} oracle {oracle:.3f} < 1.0", oracle < 1.0))
    for bench in ("EP", "FT", "IS"):
        if bench in series:
            oracle = series[bench]["oracle"]
            checks.append(
                (f"{bench} oracle {oracle:.3f} within 0.08 of 1", abs(oracle - 1.0) < 0.08)
            )
    emit(
        results_dir,
        "fig13_dram_energy.txt",
        format_figure_table(series, title="Fig. 13 — total DRAM energy (normalised to OS)"),
        checks=checks,
    )
