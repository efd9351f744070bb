"""E8 — Fig. 12: total processor energy normalised to the OS scheduler."""

from conftest import emit

from repro.analysis.report import format_figure_table


def test_fig12_processor_energy(benchmark, suite, results_dir):
    series = benchmark.pedantic(
        lambda: suite.normalized_series("proc_energy_j"), rounds=1, iterations=1
    )
    # Processor energy is dominated by static power x time, so it tracks
    # Fig. 8: oracle saves energy on the chains, nothing on homogeneous apps.
    time_series = suite.normalized_series("exec_time_s")
    checks = []
    for bench, per_policy in series.items():
        oracle, time_oracle = per_policy["oracle"], time_series[bench]["oracle"]
        checks.append((
            f"{bench} oracle {oracle:.3f} within 0.1 of its exec-time ratio {time_oracle:.3f}",
            abs(oracle - time_oracle) < 0.1,
        ))
    for bench in ("BT", "LU", "SP", "UA"):
        if bench in series:
            oracle = series[bench]["oracle"]
            checks.append((f"{bench} oracle {oracle:.3f} < 0.99", oracle < 0.99))
    emit(
        results_dir,
        "fig12_proc_energy.txt",
        format_figure_table(series, title="Fig. 12 — total processor energy (normalised to OS)"),
        checks=checks,
    )
