"""E7 — Fig. 11: cache-to-cache transactions normalised to the OS scheduler.

The paper's strongest effect: communication-aware mapping removes up to 76%
of cache-to-cache transactions for SP, while homogeneous benchmarks are
unaffected (EP/FT even increase slightly from residual migrations).
"""

from conftest import BENCH_SET, emit

from repro.analysis.report import format_figure_table, format_table


def test_fig11_cache_to_cache(benchmark, suite, results_dir):
    series = benchmark.pedantic(
        lambda: suite.normalized_series("c2c_transactions"), rounds=1, iterations=1
    )
    text = format_figure_table(
        series, title="Fig. 11 — cache-to-cache transactions (normalised to OS)"
    )
    abs_rows = [
        [b, int(suite.metric_stats(b, "os", "c2c_transactions").mean),
         int(suite.metric_stats(b, "spcd", "c2c_transactions").mean)]
        for b in BENCH_SET
    ]
    text += "\n\n" + format_table(
        ["bench", "OS (abs)", "SPCD (abs)"], abs_rows, title="absolute transaction counts"
    )
    # Shape: oracle cuts c2c hard for every chain benchmark — and harder
    # than it cuts execution time (the paper's Fig. 8 vs Fig. 11 contrast).
    checks = []
    for bench in ("BT", "LU", "SP", "UA"):
        if bench in series:
            oracle = series[bench]["oracle"]
            time_oracle = suite.normalized_series("exec_time_s")[bench]["oracle"]
            checks.append((f"{bench} oracle {oracle:.3f} < 0.6", oracle < 0.6))
            checks.append((
                f"{bench} oracle {oracle:.3f} < its exec-time ratio {time_oracle:.3f}",
                oracle < time_oracle,
            ))
    # Homogeneous benchmarks see no oracle reduction.
    for bench in ("EP", "FT", "IS"):
        if bench in series:
            oracle = series[bench]["oracle"]
            checks.append((f"{bench} oracle {oracle:.3f} > 0.9", oracle > 0.9))
    emit(results_dir, "fig11_c2c.txt", text, checks=checks)
