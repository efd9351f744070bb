"""E6 — Fig. 10: L3 cache MPKI normalised to the OS scheduler."""

from conftest import emit

from repro.analysis.report import format_figure_table


def test_fig10_l3_mpki(benchmark, suite, results_dir):
    series = benchmark.pedantic(
        lambda: suite.normalized_series("l3_mpki"), rounds=1, iterations=1
    )
    # Paper: L3 misses fall sharply for the communication-heavy chains when
    # mapped by the oracle (SP: -63%), and barely move for homogeneous apps.
    checks = []
    if "SP" in series:
        oracle = series["SP"]["oracle"]
        checks.append((f"SP oracle {oracle:.3f} < 0.97", oracle < 0.97))
    for bench in ("EP", "FT", "IS"):
        if bench in series:
            oracle = series[bench]["oracle"]
            checks.append(
                (f"{bench} oracle {oracle:.3f} within 0.06 of 1", abs(oracle - 1.0) < 0.06)
            )
    emit(
        results_dir,
        "fig10_l3_mpki.txt",
        format_figure_table(series, title="Fig. 10 — L3 MPKI (normalised to OS)"),
        checks=checks,
    )
