"""E5 — Fig. 9: L2 cache MPKI normalised to the OS scheduler."""

from conftest import emit

from repro.analysis.report import format_figure_table


def test_fig9_l2_mpki(benchmark, suite, results_dir):
    series = benchmark.pedantic(
        lambda: suite.normalized_series("l2_mpki"), rounds=1, iterations=1
    )
    # The paper's L2 effects are small (private caches, placement-neutral
    # private traffic): every ratio stays within a modest band.
    checks = [
        (f"{bench} {policy} {value:.3f} in (0.7, 1.3)", 0.7 < value < 1.3)
        for bench, per_policy in series.items()
        for policy, value in per_policy.items()
    ]
    emit(
        results_dir,
        "fig9_l2_mpki.txt",
        format_figure_table(series, title="Fig. 9 — L2 MPKI (normalised to OS)"),
        checks=checks,
    )
