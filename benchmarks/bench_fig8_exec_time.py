"""E4 — Fig. 8: execution time normalised to the OS scheduler.

Reproduces the paper's headline figure: per benchmark, one bar per mapping
policy (OS / random / oracle / SPCD), normalised to the OS baseline, with
95% confidence intervals over the repetitions.
"""

from conftest import BENCH_SET, POLICIES, emit

from repro.analysis.report import format_figure_table, format_table


def shape_checks(series: dict) -> "list[tuple[str, bool]]":
    """The paper's qualitative Fig. 8 shapes, as ``(check, held)`` pairs,
    for the benchmarks present in *series*."""
    checks = []
    # the oracle improves every heterogeneous chain benchmark...
    for bench in ("BT", "LU", "SP", "UA"):
        if bench in series:
            oracle = series[bench]["oracle"]
            checks.append((f"{bench} oracle {oracle:.3f} < 0.98", oracle < 0.98))
    # ...and does nothing for the homogeneous ones.
    for bench in ("EP", "FT", "IS"):
        if bench in series:
            oracle = series[bench]["oracle"]
            checks.append(
                (f"{bench} oracle {oracle:.3f} within 0.05 of 1", abs(oracle - 1.0) < 0.05)
            )
    # SP shows the largest oracle gain (it communicates the most).
    if {"SP", "MG"} <= set(series):
        sp, mg = series["SP"]["oracle"], series["MG"]["oracle"]
        checks.append((f"SP oracle {sp:.3f} < MG oracle {mg:.3f}", sp < mg))
    # SPCD tracks the oracle's direction: best on SP, no gain on EP/FT/IS.
    if "SP" in series:
        spcd = series["SP"]["spcd"]
        checks.append((f"SP spcd {spcd:.3f} < 1.02", spcd < 1.02))
    for bench in ("EP", "FT", "IS"):
        if bench in series:
            spcd = series[bench]["spcd"]
            checks.append((f"{bench} spcd {spcd:.3f} in (0.97, 1.10)", 0.97 < spcd < 1.10))
    return checks


def test_fig8_execution_time(benchmark, suite, results_dir):
    series = benchmark.pedantic(
        lambda: suite.normalized_series("exec_time_s"), rounds=1, iterations=1
    )
    text = format_figure_table(series, title="Fig. 8 — execution time (normalised to OS)")
    ci_rows = [
        [b] + [
            f"{suite.metric_stats(b, p, 'exec_time_s').mean:.3f}"
            f"±{suite.metric_stats(b, p, 'exec_time_s').ci95:.3f}"
            for p in POLICIES
        ]
        for b in BENCH_SET
    ]
    text += "\n\n" + format_table(
        ["bench"] + [p.upper() for p in POLICIES], ci_rows,
        title="absolute seconds (mean ± 95% CI)",
    )
    emit(results_dir, "fig8_exec_time.txt", text, checks=shape_checks(series))
