"""E10 — Fig. 14: processor energy per instruction normalised to the OS."""

from conftest import emit

from repro.analysis.report import format_figure_table


def test_fig14_processor_energy_per_instruction(benchmark, suite, results_dir):
    series = benchmark.pedantic(
        lambda: suite.normalized_series("proc_epi_nj"), rounds=1, iterations=1
    )
    # Energy per instruction improves beyond pure time scaling for the
    # chains (the paper's "more efficient execution" claim): normalised EPI
    # correlates with normalised energy since instruction counts are fixed.
    energy = suite.normalized_series("proc_energy_j")
    checks = [
        (
            f"{bench} {policy} {value:.3f} within 0.02 of its energy ratio "
            f"{energy[bench][policy]:.3f}",
            abs(value - energy[bench][policy]) < 0.02,
        )
        for bench, per_policy in series.items()
        for policy, value in per_policy.items()
    ]
    emit(
        results_dir,
        "fig14_proc_epi.txt",
        format_figure_table(
            series, title="Fig. 14 — processor energy per instruction (normalised to OS)"
        ),
        checks=checks,
    )
