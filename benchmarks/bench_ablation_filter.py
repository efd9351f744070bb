"""E15 — ablation: the communication filter (Sec. IV-A).

Compares SPCD with the filter enabled (default) and disabled (the mapping
algorithm runs on every evaluation).  The filter exists to cut the number
of times the mapping algorithm is called; disabling it multiplies mapper
invocations without improving the final placement.
"""

from conftest import emit, engine_config

from repro.analysis.report import format_table
from repro.core.manager import SpcdConfig
from repro.engine.simulator import Simulator
from repro.workloads.npb import make_npb


STEPS = 200
SEED = 9


def run_one(bench: str, filter_enabled: bool):
    sim = Simulator(
        make_npb(bench), "spcd", seed=SEED,
        config=engine_config(steps=STEPS),
        spcd_config=SpcdConfig(filter_enabled=filter_enabled),
    )
    res = sim.run()
    return sim, res


def test_ablation_communication_filter(benchmark, results_dir):
    def sweep():
        rows = []
        for bench in ("SP", "FT"):
            for enabled in (True, False):
                sim, res = run_one(bench, enabled)
                rows.append(
                    [
                        bench,
                        "on" if enabled else "off",
                        sim.manager.overheads.mapper_calls,
                        res.migrations,
                        f"{res.exec_time_s:.3f}",
                        f"{res.mapping_pct:.2f}%",
                    ]
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # the filter exists to cut mapper calls
    by_key = {(r[0], r[1]): r for r in rows}
    checks = []
    for bench in ("SP", "FT"):
        calls_on = by_key[(bench, "on")][2]
        calls_off = by_key[(bench, "off")][2]
        checks.append(
            (f"{bench} mapper calls off {calls_off} > on {calls_on}", calls_off > calls_on)
        )
    emit(
        results_dir,
        "ablation_filter.txt",
        format_table(
            ["bench", "filter", "mapper calls", "migrations", "time (s)", "mapping ovh"],
            rows,
            title="Ablation — communication filter",
        ),
        checks=checks,
        config=f"spcd, steps={STEPS}, seed={SEED}",
    )
