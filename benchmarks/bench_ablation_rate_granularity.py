"""E14 — ablation: extra-fault rate and granularity vs. accuracy/overhead.

Sec. III-C3: "The accuracy of the detected communication pattern is
determined by two factors, the rate at which additional page faults are
created and the granularity".  This sweep quantifies both on SP, plus the
paper-literal CUMULATIVE 10% controller and the uniform-sampling variant.
"""

from conftest import emit, engine_config

from repro.analysis.report import format_table
from repro.core.injector import InjectorMode
from repro.core.manager import SpcdConfig
from repro.engine.simulator import Simulator
from repro.units import KIB
from repro.workloads.npb import make_npb


STEPS = 150
SEED = 9
CONFIG = f"SP, spcd, steps={STEPS}, seed={SEED}"


def run_one(spcd_config: SpcdConfig):
    sim = Simulator(
        make_npb("SP"), "spcd", seed=SEED,
        config=engine_config(steps=STEPS), spcd_config=spcd_config,
    )
    res = sim.run()
    corr = res.detected_matrix.correlation(sim.workload.ground_truth())
    return corr, res.detection_pct, res.injected_faults


def test_ablation_injection_rate(benchmark, results_dir):
    def sweep():
        rows = []
        for floor in (32, 128, 256, 512):
            corr, ovh, injected = run_one(SpcdConfig(injector_floor=floor))
            rows.append([f"steady/{floor}", f"{corr:.3f}", f"{ovh:.2f}%", injected])
        corr, ovh, injected = run_one(
            SpcdConfig(injector_mode=InjectorMode.CUMULATIVE)
        )
        rows.append(["cumulative 10% (paper)", f"{corr:.3f}", f"{ovh:.2f}%", injected])
        corr, ovh, injected = run_one(SpcdConfig(injector_sampling="uniform"))
        rows.append(["uniform sampling", f"{corr:.3f}", f"{ovh:.2f}%", injected])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # More injection -> more accuracy and more overhead (monotone trend on
    # the steady rows).
    first, last = rows[0], rows[3]
    checks = [
        (f"{last[0]} corr {last[1]} >= {first[0]} corr {first[1]}",
         float(last[1]) >= float(first[1])),
        (f"{last[0]} ovh {last[2]} >= {first[0]} ovh {first[2]}",
         float(last[2][:-1]) >= float(first[2][:-1])),
    ]
    emit(
        results_dir,
        "ablation_rate.txt",
        format_table(
            ["injector", "pattern corr", "detect ovh", "injected faults"],
            rows,
            title="Ablation — additional page-fault rate (SP)",
        ),
        checks=checks,
        config=CONFIG,
    )


def test_ablation_granularity(benchmark, results_dir):
    def sweep():
        rows = []
        for gran in (1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB):
            corr, ovh, _ = run_one(SpcdConfig(granularity=gran))
            rows.append([f"{gran // KIB} KiB", f"{corr:.3f}", f"{ovh:.2f}%"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # The 4 KiB page granularity the paper chose detects the chain well.
    checks = [(f"4 KiB corr {rows[1][1]} > 0.8", float(rows[1][1]) > 0.8)]
    emit(
        results_dir,
        "ablation_granularity.txt",
        format_table(
            ["granularity", "pattern corr", "detect ovh"],
            rows,
            title="Ablation — detection granularity (SP)",
        ),
        checks=checks,
        config=CONFIG,
    )
