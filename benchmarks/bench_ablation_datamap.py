"""E17 — extension: SPCD-driven data mapping (paper Sec. IV, future work).

The paper notes its mechanisms "can be used to perform data mapping as
well".  This bench runs SP with parallel first-touch (where thread
migration strands memory on the wrong NUMA node) and compares the
thread-only ``spcd`` policy against ``spcd-combined``, which co-decides
page migrations with every thread-mapping evaluation: the data mapper
should re-home stranded pages and cut remote DRAM reads.
"""

from conftest import emit, engine_config

from repro.analysis.report import format_table
from repro.engine.simulator import Simulator
from repro.workloads.npb import make_npb

POLICIES = {"spcd": "thread only", "spcd-combined": "thread+data"}
STEPS = 250
SEEDS = (21, 22)


def run_one(policy: str, seed: int):
    cfg = engine_config(steps=STEPS, pretouch="parallel")
    sim = Simulator(make_npb("SP"), policy, seed=seed, config=cfg)
    res = sim.run()
    data_mapper = sim.manager.data_mapper
    moved = data_mapper.stats.pages_migrated if data_mapper is not None else 0
    return res, moved


def test_ablation_data_mapping(benchmark, results_dir):
    def sweep():
        rows = []
        for policy, label in POLICIES.items():
            remote = local = time = moved_total = 0
            reps = len(SEEDS)
            for seed in SEEDS:
                res, moved = run_one(policy, seed)
                remote += res.stats.dram_reads_remote / reps
                local += res.stats.dram_reads_local / reps
                time += res.exec_time_s / reps
                moved_total += moved / reps
            share = remote / (remote + local) if remote + local else 0.0
            rows.append(
                [
                    label,
                    f"{time:.3f}",
                    int(remote),
                    f"{share:.1%}",
                    int(moved_total),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    thread_only, thread_data = rows
    checks = [
        (f"thread+data migrated {thread_data[4]} pages > 0", thread_data[4] > 0),
        (f"thread+data remote reads {thread_data[2]} <= 1.05 x thread only "
         f"{thread_only[2]}", thread_data[2] <= thread_only[2] * 1.05),
    ]
    emit(
        results_dir,
        "ablation_datamap.txt",
        format_table(
            ["SPCD mode", "time (s)", "remote DRAM reads", "remote share", "pages migrated"],
            rows,
            title="Extension — SPCD data mapping (SP, parallel first-touch)",
        ),
        checks=checks,
        config=f"SP, steps={STEPS}, pretouch=parallel, seeds={','.join(map(str, SEEDS))}",
    )
