"""E1 — Table I: configuration of the simulated machine and SPCD.

Regenerates the paper's Table I from the actual model objects, so the table
always reflects what the simulator runs.
"""

from conftest import emit

from repro.analysis.report import format_table
from repro.core.manager import SpcdConfig
from repro.machine import dual_xeon_e5_2650
from repro.units import KIB, MIB


def build_table() -> str:
    machine = dual_xeon_e5_2650()
    spcd = SpcdConfig()
    rows = [
        ["Processor model", machine.name + f", {machine.frequency_ghz} GHz"],
        ["Cores per processor", f"{machine.cores_per_socket}, {machine.smt_per_core}-way SMT"],
        ["Total hardware threads", machine.n_pus],
        ["L1 cache per core", f"{machine.l1_params.size // KIB} KiB data"],
        ["L2 cache per core", f"{machine.l2_params.size // KIB} KiB"],
        ["L3 cache per processor", f"{machine.l3_params.size // MIB} MiB"],
        ["Total memory", f"{machine.n_numa_nodes * machine.memory_per_node // (1024 ** 3)} GiB"],
        ["NUMA nodes", machine.n_numa_nodes],
        ["Page size", "4 KiB"],
        ["SPCD granularity", f"{spcd.granularity // KIB} KiB"],
        ["SPCD injector period", f"{spcd.injector_period_ns / 1e6:.0f} ms"],
        ["SPCD target extra-fault ratio", f"{spcd.injector_ratio:.0%}"],
        ["SPCD hash table size", f"{spcd.table_size:,} elements"],
    ]
    return format_table(["parameter", "value"], rows, title="Table I — configuration")


def test_table1_configuration(benchmark, results_dir):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    value = dict(
        (cell.strip() for cell in line.split("|"))
        for line in table.splitlines() if line.count("|") == 1
    )
    # the paper's Table I values
    checks = [
        (f"SPCD hash table size {value['SPCD hash table size']} == 256,000 elements",
         value["SPCD hash table size"] == "256,000 elements"),
        (f"total hardware threads {value['Total hardware threads']} == 32",
         value["Total hardware threads"] == "32"),
    ]
    emit(
        results_dir, "table1_config.txt", table,
        checks=checks, config="dual_xeon_e5_2650, SpcdConfig defaults",
    )
