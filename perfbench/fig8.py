"""The ``fig8-sp`` workload: the paper's Fig. 8 SP cell, os then spcd.

One *pair* builds both :class:`~repro.engine.simulator.Simulator` objects
(workload setup, serial pretouch, SPCD attach — the set-up time) and runs
the ``os`` cell and then the ``spcd`` cell for :data:`STEPS` steps on the
32-PU ``dual_xeon_e5_2650`` model.  A run alternates pairs of two inputs
until its time is spent, and every pair must reproduce the digests
recorded in ``digests.json`` for its input seed.

A :func:`hostspeed.probe` is timed after every step and around every
set-up, outside the step and set-up times, so both can be expressed in
reference seconds (see :mod:`hostspeed`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from time import perf_counter

import hostspeed
from repro.engine.simulator import EngineConfig, SimulationResult, Simulator
from repro.machine.topology import dual_xeon_e5_2650
from repro.workloads.npb import make_npb

#: simulated steps per cell; 200 is long enough for SPCD's one remap to pay
#: off (the spcd/os ratio is below 1 from here on)
STEPS = 200
BATCH = 256
POLICIES = ("os", "spcd")
#: set-up samples taken per run (extra builds when fewer pairs ran)
SETUP_SAMPLES = 9
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def result_digest(result: SimulationResult) -> str:
    """Content hash of everything deterministic a run produces."""
    stats = dataclasses.astuple(result.stats)
    metrics = tuple(
        result.metric(m)
        for m in (
            "exec_time_s",
            "instructions",
            "l2_mpki",
            "l3_mpki",
            "c2c_transactions",
            "c2c_inter",
            "invalidations",
            "migrations",
            "first_touch_faults",
            "injected_faults",
        )
    )
    return hashlib.sha256(repr((stats, metrics)).encode()).hexdigest()[:16]


def recorded_digests() -> dict:
    """``{"steps": ..., "seeds": {seed: {policy: digest}}}``."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def input_seed(seed: int) -> int:
    """The simulator seed a benchmark seed selects: one of the recorded ones."""
    return seed % len(recorded_digests()["seeds"])


def build_pair(seed: int, steps: int) -> "tuple[list[Simulator], float, float]":
    """Both cells' simulators, and the host and reference seconds it took
    to build them."""
    config = EngineConfig(steps=steps, batch_size=BATCH)
    before = hostspeed.probes()
    t0 = perf_counter()
    sims = [
        Simulator(
            make_npb("SP"), policy, machine=dual_xeon_e5_2650(), seed=seed, config=config
        )
        for policy in POLICIES
    ]
    setup_s = perf_counter() - t0
    return sims, setup_s, hostspeed.to_ref(setup_s, before + hostspeed.probes())


@dataclasses.dataclass
class PairRun:
    """One os+spcd pair: results, host time of its steps, step times and
    the probe time taken right after each step."""

    results: "list[SimulationResult]"
    run_s: float
    step_s: "list[float]"
    probe_s: "list[float]"
    #: SPCD detector/evaluator counters of the spcd cell
    comm_events: int
    evaluations: int

    @property
    def accesses(self) -> int:
        return sum(r.perf.accesses for r in self.results)

    @property
    def ref_s(self) -> float:
        """The steps' host time in reference seconds."""
        return hostspeed.ref_seconds(self.step_s, self.probe_s)

    @property
    def exec_ratio(self) -> float:
        os_result, spcd_result = self.results
        return spcd_result.exec_time_s / os_result.exec_time_s


def run_pair(sims: "list[Simulator]") -> PairRun:
    """Run the os cell, then the spcd cell, timing every step and a probe
    after it (the probe is not part of the step's time)."""
    results = []
    step_s: list[float] = []
    probe_s: list[float] = []
    started = [0.0]

    def after_step(_sim, _step, _now) -> None:
        step_s.append(perf_counter() - started[0])
        probe_s.append(hostspeed.probe())
        started[0] = perf_counter()

    for sim in sims:
        started[0] = perf_counter()
        results.append(sim.run(after_step))
    manager = sims[-1].manager
    return PairRun(
        results=results,
        run_s=sum(step_s),
        step_s=step_s,
        probe_s=probe_s,
        comm_events=int(manager.detector.stats.comm_events),
        evaluations=int(manager.overheads.filter_evaluations),
    )


def check_pair(pair: PairRun, seed: int, steps: int) -> "list[str]":
    """Digest mismatches against the recorded digests (empty when correct)."""
    record = recorded_digests()
    if steps != record["steps"]:
        return []
    expected = record["seeds"][str(seed)]
    problems = []
    for policy, result in zip(POLICIES, pair.results):
        got = result_digest(result)
        if got != expected[policy]:
            problems.append(
                f"fig8-sp seed {seed} {policy}: digest {got} != recorded {expected[policy]}"
            )
    return problems


def warm_up() -> None:
    """Untimed: import paths, numpy kernels and allocator pools get going."""
    sims, _, _ = build_pair(seed=0, steps=3)
    run_pair(sims)


def run_fig8(
    seed: int,
    seconds: float,
    steps: int = STEPS,
    *,
    warm: bool = True,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Run os+spcd pairs for *seconds*, alternating two recorded inputs.

    The inputs are ``seed`` and ``seed + 1`` (as :func:`input_seed` maps
    them); at least one pair of each runs, and repetitions must reproduce
    the same digests.  ``seconds=0`` runs exactly one pair of each.
    """
    if warm:
        warm_up()
    seeds = [input_seed(seed), input_seed(seed + 1)]
    pairs: list[PairRun] = []
    setups: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while len(pairs) < len(seeds) or perf_counter() < deadline:
        pair_seed = seeds[len(pairs) % len(seeds)]
        sims, _, setup_ref_s = build_pair(pair_seed, steps)
        setups.append(setup_ref_s)
        attempted += len(POLICIES)
        try:
            pair = run_pair(sims)
        except Exception as exc:  # noqa: BLE001 - a raised cell is a failed op
            failed += len(POLICIES)
            problems.append(f"fig8-sp cell raised {type(exc).__name__}: {exc}")
            break
        problems += check_pair(pair, pair_seed, steps)
        if len(pairs) >= len(seeds):
            first = pairs[len(pairs) % len(seeds)]
            if [result_digest(r) for r in first.results] != [
                result_digest(r) for r in pair.results
            ]:
                problems.append(f"fig8-sp seed {pair_seed}: a repeated pair differs")
        pairs.append(pair)
    while len(setups) < setup_samples:
        setups.append(build_pair(seeds[0], steps)[2])
    return {
        "seeds": seeds,
        "pairs": pairs,
        "setup_s": setups,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }
