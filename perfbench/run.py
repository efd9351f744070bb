"""The repository benchmark: one command for every workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig8-sp --seed 3 --seconds 30 --trace 0

``BENCHMARK.json`` lists the workloads that are measured on every change
(fig8-sp, serve-narrow); serve-wide runs with the same command by hand
(see ``spec.json`` for why).

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload untraced and then traced on the same
inputs, and reports the per-layer metrics from spans recorded around calls
into the ``repro`` modules' public functions (see ``layers.py``); the wall
clock of the two passes gives the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``.  Human-readable tables go to stdout first;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run that fails an output
check prints ``"correct": false`` and exits with code 1.

Every result is also written, with host metadata, to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json`` (spans of traced
runs beside it, as ``.npz``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin the BLAS/OpenMP pools before numpy loads, here and in the server
# process (it inherits the environment).  REPRO_* variables select slow
# reference engines or tracing; the benchmark measures the default program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(HERE), str(SRC)]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

from tracer import peak_rss_mb  # noqa: E402

WORKLOADS = ("fig8-sp", "serve-narrow", "serve-wide")


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and directions."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_metadata(seed: int) -> dict:
    """What a result needs to be compared with another host's."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def quantile(values, q: float) -> float:
    """The *q*-quantile (0..1) of *values*, linear interpolation."""
    import numpy

    return float(numpy.quantile(numpy.asarray(values, dtype=float), q))


# -- fig8-sp ------------------------------------------------------------------
def fig8_end_to_end(seed: int, seconds: float, steps: "int | None" = None) -> dict:
    """End-to-end metrics of the Fig. 8 SP cell, tracing off.

    Host time on a shared machine swings between speed levels for seconds
    to minutes at a time, so the throughput and the set-up time are taken
    in reference seconds (:mod:`hostspeed`): each step's host time scaled
    by the probes timed around it.
    """
    import fig8

    run = fig8.run_fig8(seed, seconds, **({} if steps is None else {"steps": steps}))
    pairs = run["pairs"]
    steps_ms = [s * 1e3 for p in pairs for s in p.step_s]
    accesses = sum(p.accesses for p in pairs)
    run_s = sum(p.run_s for p in pairs)
    ref_s = sum(p.ref_s for p in pairs)
    probe_ms = [s * 1e3 for p in pairs for s in p.probe_s]
    values = {
        "setup_s": statistics.median(run["setup_s"]),
        "throughput_per_s": accesses / ref_s,
        "spcd_ratio": statistics.mean(p.exec_ratio for p in pairs[: len(run["seeds"])]),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(run['setup_s'])} builds of both Simulators, reference s",
        "throughput_per_s": f"sim_accesses_per_s: {accesses} accesses / {ref_s:.3f} "
        f"reference s ({run_s:.3f} host s), {len(steps_ms)} steps",
        "spcd_ratio": "sim_exec_ratio: spcd / os exec_time_s (simulated), "
        f"mean over input seeds {run['seeds']}",
        "peak_rss_mb": "peak RSS of the simulator process",
    }
    also = {
        "sim_accesses_per_s_mean": (accesses / run_s, "1/s", f"{accesses} accesses / {run_s:.3f} s"),
        "sim_step_p50_ms": (quantile(steps_ms, 0.5), "ms", f"{len(steps_ms)} steps"),
        "sim_step_p95_ms": (quantile(steps_ms, 0.95), "ms", f"{len(steps_ms)} steps"),
        "probe_p50_ms": (quantile(probe_ms, 0.5), "ms", f"{len(probe_ms)} probes, one per step"),
    }
    by_pair = [
        {
            "input": input_seed,
            "host_s": p.run_s,
            "ref_s": p.ref_s,
            "probe_p50_ms": quantile(p.probe_s, 0.5) * 1e3,
        }
        for input_seed, p in zip(run["seeds"] * len(pairs), pairs)
    ]
    return {
        "values": values,
        "notes": notes,
        "also": also,
        "pairs": by_pair,
        "problems": run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
    }


def fig8_per_layer(seed: int, steps: "int | None" = None) -> dict:
    """Per-layer metrics of the Fig. 8 SP cell: one untraced, then one traced
    pair of each input (fixed work, whatever ``--seconds`` says)."""
    import fig8
    from layers import sim_targets
    from tracer import Tracer

    kw = {} if steps is None else {"steps": steps}
    base = fig8.run_fig8(seed, 0.0, setup_samples=0, **kw)
    tracer = Tracer()
    tracer.install(sim_targets())
    try:
        with tracer.span("bench.root"):
            traced = fig8.run_fig8(seed, 0.0, warm=False, setup_samples=0, **kw)
    finally:
        tracer.uninstall()
    pairs = traced["pairs"]
    results = [r for p in pairs for r in p.results]
    table = tracer.layer_table()
    # reference seconds, as for the throughput: robust to the host's slow spells
    base_ref_s = sum(p.ref_s for p in base["pairs"])
    traced_ref_s = sum(p.ref_s for p in pairs)
    counts = dict(tracer.counts)
    stats = [r.stats for r in results]
    counts.update(
        {
            "cachesim.l1_misses": sum(s.l1_misses for s in stats),
            "cachesim.l2_misses": sum(s.l2_misses for s in stats),
            "cachesim.l3_misses": sum(s.l3_misses for s in stats),
            "cachesim.c2c": sum(s.c2c_total for s in stats),
            "cachesim.invalidations": sum(s.invalidations for s in stats),
            "mem.faults.first_touch": sum(r.first_touch_faults for r in results),
            "mem.faults.injected": sum(r.injected_faults for r in results),
            "core.comm_events": sum(p.comm_events for p in pairs),
            "kernelsim.migrations": sum(r.os_migrations for r in results),
        }
    )
    evaluations = sum(p.evaluations for p in pairs)
    ratios = {
        "core.remap_ratio": sum(r.migrations for r in results) / evaluations,
        "bench.trace_overhead_frac": traced_ref_s / base_ref_s - 1.0,
    }
    print_cross_check(table, results)
    out_spans = OUT / f"fig8-sp-seed{seed}-spans.npz"
    tracer.write(out_spans)
    return {
        "table": table,
        "counts": counts,
        "ratios": ratios,
        "problems": base["problems"] + traced["problems"],
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "spans": out_spans,
    }


#: ``PerfCounters`` bucket -> the spans it should contain (the simulator
#: times each bucket around the same calls the wrappers time, so a bucket
#: is its spans plus the wrappers' own cost and a little code between)
CROSS_CHECK = {
    "hierarchy_s": ("cachesim.access_batch_pu",),
    "workload_s": ("workloads.generate",),
    "fault_s": ("mem.faulting_mask", "mem.handle_fault_batch"),
    "detect_s": ("core.on_fault_batch",),
    "spcd_s": ("kernelsim.tick", "kernelsim.on_quantum"),
    "match_s": ("core.map",),
}


def print_cross_check(table: dict, results: list) -> None:
    """Compare traced span totals with the ``SimulationResult.perf`` buckets."""
    print("  cross-check: PerfCounters bucket vs inclusive span time of its calls")
    for bucket, names in CROSS_CHECK.items():
        counter = sum(getattr(r.perf, bucket) for r in results)
        # pretouch faults happen while the Simulator is built, outside run()
        spans = sum(
            seconds
            for name in names
            for caller, seconds in table.get(name, {}).get("inclusive_by_caller", {}).items()
            if caller != "engine.setup"
        )
        gap = counter - spans
        if gap < -0.002:
            status = "DISAGREE: spans exceed the counter"
        elif gap > max(0.002, 0.15 * counter):
            status = "DISAGREE: over 15% of the bucket is outside the wrapped calls"
        else:
            status = "agree"
        print(
            f"    {bucket:<12} counter {counter:9.4f} s  spans {spans:9.4f} s  "
            f"gap {gap:+.4f} s  {status}"
        )


# -- serve --------------------------------------------------------------------
#: nominal seconds of closed-loop work in each pass of a traced run: the
#: same fixed work untraced and traced, so the two walls compare directly
TRACE_CLOSED_S = 4.0


#: share of ``--seconds`` that goes to the closed loop (the bounded
#: throughput); the open loop, whose latencies are only printed, gets the rest
CLOSED_SHARE = 0.7


def serve_end_to_end(
    name: str, seed: int, seconds: float, setup_samples: "int | None" = None
) -> dict:
    """End-to-end metrics of one serve workload, tracing off; the set-up
    time and the throughput are taken in reference seconds (:mod:`hostspeed`)."""
    import serve_load

    kwargs = {} if setup_samples is None else {"setup_samples": setup_samples}
    closed_s = CLOSED_SHARE * seconds
    run = serve_load.run_serve(name, seed, closed_s, seconds - closed_s, **kwargs)
    problems, attempted, failed = serve_load.check_sessions(name, run)
    events, wall, ref_s = run["closed_events"], run["closed_wall_s"], run["closed_ref_s"]
    ack_ms = [(t_ack - due) * 1e3 for t in run["sessions"]["open"] for t_ack, due, _ in t.acks]
    first_ratio = [
        t.mappings[0]["cost_new"] / t.mappings[0]["cost_now"]
        for phase in ("closed", "open")
        for t in run["sessions"][phase]
        if t.mappings and t.mappings[0]["cost_now"] > 0
    ]
    values = {
        "setup_s": statistics.median(run["setup_s"]),
        "throughput_per_s": events / ref_s,
        "spcd_ratio": statistics.mean(first_ratio),
        "peak_rss_mb": run["server"]["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(run['setup_s'])} server spawns until every HELLO "
        "is admitted, reference s",
        "throughput_per_s": f"serve_events_per_s: closed loop, {events} events credited "
        f"in {ref_s:.3f} reference s ({wall:.3f} host s)",
        "spcd_ratio": f"first remap's cost_new / cost_now, mean of {len(first_ratio)} sessions",
        "peak_rss_mb": "peak RSS of the server process",
    }
    rate = serve_load.WORKLOADS[name].offered_events_per_s
    n = f"{len(ack_ms)} batches, open loop at {rate:.0f} events/s"
    also = {
        "serve_ack_p50_ms": (quantile(ack_ms, 0.5), "ms", n),
        "serve_ack_p99_ms": (quantile(ack_ms, 0.99), "ms", n),
        "gen_lag_p99_ms": (quantile(run["gen_lag_s"], 0.99) * 1e3, "ms", n),
    }
    return {
        "values": values,
        "notes": notes,
        "also": also,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }


def serve_per_layer(
    name: str, seed: int, seconds: float, closed_s: float = TRACE_CLOSED_S
) -> dict:
    """Per-layer metrics of one serve workload: untraced, then traced server."""
    import serve_load
    from tracer import Tracer

    base = serve_load.run_serve(name, seed, closed_s, 0.0, setup_samples=1)
    tracer = Tracer()
    out_spans = OUT / f"{name}-seed{seed}-spans.npz"
    traced = serve_load.run_serve(
        name, seed, closed_s, seconds / 2, tracer=tracer, spans=out_spans, setup_samples=1
    )
    problems, attempted, failed = serve_load.check_sessions(name, base)
    more = serve_load.check_sessions(name, traced)
    server = traced["server"]
    table = tracer.layer_table()
    table.update(server["layers"])
    summaries = [
        t.summary for phase in ("closed", "open") for t in traced["sessions"][phase] if t.summary
    ]
    counts = dict(tracer.counts, **server["counts"])
    counts["serve.table.inserts"] = sum(s["inserts"] for s in summaries)
    counts["serve.table.collisions"] = sum(s["collisions"] for s in summaries)
    lags = traced["gen_lag_s"]

    ratios = {
        "serve.remap_ratio": sum(s["remaps"] for s in summaries)
        / max(1, sum(s["evaluations"] for s in summaries)),
        "bench.trace_overhead_frac": traced["closed_ref_s"] / base["closed_ref_s"] - 1.0,
        "bench.gen_lag_p99_ms": quantile(lags, 0.99) * 1e3,
    }
    return {
        "table": table,
        "counts": counts,
        "ratios": ratios,
        "problems": problems + more[0],
        "attempted": attempted + more[1],
        "failed": failed + more[2],
        "spans": out_spans,
    }


# -- per-layer metric values --------------------------------------------------
def layer_value(name: str, table: dict, counts: dict, ratios: dict) -> float:
    """Resolve one per-layer metric name against a traced run's data.

    ``<span>.calls`` / ``<span>.busy_s`` / ``<span>.self_s`` /
    ``<span>.p50_ms`` / ``.p99_ms`` / ``.max_ms`` read the span table;
    ``<span>.pretouch_busy_s`` is the busy time under ``engine.setup``;
    everything else is a counter or a ratio.  A layer the workload never
    calls reads 0.
    """
    if name in ratios:
        return float(ratios[name])
    if name in counts:
        return float(counts[name])
    span, _, stat = name.rpartition(".")
    row = table.get(span)
    if row is None:
        return 0.0
    if stat == "calls":
        return float(row["calls"])
    if stat in ("busy_s", "self_s"):
        return float(row["busy_s"])
    if stat == "pretouch_busy_s":
        return float(row["busy_by_caller"].get("engine.setup", 0.0))
    if stat in ("p50_ms", "p99_ms", "max_ms"):
        return float(row[stat])
    return 0.0


def print_layer_table(table: dict) -> None:
    """The per-layer table: every span name, busiest first."""
    print(f"  {'span':<28} {'calls':>9} {'busy_s':>10} {'incl_s':>10} {'p50_ms':>9} {'p99_ms':>9}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["busy_s"]):
        print(
            f"  {name:<28} {row['calls']:>9} {row['busy_s']:>10.4f} "
            f"{row['inclusive_s']:>10.4f} {row['p50_ms']:>9.3f} {row['p99_ms']:>9.3f}"
        )
    root = table.get("bench.root")
    if root is not None:
        print(f"  root span uncovered self time: {root['busy_s']:.4f} s of {root['inclusive_s']:.4f} s")


# -- output ---------------------------------------------------------------------
def metric_lines(spec_metrics: list, values: dict, notes: "dict | None" = None) -> dict:
    """Print every metric with its unit; return the result-line mapping."""
    out = {}
    for metric in spec_metrics:
        name, unit = metric["name"], metric["unit"]
        value = float(values[name])
        out[name] = {"value": value, "unit": unit}
        note = (notes or {}).get(name, "")
        print(f"  {name:<36} {value:>14.6g} {unit:<8} {note}")
    return out


#: sizes of ``--smoke``: fig8 steps, serve seconds and traced closed-loop seconds
SMOKE = {"steps": 5, "seconds": 1.0, "closed_s": 0.2}


def run(args: argparse.Namespace) -> "tuple[dict, dict]":
    """Run one workload; returns ``(result line, extra record fields)``."""
    from tracer import summarize

    spec = load_spec()
    serve = args.workload != "fig8-sp"
    smoke = SMOKE if args.smoke else {}
    seconds = smoke.get("seconds", args.seconds)
    if not args.trace:
        if serve:
            res = serve_end_to_end(
                args.workload, args.seed, seconds, setup_samples=1 if smoke else None
            )
        else:
            res = fig8_end_to_end(args.seed, 0.0 if smoke else seconds, smoke.get("steps"))
        metrics = metric_lines(spec["end_to_end"], res["values"], res["notes"])
        print("  also measured, not bounded (host-time latencies swing too far between runs):")
        for name, (value, unit, note) in res["also"].items():
            print(f"  {name:<36} {value:>14.6g} {unit:<8} {note}")
        extra = {"also": {k: {"value": v, "unit": u} for k, (v, u, _) in res["also"].items()}}
        if "pairs" in res:
            extra["pairs"] = res["pairs"]
    else:
        if serve:
            res = serve_per_layer(
                args.workload, args.seed, seconds, smoke.get("closed_s", TRACE_CLOSED_S)
            )
        else:
            res = fig8_per_layer(args.seed, smoke.get("steps"))
        table = summarize({k: v for k, v in res["table"].items() if "durations" in v})
        table.update({k: v for k, v in res["table"].items() if "durations" not in v})
        print_layer_table(table)
        values = {
            m["name"]: layer_value(m["name"], table, res["counts"], res["ratios"])
            for m in spec["per_layer"]
        }
        metrics = metric_lines(spec["per_layer"], values)
        extra = {"layers": table, "spans": str(res["spans"].relative_to(ROOT))}
    line = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    for problem in res["problems"]:
        print("  CHECK FAILED:", problem)
    print(
        f"  failed_frac: {res['failed']} / {res['attempted']} = "
        f"{res['failed'] / res['attempted']:.6g}"
    )
    return line, extra


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own smoke test"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    meta = host_metadata(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("  host: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    OUT.mkdir(exist_ok=True)
    line, extra = run(args)
    record = dict(line, workload=args.workload, seconds=args.seconds, trace=args.trace, host=meta)
    record.update(extra)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
