"""Tests for the structured tracing subsystem (repro.obs)."""

from __future__ import annotations

import json
import os

from repro.engine.gridrunner import run_grid
from repro.engine.simulator import EngineConfig, Simulator
from repro.obs.events import RunStart, event_types
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    NullRecorder,
    cell_trace_path,
    run_trace_path,
)
from repro.obs.report import main as report_main
from repro.obs.report import reconstruct_runs, report_paths
from repro.rng import derive_seed
from repro.workloads.npb import make_npb
from repro.workloads.producer_consumer import ProducerConsumerWorkload

CFG = EngineConfig(steps=40, batch_size=128)


def _events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _masked(events):
    """Events with the wall-clock (host-timing) fields removed."""
    out = []
    for ev in events:
        ev = dict(ev)
        ev.pop("perf", None)
        ev.pop("perf_other_s", None)
        ev.pop("decide_wall_s", None)
        out.append(ev)
    return out


# ---------------------------------------------------------------------------
# recorder mechanics
# ---------------------------------------------------------------------------
def test_jsonl_recorder_is_atomic_per_run(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = JsonlRecorder(path)
    rec.emit(RunStart(workload="w", policy="os", seed=1, n_threads=2, steps=3, batch_size=4))
    # nothing published until close; the in-flight file is a *.tmp sibling
    assert not path.exists()
    assert list(tmp_path.glob("*.tmp"))
    rec.close()
    assert path.exists() and not list(tmp_path.glob("*.tmp"))
    (ev,) = _events(path)
    assert ev["type"] == "run_start" and ev["workload"] == "w"
    # close is idempotent; a closed recorder drops events
    rec.close()
    rec.emit(RunStart(workload="x", policy="os", seed=1, n_threads=2, steps=3, batch_size=4))
    assert len(_events(path)) == 1


def test_unused_recorder_leaves_no_file(tmp_path):
    rec = JsonlRecorder(tmp_path / "t.jsonl")
    rec.close()
    assert list(tmp_path.iterdir()) == []


def test_null_recorder_is_falsy():
    assert not NullRecorder()
    assert not NULL_RECORDER
    assert JsonlRecorder("/nonexistent/x.jsonl")  # truthy without touching disk


def test_trace_path_naming(tmp_path):
    f = tmp_path / "t.jsonl"
    assert run_trace_path(f, "CG", "spcd", 3) == f
    assert run_trace_path(tmp_path, "CG", "spcd", 3) == tmp_path / "run-CG-spcd-seed3.jsonl"
    # hostile characters are slugged out
    assert "/" not in run_trace_path(tmp_path, "a/b:c", "os", 1).name[4:]
    assert cell_trace_path(tmp_path, "CG", "os", 2) == tmp_path / "CG-os-rep2.jsonl"
    assert cell_trace_path(f, "CG", "os", 2) == tmp_path / "t-CG-os-rep2.jsonl"


def test_event_types_registry_is_complete():
    kinds = event_types()
    assert {"run_start", "run_end", "fault_batch", "injector_wake", "tlb_shootdown",
            "spcd_evaluation", "mapping_decision", "migration", "cache_epoch",
            "grid_start", "grid_end", "cell_completed", "cell_failed",
            "serve_start", "serve_session_start", "serve_evaluation",
            "serve_session_end", "serve_end"} == set(kinds)


# ---------------------------------------------------------------------------
# tracing a simulation
# ---------------------------------------------------------------------------
def test_trace_stream_is_deterministic_modulo_wall_clock(tmp_path):
    """Same seed -> byte-identical event stream, once host timing is masked."""
    paths = []
    for i in range(2):
        p = tmp_path / f"run{i}.jsonl"
        Simulator(
            make_npb("CG"), "spcd", seed=5, config=CFG, recorder=JsonlRecorder(p)
        ).run()
        paths.append(p)
    a, b = (_events(p) for p in paths)
    assert _masked(a) == _masked(b)
    # ... and the wall-clock field genuinely exists on the run_end event
    assert a[-1]["type"] == "run_end" and "wall_s" in a[-1]["perf"]


def test_tracing_does_not_perturb_the_simulation(tmp_path):
    """A traced run and an untraced run are the same simulation."""
    traced = Simulator(
        make_npb("CG"), "spcd", seed=9, config=CFG,
        recorder=JsonlRecorder(tmp_path / "t.jsonl"),
    ).run()
    plain = Simulator(make_npb("CG"), "spcd", seed=9, config=CFG).run()
    assert traced.exec_time_s == plain.exec_time_s
    assert traced.migrations == plain.migrations
    assert traced.stats.snapshot() == plain.stats.snapshot()
    assert traced.detection_pct == plain.detection_pct


def test_trace_reconstructs_table2_and_fig16_exactly(tmp_path):
    """The report reproduces migrations and the overhead split bit-for-bit."""
    p = tmp_path / "t.jsonl"
    cfg = EngineConfig(steps=60, batch_size=128)
    result = Simulator(
        ProducerConsumerWorkload(n_threads=32), "spcd", seed=7, config=cfg,
        recorder=JsonlRecorder(p),
    ).run()
    (report,) = report_paths([p])
    assert report.errors == []
    assert report.migrations == result.migrations
    assert report.detection_pct == result.detection_pct
    assert report.mapping_pct == result.mapping_pct
    assert report.first_touch_faults == result.first_touch_faults
    assert report.injected_faults == result.injected_faults
    assert report.injected_ratio == result.injected_ratio
    assert report.workload == result.workload and report.policy == "spcd"
    # the decision trail is present, not just the totals
    assert report.evaluations > 0 and report.injector_wakes > 0
    assert sum(report.verdicts.values()) == report.evaluations


def test_trace_reconstruction_os_policy(tmp_path):
    """Non-SPCD runs trace too: zero overhead split, zero migrations."""
    p = tmp_path / "t.jsonl"
    result = Simulator(
        make_npb("CG"), "os", seed=3, config=CFG, recorder=JsonlRecorder(p)
    ).run()
    (report,) = report_paths([p])
    assert report.errors == []
    assert report.migrations == result.migrations == 0
    assert report.detection_pct == result.detection_pct == 0.0
    assert report.mapping_pct == result.mapping_pct == 0.0
    assert report.first_touch_faults == result.first_touch_faults > 0


def test_report_cross_check_flags_tampered_trace(tmp_path):
    p = tmp_path / "t.jsonl"
    Simulator(
        ProducerConsumerWorkload(n_threads=32), "spcd", seed=7,
        config=EngineConfig(steps=60, batch_size=128), recorder=JsonlRecorder(p),
    ).run()
    events = [e for e in _events(p) if e["type"] != "migration"]
    assert len(events) < len(_events(p)), "run must have migrated for this test"
    (report,) = reconstruct_runs(events)
    assert any("migrations" in err for err in report.errors)


def test_perf_counters_fold_into_run_end(tmp_path):
    p = tmp_path / "t.jsonl"
    result = Simulator(
        make_npb("CG"), "os", seed=3, config=CFG, recorder=JsonlRecorder(p)
    ).run()
    end = _events(p)[-1]
    assert end["type"] == "run_end"
    assert end["perf"]["accesses"] == result.perf.accesses
    assert end["perf"]["faults"] == result.perf.faults
    assert end["perf_other_s"] == result.perf.other_s
    # the cache epoch carries the hierarchy counters
    epoch = [e for e in _events(p) if e["type"] == "cache_epoch"][-1]
    assert epoch["stats"] == result.stats.as_dict()


def test_env_var_enables_tracing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
    result = Simulator(make_npb("CG"), "os", seed=2, config=CFG).run()
    files = list(tmp_path.glob("run-*.jsonl"))
    assert len(files) == 1
    (report,) = report_paths(files)
    assert report.first_touch_faults == result.first_touch_faults


# ---------------------------------------------------------------------------
# grid integration
# ---------------------------------------------------------------------------
def test_run_grid_writes_per_cell_traces(tmp_path, monkeypatch):
    trace_dir = tmp_path / "traces"
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_TRACE", str(trace_dir))
    grid = run_grid(
        ["CG"], ["os", "spcd"], 2,
        base_seed=11, config=CFG, workers=2, cache=cache_dir,
    )
    cell_files = sorted(
        p.name for p in trace_dir.glob("*.jsonl") if not p.name.startswith("grid-")
    )
    assert cell_files == [
        "CG-os-rep0.jsonl", "CG-os-rep1.jsonl",
        "CG-spcd-rep0.jsonl", "CG-spcd-rep1.jsonl",
    ]
    # ... and the sweep's cell outcomes land in their own grid trace
    grid_files = sorted(p for p in trace_dir.glob("grid-*.jsonl"))
    assert len(grid_files) == 1
    grid_events = _events(grid_files[0])
    assert grid_events[0]["type"] == "grid_start"
    assert grid_events[-1]["type"] == "grid_end"
    assert grid_events[-1]["completed"] == 4
    reports = report_paths(sorted(trace_dir.glob("CG-*.jsonl")))
    assert all(r.errors == [] for r in reports)
    # the traced migration counts aggregate to the grid's Table II cell
    spcd_migrations = [r.migrations for r in reports if r.policy == "spcd"]
    assert sorted(spcd_migrations) == sorted(
        grid.cell("CG", "spcd").metrics["migrations"].values
    )
    # cached cells don't re-run: a second grid adds no *cell* trace files
    # (it still records its own grid trace, beside the first)
    for f in trace_dir.glob("*.jsonl"):
        f.unlink()
    second = run_grid(
        ["CG"], ["os", "spcd"], 2,
        base_seed=11, config=CFG, workers=2, cache=cache_dir,
    )
    assert second.cache_hits == 4
    assert [p for p in trace_dir.glob("*.jsonl") if not p.name.startswith("grid-")] == []


def test_run_grid_trace_kwarg(tmp_path):
    grid = run_grid(
        ["CG"], ["spcd"], 1, base_seed=5, config=CFG, trace=tmp_path, keep_runs=True
    )
    (result,) = grid.cell("CG", "spcd").runs
    (report,) = report_paths([tmp_path / "CG-spcd-rep0.jsonl"])
    assert report.errors == []
    assert report.migrations == result.migrations
    assert report.detection_pct == result.detection_pct


def test_serial_grid_writes_one_trace_per_rep(tmp_path):
    """Regression: a serial replicated run given a ``.jsonl`` trace wrote
    every repetition to that one file, each overwriting the last."""
    run_grid(
        ["CG"], ["os"], 3, base_seed=5,
        config=EngineConfig(steps=10, batch_size=64), trace=tmp_path / "t.jsonl",
        workers=1,
    )
    cell_files = sorted(
        p for p in tmp_path.glob("t-*.jsonl") if not p.name.startswith("t-grid-")
    )
    assert [p.name for p in cell_files] == [f"t-CG-os-rep{rep}.jsonl" for rep in range(3)]
    reports = report_paths(cell_files)
    assert [r.seed for r in reports] == [derive_seed(5, "rep", rep, "os") for rep in range(3)]


def _cell_traces(directory):
    return [p for p in directory.glob("*.jsonl") if not p.name.startswith("grid-")]


def test_trace_config_is_excluded_from_cache_keys(tmp_path):
    cache_dir = tmp_path / "cache"
    first = run_grid(["CG"], ["os"], 1, base_seed=5, config=CFG,
                     cache=cache_dir, trace=tmp_path / "a")
    second = run_grid(["CG"], ["os"], 1, base_seed=5, config=CFG,
                      cache=cache_dir, trace=tmp_path / "b")
    assert (first.cache_hits, second.cache_hits) == (0, 1)
    # the cached hit did not re-run, so no second cell trace was written
    assert _cell_traces(tmp_path / "a") != []
    assert _cell_traces(tmp_path / "b") == []


# ---------------------------------------------------------------------------
# report CLI
# ---------------------------------------------------------------------------
def test_report_cli(tmp_path, capsys):
    p = tmp_path / "t.jsonl"
    Simulator(make_npb("CG"), "spcd", seed=5, config=CFG, recorder=JsonlRecorder(p)).run()
    assert report_main([str(p)]) == 0
    table = capsys.readouterr().out
    assert "workload" in table and "CG" in table and "spcd" in table

    assert report_main([str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["workload"] == "CG" and payload[0]["errors"] == []


def test_report_cli_flags_bad_trace(tmp_path, capsys):
    p = tmp_path / "t.jsonl"
    Simulator(
        ProducerConsumerWorkload(n_threads=32), "spcd", seed=7,
        config=EngineConfig(steps=60, batch_size=128), recorder=JsonlRecorder(p),
    ).run()
    lines = [line for line in p.read_text().splitlines()
             if json.loads(line)["type"] != "migration"]
    p.write_text("\n".join(lines) + "\n")
    assert report_main([str(p)]) == 1
    assert "!!" in capsys.readouterr().out


def test_report_cli_module_entrypoint(tmp_path):
    """`python -m repro.obs.report` works (the documented CLI)."""
    import subprocess
    import sys

    import repro

    p = tmp_path / "t.jsonl"
    Simulator(make_npb("CG"), "os", seed=1, config=CFG, recorder=JsonlRecorder(p)).run()
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.report", str(p)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CG" in proc.stdout
