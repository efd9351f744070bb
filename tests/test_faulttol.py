"""Fault tests for the grid executor: crashes, errors, strict mode and
kill-and-resume from the result cache.

The failing shims live at module level so pool workers can unpickle them
and the grid runner's factory tokens stay stable.  The crash shim
coordinates across invocations through a marker file: its first call
plants the marker and dies hard (``os._exit``, no Python cleanup — what an
OOM kill or a segfaulting extension looks like to the parent); the next
sweep sees the marker and succeeds.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro.engine.gridrunner import run_grid
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig
from repro.errors import GridExecutionError
from repro.obs.report import grid_report_paths
from repro.workloads.npb import make_npb

CFG = EngineConfig(steps=10, batch_size=64)


# ---------------------------------------------------------------------------
# workload shims (module level: stable identities, picklable)
# ---------------------------------------------------------------------------
def _flaky_workload(marker_dir, _name="CG"):
    """Workload factory whose first call kills its worker process."""
    marker = Path(marker_dir) / "crashed"
    if not marker.exists():
        marker.write_text("")
        os._exit(17)
    return make_npb(_name)


def _fails_once(marker_dir, _name="CG"):
    """Workload factory whose first call raises."""
    marker = Path(marker_dir) / "failed"
    if not marker.exists():
        marker.write_text("")
        raise ValueError("first call fails")
    return make_npb(_name)


def _broken_workload():
    raise ValueError("no such workload")


def _metrics_blob(grid) -> bytes:
    return pickle.dumps({k: v.metrics for k, v in sorted(grid.cells.items())})


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------
def test_grid_recovers_from_worker_crash(tmp_path):
    """A worker dying mid-cell fails that cell as a crash; the next
    invocation runs it, with the result of an undisturbed run."""
    flaky = ("flaky", partial(_flaky_workload, str(tmp_path)))
    trace = tmp_path / "trace"
    grid = run_grid([flaky], ["os"], 1, base_seed=7, config=CFG, workers=2, trace=trace)
    assert grid.cells == {}
    (failure,) = grid.failures
    assert (failure.workload, failure.policy, failure.rep) == ("flaky", "os", 0)
    assert failure.kind == "crash" and "BrokenProcessPool" in failure.message
    assert grid.crashes == 1
    (report,) = grid_report_paths(trace.glob("grid-*.jsonl"))
    assert report.errors == [] and report.crashes == 1

    again = run_grid([flaky], ["os"], 1, base_seed=7, config=CFG, workers=2)
    assert again.ok and again.crashes == 0
    clean = run_grid(["CG"], ["os"], 1, base_seed=7, config=CFG, workers=2)
    assert pickle.dumps(again.cell("flaky", "os").metrics) == pickle.dumps(
        clean.cell("CG", "os").metrics
    )


def test_unpicklable_factory_fails_only_its_own_cell():
    """A lambda cannot be sent to a worker: its cell fails with the pickling
    error, and the named factory beside it still completes."""
    grid = run_grid(
        [("lam", lambda: make_npb("CG")), "CG"], ["os"], 1,
        base_seed=7, config=CFG, workers=2,
    )
    (failure,) = grid.failures
    assert (failure.workload, failure.kind) == ("lam", "error")
    assert "pickle" in failure.message.lower()
    assert list(grid.cells) == [("CG", "os")]
    assert grid.crashes == 0


def test_grid_strict_mode_raises_after_draining(tmp_path):
    cache = tmp_path / "cache"
    with pytest.raises(GridExecutionError) as exc:
        run_grid(
            [("broken", _broken_workload), "CG"], ["os"], 1,
            base_seed=7, config=CFG, cache=cache, strict=True,
        )
    (failure,) = exc.value.failures
    assert (failure.workload, failure.kind) == ("broken", "error")
    assert failure.message == "ValueError: no such workload"
    assert "broken/os/rep0" in str(exc.value)
    # the sweep drained before raising: the healthy cell ran and was stored
    assert len(list(cache.glob("*/*.pkl"))) == 1


def test_grid_settings_object_configures_fault_tolerance():
    """Strict mode flows through settings=; an explicit kwarg beats it."""
    settings = RunSettings(strict=True)
    broken = [("broken", _broken_workload)]
    with pytest.raises(GridExecutionError):
        run_grid(broken, ["os"], 1, base_seed=7, config=CFG, settings=settings)
    grid = run_grid(
        broken, ["os"], 1, base_seed=7, config=CFG, settings=settings, strict=False
    )
    assert not grid.ok and len(grid.failures) == 1


def test_failed_cells_are_recorded_and_get_a_fresh_budget(tmp_path):
    """A failed cell leaves nothing in the cache, so the next invocation
    runs it again rather than skipping it."""
    cache = tmp_path / "cache"
    cell = ("cell", partial(_fails_once, str(tmp_path)))
    first = run_grid([cell], ["os"], 1, base_seed=7, config=CFG, cache=cache)
    assert [(f.kind, f.message) for f in first.failures] == [
        ("error", "ValueError: first call fails")
    ]
    assert list(cache.glob("*/*.pkl")) == []
    second = run_grid([cell], ["os"], 1, base_seed=7, config=CFG, cache=cache)
    assert second.ok and (second.cache_hits, second.cache_misses) == (0, 1)


def test_grid_reliability_events_reach_the_report(tmp_path):
    """Cell outcomes land in the grid trace and the report."""
    trace = tmp_path / "trace"
    run_grid(
        [("broken", _broken_workload), "CG"], ["os"], 1,
        base_seed=7, config=CFG, trace=trace,
    )
    (grid_trace,) = trace.glob("grid-*.jsonl")
    (report,) = grid_report_paths([grid_trace])
    assert report.errors == []
    assert (report.completed, report.failed, report.crashes) == (1, 1, 0)
    assert report.failed_cells == ["broken/os/rep0 (error: ValueError: no such workload)"]


# ---------------------------------------------------------------------------
# kill-and-resume: the cache is the checkpoint
# ---------------------------------------------------------------------------
_SWEEP_SCRIPT = """\
import sys
from repro.engine.gridrunner import run_grid
from repro.engine.simulator import EngineConfig

run_grid(
    ["CG"], ["os", "spcd"], 3, base_seed=11,
    config=EngineConfig(steps=10, batch_size=64), cache=sys.argv[1],
    workers=int(sys.argv[2]),
)
"""


def _children(pid: int) -> list[int]:
    """Live child processes of *pid* (Linux ``/proc``)."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue  # exited while we looked
        if int(ppid) == pid and state != "Z":
            kids.append(int(stat.parent.name))
    return kids


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _kill_after_first_result(cache: Path, workers: int) -> list[int]:
    """Run the sweep in a subprocess and SIGKILL it as soon as one cell
    result lands in *cache*; return the pids of its children at that point."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _SWEEP_SCRIPT, str(cache), str(workers)],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
    )
    children: list[int] = []
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if list(cache.glob("*/*.pkl")) or proc.poll() is not None:
                break
            time.sleep(0.02)
        if Path("/proc").is_dir():
            children = _children(proc.pid)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    assert proc.returncode != 0, "the sweep must have been killed mid-flight"
    return children


def test_killed_grid_resumes_from_checkpoint_byte_identically(tmp_path):
    """SIGKILL a sweep mid-flight; re-invoking loads exactly the cells whose
    result landed in the cache, runs the rest, and the aggregate results
    are byte-identical to an undisturbed sweep."""
    cache = tmp_path / "cache"
    _kill_after_first_result(cache, workers=1)
    landed = len(list(cache.glob("*/*.pkl")))
    assert 1 <= landed < 6

    resumed = run_grid(
        ["CG"], ["os", "spcd"], 3, base_seed=11, config=CFG, cache=cache
    )
    # exactly the landed cells were loaded; only the rest ran
    assert resumed.ok
    assert resumed.cache_hits == landed
    assert resumed.cache_misses == 6 - landed

    # ... and the aggregate is byte-identical to an undisturbed sweep
    pristine = run_grid(
        ["CG"], ["os", "spcd"], 3, base_seed=11, config=CFG,
        cache=tmp_path / "cache2",
    )
    assert _metrics_blob(resumed) == _metrics_blob(pristine)


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs Linux /proc")
def test_killed_parallel_sweep_leaves_no_workers(tmp_path):
    """A SIGKILLed sweep cannot shut its pool down; its workers notice the
    lost parent and exit instead of waiting on the task queue forever."""
    workers = _kill_after_first_result(tmp_path / "cache", workers=2)
    assert workers, "the pool's workers were not found"
    deadline = time.monotonic() + 30
    while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = [pid for pid in workers if _alive(pid)]
    for pid in orphans:  # don't leak them past a failing test
        os.kill(pid, signal.SIGKILL)
    assert orphans == []
