"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric ``BENCHMARK.json`` names prints with its unit,
that the result line is well formed, and that a traced run leaves every
wrapped public function exactly as it found it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run as bench  # noqa: E402

SPEC = bench.load_spec()


def _originals() -> dict:
    targets = layers.sim_targets() + layers.server_targets() + layers.client_targets()
    return {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in targets}


def _run(capsys, workload: str, trace: int) -> "tuple[str, dict]":
    code = bench.main(
        ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    )
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 0, out
    return out, line


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    originals = _originals()
    out, line = _run(capsys, workload, trace)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in names)
    for metric in names:
        name, unit = metric["name"], metric["unit"]
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", out, re.M), name
        assert line["metrics"][name]["unit"] == unit
    # The wrappers are gone: every public function is the original object.
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


def test_spec_matches_benchmark_json():
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[kind]}
        described = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
        assert declared == described, kind
    assert [w["name"] for w in SPEC["workloads"]] == [w["name"] for w in spec["workloads"]]
