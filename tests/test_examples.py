"""Smoke tests for the example scripts.

Every example's module level runs (so each import must resolve) without
its ``__main__`` block, and the fast one is executed end-to-end; the full
scripts run in the documented workflows.
"""

import ast
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
class TestAllExamples:
    def test_parses(self, path):
        ast.parse(path.read_text())

    def test_imports_resolve(self, path):
        # a name the package no longer exports fails here, not in a user's run
        runpy.run_path(str(path), run_name="example_import_check")

    def test_has_module_docstring(self, path):
        assert ast.get_docstring(ast.parse(path.read_text()))

    def test_has_main_guard(self, path):
        assert 'if __name__ == "__main__":' in path.read_text()


def test_example_names_cover_required_scenarios():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


def test_custom_topology_example_runs():
    script = Path(__file__).parent.parent / "examples" / "custom_topology.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "communication cost" in proc.stdout
    assert "% lower" in proc.stdout
