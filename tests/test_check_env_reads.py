"""The env-read lint: alias-aware detection, dedup, and the repo gate."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_env_reads", REPO / "tools" / "check_env_reads.py"
)
check_env_reads = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
_spec.loader.exec_module(check_env_reads)


def _violations(tmp_path: Path, source: str) -> list[str]:
    path = tmp_path / "mod.py"
    path.write_text(source, encoding="utf-8")
    return check_env_reads.check_file(path, "mod.py")


class TestDetection:
    def test_clean_module_passes(self, tmp_path):
        assert _violations(tmp_path, "import os\nx = os.path.join('a', 'b')\n") == []

    def test_environ_subscript(self, tmp_path):
        out = _violations(tmp_path, "import os\nv = os.environ['REPRO_TRACE']\n")
        assert out == ["mod.py:2: os.environ"]

    def test_environ_get(self, tmp_path):
        out = _violations(tmp_path, "import os\nv = os.environ.get('X')\n")
        assert out == ["mod.py:2: os.environ"]

    def test_getenv_call_reported_once(self, tmp_path):
        # a Call whose func is the os.getenv attribute is ONE site, not two
        out = _violations(tmp_path, "import os\nv = os.getenv('X', '1')\n")
        assert out == ["mod.py:2: os.getenv"]

    def test_environb(self, tmp_path):
        out = _violations(tmp_path, "import os\nv = os.environb[b'X']\n")
        assert out == ["mod.py:2: os.environb"]

    def test_aliased_os_import(self, tmp_path):
        out = _violations(tmp_path, "import os as _o\nv = _o.getenv('X')\n")
        assert out == ["mod.py:2: _o.getenv"]

    def test_from_import_environ(self, tmp_path):
        out = _violations(
            tmp_path, "from os import environ as env\nv = env.get('X')\n"
        )
        # the import itself and the later load are both flagged
        assert out == ["mod.py:1: from os import environ", "mod.py:2: env"]

    def test_from_import_getenv(self, tmp_path):
        out = _violations(tmp_path, "from os import getenv\nv = getenv('X')\n")
        assert out == ["mod.py:1: from os import getenv", "mod.py:2: getenv"]

    def test_unrelated_names_not_flagged(self, tmp_path):
        # a local called `getenv` that is NOT os.getenv is fine
        out = _violations(tmp_path, "def getenv(k):\n    return k\nv = getenv('X')\n")
        assert out == []

    def test_assignment_target_not_flagged(self, tmp_path):
        out = _violations(tmp_path, "environ = {}\nenviron['X'] = 1\n")
        assert out == []


class TestMain:
    def _tree(self, tmp_path: Path, files: "dict[str, str]") -> Path:
        root = tmp_path / "pkg"
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return root

    def test_allowed_module_may_read(self, tmp_path, capsys):
        root = self._tree(
            tmp_path,
            {"engine/settings.py": "import os\nv = os.environ.get('REPRO_X')\n"},
        )
        assert check_env_reads.main([str(root)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_serve_modules_are_scanned(self, tmp_path, capsys):
        root = self._tree(
            tmp_path,
            {
                "engine/settings.py": "import os\n",
                "serve/server.py": "import os\nport = os.getenv('REPRO_PORT')\n",
            },
        )
        assert check_env_reads.main([str(root)]) == 1
        err = capsys.readouterr().err
        assert "serve/server.py:2: os.getenv" in err

    def test_missing_root_is_usage_error(self, tmp_path, capsys):
        assert check_env_reads.main([str(tmp_path / "nope")]) == 2
        assert "no such directory" in capsys.readouterr().err


def test_repo_package_is_clean(capsys):
    """The real src/repro tree (serve included) passes the lint."""
    assert check_env_reads.main([str(REPO / "src" / "repro")]) == 0
    out = capsys.readouterr().out
    assert "ok: no stray environment reads" in out
