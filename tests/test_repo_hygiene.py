"""Tier-1 hygiene gates: no compiled artifacts tracked in git, and no
new ``REPRO_*`` environment switches in the package.

Runs :mod:`scripts.check_no_pyc` as part of the regular suite so a
``git add -A`` that sweeps in ``__pycache__/`` fails fast (it happened
once — PR 2).
"""

import pathlib
import re
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "scripts"))

import check_no_pyc  # noqa: E402


def test_no_compiled_artifacts_tracked():
    paths = check_no_pyc.tracked_files()
    if paths is None:
        pytest.skip("not a git checkout (or git unavailable)")
    offenders = check_no_pyc.compiled_artifacts(paths)
    assert offenders == [], (
        "compiled Python artifacts are tracked in git; remove them with "
        "`git rm -r --cached <path>` (see scripts/check_no_pyc.py)"
    )


def test_gitignore_covers_compiled_artifacts():
    gitignore = (_REPO_ROOT / ".gitignore").read_text()
    assert "__pycache__/" in gitignore
    assert "*.py[cod]" in gitignore or "*.pyc" in gitignore


def test_detector_flags_offenders():
    flagged = check_no_pyc.compiled_artifacts(
        ["src/a.pyc", "pkg/__pycache__/b.cpython-311.pyc", "src/ok.py",
         "docs/__pycache__x/readme.md"]
    )
    assert flagged == ["pkg/__pycache__/b.cpython-311.pyc", "src/a.pyc"]


def test_detector_flags_egg_info():
    flagged = check_no_pyc.compiled_artifacts(
        ["src/repro.egg-info/PKG-INFO", "src/repro.egg-info/SOURCES.txt",
         "nested/thing.egg-info/top_level.txt", "src/egg-info.py",
         "docs/egg-info/readme.md", "src/ok.py"]
    )
    assert flagged == [
        "nested/thing.egg-info/top_level.txt",
        "src/repro.egg-info/PKG-INFO",
        "src/repro.egg-info/SOURCES.txt",
    ]


#: The environment variables the package may read. Each one configures
#: behaviour (a cache location, a budget, a socket, a grace period); a
#: switch that only picks between two bit-identical paths does not
#: belong here.
ALLOWED_ENV_NAMES = {
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MAX_BYTES",
    "REPRO_SERVE_SOCKET",
    "REPRO_WORKER_LOSS_GRACE_S",
}


def test_no_new_env_switches():
    found = {}
    for path in sorted((_REPO_ROOT / "src" / "repro").rglob("*.py")):
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text("utf-8")):
            found.setdefault(name, path.relative_to(_REPO_ROOT).as_posix())
    unexpected = {
        name: where for name, where in found.items()
        if name not in ALLOWED_ENV_NAMES
    }
    assert unexpected == {}, (
        "new REPRO_* environment names in src/repro; add a real option "
        "or extend ALLOWED_ENV_NAMES with a reason"
    )
