"""The package version has one source of truth per file, and they agree."""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    project = PYPROJECT.read_text().split("[project]", 1)[1]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert repro.__version__ == declared


def test_version_assigned_once():
    source = Path(repro.__file__).read_text()
    assert len(re.findall(r"^__version__\s*=", source, re.M)) == 1
