"""The package version has one value: the one the result store keys on."""

import tomllib
from pathlib import Path

import repro


def test_pyproject_version_matches_package():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    metadata = tomllib.loads(pyproject.read_text())
    assert metadata["project"]["version"] == repro.__version__
