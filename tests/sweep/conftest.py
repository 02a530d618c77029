"""Sweep fixtures: keep manifest installs out of the global registry."""

from __future__ import annotations

import pytest

from repro.data import INSTALLED_CELLS


@pytest.fixture(autouse=True)
def _registry_snapshot():
    """compile_sweep installs manifest cells as global scenarios;
    restore the installed set after each test so nothing leaks."""
    saved = dict(INSTALLED_CELLS)
    yield
    INSTALLED_CELLS.clear()
    INSTALLED_CELLS.update(saved)
