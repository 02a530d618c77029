"""The CLI surface: every subcommand's options, flat list parsing, and
one-line errors for unknown names."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.data import scenario_names
from repro.harness.cli import build_parser, main

#: option -> [dest, default, choices, nargs] per subcommand path.
SURFACE_PATH = Path(__file__).with_name("cli_surface.json")

#: Stands in for the ``--scenario`` choices, which are whatever manifest
#: cells are installed when the parser is built.
SCENARIOS = "<installed scenarios>"


def cli_surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """Every option of every (nested) subcommand of *parser*."""
    surface: dict = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(cli_surface(sub, f"{path} {name}".strip()))
        elif action.option_strings and action.dest != "help":
            choices = action.choices
            if choices is not None:
                choices = sorted(choices)
                if choices == sorted(scenario_names()):
                    choices = SCENARIOS
            surface.setdefault(path, {})[", ".join(action.option_strings)] = [
                action.dest, action.default, choices, action.nargs,
            ]
    return surface


def test_surface_is_pinned():
    """Names, dests, defaults, choices and nargs of every option of
    every subcommand; a change here is a change to the public CLI."""
    pinned = json.loads(SURFACE_PATH.read_text())
    # Round-trip so tuples compare as the lists JSON stores.
    assert json.loads(json.dumps(cli_surface(build_parser()))) == pinned


class TestFlatLists:
    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_one_use_replaces_the_default(self):
        assert self.parse("run", "--studies", "gpu").studies == ["gpu"]
        assert self.parse("run").studies == ["timing"]

    def test_repeated_and_comma_joined_uses_extend(self):
        args = self.parse("run", "--studies", "timing,validate",
                          "--studies", "gpu")
        assert args.studies == ["timing", "validate", "gpu"]

    def test_sweep_kernels_and_cells(self):
        args = self.parse("sweep", "run", "--kernels", "tsu,gbwt",
                          "--cells", "a", "b")
        assert args.kernels == ["tsu", "gbwt"]
        assert args.cells == ["a", "b"]

    def test_backend_axis(self):
        args = self.parse("sweep", "run", "--kernels", "tsu",
                          "--backend", "scalar", "vectorized")
        assert args.backends == ["scalar", "vectorized"]
        assert self.parse("sweep", "expand", "--backend",
                          "scalar,gpu").backends == ["scalar", "gpu"]


@pytest.mark.parametrize("argv,code", [
    (["run", "--kernels", "nope"], 1),
    (["validate", "--kernels", "nope"], 1),
    (["trace", "nope"], 1),
    (["serve", "submit", "nope", "--isolation", "inline"], 2),
    (["serve", "trace", "nope", "--isolation", "inline"], 1),
    (["sweep", "run", "--manifest", "suite", "--kernels", "nope"], 1),
    (["sweep", "run", "--manifest", "suite", "--kernels", "tsu",
      "--cells", "nope"], 1),
], ids=lambda value: " ".join(value[:2]) if isinstance(value, list) else None)
def test_unknown_names_print_one_error_line(argv, code, capsys, tmp_path,
                                            monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    if argv[0] == "sweep":
        argv = argv + ["--dir", str(tmp_path / "sweep")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'nope'" in err
    assert err.count("\n") == 1
