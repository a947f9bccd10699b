"""Public names, the README's CLI synopsis and its config example stay in
step with the code."""

import argparse
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import periodet
from periodet.cli import ExperimentConfig, build_parser, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["belief", "detection_dp", "ipid_model", "monte_carlo", "periodic_mdp"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"periodet.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {
        n for n, value in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


def test_package_exports_exactly_the_modules_public_names():
    exported = {n for n, value in vars(periodet).items()
                if not n.startswith("_") and not inspect.ismodule(value)}
    public = set().union(*(importlib.import_module(f"periodet.{n}").__all__ for n in MODULES))
    assert sorted(exported - public) == []
    assert sorted(public - exported) == []


def synopsis_lines():
    """The ``periodet <command> ...`` lines of the README's CLI block."""
    cli_section = README.read_text().split("## CLI", 1)[1]
    block = cli_section.split("```", 2)[1]
    return [line.split() for line in block.splitlines() if line.startswith("periodet ")]


def test_readme_synopsis_flags_exist():
    """Each synopsis line lists exactly the options its parser accepts."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    lines = synopsis_lines()
    assert {words[1] for words in lines} == set(subparsers)
    for words in lines:
        accepted = ({s for action in subparsers[words[1]]._actions for s in action.option_strings}
                    - {"-h", "--help"})
        flags = {m for word in words[2:] for m in re.findall(r"--[a-z][a-z-]*", word)}
        assert sorted(flags - accepted) == [], words[1]
        assert sorted(accepted - flags) == [], words[1]


def test_readme_config_example_is_the_schema():
    """The README's config example parses and sets every config field."""
    section = README.read_text().split("## Scenario config format", 1)[1]
    block = section.split("```", 2)[1]
    parse_config(block, source="README.md")
    keys = [line.split("#", 1)[0].partition("=")[0].strip() for line in block.splitlines()]
    assert sorted(filter(None, keys)) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
