import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from logan import ComparisonReport, ClusterReport, GridResult
from logan.cli import build_parser
from logan.io import write_jsonl
from logan.synthetic import PlantedBiasSpec, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs(tmp_path):
    """The "Library use" snippet runs as written on rows in the JSONL shape."""
    path = tmp_path / "rows.jsonl"
    write_jsonl(generate(PlantedBiasSpec(n_per_component=60, seed=0)), path)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    scope = {"rows": rows}
    exec(library_use_block(), scope)
    assert isinstance(scope["grid"], GridResult)
    assert all(isinstance(r, ClusterReport) for r in scope["reports"])
    assert len(scope["reports"]) == scope["grid"].chosen.model.n_clusters
    assert isinstance(scope["comparison"], ComparisonReport)


def readme_commands():
    """Every ``logan ...`` line of README's code blocks, split as a shell would."""
    blocks = re.findall(r"```[a-z]*\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True) for line in lines if line.startswith("logan ")]


def test_readme_shows_logan_commands():
    assert len(readme_commands()) >= 4


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    """Each README command names only flags and values the parser accepts."""
    build_parser().parse_args(argv[1:])


def test_readme_names_only_existing_flags():
    """Every flag README writes in backticks is a flag of some subcommand."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    named = set(re.findall(r"`(--[a-z][a-z-]*)", README.read_text(encoding="utf-8")))
    assert named and named <= known, sorted(named - known)
