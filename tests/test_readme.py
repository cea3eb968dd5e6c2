"""The README's library example runs as written and its CLI quick start
parses, so an API or flag change that leaves either stale fails here."""

import re
import shlex
from pathlib import Path

from hetasym import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert "bits/symbol at 20 km" in out and "km achievable" in out


def test_quick_start_commands_parse():
    block = re.search(r"## Quick start \(CLI\)\n\n```sh\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("hetasym ")]
    assert [argv[0] for argv in commands] == [
        "simulate", "scale", "phase-deviation", "keyrate-sweep", "tomography", "fidelity"]
    for argv in commands:
        cli.build_parser().parse_args(argv)
