"""The README's library example runs as written, its CLI quick start
parses, commands and config files alike, and its config-key table lists
every key with its default, so an API, flag or config-key change that
leaves any of them stale fails here."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import hetasym
from hetasym import cli
from hetasym.config import RunConfig, parse_config_text, render

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert "bits/symbol at 20 km" in out and "km achievable" in out


def test_export_list_matches_the_package():
    section = re.search(r"## Library example\n(.*?)\n## ", README.read_text(encoding="utf-8"),
                        re.S).group(1)
    sentence = section.rsplit("```", 1)[1]
    listed = re.findall(r"`(\w+)`", sentence.split(": ", 1)[1])
    assert sorted(listed) == sorted(name for name in hetasym.__all__ if name != "__version__")
    assert f"exports `__version__` and {len(listed)} names" in " ".join(sentence.split())


#: The CLI's commands, in the quick start's order.
COMMANDS = ["simulate", "scale", "phase-deviation", "keyrate-sweep", "tomography", "fidelity"]


def quick_start() -> str:
    return re.search(r"## Quick start \(CLI\)\n\n```sh\n(.*?)```",
                     README.read_text(encoding="utf-8"), re.S).group(1)


def test_quick_start_commands_parse():
    commands = [shlex.split(line)[1:] for line in quick_start().splitlines()
                if line.startswith("hetasym ")]
    assert [argv[0] for argv in commands] == COMMANDS
    for argv in commands:
        cli.build_parser().parse_args(argv)


def test_quick_start_configs_parse():
    configs = dict(re.findall(r"^cat > (\S+\.cfg) <<EOF\n(.*?)^EOF$", quick_start(), re.S | re.M))
    assert sorted(configs) == ["run.cfg", "tomo.cfg"]
    for text in configs.values():
        parse_config_text(text)


def test_config_key_table_matches_run_config():
    section = re.search(r"## Configuration keys\n(.*?)\n## ", README.read_text(encoding="utf-8"),
                        re.S).group(1)
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert [(key, default) for key, default, _, _ in rows] == [
        (f"`{field.name}`", f"`{render(field.default)}`") for field in fields(RunConfig)]
    for _, _, _, readers in rows:
        assert {name.strip("` ") for name in readers.split(",")} <= set(COMMANDS)
