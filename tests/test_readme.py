"""The README's library example runs as written, so an API change that
leaves it stale fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert "bits/symbol at 20 km" in out and "km achievable" in out
