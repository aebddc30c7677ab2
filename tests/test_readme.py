"""README's library quick start runs as printed."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    floor, plr = (float(line) for line in capsys.readouterr().out.split())
    assert floor == pytest.approx(4.3e-4, rel=0.05)  # the value the comment quotes
    assert 0.0 <= plr < 0.01
