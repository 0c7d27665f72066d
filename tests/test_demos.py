"""Run every script in demos/ and the README's quick start, which exercise
the public API end to end."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    # each demo asserts its own claims
    runpy.run_path(str(path), run_name="__main__")


def test_readme_quick_start_prints_what_it_says(tmp_path, capsys):
    # the README's one python block, run as a script; its last line's
    # comment gives what it prints
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[0])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out == blocks[0].rsplit("# prints ", 1)[1]
