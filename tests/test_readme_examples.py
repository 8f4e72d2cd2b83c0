"""The README's python blocks, run as `tests/readme_examples.py` runs them
from the repository root: a block that raises, or a commented result that
is not the repr of its value, fails the test."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_readme_block_runs_and_each_commented_result_holds(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    try:
        runpy.run_path(str(ROOT / "tests" / "readme_examples.py"), run_name="__main__")
    except SystemExit as exit:  # the script's one exit names every wrong result
        assert exit.code is None, exit.code
    assert "README python blocks ran" in capsys.readouterr().out
