"""README's examples, run as written: the library tour and the CLI lines."""

import re
import shlex
import shutil
from pathlib import Path

from specport import seasonal_market_spec, synthesize_values
from specport.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def first_block(heading: str) -> str:
    """The body of the first fenced code block under README's ``heading`` line."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(r"^```[a-z]*\n(.*?)^```", section, re.M | re.S)[1]


def test_library_tour_runs_as_written():
    returns = synthesize_values(seasonal_market_spec(n_assets=3, horizon=120))  # the tour's (T, N) array
    namespace = {"returns": returns}
    exec(first_block("## Library tour"), namespace)
    assert namespace["path"].shape == (60, 3)


def test_cli_lines_run_as_written(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    lines = [line.partition("#")[0] for line in first_block("## CLI").splitlines()]
    assert len(lines) == 4
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "specport"
        assert main(argv) == 0, line
    assert "error" not in capsys.readouterr().err
