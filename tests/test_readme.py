"""The README's quick start and sample session run as written."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from jss import example_pair, save_instance
from jss.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced `lang` block after the line `after`."""
    start = README.index(after)
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(README, start)
    return match.group(1)


def test_quick_start_prints_its_value_comments():
    code = _block("## Quick start (library)", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    comments = [line.partition("# ")[2] for line in code.splitlines()
                if line.startswith("print(")]
    printed = dict(zip(comments, out.getvalue().splitlines()))
    assert len(comments) == len(out.getvalue().splitlines())
    for value in ("J2 > J1", "7/10", "13/20", "17/29 above"):
        assert printed[value] == value


def test_sample_session_matches_the_cli(tmp_path, capsys):
    session = _block("Sample session:", "text")
    path = tmp_path / "showcase.json"
    save_instance(example_pair(), path)
    runs = [run.split("\n", 1) for run in session.split("$ ")[1:]]
    assert [cmd.split()[:2] for cmd, _ in runs] == [
        ["jss", "solve"], ["jss", "threshold"], ["jss", "check"]]
    for cmd, expected in runs:
        argv = [str(path) if a == "showcase.json" else a for a in shlex.split(cmd)[1:]]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected.rstrip("\n") + "\n", cmd
