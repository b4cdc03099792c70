"""README.md runs as written.

Each ``sfcheck`` line of its ``sh`` blocks runs through ``sfcheck.cli.main``
in a temporary directory, and each file it names is read back: a report
through ``load_report``, a graph6 file through ``decode_graph6``, a DIMACS
file by its ``p edge n m`` line.  Each ``python`` block is ``exec``-ed
there too.  ``pip`` and ``pytest`` lines are skipped by name: they install
the package and run this suite.  README stays a guide under 300 lines,
and every ``BENCH_*.json`` file it names is in the repository root.
"""

import re
import shlex
from pathlib import Path

import pytest

from sfcheck import cli
from sfcheck.formats import decode_graph6
from sfcheck.report import load_report
from sfcheck.solve import Stack

ROOT = Path(__file__).resolve().parent.parent
TEXT = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", TEXT, re.M | re.S)
SKIPPED = {"pip", "pytest"}

COMMANDS = [
    argv
    for lang, body in BLOCKS if lang == "sh"
    for argv in (shlex.split(line, comments=True) for line in body.splitlines())
    if argv and argv[0] not in SKIPPED
]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


def test_readme_shows_commands_and_code():
    assert COMMANDS and PYTHON


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_runs_as_written(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "sfcheck", f"README runs {argv[0]!r}, which only sfcheck lines may"
    args = cli._make_parser().parse_args(argv[1:])
    code = cli.main(argv[1:])
    if args.command == "build":
        stack = Stack(args.kind, args.param, cli._profile_from_args(args))
        text = Path(args.out).read_text()
        if args.format == "graph6":
            g = decode_graph6(text)
            assert (g.n, g.m) == (stack.n, stack.m)
        else:
            assert text.partition("\n")[0] == f"p edge {stack.n} {stack.m}"
        assert code == 0
    else:
        paths = [Path(args.report)] if args.command == "verify" else sorted(Path(args.report_dir).glob("*.json"))
        reports = [load_report(path) for path in paths]
        assert reports
        refuted = any(report["checks"][0]["status"] == "REFUTED" for report in reports)
        assert code == (1 if refuted else 0), capsys.readouterr().err


@pytest.mark.parametrize("block", PYTHON, ids=lambda block: f"block{PYTHON.index(block)}")
def test_python_block_runs_as_written(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_readme_is_under_300_lines():
    assert len(TEXT.splitlines()) < 300


def test_readme_names_only_bench_files_in_the_repo():
    missing = {name for name in re.findall(r"BENCH_\w+\.json", TEXT) if not (ROOT / name).is_file()}
    assert not missing
