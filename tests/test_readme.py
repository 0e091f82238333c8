"""README drift: the documented flags and CLI examples match the program."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from rrlab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _cli_examples():
    block = README.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("rrlab ")]


def test_global_flags_sentence_matches_parser():
    sentence = re.search(r"Global flags \(.*?\n\n", README, re.S).group(0)
    documented = set(re.findall(r"`(--[a-z-]+)", sentence))
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_common(parser, trailing=False)
    registered = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
    assert documented == registered


def test_cli_block_is_not_empty():
    assert len(_cli_examples()) >= 10


@pytest.mark.parametrize("line", _cli_examples(), ids=lambda line: line.partition("#")[0].strip())
def test_cli_example_runs(line, capsys):
    command, _, comment = line.partition("#")
    assert cli.main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    shown = re.search(r"(\d+\.\d+)\.\.\.$", comment.strip())
    if shown:
        assert shown.group(1) in out
