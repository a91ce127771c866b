"""The examples in README.md run and print what the README says they
print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from nesthilb.cli import main, EXIT_OK

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading, lang):
    """The first fenced block of the given language under a heading."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def test_taste_snippet():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code_block("A taste", "python"), {})
    assert out.getvalue() == "[1, 3, 9, 22, 51]\n"


def test_command_examples(capsys):
    commands = {}
    for line in code_block("Command line", "sh").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "nesthilb"
        commands[argv[1]] = argv[1:]
    for command, first_line in (("integrate", "9"), ("vw", "0")):
        assert main(commands[command]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == first_line
