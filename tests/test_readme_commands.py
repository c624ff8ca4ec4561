"""Every ``netgrad`` command line in README.md parses and configures a valid run.

Guards the README against flag drift: a renamed flag, a dropped option or an
invalid value in a documented command fails here.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from netgrad import cli, harness

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """The argv of every ``netgrad …`` line in the README's shell blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("netgrad ")]


COMMANDS = _readme_commands()


def test_the_readme_documents_every_subcommand():
    assert sorted({argv[0] for argv in COMMANDS}) == ["plot", "run", "sweep", "validate-mixing"]


class _Validated(Exception):
    """Raised in place of the first run, once the command's configs validated."""


def _first_run(cfg, schedule_override=None):
    raise _Validated


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_parses_and_validates(monkeypatch, capsys, argv):
    cli.build_parser().parse_args(argv)
    if argv[0] in ("run", "sweep"):
        # A sweep validates every cell before its first run.
        monkeypatch.setattr(cli, "run_experiment", _first_run)
        monkeypatch.setattr(harness, "run_experiment", _first_run)
        with pytest.raises(_Validated):
            cli.main(argv)
    elif argv[0] == "validate-mixing":
        assert cli.main(argv) == 0
        capsys.readouterr()
