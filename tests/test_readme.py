"""The README's examples still parse, resolve and run.

Every ``ductflow ...`` line in the README's ``sh`` blocks and every preset
call in its demo table goes through the CLI's own argument parser and
dispatch (``cli._dispatch``), with the action dropped, so the engine never
runs and an unknown key, a bad unit or bad list syntax fails here instead
of reaching a reader.  The ``python`` quick start is executed as written.
"""

import re
import shlex
from pathlib import Path

import pytest

from ductflow import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _sh_commands(text: str) -> list[list[str]]:
    """``ductflow`` argument lists of the ``sh`` blocks' command lines."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["ductflow"]:
                commands.append(words[1:])
    return commands


def _demo_table_commands(text: str) -> list[list[str]]:
    """The preset calls of the demo table's ``runs`` column.

    A cell names one or more ``preset ...`` calls in backticks; flags in
    backticks of their own (``each with ...``) apply to every call of the
    cell.
    """
    commands = []
    for row in re.findall(r"^\| `\w+\.py` \|(.*?)\|", text, flags=re.M):
        spans = re.findall(r"`([^`]+)`", row)
        shared = [word for span in spans if span.startswith("--") for word in shlex.split(span)]
        commands += [shlex.split(span) + shared for span in spans if span.startswith("preset ")]
    return commands


TEXT = README.read_text(encoding="utf-8")
COMMANDS = _sh_commands(TEXT)
DEMO_COMMANDS = _demo_table_commands(TEXT)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)


def test_examples_found():
    # Every subcommand appears in the sh blocks; the demo table runs five presets.
    assert {argv[0] for argv in COMMANDS} == {"regime", "cir", "simulate", "snapshot",
                                              "ser", "preset"}
    assert len(DEMO_COMMANDS) == 5


@pytest.mark.parametrize("argv", COMMANDS + DEMO_COMMANDS)
def test_example_resolves(argv, monkeypatch):
    # The CLI's own dispatch resolves the configuration; no table is made.
    monkeypatch.setattr(cli, "publish", lambda tables, out_dir: [])
    assert cli._dispatch(cli._build_parser().parse_args(argv)) == []


def test_python_quick_start_runs():
    assert len(PYTHON_BLOCKS) == 1
    namespace = {}
    exec(compile(PYTHON_BLOCKS[0], str(README), "exec"), namespace)
    assert 0 <= namespace["xi"] <= 1000
    assert namespace["flow"].shape == namespace["analytic"].shape
