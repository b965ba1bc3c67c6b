"""The README's examples still parse, resolve and run.

Every ``ductflow ...`` line in the README's ``sh`` blocks and every preset
call in its demo table goes through the CLI's own argument parser and
dispatch (``cli._dispatch``), with the action dropped, so the engine never
runs and an unknown key, a bad unit or bad list syntax fails here instead
of reaching a reader.  The ``python`` quick start is executed as written,
and the output-file schemas are checked against the headers that shrunk
calls write.
"""

import fnmatch
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


#: Shrunk calls that between them write every kind of output table.
SCHEMA_CALLS = [
    ["regime"],
    ["preset", "cir_small_duct", "--set", "release.n_tx=20", "--set", "grid.t_stop=0.02"],
    ["simulate", "--set", "release.n_tx=20", "--set", "grid.t_stop=0.02"],
    ["snapshot", "--set", "release.n_tx=20", "--set", "snapshot.times=0.01"],
    ["ser", "--set", "ook.seq_len=2"],
]


def test_output_schemas_match_written_headers(tmp_path):
    # The schemas paragraph gives each kind of table its columns (a span
    # with commas), after the kind's file stem where the stem names it.
    paragraph = re.search(r"^Output-file schemas:(.*?)\n\n", TEXT, flags=re.M | re.S).group(1)
    spans = re.findall(r"`([^`]+)`", paragraph)
    headers = {}
    for k, argv in enumerate(SCHEMA_CALLS):
        out = tmp_path / str(k)
        assert cli.main([*argv, "--out", str(out)]) == 0
        for path in out.glob("*.csv"):
            lines = path.read_text().splitlines()
            headers[path.name] = next(line for line in lines if not line.startswith("#"))
    assert {span for span in spans if "," in span} == set(headers.values())
    stems = [i for i, span in enumerate(spans) if re.fullmatch(r"[a-z_]+\*?", span)]
    assert len(stems) == 5
    for i in stems:
        names = fnmatch.filter(headers, spans[i] + ".csv")
        assert names and {headers[name] for name in names} == {spans[i + 1]}
