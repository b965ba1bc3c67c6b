"""Every demo runs its preset through the CLI end to end, and only through it."""

import ast
import importlib.util
from pathlib import Path

import pytest

from ductflow import cli

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def load_demo(path):
    # Importing runs the module body (imports and constants) but not main().
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_exist():
    assert {p.stem for p in DEMOS} >= {"error_rate_sweep", "impulse_responses",
                                       "particle_snapshots", "transport_regimes"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(load_demo(path).main)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_uses_only_the_cli(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ductflow"):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("ductflow")}
    assert imported == {"ductflow.cli"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_fails_when_the_cli_fails(path, tmp_path, monkeypatch):
    module = load_demo(path)
    monkeypatch.setattr(module, "OUT", tmp_path)
    monkeypatch.setattr(cli, "main", lambda argv: cli.EXIT_CONFIG)
    with pytest.raises(SystemExit):
        module.main()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    module = load_demo(path)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    written = sorted(tmp_path.rglob("*.csv"))
    assert written
    printed = capsys.readouterr().out.splitlines()
    for table in written:
        assert str(table) in printed
        assert any(line.startswith("# config_digest = ")
                   for line in table.read_text().splitlines())
