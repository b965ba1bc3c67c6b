"""Every demo script still imports against the package's public names, and
the fast ones run end to end."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: Demos whose ``main()`` takes under a second; ``impulse_responses`` runs
#: particle ensembles for about 9 s and is only imported.
FAST = ["error_rate_sweep", "particle_snapshots", "transport_regimes"]


def load_demo(path):
    # Importing runs the module body (imports and constants) but not main().
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_exist():
    assert len(DEMOS) >= 4
    assert set(FAST) <= {p.stem for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(load_demo(path).main)


@pytest.mark.parametrize("name", FAST)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    module = load_demo(next(p for p in DEMOS if p.stem == name))
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    written = sorted(tmp_path.glob("*.csv"))
    assert written
    printed = capsys.readouterr().out
    assert all(str(path) in printed for path in written)
