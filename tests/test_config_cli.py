"""Configuration resolution, preset defaults, emission, and the CLI surface."""

import argparse
import ast
import importlib
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ductflow
from ductflow import SerMethod, particles, presets
from ductflow.cli import _build_parser, main
from ductflow.config import KEY_REGISTRY, MAX_GRID_POINTS, ConfigError, load_config, parse_value
from ductflow.output import Table, emit_table, format_value
from ductflow.presets import ACTIONS, PRESETS, preset_config
from conftest import exit_in_worker, raise_in_worker


class TestParsing:
    @pytest.mark.parametrize("key,text,expected", [
        ("channel.radius", "10 um", 10e-6),
        ("channel.radius", "0.2 mm", 0.2e-3),
        ("channel.diffusion", "1e-10", 1e-10),
        ("channel.diffusion", "100 um^2/s", 1e-10),
        ("channel.mean_velocity", "1 mm/s", 1e-3),
        ("sim.time_step", "1 ms", 1e-3),
        ("rx.extent_phi", "90 deg", math.pi / 2),
        ("release.n_tx", "1e6", 1_000_000),
    ])
    def test_scalar_values(self, key, text, expected):
        assert parse_value(key, text) == pytest.approx(expected, rel=1e-15)

    def test_list_values(self):
        assert parse_value("ser.distances", "200 um, 400 um, 800 um") == \
            (200e-6, 400e-6, 800e-6)
        assert parse_value("snapshot.times", "0.02,0.2,0.8") == (0.02, 0.2, 0.8)

    def test_unknown_unit_names_key(self):
        with pytest.raises(ConfigError, match="channel.radius"):
            parse_value("channel.radius", "10 parsec")

    def test_unit_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="sim.time_step"):
            parse_value("sim.time_step", "10 um")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_value("channel.bogus", "1")

    def test_method_list(self):
        # ook.method lists SerMethod names in order; one name is a list of one.
        assert parse_value("ook.method", "poisson_analytic, Monte_Carlo_Counts") == \
            ("poisson_analytic", "monte_carlo_counts")
        assert parse_value("ook.method", "binomial_analytic") == ("binomial_analytic",)
        for text in ("poisson_analytic, nope", " , ", "poisson_analytic, Poisson_Analytic"):
            with pytest.raises(ConfigError, match="ook.method"):
                parse_value("ook.method", text)

    def test_default_method_renders_as_one_name(self):
        # The one-entry default keeps the header line and digest of a scalar.
        cfg = load_config()
        assert cfg["ook.method"] == ("poisson_analytic",)
        assert cfg.header()["config.ook.method"] == "poisson_analytic [default]"

    @pytest.mark.parametrize("text", ["nan", "inf", "1e400", "-1e400"])
    @pytest.mark.parametrize("key", ["release.n_tx", "ook.threshold", "ook.noise_mean",
                                     "channel.diffusion", "ser.distances"])
    def test_non_finite_is_refused(self, key, text):
        with pytest.raises(ConfigError, match=key):
            parse_value(key, text)

    @pytest.mark.parametrize("key", [key for key, (default, _) in KEY_REGISTRY.items()
                                     if not callable(default)])
    def test_default_survives_render_and_parse(self, key):
        default = KEY_REGISTRY[key][0]
        text = (",".join(map(format_value, default)) if isinstance(default, tuple)
                else format_value(default))
        assert parse_value(key, text) == default

    def test_integers_are_read_exactly(self):
        # 2^53 + 1 is the first integer a double cannot hold.
        assert parse_value("release.n_tx", "9007199254740993") == 2 ** 53 + 1
        assert parse_value("release.n_tx", "1e6") == 1_000_000
        for text in ("1.5", "1_000"):
            with pytest.raises(ConfigError, match="release.n_tx"):
                parse_value("release.n_tx", text)

    def test_specials(self):
        assert parse_value("ook.detection_delay", "auto") == "auto"
        assert parse_value("ook.detection_delay", "50 ms") == 0.05
        assert parse_value("ook.threshold", "optimal") == "optimal"
        assert parse_value("ook.threshold", "42") == 42

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# scenario\n"
            "channel.radius = 200 um\n"
            "rx.distance = 800 um  # far receiver\n"
            "release.kind = point\n",
            encoding="utf-8")
        cfg = load_config(file_path=path)
        assert cfg["channel.radius"] == 200e-6
        assert cfg["rx.distance"] == 800e-6
        assert cfg.provenance["channel.radius"] == "file"
        assert cfg.provenance["channel.diffusion"] == "default"

    def test_file_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("channel.radius 10 um\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_config(file_path=path)

    def test_file_with_removed_key_is_refused(self, tmp_path):
        # The flow is given by its mean velocity only.
        path = tmp_path / "run.cfg"
        path.write_text("channel.viscosity = 1 mPa.s\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown configuration key 'channel.viscosity'"):
            load_config(file_path=path)


class TestResolution:
    def test_receiver_extents_follow_radius(self):
        cfg = load_config(overrides={"channel.radius": "200 um"})
        assert cfg["rx.extent_x"] == 100e-6
        assert cfg["rx.extent_r"] == 100e-6
        assert cfg["release.r0"] == pytest.approx(150e-6, rel=1e-15)

    def test_explicit_extent_wins_over_derivation(self):
        cfg = load_config(overrides={"channel.radius": "200 um",
                                     "rx.extent_x": "30 um"})
        assert cfg["rx.extent_x"] == 30e-6
        assert cfg["rx.extent_r"] == 100e-6

    def test_flag_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("channel.radius = 200 um\n", encoding="utf-8")
        cfg = load_config(file_path=path, overrides={"channel.radius": "10 um"})
        assert cfg["channel.radius"] == 10e-6
        assert cfg.provenance["channel.radius"] == "flag"

    def test_time_grid_size_is_bounded(self):
        grid = load_config(overrides={"grid.t_step": "1e-6"}).time_grid()
        assert grid.size == MAX_GRID_POINTS
        for key, value in (("grid.t_step", "1e-7"), ("grid.t_stop", "1e300")):
            with pytest.raises(ConfigError, match="points, more than the 1000000 allowed"):
                load_config(overrides={key: value}).time_grid()

    def test_invariant_violations_become_config_errors(self):
        cfg = load_config(overrides={"rx.distance": "1 um"})
        with pytest.raises(ConfigError):
            cfg.receiver()

    def test_header_carries_every_value_and_provenance(self):
        cfg = load_config(overrides={"channel.radius": "200 um"}, seed=9)
        header = cfg.header()
        assert header["config.channel.radius"].endswith("[flag]")
        assert header["config.seed"] == "9 [flag]"
        assert "config_digest" in header


class TestPresetDefaults:
    """The resolved preset parameters are the published operating point."""

    def test_snapshot_preset(self):
        cfg = preset_config("snapshot_small_duct")
        assert cfg["channel.radius"] == 10e-6
        assert cfg["channel.diffusion"] == 1e-10
        assert cfg["channel.mean_velocity"] == 1e-3
        assert cfg["sim.time_step"] == 1e-3
        assert cfg["release.n_tx"] == 1_000
        assert cfg["snapshot.times"] == (0.02, 0.2, 0.8)
        assert cfg["rx.extent_phi"] == math.pi / 2

    @pytest.mark.parametrize("name,radius", [("cir_small_duct", 10e-6),
                                             ("cir_large_duct", 200e-6)])
    def test_cir_presets(self, name, radius):
        cfg = preset_config(name)
        assert cfg["channel.radius"] == radius
        assert cfg["channel.diffusion"] == 1e-10
        assert cfg["release.n_tx"] == 1_000_000
        assert cfg["cir.distances"] == (200e-6, 800e-6)
        assert cfg["rx.extent_x"] == radius / 2
        assert cfg["rx.extent_r"] == radius / 2
        assert cfg["release.r0"] == 0.75 * radius

    def test_regime_preset(self):
        cfg = preset_config("regime_map")
        assert cfg["regime.radii"] == (10e-6, 200e-6)
        assert cfg["regime.distances"] == (200e-6, 800e-6)

    def test_ser_preset(self):
        cfg = preset_config("ser_sweep")
        assert cfg["channel.radius"] == 200e-6
        assert cfg["channel.diffusion"] == 1e-12
        assert cfg["release.n_tx"] == 1_000
        assert cfg["ook.noise_mean"] == 4.0
        assert cfg["ook.seq_len"] == 8
        assert cfg["ook.realizations"] == 10_000
        assert cfg["ser.distances"] == (200e-6, 400e-6, 600e-6, 800e-6)
        assert cfg["ser.symbol_intervals"][0] == 0.05
        assert cfg["ser.symbol_intervals"][-1] == 0.75
        assert cfg["ook.detection_delay"] == "auto"
        assert cfg["ook.threshold"] == "optimal"
        assert cfg["ook.method"] == ("poisson_analytic", "monte_carlo_counts")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")


class TestEmission:
    def test_byte_determinism(self, tmp_path):
        table = Table(("a", "b"), [(1, 0.1), (2, 1e-17)], meta={"seed": 1})
        p1 = emit_table(table, tmp_path / "one.csv")
        p2 = emit_table(table, tmp_path / "two.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_table_is_header_only(self, tmp_path):
        table = Table(("t_s", "count", "n_tx"), [], meta={"seed": 4})
        text = emit_table(table, tmp_path / "empty.csv").read_text()
        assert text == "# seed = 4\nt_s,count,n_tx\n"

    def test_float_formatting_round_trips(self, tmp_path):
        value = 0.1 + 0.2
        table = Table(("x",), [(value,)])
        line = emit_table(table, tmp_path / "f.csv").read_text().splitlines()[-1]
        assert float(line) == value

    def test_json_round_trips_infinity(self, tmp_path):
        # Tables are CSV only.  D = 0 puts the Peclet number, and so the
        # margin, at infinity, which must read back from its cell.
        out = tmp_path / "out"
        assert main(["regime", "--set", "channel.diffusion=0", "--out", str(out)]) == 0
        lines = [line for line in (out / "regime_scenarios.csv").read_text().splitlines()
                 if not line.startswith("#")]
        columns, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        cells = [row[columns.index(name)] for row in rows for name in ("peclet", "margin")]
        assert rows and all(cell == "inf" and float(cell) == math.inf for cell in cells)


SMALL_SIM = ["--set", "release.n_tx=1500", "--set", "grid.t_stop=0.04",
             "--set", "grid.t_step=0.004", "--set", "channel.radius=200 um",
             "--set", "rx.distance=200 um"]


class TestCli:
    def test_regime_exit_ok(self, tmp_path, capsys):
        assert main(["regime", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "regime_scenarios.csv" in out

    def test_observation_interface_columns(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--seed", "3"] + SMALL_SIM) == 0
        lines = (tmp_path / "observations.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "t_s,count,n_tx"
        assert any(line.startswith("# config.seed = 3") for line in lines)

    def test_snapshot_interface_columns(self, tmp_path):
        rc = main(["snapshot", "--out", str(tmp_path), "--set", "release.n_tx=200",
                   "--set", "snapshot.times=0.01"])
        assert rc == 0
        lines = (tmp_path / "snapshot_t0.01s.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "particle_id,x_m,r2_m2"

    def test_snapshot_times_on_one_step_collapse(self, tmp_path):
        rc = main(["snapshot", "--out", str(tmp_path), "--set", "release.n_tx=50",
                   "--set", "snapshot.times=0.02,0.0201"])
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot_t0.02s.csv"]

    def test_ser_interface_columns(self, tmp_path):
        rc = main(["ser", "--out", str(tmp_path), "--seed", "8",
                   "--set", "channel.radius=200 um", "--set", "channel.diffusion=1e-12",
                   "--set", "ser.symbol_intervals=0.25 s",
                   "--set", "ook.realizations=200"])
        assert rc == 0
        lines = (tmp_path / "ser_sweep.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "T_s,d_m,xi_opt,ser,method,realizations,seed"

    def test_ser_writes_one_row_per_method(self, tmp_path):
        rc = main(["ser", "--out", str(tmp_path), "--set", "channel.radius=200 um",
                   "--set", "channel.diffusion=1e-12", "--set", "ser.symbol_intervals=0.1, 0.3",
                   "--set", "ook.method=binomial_analytic, poisson_analytic"])
        assert rc == 0
        lines = (tmp_path / "ser_sweep.csv").read_text().splitlines()
        assert "# config.ook.method = binomial_analytic;poisson_analytic [flag]" in lines
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert [(row[0], row[4]) for row in rows] == [
            ("0.10000000000000001", "binomial_analytic"),
            ("0.10000000000000001", "poisson_analytic"),
            ("0.29999999999999999", "binomial_analytic"),
            ("0.29999999999999999", "poisson_analytic")]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("layer", ["set", "file", "flag"])
    @pytest.mark.parametrize("command", [["regime"], ["ser"], ["simulate"],
                                         ["preset", "regime_map"]])
    def test_seed_out_of_range_is_config_error(self, tmp_path, capsys, command, layer, seed):
        # The seed's range is checked once, whichever layer set it.
        argv = {"set": ["--set", f"seed={seed}"], "file": ["--config", str(tmp_path / "c.cfg")],
                "flag": ["--seed", seed]}[layer]
        (tmp_path / "c.cfg").write_text(f"seed = {seed}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(command + argv + ["--out", str(out)]) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [str(2 ** 53 + 1), str(2 ** 64 - 1)])
    @pytest.mark.parametrize("layer", ["set", "file"])
    def test_large_seed_is_kept_exactly(self, tmp_path, layer, seed):
        (tmp_path / "c.cfg").write_text(f"seed = {seed}\n", encoding="utf-8")
        argv = {"set": ["--set", f"seed={seed}"], "file": ["--config", str(tmp_path / "c.cfg")]}
        out = tmp_path / "out"
        assert main(["regime"] + argv[layer] + ["--out", str(out)]) == 0
        origin = {"set": "flag", "file": "file"}[layer]
        assert f"# config.seed = {seed} [{origin}]" in \
            (out / "regime_scenarios.csv").read_text().splitlines()

    def test_threads_do_not_change_bytes(self, tmp_path):
        base = ["simulate", "--seed", "11"] + SMALL_SIM
        assert main(base + ["--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "t4"), "--threads", "4"]) == 0
        assert (tmp_path / "t1/observations.csv").read_bytes() == \
            (tmp_path / "t4/observations.csv").read_bytes()

    def test_same_seed_same_bytes(self, tmp_path):
        base = ["simulate", "--seed", "12"] + SMALL_SIM
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/observations.csv").read_bytes() == \
            (tmp_path / "b/observations.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path), "--set", "nope=1"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_runtime_error_exit_code_and_cleanup(self, tmp_path, capsys):
        # No configuration check can see that the output directory lies
        # inside a regular file.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["ser", "--out", str(blocker / "out"),
                   "--set", "channel.radius=200 um",
                   "--set", "channel.diffusion=1e-12"])
        assert rc == 3
        assert "error" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("fault", [raise_in_worker, exit_in_worker])
    def test_worker_failure_exit_code_and_cleanup(self, tmp_path, capsys, monkeypatch, fault):
        # The analytic tables are written before the engine's two runs fail
        # in their shared pool of forked workers, which inherit the patch.
        # The runs step as one group, so two blocks make the two partitions.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(particles, "_run_block", fault)
        rc = main(["preset", "cir_small_duct", "--out", str(tmp_path), "--threads", "2",
                   "--set", "release.n_tx=2100", "--set", "grid.t_stop=0.05"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("ductflow: error: ")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("setting", [
        "ook.seq_len=0", "ook.noise_mean=-1", "ook.threshold=2000",
        "ook.method=monte_carlo_counts ook.realizations=0",
        "channel.diffusion=0 channel.mean_velocity=0"])
    def test_link_invariant_is_config_error(self, tmp_path, capsys, setting):
        flags = [arg for item in setting.split() for arg in ("--set", item)]
        rc = main(["ser", "--out", str(tmp_path),
                   "--set", "channel.radius=200 um",
                   "--set", "channel.diffusion=1e-12",
                   "--set", "release.n_tx=1000"] + flags)
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_huge_sequence_length_is_config_error(self, tmp_path, capsys, monkeypatch):
        # 1e9 detection offsets would take 7.45 GiB; they are refused as a
        # time grid past MAX_GRID_POINTS is, before any is made.
        def offsets(*args, **kwargs):
            raise AssertionError("detection offsets were made for a refused sequence length")
        monkeypatch.setattr(presets, "detection_offsets", offsets)
        rc = main(["ser", "--out", str(tmp_path), "--set", "ook.seq_len=1e9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "1000000000 detection offsets" in err
        assert str(MAX_GRID_POINTS) in err
        assert list(tmp_path.rglob("*")) == []

    def test_every_link_is_checked_before_the_engine(self, tmp_path, capsys, monkeypatch):
        # A refused link must not wait behind a 100 000-particle pool.
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran before every link was checked")
        monkeypatch.setattr(presets, "run_many", engine)
        monkeypatch.setattr(particles, "run_many", engine)
        rc = main(["ser", "--out", str(tmp_path), "--set", "ook.method=particle_binomial",
                   "--set", "release.n_tx=100", "--set", "ook.threshold=500"])
        assert rc == 2
        assert "detection threshold must lie in" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == []

    def test_realizations_are_checked_before_any_ser_work(self, tmp_path, capsys, monkeypatch):
        # The count Monte Carlo runs after every point's threshold search and
        # engine pool, so its realization count is refused before either.
        def work(*args, **kwargs):
            raise AssertionError("SER work ran before ook.realizations was checked")
        for name in ("optimal_threshold", "ser_analytic", "run_many"):
            monkeypatch.setattr(presets, name, work)
        rc = main(["ser", "--out", str(tmp_path),
                   "--set", "ook.method=particle_binomial,monte_carlo_counts",
                   "--set", "ook.realizations=0"])
        assert rc == 2
        assert "need at least one realization" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == []

    def test_command_table_is_the_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for name, (_, help_text) in ACTIONS.items():
            assert f"{name} {help_text}" in text
        subparsers = next(action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(ACTIONS) | {"preset"}

    def test_preset_runs_when_shrunk(self, tmp_path):
        rc = main(["preset", "snapshot_small_duct", "--out", str(tmp_path),
                   "--seed", "2", "--set", "release.n_tx=300",
                   "--set", "snapshot.times=0.02"])
        assert rc == 0
        assert (tmp_path / "snapshot_t0.02s.csv").exists()

    def test_particle_monte_carlo_is_gone(self, tmp_path, capsys):
        rc = main(["ser", "--out", str(tmp_path), "--set", "ook.method=monte_carlo_particles"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ook.method" in err and all(m.value in err for m in SerMethod)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_config_error(self, tmp_path, capsys, threads):
        rc = main(["simulate", "--out", str(tmp_path), "--threads", threads] + SMALL_SIM)
        assert rc == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_custom_preset_is_not_runnable(self, tmp_path):
        # Only runnable presets are choices, so argparse refuses the name.
        with pytest.raises(SystemExit) as exc:
            main(["preset", "custom", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_format_flag_is_refused(self, tmp_path, capsys):
        # Tables are written as CSV only; argparse refuses the flag.
        with pytest.raises(SystemExit) as exc:
            main(["regime", "--format", "json", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "sim.time_step=0"],
        *([command, "--set", "rx.extent_r=30um", "--set", "channel.radius=20um"]
          for command in ("simulate", "cir", "ser")),
        # Two sample times snap to one engine step.
        ["simulate", "--set", "grid.t_step=1e-4", "--set", "release.n_tx=10"],
        ["snapshot", "--set", "snapshot.times=-1"],
        # No key reads "none".
        *(["cir", "--set", f"{key}=none"] for key in ("channel.mean_velocity", "channel.radius")),
        # The flow is given by its mean velocity only.
        *(["cir", "--set", setting] for setting in ("channel.pressure_gradient=800 Pa/m",
                                                     "channel.viscosity=1 mPa.s")),
        # A point release at r0 = 20 um lies outside the default 10 um duct.
        *(argv + ["--set", "release.r0=20um"] for argv in (
            ["cir"], ["preset", "cir_small_duct"], ["simulate", "--set", "release.kind=point"])),
        # Non-finite numbers are refused where they are read.
        ["ser", "--set", "ook.noise_mean=nan"], ["ser", "--set", "release.n_tx=inf"],
        # Past 2**53 a particle count is not an exact double.
        *(["ser", "--set", f"release.n_tx={n}"] for n in ("1e20", "1e300")),
        # A grid that starts before the release, for the closed forms and the engine.
        *([command, "--set", "grid.t_start=-0.1"] for command in ("cir", "simulate")),
        # A grid of 1e302 points is refused before it is allocated.
        ["cir", "--set", "grid.t_stop=1e300"],
    ])
    def test_invalid_setting_is_config_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("command", ["cir", "ser"])
    @pytest.mark.parametrize("setting, message", [
        # d / (2 vbar band) overflows, so both transit times are inf.
        ("channel.mean_velocity=5e-324", "transit times must satisfy 0 < t1 < t2"),
        # c_phi / 2 pi underflows to 0, so the receiver covers no area.
        ("rx.extent_phi=5e-324", "receiver area fraction must lie in (0, 1]"),
    ])
    def test_degenerate_flow_form_is_config_error(self, tmp_path, capsys, command, setting,
                                                  message):
        argv = [command, "--out", str(tmp_path), "--set", setting, "--set", "channel.diffusion=0"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == []

    def test_binomial_ser_has_no_false_floor(self, tmp_path):
        # At T = 0.3 s three offsets have p below 1e-38: each P(X = 0) is 1
        # to double precision, so no rounding floor of about 1e-15 may show.
        # The errors are tiny but not 0: at xi = 31 the exact SER is 5.9e-18,
        # mostly false alarms P(Poisson(4) >= 31) / 2, and its minimum,
        # 4.8e-19, lies at xi = 33 (40-digit mpmath).
        assert main(["ser", "--out", str(tmp_path), "--set", "channel.radius=10 um",
                     "--set", "channel.diffusion=1e-9",
                     "--set", "ser.symbol_intervals=0.05, 0.3",
                     "--set", "ook.method=binomial_analytic"]) == 0
        body = [line.split(",") for line in (tmp_path / "ser_sweep.csv").read_text().splitlines()
                if not line.startswith("#")]
        rows = {float(row[0]): (int(row[2]), float(row[3])) for row in body[1:]}
        xi, ser = rows[0.3]
        assert xi == 33 and 0.0 < ser <= 5.9e-18

    def test_public_names_resolve(self):
        # A stale export would break ``from ductflow import *``.
        assert [name for name in ductflow.__all__ if not hasattr(ductflow, name)] == []

    @staticmethod
    def _cli_scipy_modules() -> list[str]:
        """The ``scipy`` modules that a fresh ``import ductflow.cli`` loads."""
        src = str(Path(ductflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, ductflow.cli; print('\\n'.join(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        return result.stdout.split()

    def test_import_loads_no_scipy(self):
        # scipy.special alone cost about 0.3 s of every CLI run.  Only the
        # quadrature oracles need scipy, and ductflow imports them on first use.
        assert self._cli_scipy_modules() == []

    def test_import_skips_scipy_stats(self):
        # scipy.stats alone costs about half a second of every CLI run.
        assert "scipy.stats" not in self._cli_scipy_modules()

    def test_import_skips_scipy_integrate(self):
        # Only the quadrature oracles need scipy.integrate, and ductflow
        # imports them on first use.
        assert "scipy.integrate" not in self._cli_scipy_modules()
        assert ductflow.oracle_cir_flow is ductflow.oracles.oracle_cir_flow

    def test_oracles_name_their_extra_without_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.integrate", None)
        monkeypatch.delitem(sys.modules, "ductflow.oracles", raising=False)
        with pytest.raises(ImportError, match=r"pip install ductflow\[oracles\]"):
            importlib.import_module("ductflow.oracles")

    @staticmethod
    def _package_imports(module: str) -> set[str]:
        """The ``ductflow`` modules that ``ductflow/<module>.py`` imports, by AST."""
        source = Path(ductflow.__file__).with_name(f"{module}.py").read_text()
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    found |= ({node.module} if node.module
                              else {alias.name for alias in node.names})
                elif (node.module or "").startswith("ductflow"):
                    found.add(node.module)
            elif isinstance(node, ast.Import):
                found |= {alias.name for alias in node.names
                          if alias.name.startswith("ductflow")}
        return {name.removeprefix("ductflow.") for name in found}

    def test_layering(self):
        # The link layer sees the channel only through its observation
        # probabilities, and the engine needs only the duct geometry.
        assert self._package_imports("ook") == set()
        assert self._package_imports("particles") == {"duct"}
        assert self._package_imports("presets") >= {"ook", "particles", "impulse"}

    def test_every_output_embeds_config_and_seed(self, tmp_path):
        assert main(["regime", "--out", str(tmp_path), "--seed", "77"]) == 0
        for path in tmp_path.glob("*.csv"):
            text = path.read_text()
            assert "# config.seed = 77 [flag]" in text
            assert "# config.channel.radius" in text
            assert "# config_digest" in text


class TestRunPresetApi:
    def test_regime_map_outputs(self, tmp_path):
        cfg = preset_config("regime_map")
        runner, _ = PRESETS["regime_map"]
        paths = runner(cfg, tmp_path, 1)
        names = sorted(p.name for p in paths)
        assert names == ["regime_boundary.csv", "regime_scenarios.csv"]
        body = [line for line in (tmp_path / "regime_scenarios.csv").read_text().splitlines()
                if not line.startswith("#")]
        rows = [line.split(",") for line in body[1:]]
        dots = {(float(r[3]), float(r[2])) for r in rows}
        assert dots == {(100.0, 20.0), (100.0, 80.0), (2000.0, 1.0), (2000.0, 4.0)}

    def test_all_presets_resolve(self):
        for name, (runner, _) in PRESETS.items():
            assert callable(runner)
            preset_config(name)


#: Output of ``preset <name> --seed 2017 --set release.n_tx=300 --set
#: grid.t_stop=1.0`` (``CIR_ARGS``): printed file names in order, then the
#: SHA-256 of every CSV.  The digests depend on the engine's random streams
#: and on the float formatting of the tables; a change that alters the streams on purpose
#: updates them and says so in CHANGES.md.
CIR_GOLDEN_ORDER = [
    "cir_analytic_d200um.csv", "cir_analytic_d800um.csv", "cir_peaks.csv",
    "cir_sim_uniform_d200um.csv", "cir_sim_point_d200um.csv",
    "cir_sim_uniform_d800um.csv", "cir_sim_point_d800um.csv",
]
CIR_GOLDEN_SHA256 = {
    "cir_small_duct": {
        "cir_analytic_d200um.csv": "b3d6d2973914f4448dc4d9a551fb30c25a7419138f79464f7f70534281d65e08",
        "cir_analytic_d800um.csv": "d4f8cdfdb890faf619526dfdd89199d2bf3cb7efd21c9533d9402e3aa0eb0952",
        "cir_peaks.csv": "538a6cc7038328f1d01392a39ef2645e5f8ad2a6c065ee625fa44d5affcfd4ec",
        "cir_sim_point_d200um.csv": "3ed04523e70fcfdf89fd546640513df572ec518fa16195c2dad8c91702ca3240",
        "cir_sim_point_d800um.csv": "e4b59ef9334aeac6e8521f63771a143d8a22c41ffd7b95a2f93423de632f8db9",
        "cir_sim_uniform_d200um.csv": "d0a853c7850fe1b1d03e25907d57d7887a9aaaedc0a47c54cb4486bcd806deb1",
        "cir_sim_uniform_d800um.csv": "7432faa412b37008f48fceefb772c624bcde84cb79b2f620b394cdfd3e76b11b",
    },
    "cir_large_duct": {
        "cir_analytic_d200um.csv": "1a2e8704911ad491540f62055fd047603c8e3780a7e22b10734135b2a5659e27",
        "cir_analytic_d800um.csv": "1d93783d3cab45cdcce91d77b210e2dd7b02c3b415e7f2a6650fb98bb12d2183",
        "cir_peaks.csv": "c4d7d26d8ccc1f7cb5c95718c0b0f97df2b57ac22a3feaa409c2343c9c4950ce",
        "cir_sim_point_d200um.csv": "315a7b14ae27ea31af16623373cab9be2c3ca82eb4c4387dfc2bf427362d6d0e",
        "cir_sim_point_d800um.csv": "a6eecd9f6f83fa79f625e19b4ceeb23687c3f1a04f3da0f8fcf190d27863c530",
        "cir_sim_uniform_d200um.csv": "a88f054bbde5f0dc604067f242e2ee123256b9c358ed4fd7bef79eebd389c2e1",
        "cir_sim_uniform_d800um.csv": "3ff7f9221f4c763f2a98f2642c1221b578685386e1e4029034282a3c39803055",
    },
}


CIR_ARGS = ["--seed", "2017", "--set", "release.n_tx=300", "--set", "grid.t_stop=1.0"]
SER_ARGS = ["--seed", "8", "--set", "channel.radius=200 um", "--set", "channel.diffusion=1e-12",
            "--set", "ser.distances=200 um, 600 um", "--set", "ser.symbol_intervals=0.1, 0.35",
            "--set", "ook.realizations=300"]
SIM_ARGS = ["--seed", "11", "--set", "release.n_tx=1500", "--set", "grid.t_stop=0.3",
            "--set", "channel.radius=10 um", "--set", "rx.distance=200 um"]

#: Every pinned CLI call: its arguments (before ``--out`` and ``--threads``),
#: the printed file names in order, and the SHA-256 of every file written.
#: Refactors keep these bytes; a change of the random streams, the SER
#: arithmetic or the file formats updates them and says so in CHANGES.md.
GOLDEN = {name: (["preset", name] + CIR_ARGS, CIR_GOLDEN_ORDER, digests)
          for name, digests in CIR_GOLDEN_SHA256.items()}
GOLDEN.update({
    # No particles released: every simulated pob, stderr and half-width is 0.
    "cir_no_release": (
        ["preset", "cir_small_duct", "--set", "release.n_tx=0", "--set", "grid.t_stop=0.1"],
        CIR_GOLDEN_ORDER,
        {"cir_analytic_d200um.csv": "9ad5abc9277601d1d944d23aa3d465ea7dc92bada6fa285598c316a1f354185c",
         "cir_analytic_d800um.csv": "957387854b8c3ed21869c6a7b9f7945b3b306a1d8a964d56d4773bb3bac3b590",
         "cir_peaks.csv": "d606ed36eafb783994d3fdda210fd0fe492e767b874083ca95510fed08a26548",
         "cir_sim_point_d200um.csv": "50e514ed43f64b610cac939a3b2c69a1bc5c583a7b05f37c6e3631d6477702f6",
         "cir_sim_point_d800um.csv": "a81d954e1c93101e89c12f1e6726431235e9671ecbb1cafe566743679ca37ccc",
         "cir_sim_uniform_d200um.csv": "e2894d1bb3c1f486ebbc2e4c717da6199ec4bf9ccf3a17bad7bd77d6ed03712d",
         "cir_sim_uniform_d800um.csv": "8dc072ce67a252dc502efcd9764a17ae2aa4e3719f88ac361a8b4ac8d670367a"}),
    "ser_sweep": (
        ["preset", "ser_sweep", "--seed", "5", "--set", "ser.distances=200 um, 800 um",
         "--set", "ser.symbol_intervals=0.1, 0.5", "--set", "ook.realizations=500"],
        ["ser_sweep.csv"],
        {"ser_sweep.csv": "1a757759ee918f80731d21992bd71146bb954cd6cc46ff9874fbf88f46377dde"}),
    "ser_binomial": (
        ["ser", "--set", "ook.method=binomial_analytic"] + SER_ARGS,
        ["ser_sweep.csv"],
        {"ser_sweep.csv": "01af4438fd6a8fcf3d0a0e7fc10159f2720399c7c8fcf25729e914b5a9f43823"}),
    # A fixed threshold: the one route into ser_analytic's Poisson branch,
    # where no threshold search runs.
    "ser_fixed_threshold": (
        ["ser", "--set", "ook.threshold=20"] + SER_ARGS,
        ["ser_sweep.csv"],
        {"ser_sweep.csv": "b8d8e1d6f76ddbb26e70f5fdc54f17e35c6eeeb77e9a7334b10a047123893226"}),
    "ser_particle": (
        ["ser", "--set", "ook.method=particle_binomial", "--set", "ook.realizations=0",
         "--set", "channel.radius=10 um", "--set", "channel.diffusion=0"],
        ["ser_sweep.csv"],
        {"ser_sweep.csv": "288855775c24dedaf8a7f768ff9af1c74154a0495c046060cf3d4028807c3a08"}),
    "simulate": (
        ["simulate"] + SIM_ARGS,
        ["observations.csv"],
        {"observations.csv": "79089524d6cbf2f44c084b37ea7fb9d4ab14e74e5dc45a63596d7ec6a0151b4f"}),
    "simulate_flow_only": (
        ["simulate", "--set", "channel.diffusion=0"] + SIM_ARGS,
        ["observations.csv"],
        {"observations.csv": "fffaed4df227736e50928c6f5594a003d68d809eee0c59bc360b32bd4ac36f9e"}),
    "snapshot_small_duct": (
        ["preset", "snapshot_small_duct", "--seed", "2", "--set", "release.n_tx=300"],
        ["snapshot_t0.02s.csv", "snapshot_t0.2s.csv", "snapshot_t0.8s.csv"],
        {"snapshot_t0.02s.csv": "9e8e5cfaa9c6ea8e1f80499b2037df95b9782e30b369ec90b1055a8e912760ce",
         "snapshot_t0.2s.csv": "4b6e7f3182a17e14477096832a945391b187db4f87632846b98d1b99dc7cad18",
         "snapshot_t0.8s.csv": "4a18af7d350e2a9debaa8f4a5b559ac90cae29a830549fd0e47d40df7afaada5"}),
    "regime_map": (
        ["preset", "regime_map"],
        ["regime_scenarios.csv", "regime_boundary.csv"],
        {"regime_scenarios.csv": "4605253ec4e99d68c0ed849536bddc77606459024f706da7fb48c87f9160746e",
         "regime_boundary.csv": "7cefcc3333722308f9ced27bc40b1abe19245bd43578637eb638d1f1e5cb2552"}),
    "regime": (
        ["regime"],
        ["regime_scenarios.csv", "regime_boundary.csv"],
        {"regime_scenarios.csv": "b5af483a70730698f737ef65e5dad5c79165a5ad09129db153bda86f4a9ebbf9",
         "regime_boundary.csv": "05ed45ec69e97c62b621ff94f02a5589f4c43cd7c7434046db67da8c4be496b3"}),
    "snapshot": (
        ["snapshot", "--set", "release.n_tx=300"],
        ["snapshot_t0.02s.csv", "snapshot_t0.2s.csv", "snapshot_t0.8s.csv"],
        {"snapshot_t0.02s.csv": "947b7f92beee3ac724a87a8ea3d78b36f6dbaee0dcba710a98ac0de6a038e541",
         "snapshot_t0.2s.csv": "abb92f00da1e939df0a1e4ec5fc86373a693cabd66971eb9fc7b08d3f8b7a99f",
         "snapshot_t0.8s.csv": "141d5df3f520047423a004a066a65f9066f41e57c0bb9110f3ebad0224a620e6"}),
})


class TestCirPresetGoldenBytes:
    """CLI calls end to end, pinned byte for byte at tiny sizes."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_outputs_match_pinned_digests(self, tmp_path, capsys, name, threads):
        argv, order, expected = GOLDEN[name]
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out), "--threads", threads])
        assert rc == 0
        printed = [Path(line).name for line in capsys.readouterr().out.splitlines()]
        assert printed == order
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert digests == expected
