"""Configuration resolution: defaults, config files, and overrides.

A configuration is a flat set of dotted key paths.  Values are SI with
optional scale suffixes (``10 um``, ``1 mm/s``, ``90 deg``) resolved once at
parse time, so everything downstream is plain SI floats.  Precedence is
flag > file > preset > built-in default, and the provenance of every value
is recorded and echoed into every output-file header.

The file format is one ``key = value`` pair per line; ``#`` starts a
comment; list-valued keys take comma-separated entries, each with its own
optional unit (``ook.method`` lists ``SerMethod`` names).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .duct import (DuctChannelConfig, ReceiverVolume, ReleaseKind, ReleaseSpec,
                   mean_velocity_from_pressure, validate_receiver, validate_release)
from .ook import SerMethod
from .output import format_value, short_digest

__all__ = ["ConfigError", "KeySpec", "ResolvedConfig", "load_config", "KEY_REGISTRY"]


class ConfigError(ValueError):
    """A configuration problem the user must fix (CLI exit code 2)."""


# Power-of-ten scales are Decimal so that e.g. "10 um" resolves to exactly
# the double 10e-6 (one rounding, not two); irrational scales stay floats.
_D = Decimal
_UNIT_SCALES = {
    "length": {"m": _D(1), "cm": _D("1e-2"), "mm": _D("1e-3"),
               "um": _D("1e-6"), "µm": _D("1e-6"), "nm": _D("1e-9")},
    "time": {"s": _D(1), "ms": _D("1e-3"), "us": _D("1e-6"), "µs": _D("1e-6"),
             "min": _D(60)},
    "velocity": {"m/s": _D(1), "mm/s": _D("1e-3"), "um/s": _D("1e-6"),
                 "µm/s": _D("1e-6")},
    "diffusivity": {"m^2/s": _D(1), "m2/s": _D(1), "mm^2/s": _D("1e-6"),
                    "mm2/s": _D("1e-6"), "um^2/s": _D("1e-12"),
                    "um2/s": _D("1e-12"), "µm^2/s": _D("1e-12")},
    "angle": {"rad": _D(1), "deg": math.pi / 180.0},
    "pressure_gradient": {"Pa/m": _D(1), "kPa/m": _D("1e3"), "MPa/m": _D("1e6")},
    "viscosity": {"Pa.s": _D(1), "Pa*s": _D(1), "mPa.s": _D("1e-3"),
                  "mPa*s": _D("1e-3")},
    "dimensionless": {},
}

_NUMBER_RE = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(.*)$")

#: Sentinel for defaults computed from other resolved values.
_DERIVED = object()


@dataclass(frozen=True)
class KeySpec:
    kind: str                 # quantity | quantity_list | int | float | enum | enum_list | special
    dimension: str = "dimensionless"
    choices: tuple = ()
    default: object = None


KEY_REGISTRY: dict[str, KeySpec] = {
    "channel.radius": KeySpec("quantity", "length", default=10e-6),
    "channel.diffusion": KeySpec("quantity", "diffusivity", default=1e-10),
    "channel.mean_velocity": KeySpec("quantity", "velocity", default=1e-3),
    "channel.pressure_gradient": KeySpec("quantity", "pressure_gradient", default=None),
    "channel.viscosity": KeySpec("quantity", "viscosity", default=None),
    "rx.distance": KeySpec("quantity", "length", default=200e-6),
    "rx.extent_x": KeySpec("quantity", "length", default=_DERIVED),
    "rx.extent_r": KeySpec("quantity", "length", default=_DERIVED),
    "rx.extent_phi": KeySpec("quantity", "angle", default=math.pi / 2.0),
    "release.kind": KeySpec("enum", choices=("uniform", "point"), default="uniform"),
    "release.n_tx": KeySpec("int", default=10_000),
    "release.r0": KeySpec("quantity", "length", default=_DERIVED),
    "release.phi0": KeySpec("quantity", "angle", default=0.0),
    "sim.time_step": KeySpec("quantity", "time", default=1e-3),
    "grid.t_start": KeySpec("quantity", "time", default=_DERIVED),
    "grid.t_stop": KeySpec("quantity", "time", default=1.0),
    "grid.t_step": KeySpec("quantity", "time", default=1e-2),
    "snapshot.times": KeySpec("quantity_list", "time", default=(0.02, 0.2, 0.8)),
    "cir.distances": KeySpec("quantity_list", "length", default=_DERIVED),
    "regime.radii": KeySpec("quantity_list", "length", default=_DERIVED),
    "regime.distances": KeySpec("quantity_list", "length", default=_DERIVED),
    "ook.symbol_interval": KeySpec("quantity", "time", default=0.1),
    "ook.seq_len": KeySpec("int", default=8),
    "ook.detection_delay": KeySpec("special", "time", default="auto"),
    "ook.threshold": KeySpec("special", default="optimal"),
    "ook.noise_mean": KeySpec("float", default=4.0),
    "ook.realizations": KeySpec("int", default=10_000),
    "ook.method": KeySpec("enum_list", choices=tuple(m.value for m in SerMethod),
                          default=(SerMethod.POISSON_ANALYTIC.value,)),
    "ser.distances": KeySpec("quantity_list", "length", default=_DERIVED),
    "ser.symbol_intervals": KeySpec("quantity_list", "time", default=_DERIVED),
    "seed": KeySpec("int", default=1),
}


def _parse_scalar(text: str, spec: KeySpec, key: str) -> float:
    text = text.strip()
    match = _NUMBER_RE.match(text)
    if not match:
        raise ConfigError(f"key '{key}': cannot parse number from {text!r}")
    number_text, unit = match.group(1), match.group(2).strip()
    if not unit:
        return float(number_text)
    scales = _UNIT_SCALES.get(spec.dimension, {})
    if unit not in scales:
        raise ConfigError(f"key '{key}': unknown unit {unit!r} for {spec.dimension}")
    scale = scales[unit]
    if isinstance(scale, Decimal):
        try:
            return float(Decimal(number_text) * scale)
        except InvalidOperation:  # pragma: no cover - regex already vetted it
            raise ConfigError(f"key '{key}': cannot parse number from {text!r}") from None
    return float(number_text) * scale


def _parse_int(text: str, key: str) -> int:
    try:
        value = float(text.strip())
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse integer from {text!r}") from None
    if value != int(value):
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}")
    return int(value)


def _parse_choice(text: str, spec: KeySpec, key: str) -> str:
    value = text.strip().lower()
    if value not in spec.choices:
        raise ConfigError(f"key '{key}': expected one of {spec.choices}, got {text!r}")
    return value


def parse_value(key: str, text: str):
    """Parse one textual value for ``key`` according to the registry."""
    if key not in KEY_REGISTRY:
        raise ConfigError(f"unknown configuration key '{key}'")
    spec = KEY_REGISTRY[key]
    text = text.strip()
    if spec.kind == "quantity":
        if spec.default is None and text.lower() == "none":
            return None
        return _parse_scalar(text, spec, key)
    if spec.kind in ("quantity_list", "enum_list"):
        items = [item for item in text.split(",") if item.strip()]
        if not items:
            raise ConfigError(f"key '{key}': expected a non-empty list")
        parse = _parse_choice if spec.kind == "enum_list" else _parse_scalar
        values = tuple(parse(item, spec, key) for item in items)
        if spec.kind == "enum_list" and len(set(values)) < len(values):
            raise ConfigError(f"key '{key}': an entry is listed twice in {text!r}")
        return values
    if spec.kind == "int":
        return _parse_int(text, key)
    if spec.kind == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"key '{key}': cannot parse number from {text!r}") from None
    if spec.kind == "enum":
        return _parse_choice(text, spec, key)
    if spec.kind == "special":
        lowered = text.lower()
        if key == "ook.detection_delay":
            return "auto" if lowered == "auto" else _parse_scalar(text, spec, key)
        if key == "ook.threshold":
            return "optimal" if lowered == "optimal" else _parse_int(text, key)
    raise ConfigError(f"key '{key}': unsupported value {text!r}")


def _read_config_file(path: str | Path) -> dict[str, object]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        values[key] = parse_value(key, text)
    return values


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully resolved SI configuration plus the provenance of every value."""

    values: dict
    provenance: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def digest(self) -> str:
        printable = {k: v for k, v in self.values.items() if v is not None}
        return short_digest({k: format_value(v) if not isinstance(v, tuple)
                             else ";".join(format_value(x) for x in v)
                             for k, v in printable.items()})

    def header(self, **extra) -> dict:
        """Reproducibility header echoed into every output file."""
        meta: dict = {"generator": "ductflow"}
        meta.update(extra)
        meta["config_digest"] = self.digest()
        for key in KEY_REGISTRY:
            value = self.values[key]
            if value is None:
                continue
            if isinstance(value, tuple):
                rendered = ";".join(format_value(v) for v in value)
            else:
                rendered = format_value(value)
            meta[f"config.{key}"] = f"{rendered} [{self.provenance[key]}]"
        return meta

    # -- domain-object builders (invariant violations become ConfigError) --

    def build(self, factory, *args, **kwargs):
        """``factory(*args, **kwargs)``, with its ValueError raised as a ConfigError."""
        try:
            return factory(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def channel(self) -> DuctChannelConfig:
        """The duct; a pressure gradient and viscosity give its mean velocity."""
        radius = self.values["channel.radius"]
        velocity = self.values["channel.mean_velocity"]
        grad = self.values["channel.pressure_gradient"]
        if grad is not None:
            if self.provenance["channel.mean_velocity"] != "default":
                raise ConfigError(
                    "give either channel.mean_velocity or channel.pressure_gradient "
                    "(with channel.viscosity), not both")
            if self.values["channel.viscosity"] is None:
                raise ConfigError("channel.pressure_gradient requires channel.viscosity")
            velocity = self.build(mean_velocity_from_pressure, grad, radius,
                                  self.values["channel.viscosity"])
        return self.build(DuctChannelConfig, radius_a=radius,
                          diffusion_D=self.values["channel.diffusion"],
                          mean_velocity=velocity)

    def receiver(self, distance: float | None = None) -> ReceiverVolume:
        """The receiver at ``distance`` (default ``rx.distance``), checked to fit the duct."""
        rx = self.build(
            ReceiverVolume,
            axial_distance_d=self.values["rx.distance"] if distance is None else distance,
            extent_cx=self.values["rx.extent_x"],
            extent_cr=self.values["rx.extent_r"],
            extent_cphi=self.values["rx.extent_phi"],
        )
        self.build(validate_receiver, self.channel(), rx)
        return rx

    def release(self, kind: str | None = None) -> ReleaseSpec:
        kind = kind or self.values["release.kind"]
        n_tx = self.values["release.n_tx"]
        if kind == "point":
            release = self.build(ReleaseSpec, ReleaseKind.POINT, n_tx,
                                 self.values["release.r0"], self.values["release.phi0"])
            self.build(validate_release, self.channel(), release)
            return release
        return self.build(ReleaseSpec, ReleaseKind.UNIFORM_CROSS_SECTION, n_tx)

    def time_grid(self):
        import numpy as np

        start = self.values["grid.t_start"]
        stop = self.values["grid.t_stop"]
        step = self.values["grid.t_step"]
        if step <= 0 or stop < start:
            raise ConfigError("grid requires t_step > 0 and t_stop >= t_start")
        n = int(round((stop - start) / step))
        return start + step * np.arange(n + 1)


def _apply_layer(values: dict, provenance: dict, layer: dict, origin: str) -> None:
    for key, value in layer.items():
        if key not in KEY_REGISTRY:
            raise ConfigError(f"unknown configuration key '{key}'")
        values[key] = value
        provenance[key] = origin


def _derive_defaults(values: dict, provenance: dict) -> None:
    radius = values["channel.radius"]
    derived = {
        "rx.extent_x": lambda: radius / 2.0,
        "rx.extent_r": lambda: radius / 2.0,
        "release.r0": lambda: 0.75 * radius,
        "grid.t_start": lambda: values["grid.t_step"],
        "cir.distances": lambda: (values["rx.distance"],),
        "regime.radii": lambda: (values["channel.radius"],),
        "regime.distances": lambda: (values["rx.distance"],),
        "ser.distances": lambda: (values["rx.distance"],),
        "ser.symbol_intervals": lambda: (values["ook.symbol_interval"],),
    }
    for key, compute in derived.items():
        if values[key] is _DERIVED:
            values[key] = compute()


def load_config(preset_values: dict | None = None, file_path: str | Path | None = None,
                overrides: dict[str, str] | None = None,
                seed: int | None = None) -> ResolvedConfig:
    """Resolve the full configuration with provenance tracking.

    Parameters
    ----------
    preset_values : dict, optional
        SI key-value pairs contributed by a named experiment preset.
    file_path : path, optional
        User config file (``key = value`` lines with unit suffixes).
    overrides : dict, optional
        Textual ``key -> value`` overrides from the command line; parsed
        with the same unit rules as the file.
    seed : int, optional
        Convenience override for the ``seed`` key.
    """
    values = {key: spec.default for key, spec in KEY_REGISTRY.items()}
    provenance = {key: "default" for key in KEY_REGISTRY}
    if preset_values:
        _apply_layer(values, provenance, preset_values, "preset")
    if file_path is not None:
        _apply_layer(values, provenance, _read_config_file(file_path), "file")
    if overrides:
        parsed = {key: parse_value(key, text) for key, text in overrides.items()}
        _apply_layer(values, provenance, parsed, "flag")
    if seed is not None:
        values["seed"] = int(seed)
        provenance["seed"] = "flag"
    if not 0 <= values["seed"] < 2 ** 64:
        raise ConfigError(f"seed must fit in 64 bits, got {values['seed']}")
    _derive_defaults(values, provenance)
    return ResolvedConfig(values=values, provenance=provenance)
