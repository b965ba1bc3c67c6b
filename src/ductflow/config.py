"""Configuration resolution: defaults, config files, and overrides.

A configuration is a flat set of dotted key paths.  Values are SI with
optional scale suffixes (``10 um``, ``1 mm/s``, ``90 deg``) resolved once at
parse time, so everything downstream is plain SI floats.  Precedence is
flag > file > preset > built-in default, and the provenance of every value
is recorded and echoed into every output-file header.

The file format is one ``key = value`` pair per line; ``#`` starts a
comment; list-valued keys take comma-separated entries, each with its own
optional unit (``ook.method`` lists ``SerMethod`` names).  The flow is
given one way, by ``channel.mean_velocity``.

Each key has one reader, built from a few small ones (a number with a unit,
an integer, a choice, a list, a word such as ``auto``).  A number that is
not finite as a double (``nan``, ``inf``, ``1e400``) is refused, and integer
keys are read exactly, so ``seed = 18446744073709551615`` keeps every digit.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .duct import DuctChannelConfig, ReceiverVolume, ReleaseSpec, validate_receiver
from .ook import SerMethod
from .output import format_value, short_digest

__all__ = ["ConfigError", "ResolvedConfig", "load_config", "parse_value", "KEY_REGISTRY"]

#: Most points a time grid may hold; a larger grid is refused before it is allocated.
MAX_GRID_POINTS = 1_000_000


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
    "dimensionless": {},
}

_NUMBER_RE = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(.*)$")


def _number(text: str, key: str, dimension: str) -> Decimal | float:
    """``text`` in SI, unrounded: a Decimal, or a float for an irrational unit scale.

    A value that is not finite as a double, such as ``1e400``, is refused.
    """
    match = _NUMBER_RE.match(text)
    if not match:
        raise ConfigError(f"key '{key}': cannot parse number from {text!r}")
    digits, unit = match.group(1), match.group(2).strip()
    if unit and unit not in _UNIT_SCALES[dimension]:
        raise ConfigError(f"key '{key}': unknown unit {unit!r} for {dimension}")
    scale = _UNIT_SCALES[dimension].get(unit)
    try:
        if isinstance(scale, float):
            value = float(digits) * scale
        else:
            value = Decimal(digits) if scale is None else Decimal(digits) * scale
        if math.isfinite(value):
            return value
    except ArithmeticError:  # an exponent beyond Decimal's range
        pass
    raise ConfigError(f"key '{key}': expected a finite number, got {text!r}")


def _quantity(dimension: str):
    """Reader of a number with an optional unit of ``dimension``, as an SI float."""
    return lambda text, key: float(_number(text, key, dimension))


def _integer(text: str, key: str) -> int:
    """Reader of an exact integer; ``1e6`` is one, ``1.5`` is not."""
    value = _number(text, key, "dimensionless")
    if value != int(value):
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}")
    return int(value)


def _choice(choices: tuple):
    """Reader of one of ``choices``, case-insensitively."""
    def parse(text: str, key: str) -> str:
        value = text.lower()
        if value not in choices:
            raise ConfigError(f"key '{key}': expected one of {choices}, got {text!r}")
        return value
    return parse


def _list(item, distinct: bool = False):
    """Reader of a non-empty comma-separated tuple of ``item`` values."""
    def parse(text: str, key: str) -> tuple:
        values = tuple(item(part.strip(), key) for part in text.split(",") if part.strip())
        if not values:
            raise ConfigError(f"key '{key}': expected a non-empty list")
        if distinct and len(set(values)) < len(values):
            raise ConfigError(f"key '{key}': an entry is listed twice in {text!r}")
        return values
    return parse


def _or_word(word: str, other):
    """Reader of ``word`` itself, else of ``other``."""
    def parse(text: str, key: str):
        if text.lower() == word:
            return word
        return other(text, key)
    return parse


_LENGTH, _TIME, _ANGLE = _quantity("length"), _quantity("time"), _quantity("angle")
_LENGTHS, _TIMES = _list(_LENGTH), _list(_TIME)

#: ``key -> (default, parse)``: ``parse(text, key)`` reads the key's text; a
#: callable default is derived from the resolved values once every layer is in.
KEY_REGISTRY: dict[str, tuple] = {
    "channel.radius": (10e-6, _LENGTH),
    "channel.diffusion": (1e-10, _quantity("diffusivity")),
    "channel.mean_velocity": (1e-3, _quantity("velocity")),
    "rx.distance": (200e-6, _LENGTH),
    "rx.extent_x": (lambda v: v["channel.radius"] / 2.0, _LENGTH),
    "rx.extent_r": (lambda v: v["channel.radius"] / 2.0, _LENGTH),
    "rx.extent_phi": (math.pi / 2.0, _ANGLE),
    "release.kind": ("uniform", _choice(("uniform", "point"))),
    "release.n_tx": (10_000, _integer),
    "release.r0": (lambda v: 0.75 * v["channel.radius"], _LENGTH),
    "release.phi0": (0.0, _ANGLE),
    "sim.time_step": (1e-3, _TIME),
    "grid.t_start": (lambda v: v["grid.t_step"], _TIME),
    "grid.t_stop": (1.0, _TIME),
    "grid.t_step": (1e-2, _TIME),
    "snapshot.times": ((0.02, 0.2, 0.8), _TIMES),
    "cir.distances": (lambda v: (v["rx.distance"],), _LENGTHS),
    "regime.radii": (lambda v: (v["channel.radius"],), _LENGTHS),
    "regime.distances": (lambda v: (v["rx.distance"],), _LENGTHS),
    "ook.symbol_interval": (0.1, _TIME),
    "ook.seq_len": (8, _integer),
    "ook.detection_delay": ("auto", _or_word("auto", _TIME)),
    "ook.threshold": ("optimal", _or_word("optimal", _integer)),
    "ook.noise_mean": (4.0, _quantity("dimensionless")),
    "ook.realizations": (10_000, _integer),
    "ook.method": ((SerMethod.POISSON_ANALYTIC.value,),
                   _list(_choice(tuple(m.value for m in SerMethod)), distinct=True)),
    "ser.distances": (lambda v: (v["rx.distance"],), _LENGTHS),
    "ser.symbol_intervals": (lambda v: (v["ook.symbol_interval"],), _TIMES),
    "seed": (1, _integer),
}


def parse_value(key: str, text: str):
    """Parse one textual value for ``key`` with its registered reader."""
    if key not in KEY_REGISTRY:
        raise ConfigError(f"unknown configuration key '{key}'")
    return KEY_REGISTRY[key][1](text.strip(), key)


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

    def header(self, **extra) -> dict:
        """Reproducibility header echoed into every output file.

        Each set value is rendered once (list entries joined by ``;``); the
        digest is taken over those renderings.
        """
        rendered = {key: ";".join(map(format_value, value)) if isinstance(value, tuple)
                    else format_value(value)
                    for key, value in self.values.items()}
        meta = {"generator": "ductflow", **extra, "config_digest": short_digest(rendered)}
        for key, text in rendered.items():
            meta[f"config.{key}"] = f"{text} [{self.provenance[key]}]"
        return meta

    # -- domain-object builders (invariant violations become ConfigError) --

    def build(self, factory, *args, **kwargs):
        """``factory(*args, **kwargs)``, with its ValueError raised as a ConfigError."""
        try:
            return factory(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def channel(self) -> DuctChannelConfig:
        """The duct, given by its radius, diffusivity and mean velocity."""
        return self.build(DuctChannelConfig, radius_a=self.values["channel.radius"],
                          diffusion_D=self.values["channel.diffusion"],
                          mean_velocity=self.values["channel.mean_velocity"])

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
        """The release of ``kind`` (default ``release.kind``); the engine pass and the
        closed form that take it check that it fits the duct."""
        if (kind or self.values["release.kind"]) == "uniform":
            return ReleaseSpec.uniform()
        return self.build(ReleaseSpec.point, self.values["release.r0"], self.values["release.phi0"])

    def time_grid(self):
        start = self.values["grid.t_start"]
        stop = self.values["grid.t_stop"]
        step = self.values["grid.t_step"]
        if start < 0 or step <= 0 or stop < start:
            raise ConfigError("grid requires t_start >= 0, t_step > 0 and t_stop >= t_start")
        # Counted in floats, so an overflowing count is refused, not converted.
        points = round((stop - start) / step, 0) + 1.0
        if points > MAX_GRID_POINTS:
            raise ConfigError(f"time grid has {points:.6g} points, more than the "
                              f"{MAX_GRID_POINTS} allowed")
        return start + step * np.arange(int(points))


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
        Convenience override for the ``seed`` key; a non-integer is refused.
    """
    if seed is not None:
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    layers = (
        (preset_values or {}, "preset"),
        (_read_config_file(file_path) if file_path is not None else {}, "file"),
        ({key: parse_value(key, text) for key, text in (overrides or {}).items()}, "flag"),
        ({} if seed is None else {"seed": seed}, "flag"),
    )
    values = {key: default for key, (default, _) in KEY_REGISTRY.items()}
    provenance = dict.fromkeys(KEY_REGISTRY, "default")
    for layer, origin in layers:
        for key, value in layer.items():
            if key not in KEY_REGISTRY:
                raise ConfigError(f"unknown configuration key '{key}'")
            values[key] = value
            provenance[key] = origin
    if not 0 <= values["seed"] < 2 ** 64:
        raise ConfigError(f"seed must fit in 64 bits, got {values['seed']}")
    for key, value in values.items():
        if callable(value):
            values[key] = value(values)
    return ResolvedConfig(values=values, provenance=provenance)
