"""Duct geometry, Poiseuille flow field, and transport-regime classification.

A straight, rigid, impermeable cylindrical duct of radius ``a`` carries a
steady pressure-driven laminar flow of a Newtonian fluid.  Positions are
cylindrical coordinates ``(x, r, phi)`` with ``x`` along the axis,
``0 <= r <= a`` and ``-pi < phi <= pi``.  A wall-mounted transparent
receiver counts particles inside the sensing volume

    |x - d| <= c_x / 2,   a - c_r <= r <= a,   |phi| <= c_phi / 2.

All quantities are SI throughout the package; configuration files may use
unit suffixes, which are resolved once at parse time (see
:mod:`ductflow.config`).

Everything in this module is an immutable value type or a pure function, so
unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DuctChannelConfig",
    "ReceiverVolume",
    "ReleaseKind",
    "ReleaseSpec",
    "Regime",
    "RegimeVerdict",
    "velocity_at",
    "mean_velocity_from_pressure",
    "peclet_number",
    "classify_regime",
    "rx_area_fraction",
    "validate_receiver",
    "validate_release",
]

TWO_PI = 2.0 * math.pi


def mean_velocity_from_pressure(pressure_gradient: float, radius_a: float,
                                viscosity_eta: float) -> float:
    """Cross-sectional mean velocity of pressure-driven Poiseuille flow.

    For a Newtonian fluid of dynamic viscosity ``eta`` in a duct of radius
    ``a``, the mean velocity is ``|grad p| * a**2 / (8 * eta)``.

    Parameters
    ----------
    pressure_gradient : float
        Applied axial pressure gradient [Pa/m].  Only its magnitude matters.
    radius_a : float
        Duct radius [m], must be positive.
    viscosity_eta : float
        Dynamic viscosity [Pa s], must be positive.
    """
    if radius_a <= 0.0:
        raise ValueError(f"duct radius must be positive, got {radius_a!r}")
    if viscosity_eta <= 0.0:
        raise ValueError(f"viscosity must be positive, got {viscosity_eta!r}")
    return abs(pressure_gradient) * radius_a * radius_a / (8.0 * viscosity_eta)


@dataclass(frozen=True)
class DuctChannelConfig:
    """Physical description of the duct channel.

    A flow given as a pressure gradient and a viscosity enters through
    :func:`mean_velocity_from_pressure`, as the configuration layer does for
    ``channel.pressure_gradient``.

    ``diffusion_D = 0`` is a legal configuration and represents flow-only
    transport; it is kept exact rather than replaced by a small epsilon.

    Attributes
    ----------
    radius_a : float
        Duct radius [m], > 0 and finite.
    diffusion_D : float
        Particle diffusion coefficient [m^2/s], >= 0 and finite.
    mean_velocity : float
        Cross-sectional mean flow velocity [m/s], >= 0 and finite.
    """

    radius_a: float
    diffusion_D: float
    mean_velocity: float

    def __post_init__(self):
        # Chained comparisons with nan are false, so nan is refused too.
        if not 0.0 < self.radius_a < math.inf:
            raise ValueError(f"duct radius must be positive and finite, got {self.radius_a!r}")
        if not 0.0 <= self.diffusion_D < math.inf:
            raise ValueError(f"diffusion coefficient must be non-negative and finite, "
                             f"got {self.diffusion_D!r}")
        if not 0.0 <= self.mean_velocity < math.inf:
            raise ValueError(
                f"mean velocity must be non-negative and finite, got {self.mean_velocity!r}")


@dataclass(frozen=True)
class ReceiverVolume:
    """Wall-mounted sensing region of the transparent receiver.

    The receiver sits fully downstream of the release plane
    (``axial_distance_d > extent_cx / 2``) and spans a radial band reaching
    the wall.  Whether ``extent_cr`` fits inside a particular duct is checked
    against the channel by :func:`validate_receiver`, since the receiver
    itself does not carry the duct radius.
    """

    axial_distance_d: float
    extent_cx: float
    extent_cr: float
    extent_cphi: float

    def __post_init__(self):
        if not self.extent_cx > 0.0:
            raise ValueError(f"axial extent must be positive, got {self.extent_cx!r}")
        if not self.extent_cr > 0.0:
            raise ValueError(f"radial extent must be positive, got {self.extent_cr!r}")
        if not 0.0 < self.extent_cphi <= TWO_PI:
            raise ValueError(
                f"angular extent must lie in (0, 2*pi], got {self.extent_cphi!r}")
        if not self.axial_distance_d > self.extent_cx / 2.0:
            raise ValueError(
                "receiver must be fully downstream of the release plane: "
                f"need d > c_x/2, got d={self.axial_distance_d!r}, c_x={self.extent_cx!r}")


class ReleaseKind(Enum):
    """How transmitted particles are placed on the release plane x = 0."""

    UNIFORM_CROSS_SECTION = "uniform"
    POINT = "point"


@dataclass(frozen=True)
class ReleaseSpec:
    """Instantaneous particle release at the transmitter.

    ``n_tx`` may be zero, which yields an empty ensemble (all observation
    counts zero); that is occasionally useful for dry runs.
    """

    kind: ReleaseKind
    n_tx: int
    r0: float | None = None
    phi0: float | None = None

    def __post_init__(self):
        if self.n_tx < 0:
            raise ValueError(f"particle count must be non-negative, got {self.n_tx!r}")
        if self.kind is ReleaseKind.POINT:
            if self.r0 is None or self.phi0 is None:
                raise ValueError("point release needs r0 and phi0")
            if self.r0 < 0.0:
                raise ValueError(f"release radius must be non-negative, got {self.r0!r}")
            if not -math.pi < self.phi0 <= math.pi:
                raise ValueError(f"release azimuth must lie in (-pi, pi], got {self.phi0!r}")
        elif self.r0 is not None or self.phi0 is not None:
            raise ValueError("uniform release takes no point coordinates")

    @classmethod
    def uniform(cls, n_tx: int) -> "ReleaseSpec":
        return cls(ReleaseKind.UNIFORM_CROSS_SECTION, n_tx)

    @classmethod
    def point(cls, n_tx: int, r0: float, phi0: float = 0.0) -> "ReleaseSpec":
        return cls(ReleaseKind.POINT, n_tx, r0, phi0)


class Regime(Enum):
    """Transport regime of the duct channel."""

    DISPERSION = "dispersion"
    FLOW_DOMINATED = "flow_dominated"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class RegimeVerdict:
    """Outcome of regime classification.

    ``margin`` is the ratio of the Peclet number to the separating value
    ``4 d / a``; values well below / above 1 put the channel firmly in the
    dispersion / flow-dominated regime.  Both raw numbers are included so
    callers can render region plots or apply their own safety factor.
    """

    peclet: float
    distance_ratio: float
    regime: Regime
    margin: float


def velocity_at(config: DuctChannelConfig, r):
    """Poiseuille axial velocity at radial distance ``r``.

    The profile is parabolic, ``v(r) = 2 vbar (1 - r^2/a^2)``: maximum
    ``2 vbar`` on the axis, zero at the no-slip wall.

    Parameters
    ----------
    config : DuctChannelConfig
    r : float or array_like
        Radial position(s) [m]; every element must lie in ``[0, a]``.

    Returns
    -------
    float or ndarray
        Velocity [m/s], same shape as ``r``.
    """
    r_arr = np.asarray(r, dtype=float)
    a = config.radius_a
    if np.any(r_arr < 0.0) or np.any(r_arr > a):
        raise ValueError(f"radial position must lie in [0, {a}]")
    v = 2.0 * config.mean_velocity * (1.0 - (r_arr / a) ** 2)
    return float(v) if np.ndim(r) == 0 else v


def peclet_number(config: DuctChannelConfig) -> float:
    """Peclet number ``vbar * a / D`` of the channel.

    Measures the relative importance of advective and diffusive transport.
    ``D = 0`` (flow-only transport) maps to ``math.inf``, which downstream
    classification treats as firmly flow-dominated.
    """
    if config.diffusion_D == 0.0:
        return math.inf
    return config.mean_velocity * config.radius_a / config.diffusion_D


def validate_receiver(config: DuctChannelConfig, rx: ReceiverVolume) -> None:
    """Check that the receiver band fits inside the duct (``c_r <= a``)."""
    if rx.extent_cr > config.radius_a:
        raise ValueError(
            f"receiver radial extent {rx.extent_cr!r} exceeds duct radius "
            f"{config.radius_a!r}")


def validate_release(config: DuctChannelConfig, release: ReleaseSpec) -> None:
    """Check that a point release lies inside the duct (``r0 <= a``)."""
    if release.kind is ReleaseKind.POINT and release.r0 > config.radius_a:
        raise ValueError(f"release radius {release.r0!r} exceeds duct radius")


def classify_regime(config: DuctChannelConfig, rx: ReceiverVolume) -> RegimeVerdict:
    """Classify the channel as dispersion-, flow-dominated, or boundary.

    The two closed-form solution families apply when the Peclet number is
    far below respectively far above ``4 d / a``; the verdict compares the
    margin ``Pe / (4 d / a)`` against 1 and is ``BOUNDARY`` only on exact
    equality.  Results for parameters close to the separating line should
    be treated with care, so the verdict reports the raw numbers (callers
    wanting a safety band can apply their own policy to
    :attr:`RegimeVerdict.margin`).
    """
    validate_receiver(config, rx)
    pe = peclet_number(config)
    ratio = rx.axial_distance_d / config.radius_a
    margin = pe / (4.0 * ratio)
    if margin < 1.0:
        regime = Regime.DISPERSION
    elif margin > 1.0:
        regime = Regime.FLOW_DOMINATED
    else:
        regime = Regime.BOUNDARY
    return RegimeVerdict(peclet=pe, distance_ratio=ratio, regime=regime, margin=margin)


def rx_area_fraction(config: DuctChannelConfig, rx: ReceiverVolume) -> float:
    """Fraction of the duct cross-section covered by the receiver band.

    Equals the probability that a point placed uniformly on the disk of
    radius ``a`` falls inside the receiver's ``(r, phi)`` window:
    ``(c_phi / 2 pi) * (2 a c_r - c_r^2) / a^2``, in ``(0, 1]``.
    """
    validate_receiver(config, rx)
    a = config.radius_a
    cr = rx.extent_cr
    return (rx.extent_cphi / TWO_PI) * (2.0 * a * cr - cr * cr) / (a * a)
