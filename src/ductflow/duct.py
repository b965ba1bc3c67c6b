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
    "peclet_number",
    "classify_regime",
    "rx_area_fraction",
    "validate_receiver",
    "validate_release",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DuctChannelConfig:
    """Physical description of the duct channel.

    The flow is given by its mean velocity alone; a pressure-driven flow of
    a fluid of dynamic viscosity ``eta`` has ``|grad p| * a**2 / (8 * eta)``.

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

    The receiver sits fully downstream of the release plane, at a finite
    distance (``extent_cx / 2 < axial_distance_d < inf``), and spans a
    radial band reaching the wall.  Whether ``extent_cr`` fits inside a
    particular duct is checked against the channel by
    :func:`validate_receiver`, since the receiver itself does not carry the
    duct radius.
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
        if not self.extent_cx / 2.0 < self.axial_distance_d < math.inf:
            raise ValueError(
                "receiver must be fully downstream of the release plane, at a finite distance: "
                f"need c_x/2 < d < inf, got d={self.axial_distance_d!r}, c_x={self.extent_cx!r}")


class ReleaseKind(Enum):
    """How transmitted particles are placed on the release plane x = 0."""

    UNIFORM_CROSS_SECTION = "uniform"
    POINT = "point"


@dataclass(frozen=True)
class ReleaseSpec:
    """Where an instantaneous release at the transmitter places its particles.

    A point release needs ``r0`` and ``phi0``; a uniform one takes neither.
    How many particles a release holds is the engine pass's ``n_tx``
    (:class:`ductflow.particles.SimConfig`), shared by all its releases.
    """

    kind: ReleaseKind
    r0: float | None = None
    phi0: float | None = None

    def __post_init__(self):
        if self.kind is ReleaseKind.POINT:
            if self.r0 is None or self.phi0 is None:
                raise ValueError("point release needs r0 and phi0")
            if not 0.0 <= self.r0 < math.inf:
                raise ValueError(f"release radius must be non-negative and finite, got {self.r0!r}")
            if not -math.pi < self.phi0 <= math.pi:
                raise ValueError(f"release azimuth must lie in (-pi, pi], got {self.phi0!r}")
        elif self.r0 is not None or self.phi0 is not None:
            raise ValueError("uniform release takes no point coordinates")

    @classmethod
    def uniform(cls) -> "ReleaseSpec":
        return cls(ReleaseKind.UNIFORM_CROSS_SECTION)

    @classmethod
    def point(cls, r0: float, phi0: float = 0.0) -> "ReleaseSpec":
        return cls(ReleaseKind.POINT, r0, phi0)


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
    classification treats as firmly flow-dominated.  ``D = 0`` with
    ``vbar = 0`` raises ``ValueError``: a fluid that neither flows nor
    diffuses has no Peclet number.
    """
    if config.diffusion_D == 0.0:
        if config.mean_velocity == 0.0:
            raise ValueError("the Peclet number is undefined for D = 0 and a mean "
                             "velocity of 0: the fluid neither flows nor diffuses")
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


def classify_regime(config: DuctChannelConfig, d: float) -> RegimeVerdict:
    """Classify the channel at distance ``d`` as dispersion-, flow-dominated, or boundary.

    The two closed-form solution families apply when the Peclet number is
    far below respectively far above ``4 d / a``; the verdict compares the
    margin ``Pe / (4 d / a)`` against 1 and is ``BOUNDARY`` only on exact
    equality.  Results for parameters close to the separating line should
    be treated with care, so the verdict reports the raw numbers (callers
    wanting a safety band can apply their own policy to
    :attr:`RegimeVerdict.margin`).  Raises ``ValueError`` unless ``d`` is
    positive and finite.
    """
    if not 0.0 < d < math.inf:
        raise ValueError(f"distance must be positive and finite, got {d!r}")
    pe = peclet_number(config)
    ratio = d / config.radius_a
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
    ``(c_phi / 2 pi) * (2 a c_r - c_r^2) / a^2``.  Raises ``ValueError``
    unless it lies in ``(0, 1]`` (it underflows to 0 for a tiny ``c_phi``).
    """
    validate_receiver(config, rx)
    a = config.radius_a
    cr = rx.extent_cr
    fraction = (rx.extent_cphi / TWO_PI) * (2.0 * a * cr - cr * cr) / (a * a)
    if not 0.0 < fraction <= 1.0:
        raise ValueError("receiver area fraction must lie in (0, 1]")
    return fraction
