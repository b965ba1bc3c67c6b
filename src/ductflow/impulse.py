"""Closed-form channel impulse responses for the two tractable regimes.

The impulse response ``P_ob(t)`` is the probability that a single released
particle is inside the receiver volume at time ``t``.  Two families admit
closed forms:

* **Dispersion**: cross-sectional diffusion has had time to interact with
  the non-uniform flow profile, so the axial distribution is Gaussian with
  the Taylor-Aris effective diffusivity ``D_eff = D (1 + Pe^2 / 48)`` and
  drift ``vbar``, uniform in the cross-section.  The release pattern is
  irrelevant here.
* **Flow-dominated**: diffusion is negligible before arrival, so particles
  ride the paraboloid ``x = v(r) t``.  A uniform release gives a piecewise
  form that switches branches at the transit times ``t1 < t2`` of the band
  edges and decays like ``1/t``; a point release gives a rectangular pulse
  (or nothing, if the release point is not radially/angularly aligned with
  the receiver).

The Gaussian axial standard deviation used throughout is
``sigma(t) = sqrt(2 D_eff t)``, i.e. the observation probability is
exactly the integral of the dispersion-regime density over the receiver's
axial extent; :mod:`ductflow.oracles` certifies this by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duct import (
    DuctChannelConfig,
    ReceiverVolume,
    ReleaseKind,
    ReleaseSpec,
    TWO_PI,
    peclet_number,
    rx_area_fraction,
    validate_receiver,
    validate_release,
    velocity_at,
)

__all__ = [
    "DispersionModel",
    "FlowModel",
    "effective_diffusion",
    "cir_dispersion",
    "dispersion_peak_time",
    "dispersion_peak_value",
    "flow_transit_times",
    "cir_flow_uniform",
    "cir_flow_point",
    "flow_point_window",
]


def effective_diffusion(config: DuctChannelConfig) -> float:
    """Taylor-Aris effective diffusion coefficient ``D (1 + Pe^2 / 48)``.

    Captures the enhanced axial spreading produced by cross-sectional
    diffusion across the parabolic flow profile; it can exceed ``D`` by
    orders of magnitude.  Undefined for ``D = 0`` (use the flow-dominated
    model instead).
    """
    if config.diffusion_D == 0.0:
        raise ValueError("effective diffusion is undefined for D = 0; "
                         "flow-only transport has no dispersion model")
    pe = peclet_number(config)
    return config.diffusion_D * (1.0 + pe * pe / 48.0)


@dataclass(frozen=True)
class DispersionModel:
    """Parameters of the dispersion-regime impulse response."""

    d_eff: float
    mean_velocity: float
    rx_fraction: float

    def __post_init__(self):
        if not self.d_eff > 0.0:
            raise ValueError("effective diffusivity must be positive")
        if self.mean_velocity < 0.0:
            raise ValueError("mean velocity must be non-negative")
        if not 0.0 < self.rx_fraction <= 1.0:
            raise ValueError("receiver area fraction must lie in (0, 1]")

    @classmethod
    def for_channel(cls, config: DuctChannelConfig, rx: ReceiverVolume) -> "DispersionModel":
        return cls(
            d_eff=effective_diffusion(config),
            mean_velocity=config.mean_velocity,
            rx_fraction=rx_area_fraction(config, rx),
        )


def cir_dispersion(model: DispersionModel, rx: ReceiverVolume, t):
    """Dispersion-regime observation probability at time(s) ``t``.

    ``(A_rx/a^2) * [Phi((d + c_x/2 - vbar t)/sigma) - Phi((d - c_x/2 - vbar t)/sigma)]``
    with ``sigma = sqrt(2 D_eff t)``.  Returns 0 for ``t <= 0`` (at the
    release instant no mass is downstream).  Bounded by the receiver area
    fraction.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    pos = t_arr > 0.0
    if np.any(pos):
        tp = t_arr[pos]
        sigma = np.sqrt(2.0 * model.d_eff * tp)
        center = model.mean_velocity * tp
        d = rx.axial_distance_d
        half = rx.extent_cx / 2.0
        hi = (d + half - center) / sigma
        lo = (d - half - center) / sigma
        out[pos] = model.rx_fraction * np.maximum(_phi_diff(lo, hi), 0.0)
    return float(out[0]) if np.ndim(t) == 0 else out


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _phi_diff(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``Phi(hi) - Phi(lo)`` for ``lo <= hi``, elementwise, without cancellation in either tail.

    With ``Q(x) = erfc(x / sqrt 2) / 2`` the upper tail, it is ``Q(lo) - Q(hi)``
    for ``lo >= 0``, its mirror image ``Q(-hi) - Q(-lo)`` for ``hi <= 0``, and
    ``1 - Q(hi) - Q(-lo)`` when the interval straddles 0: each tail is taken
    on the side away from the mean, where it is small and accurate, rather
    than as a difference of two values near 1.
    """
    flip = hi <= 0.0
    near = np.where(flip, -hi, lo)
    far = np.where(flip, -lo, hi)
    tails = 0.5 * _erfc(np.concatenate([np.abs(near), far]) * math.sqrt(0.5)).astype(float)
    q_near, q_far = tails[:near.size], tails[near.size:]
    return np.where(near < 0.0, 1.0 - q_far - q_near, q_near - q_far)


def dispersion_peak_time(model: DispersionModel, d: float) -> float:
    """Time at which the dispersion-regime response peaks (design guideline).

    Maximizes the axial density at the receiver center, giving
    ``(D_eff / vbar^2) (-1 + sqrt(1 + vbar^2 d^2 / D_eff^2))``, evaluated
    here in the cancellation-free form ``d^2 / (D_eff (1 + sqrt(1 + s^2)))``
    with ``s = vbar d / D_eff``.  That form is continuous through
    ``vbar = 0``, where it reduces to the pure-diffusion limit
    ``d^2 / (2 D_eff)``.  Always strictly below the mean arrival time
    ``d / vbar``.
    """
    if d < 0.0:
        raise ValueError("distance must be non-negative")
    s = model.mean_velocity * d / model.d_eff
    return d * d / (model.d_eff * (1.0 + math.sqrt(1.0 + s * s)))


def dispersion_peak_value(model: DispersionModel, rx: ReceiverVolume) -> float:
    """Peak height of the dispersion-regime response at its peak time.

    The peak time maximizes the axial density rather than the windowed
    probability itself, so this is an (excellent) approximation of the true
    maximum; the receiver distance is taken from ``rx``.
    """
    tmax = dispersion_peak_time(model, rx.axial_distance_d)
    return cir_dispersion(model, rx, tmax)


def flow_transit_times(config: DuctChannelConfig, rx: ReceiverVolume) -> tuple[float, float]:
    """Band-edge transit times ``(t1, t2)`` of the flow-dominated response.

    ``t_{1,2} = (d -/+ c_x/2) / (2 vbar (1 - (1 - c_r/a)^2))``: the times at
    which the slowest observable streamline (radius ``a - c_r``) reaches the
    near and far axial edges of the receiver.  The uniform-release response
    is zero until ``t1`` and maximal at ``t2``.
    """
    validate_receiver(config, rx)
    if config.mean_velocity <= 0.0:
        raise ValueError("flow-dominated transit times require positive mean velocity")
    band = 1.0 - (1.0 - rx.extent_cr / config.radius_a) ** 2
    denom = 2.0 * config.mean_velocity * band
    t1 = (rx.axial_distance_d - rx.extent_cx / 2.0) / denom
    t2 = (rx.axial_distance_d + rx.extent_cx / 2.0) / denom
    return t1, t2


@dataclass(frozen=True)
class FlowModel:
    """Parameters of the flow-dominated uniform-release impulse response."""

    t1: float
    t2: float
    rx_fraction: float
    angle_fraction: float
    mean_velocity: float
    axial_distance_d: float
    extent_cx: float

    def __post_init__(self):
        if not 0.0 < self.t1 < self.t2:
            raise ValueError("transit times must satisfy 0 < t1 < t2")
        if not 0.0 < self.rx_fraction <= 1.0:
            raise ValueError("receiver area fraction must lie in (0, 1]")
        if not 0.0 < self.angle_fraction <= 1.0:
            raise ValueError("angular fraction must lie in (0, 1]")

    @classmethod
    def for_channel(cls, config: DuctChannelConfig, rx: ReceiverVolume) -> "FlowModel":
        t1, t2 = flow_transit_times(config, rx)
        return cls(
            t1=t1,
            t2=t2,
            rx_fraction=rx_area_fraction(config, rx),
            angle_fraction=rx.extent_cphi / TWO_PI,
            mean_velocity=config.mean_velocity,
            axial_distance_d=rx.axial_distance_d,
            extent_cx=rx.extent_cx,
        )


def cir_flow_uniform(model: FlowModel, t):
    """Flow-dominated observation probability after a uniform release.

    Piecewise in time::

        0                                                   t <= t1
        A_rx/a^2 - (c_phi/2pi) (d - c_x/2) / (2 vbar t)     t1 < t < t2
        (c_phi/2pi) c_x / (2 vbar t)                        t >= t2

    Continuous at both break points, maximal at ``t2``, with a ``1/t`` tail:
    ``P(t) * t`` is constant for ``t >= t2``, equivalently the fraction
    ``alpha`` of the peak is still observable at ``t2 / alpha``.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0):
        raise ValueError("time must be non-negative")
    out = np.zeros_like(t_arr)
    v2 = 2.0 * model.mean_velocity
    mid = (t_arr > model.t1) & (t_arr < model.t2)
    if np.any(mid):
        out[mid] = model.rx_fraction - model.angle_fraction * (
            model.axial_distance_d - model.extent_cx / 2.0) / (v2 * t_arr[mid])
    tail = t_arr >= model.t2
    if np.any(tail):
        out[tail] = model.angle_fraction * model.extent_cx / (v2 * t_arr[tail])
    return float(out[0]) if np.ndim(t) == 0 else out


def flow_point_window(config: DuctChannelConfig, rx: ReceiverVolume,
                      release: ReleaseSpec) -> tuple[float, float] | None:
    """Arrival window ``(t_start, t_end)`` of a point release, if any.

    Returns ``None`` when the release point is outside the receiver's
    ``(r, phi)`` window, or sits exactly on the wall (zero velocity, so the
    particle never advects).
    """
    if release.kind is not ReleaseKind.POINT:
        raise ValueError("point-release window requires a point release")
    validate_receiver(config, rx)
    validate_release(config, release)
    aligned = (release.r0 >= config.radius_a - rx.extent_cr
               and abs(release.phi0) <= rx.extent_cphi / 2.0)
    if not aligned:
        return None
    v0 = velocity_at(config, release.r0)
    if v0 == 0.0:
        return None
    half = rx.extent_cx / 2.0
    return ((rx.axial_distance_d - half) / v0, (rx.axial_distance_d + half) / v0)


def cir_flow_point(config: DuctChannelConfig, rx: ReceiverVolume,
                   release: ReleaseSpec, t):
    """Flow-dominated observation probability after a point release.

    A rectangular pulse: 1 while ``d - c_x/2 <= v(r0) t <= d + c_x/2``
    (edges inclusive) provided the release point lies within the receiver's
    ``(r, phi)`` window, and 0 otherwise -- identically 0 for all times when
    the point is not aligned with the receiver or sits on the wall.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0):
        raise ValueError("time must be non-negative")
    window = flow_point_window(config, rx, release)
    if window is None:
        out = np.zeros_like(t_arr)
    else:
        out = ((t_arr >= window[0]) & (t_arr <= window[1])).astype(float)
    return float(out[0]) if np.ndim(t) == 0 else out
