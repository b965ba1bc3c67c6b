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

Every form takes ``(config, rx, ...)``, and :func:`uniform_response` pairs
each regime with its uniform-release form.  The Gaussian axial standard
deviation used throughout is ``sigma(t) = sqrt(2 D_eff t)``, i.e. the
observation probability is exactly the integral of the dispersion-regime
density over the receiver's axial extent; :mod:`ductflow.oracles`
certifies this by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from functools import partial

import numpy as np

from .duct import (
    DuctChannelConfig,
    ReceiverVolume,
    Regime,
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
    "effective_diffusion",
    "cir_dispersion",
    "dispersion_peak_time",
    "flow_transit_times",
    "cir_flow_uniform",
    "uniform_response",
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


def cir_dispersion(config: DuctChannelConfig, rx: ReceiverVolume, t):
    """Dispersion-regime observation probability at time(s) ``t``.

    ``(A_rx/a^2) * [Phi((d + c_x/2 - vbar t)/sigma) - Phi((d - c_x/2 - vbar t)/sigma)]``
    with ``sigma = sqrt(2 D_eff t)``.  Returns 0 for ``t <= 0`` and while
    ``2 D_eff t`` underflows to 0 (``t`` below about 1e-300 s): no mass has
    yet left the release plane, upstream of the receiver.  Bounded by the
    receiver area fraction.
    """
    d_eff = effective_diffusion(config)
    rx_fraction = rx_area_fraction(config, rx)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    pos = 2.0 * d_eff * t_arr > 0.0
    if np.any(pos):
        tp = t_arr[pos]
        sigma = np.sqrt(2.0 * d_eff * tp)
        center = config.mean_velocity * tp
        d = rx.axial_distance_d
        half = rx.extent_cx / 2.0
        hi = (d + half - center) / sigma
        lo = (d - half - center) / sigma
        out[pos] = rx_fraction * np.maximum(_phi_diff(lo, hi), 0.0)
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


def dispersion_peak_time(config: DuctChannelConfig, rx: ReceiverVolume) -> float:
    """Time at which the dispersion-regime response peaks (design guideline).

    Maximizes the axial density at the receiver center ``d``, giving
    ``(D_eff / vbar^2) (-1 + sqrt(1 + vbar^2 d^2 / D_eff^2))``, evaluated
    here in the cancellation-free form ``d^2 / (D_eff (1 + sqrt(1 + s^2)))``
    with ``s = vbar d / D_eff``.  That form is continuous through
    ``vbar = 0``, where it reduces to the pure-diffusion limit
    ``d^2 / (2 D_eff)``.  Always strictly below the mean arrival time
    ``d / vbar``.  Raises ``ValueError`` for every ``(config, rx)`` that
    :func:`cir_dispersion` refuses.
    """
    if isinstance(config, DispersionModel):  # deprecated ``(model, d)``: model.rx moved to d
        rx = replace(config.rx, axial_distance_d=rx)
    d_eff = effective_diffusion(config)
    rx_area_fraction(config, rx)
    d = rx.axial_distance_d
    s = config.mean_velocity * d / d_eff
    return d * d / (d_eff * (1.0 + math.sqrt(1.0 + s * s)))


def flow_transit_times(config: DuctChannelConfig, rx: ReceiverVolume) -> tuple[float, float]:
    """Band-edge transit times ``(t1, t2)`` of the flow-dominated response.

    ``t_{1,2} = (d -/+ c_x/2) / (2 vbar (1 - (1 - c_r/a)^2))``: the times at
    which the slowest observable streamline (radius ``a - c_r``) reaches the
    near and far axial edges of the receiver.  The uniform-release response
    is zero until ``t1`` and maximal at ``t2``.  Raises ``ValueError`` unless
    ``0 < t1 < t2`` (a ``vbar`` so small that both times overflow fails it).
    """
    validate_receiver(config, rx)
    if config.mean_velocity <= 0.0:
        raise ValueError("flow-dominated transit times require positive mean velocity")
    # 1 - (1 - x)^2 as x (2 - x): it cancels no digits when c_r << a.
    x = rx.extent_cr / config.radius_a
    band = x * (2.0 - x)
    denom = 2.0 * config.mean_velocity * band
    t1 = (rx.axial_distance_d - rx.extent_cx / 2.0) / denom
    t2 = (rx.axial_distance_d + rx.extent_cx / 2.0) / denom
    if not 0.0 < t1 < t2:
        raise ValueError("transit times must satisfy 0 < t1 < t2")
    return t1, t2


def cir_flow_uniform(config: DuctChannelConfig, rx: ReceiverVolume, t):
    """Flow-dominated observation probability after a uniform release.

    Depends on the duct and the receiver only: ``t1, t2`` from
    :func:`flow_transit_times`, ``A_rx/a^2`` from :func:`rx_area_fraction`
    (both refuse invalid inputs), ``c_phi/2pi``, ``vbar``, ``d`` and ``c_x``.

    Piecewise in time, so 0 before the release as well::

        0                                                   t <= t1
        A_rx/a^2 - (c_phi/2pi) (d - c_x/2) / (2 vbar t)     t1 < t < t2
        (c_phi/2pi) c_x / (2 vbar t)                        t >= t2

    Continuous at both break points, maximal at ``t2``, with a ``1/t`` tail:
    ``P(t) * t`` is constant for ``t >= t2``, equivalently the fraction
    ``alpha`` of the peak is still observable at ``t2 / alpha``.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    t1, t2 = flow_transit_times(config, rx)
    rx_fraction = rx_area_fraction(config, rx)
    angle_fraction = rx.extent_cphi / TWO_PI
    out = np.zeros_like(t_arr)
    v2 = 2.0 * config.mean_velocity
    mid = (t_arr > t1) & (t_arr < t2)
    if np.any(mid):
        out[mid] = rx_fraction - angle_fraction * (
            rx.axial_distance_d - rx.extent_cx / 2.0) / (v2 * t_arr[mid])
        # Rounding can take the difference an ulp below 0 just past t1.
        np.maximum(out, 0.0, out=out)
    tail = t_arr >= t2
    if np.any(tail):
        out[tail] = angle_fraction * rx.extent_cx / (v2 * t_arr[tail])
    return float(out[0]) if np.ndim(t) == 0 else out


def uniform_response(config: DuctChannelConfig, rx: ReceiverVolume, regime: Regime):
    """``(pob, t_peak)``: ``regime``'s uniform-release form, a function of ``t``, and its peak time.

    :func:`cir_dispersion` and :func:`dispersion_peak_time` for ``DISPERSION``;
    :func:`cir_flow_uniform` and the transit time ``t2`` otherwise (``BOUNDARY`` included).
    """
    if regime is Regime.DISPERSION:
        return partial(cir_dispersion, config, rx), dispersion_peak_time(config, rx)
    return partial(cir_flow_uniform, config, rx), flow_transit_times(config, rx)[1]


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
    ``(r, phi)`` window, and 0 otherwise (before the release, ``t < 0``,
    too) -- identically 0 for all times when the point is not aligned with
    the receiver or sits on the wall.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    # No window is an empty one: no time lies in [inf, -inf].
    start, end = flow_point_window(config, rx, release) or (math.inf, -math.inf)
    out = ((t_arr >= start) & (t_arr <= end)).astype(float)
    return float(out[0]) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class DispersionModel(DuctChannelConfig):
    """Deprecated: a channel with its receiver, still built by ``perfbench/checks.py``."""

    rx: ReceiverVolume | None = None
    for_channel = classmethod(lambda cls, config, rx: cls(*astuple(config), rx))
