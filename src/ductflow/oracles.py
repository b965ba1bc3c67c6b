"""Independent quadrature oracles for the closed-form impulse responses.

These deliberately avoid the algebra of :mod:`ductflow.impulse` and instead
integrate the underlying densities numerically, so agreement between the two
routes certifies the closed forms:

* the dispersion response is the Gaussian axial density integrated over the
  receiver's axial extent (adaptive quadrature of the exponential, no
  Q-functions involved);
* the flow-dominated response is the indicator of "the streamline through
  the release point lies in the receiver" integrated over the release
  distribution (midpoint-rule measure of the indicator in the uniform
  ``(r^2/a^2, phi)`` coordinates).

Each oracle takes its closed form's ``(config, rx, ...)`` arguments.  The
indicator quadrature converges like one cell width per jump, so the cell
counts below keep the worst-case error under 1e-6; the smooth Gaussian
quadrature is accurate to ~1e-12.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from scipy.integrate import quad
except ImportError as exc:
    raise ImportError("the quadrature oracles need scipy: "
                      "pip install ductflow[oracles]") from exc

from .duct import (
    DuctChannelConfig,
    ReceiverVolume,
    ReleaseKind,
    ReleaseSpec,
    rx_area_fraction,
    validate_receiver,
    validate_release,
    velocity_at,
)
from .impulse import effective_diffusion

__all__ = ["oracle_cir_dispersion", "oracle_cir_flow"]


def oracle_cir_dispersion(config: DuctChannelConfig, rx: ReceiverVolume, t: float) -> float:
    """Dispersion-regime observation probability by adaptive quadrature.

    Integrates the axial Gaussian density (variance ``2 D_eff t``, mean
    ``vbar t``) over ``[d - c_x/2, d + c_x/2]`` and scales by the receiver
    area fraction; only ``D_eff`` and that fraction are shared with the closed
    form.  Accurate to well below 1e-9 of the exact integral.
    """
    d_eff = effective_diffusion(config)
    rx_fraction = rx_area_fraction(config, rx)
    if t <= 0.0:
        return 0.0
    var = 2.0 * d_eff * t
    center = config.mean_velocity * t
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    def density(x: float) -> float:
        return norm * math.exp(-((x - center) ** 2) / (2.0 * var))

    lo = rx.axial_distance_d - rx.extent_cx / 2.0
    hi = rx.axial_distance_d + rx.extent_cx / 2.0
    val, _ = quad(density, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    return rx_fraction * val


def _indicator_measure(lo: float, hi: float, n_cells: int,
                       predicate, chunk: int = 1_000_000) -> float:
    """Midpoint-rule measure of ``{x in [lo, hi] : predicate(x)}`` / (hi - lo)."""
    width = hi - lo
    hits = 0
    for start in range(0, n_cells, chunk):
        stop = min(start + chunk, n_cells)
        mids = lo + (np.arange(start, stop, dtype=float) + 0.5) * (width / n_cells)
        hits += int(np.count_nonzero(predicate(mids)))
    return hits / n_cells


def oracle_cir_flow(config: DuctChannelConfig, rx: ReceiverVolume,
                    release: ReleaseSpec, t: float,
                    n_radial_cells: int = 6_000_000,
                    n_angular_cells: int = 6_000_000) -> float:
    """Flow-dominated observation probability by indicator quadrature.

    Without diffusion a particle released at ``(r, phi)`` sits at
    ``x = v(r) t``, keeping its cross-sectional coordinates; it is observed
    iff ``x`` is inside the receiver's axial window and ``(r, phi)`` inside
    its band.  For a uniform release the quadrature runs over the product
    measure ``u = r^2/a^2 ~ U(0,1)`` times ``phi ~ U(-pi, pi]`` (the
    integrand factorizes, so the 2-D tensor quadrature is evaluated as the
    product of its two 1-D factors).  A point release reduces to evaluating
    the indicator at the release point.

    Worst-case error is ``2 / n_radial_cells + 2 / n_angular_cells``
    (one cell per indicator jump); the defaults keep it below 1e-6.
    """
    if t < 0.0:
        raise ValueError("time must be non-negative")
    validate_receiver(config, rx)
    validate_release(config, release)
    a = config.radius_a
    x_lo = rx.axial_distance_d - rx.extent_cx / 2.0
    x_hi = rx.axial_distance_d + rx.extent_cx / 2.0

    if release.kind is ReleaseKind.POINT:
        in_band = (release.r0 >= a - rx.extent_cr
                   and abs(release.phi0) <= rx.extent_cphi / 2.0)
        if not in_band:
            return 0.0
        x = velocity_at(config, release.r0) * t
        return 1.0 if x_lo <= x <= x_hi else 0.0

    u_band = (1.0 - rx.extent_cr / a) ** 2
    v2t = 2.0 * config.mean_velocity * t

    def radial_axial(u):
        x = v2t * (1.0 - u)
        return (u >= u_band) & (x >= x_lo) & (x <= x_hi)

    radial_frac = _indicator_measure(0.0, 1.0, n_radial_cells, radial_axial)

    half_angle = rx.extent_cphi / 2.0

    def angular(phi):
        return np.abs(phi) <= half_angle

    angular_frac = _indicator_measure(-math.pi, math.pi, n_angular_cells, angular)
    return radial_frac * angular_frac
