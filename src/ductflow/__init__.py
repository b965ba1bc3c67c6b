"""Molecular-communication channel models for laminar duct flow.

Closed-form channel impulse responses for the dispersion and flow-dominated
transport regimes in a cylindrical duct, a particle-based Monte Carlo engine
that validates them against the full advection-diffusion dynamics, and an
on-off-keying link layer with optimal threshold detection.
"""

from .duct import (
    DuctChannelConfig,
    ReceiverVolume,
    Regime,
    RegimeVerdict,
    ReleaseKind,
    ReleaseSpec,
    classify_regime,
    peclet_number,
    rx_area_fraction,
    velocity_at,
)
from .impulse import (
    cir_dispersion,
    cir_flow_point,
    cir_flow_uniform,
    dispersion_peak_time,
    effective_diffusion,
    flow_point_window,
    flow_transit_times,
    uniform_response,
)
from .ook import (
    OokLinkConfig,
    SerMethod,
    SerResult,
    detection_offsets,
    optimal_threshold_many,
    ser_analytic_many,
    ser_monte_carlo_many,
)
from . import particles
from .particles import SimConfig, SimResult

__version__ = "0.1.0"

__all__ = [
    "DuctChannelConfig", "ReceiverVolume", "ReleaseKind", "ReleaseSpec",
    "Regime", "RegimeVerdict", "velocity_at", "peclet_number",
    "classify_regime", "rx_area_fraction",
    "effective_diffusion", "cir_dispersion", "dispersion_peak_time", "flow_transit_times",
    "cir_flow_uniform", "uniform_response", "cir_flow_point", "flow_point_window",
    "SimConfig", "SimResult", "particles",
    "OokLinkConfig", "SerMethod", "SerResult", "detection_offsets", "ser_analytic_many",
    "optimal_threshold_many", "ser_monte_carlo_many",
    "__version__",
]

