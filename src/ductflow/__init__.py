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
    DispersionModel,
    cir_dispersion,
    cir_flow_point,
    cir_flow_uniform,
    dispersion_peak_time,
    effective_diffusion,
    flow_point_window,
    flow_transit_times,
)
from .ook import (
    OokLinkConfig,
    SerMethod,
    SerResult,
    detection_offsets,
    optimal_threshold,
    ser_analytic,
    ser_monte_carlo,
    ser_monte_carlo_many,
)
from .particles import (
    ObservationSeries,
    SimConfig,
    SimResult,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "DuctChannelConfig", "ReceiverVolume", "ReleaseKind", "ReleaseSpec",
    "Regime", "RegimeVerdict", "velocity_at", "peclet_number",
    "classify_regime", "rx_area_fraction",
    "DispersionModel", "effective_diffusion", "cir_dispersion", "dispersion_peak_time",
    "flow_transit_times", "cir_flow_uniform", "cir_flow_point", "flow_point_window",
    "oracle_cir_dispersion", "oracle_cir_flow",
    "SimConfig", "ObservationSeries", "SimResult", "run",
    "OokLinkConfig", "SerMethod", "SerResult", "detection_offsets", "ser_analytic",
    "optimal_threshold", "ser_monte_carlo", "ser_monte_carlo_many",
    "__version__",
]


def __getattr__(name: str):
    # The quadrature oracles need scipy (the ``oracles`` extra), which no CLI
    # run needs, so they are imported on first use.
    if name in ("oracle_cir_dispersion", "oracle_cir_flow"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
