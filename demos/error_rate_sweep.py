"""How the symbol interval trades data rate against interference errors.

On-off keying over a flow-dominated duct: each 1 releases a thousand
molecules, the receiver thresholds its count one band-transit after the
release.  The 1/t tail of the impulse response means earlier symbols keep
leaking molecules into later decisions, and the leak is worse the farther
the receiver sits.  The sweep below finds the optimal threshold per point
and shows the far link flattening out: beyond some point longer symbols buy
almost nothing, because the interference tail shrinks as slowly as the
signal window grows.
"""

import math
from dataclasses import replace
from pathlib import Path

from ductflow import (
    DuctChannelConfig,
    FlowModel,
    OokLinkConfig,
    ReceiverVolume,
    SerMethod,
    cir_flow_uniform,
    detection_offsets,
    optimal_threshold,
    ser_monte_carlo,
)
from ductflow.output import Table, emit_table

OUT = Path(__file__).resolve().parent / "demo_out"


def main():
    channel = DuctChannelConfig(radius_a=200e-6, diffusion_D=1e-12, mean_velocity=1e-3)
    rows = []
    print("OOK error rate vs symbol interval (K = 8, n_tx = 1000, noise mean 4)")
    for distance in (200e-6, 800e-6):
        rx = ReceiverVolume(axial_distance_d=distance, extent_cx=100e-6,
                            extent_cr=100e-6, extent_cphi=math.pi / 2)
        model = FlowModel.for_channel(channel, rx)
        print(f"\n  d = {distance * 1e6:.0f} um (detects at t2 = {model.t2:.3f}s)")
        print(f"  {'T':>6} {'xi*':>5} {'analytic':>12} {'monte carlo':>12}")
        for T in (0.1, 0.2, 0.3, 0.45, 0.6, 0.75):
            pob = cir_flow_uniform(model, detection_offsets(T, 8, model.t2))
            link = OokLinkConfig(pob=pob, threshold_xi=0, noise_mean_Nn=4.0, n_tx=1000)
            xi, analytic = optimal_threshold(link)
            mc = ser_monte_carlo(replace(link, threshold_xi=xi), 4000, seed=2,
                                 method=SerMethod.MONTE_CARLO_COUNTS)
            print(f"  {T:>6.2f} {xi:>5d} {analytic.ser:>12.3e} {mc.ser:>12.3e}")
            rows.append((T, distance, xi, analytic.ser, "poisson_analytic", 0, 2))
            rows.append((T, distance, xi, mc.ser, "monte_carlo_counts", 4000, 2))

    path = emit_table(
        Table(("T_s", "d_m", "xi_opt", "ser", "method", "realizations", "seed"),
              rows, meta={"content": "demo sweep from demos/error_rate_sweep.py"}),
        OUT / "error_rate_sweep.csv")
    print(f"\nwrote {path}")
    print("note how the far link barely improves from T = 0.45 to 0.75: "
          "that is interference from the slow near-wall molecules.")


if __name__ == "__main__":
    main()
