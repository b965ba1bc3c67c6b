"""Compare the closed-form impulse responses against the particle engine.

Two ducts, same flow and molecule: in the narrow one (a = 10 um) dispersion
has room to act over the transmitter-receiver distance, so the Gaussian
model with the Taylor-Aris diffusivity fits; in the wide one (a = 200 um)
transport is flow-dominated and the piecewise 1/t-tailed form (uniform
release) or a clean rectangle (point release near the wall) takes over.
The script simulates both ducts at reduced particle counts, prints where the
simulated peaks land relative to the model predictions, and writes the
curves for plotting.
"""

import math
from pathlib import Path

import numpy as np

from ductflow import (
    DispersionModel,
    DuctChannelConfig,
    FlowModel,
    ReceiverVolume,
    ReleaseSpec,
    SimConfig,
    cir_dispersion,
    cir_flow_point,
    cir_flow_uniform,
    dispersion_peak_time,
    run,
)
from ductflow.output import Table, emit_table

OUT = Path(__file__).resolve().parent / "demo_out"
N_TX = 30_000


def simulate(channel, rx, release, t_stop, seed):
    times = np.arange(1, int(round(t_stop / 1e-3)) + 1) * 1e-3
    cfg = SimConfig(channel=channel, rx=rx, release=release, time_step=1e-3,
                    seed=seed, sample_times=times)
    return run(cfg, threads=4).series


def narrow_duct():
    a = 10e-6
    channel = DuctChannelConfig(radius_a=a, diffusion_D=1e-10, mean_velocity=1e-3)
    rx = ReceiverVolume(axial_distance_d=800e-6, extent_cx=a / 2,
                        extent_cr=a / 2, extent_cphi=math.pi / 2)
    model = DispersionModel.for_channel(channel, rx)
    series = simulate(channel, rx, ReleaseSpec.uniform(2 * N_TX), 1.2, seed=34)
    t_model = dispersion_peak_time(model, rx.axial_distance_d)
    smoothed = np.convolve(series.counts, np.ones(81) / 81, mode="same")
    t_sim = series.times[int(np.argmax(smoothed))]
    print("narrow duct (a = 10 um, d = 800 um): dispersion regime")
    print(f"  model peak time {t_model:.3f}s, simulated {t_sim:.3f}s")
    print("  (the peak is broad and the scenario sits near the regime "
          "boundary, so simulated peaks tend to land a few percent late)")
    rows = list(zip(series.times, cir_dispersion(model, rx, series.times),
                    series.probabilities()))
    emit_table(Table(("t_s", "pob_model", "pob_simulated"), rows,
                     meta={"duct": "narrow", "n_tx": 2 * N_TX}),
               OUT / "cir_narrow_duct.csv")


def wide_duct():
    a = 200e-6
    channel = DuctChannelConfig(radius_a=a, diffusion_D=1e-10, mean_velocity=1e-3)
    rx = ReceiverVolume(axial_distance_d=200e-6, extent_cx=a / 2,
                        extent_cr=a / 2, extent_cphi=math.pi / 2)
    model = FlowModel.for_channel(channel, rx)
    uniform = simulate(channel, rx, ReleaseSpec.uniform(N_TX), 0.45, seed=32)
    point_release = ReleaseSpec.point(N_TX, 150e-6, 0.0)
    point = simulate(channel, rx, point_release, 0.45, seed=33)
    peak_idx = int(np.argmax(uniform.counts))
    print("wide duct (a = 200 um, d = 200 um): flow-dominated regime")
    print(f"  band transit times t1 = {model.t1:.3f}s, t2 = {model.t2:.3f}s")
    print(f"  simulated uniform-release peak at {uniform.times[peak_idx]:.3f}s, "
          f"height {uniform.counts[peak_idx] / N_TX:.4f} "
          f"(model {cir_flow_uniform(model, model.t2):.4f})")
    plateau = point.counts.max() / N_TX
    print(f"  point release from r0 = 0.75 a: plateau {plateau:.3f} "
          "(rectangle of height 1 blurred slightly by diffusion)")
    rows = list(zip(uniform.times,
                    cir_flow_uniform(model, uniform.times),
                    uniform.probabilities(),
                    cir_flow_point(channel, rx, point_release, point.times),
                    point.probabilities()))
    emit_table(Table(("t_s", "pob_model_uniform", "pob_sim_uniform",
                      "pob_model_point", "pob_sim_point"), rows,
                     meta={"duct": "wide", "n_tx": N_TX}),
               OUT / "cir_wide_duct.csv")


def main():
    narrow_duct()
    wide_duct()
    print(f"\nwrote curves into {OUT}")


if __name__ == "__main__":
    main()
