"""Watch a released particle cloud evolve from paraboloid to dispersed plug.

Shortly after a uniform release the cloud hugs the surface x = v(r) t, which
in (x, r^2) coordinates is a straight line.  Diffusion then lets particles
hop between streamlines until the cross-section decorrelates from the axial
position: the cloud becomes a Gaussian plug drifting at the mean velocity.
The script runs the particle engine once, captures three snapshots, and
quantifies how far each cloud is from the pure-flow line.
"""

import math
from pathlib import Path

import numpy as np

from ductflow import DuctChannelConfig, ReceiverVolume, ReleaseSpec, SimConfig, run
from ductflow.output import Table, emit_table

OUT = Path(__file__).resolve().parent / "demo_out"

RADIUS = 10e-6
TIMES = (0.02, 0.2, 0.8)


def main():
    channel = DuctChannelConfig(radius_a=RADIUS, diffusion_D=1e-10, mean_velocity=1e-3)
    rx = ReceiverVolume(axial_distance_d=800e-6, extent_cx=RADIUS / 2,
                        extent_cr=RADIUS / 2, extent_cphi=math.pi / 2)
    cfg = SimConfig(channel=channel, rx=rx, release=ReleaseSpec.uniform(1000),
                    time_step=1e-3, seed=7, sample_times=TIMES)
    result = run(cfg, snapshot_times=TIMES)

    print("snapshot statistics after a uniform release (1000 particles)")
    print(f"{'t':>6} {'mean x':>10} {'std x':>10} {'corr(x, r^2)':>14}")
    for t in TIMES:
        cloud = result.snapshots[t]
        x, r2 = cloud[:, 0], cloud[:, 1]
        # On the pure-flow paraboloid x and r^2 are perfectly anticorrelated;
        # full dispersion drives the correlation to zero.
        corr = np.corrcoef(x, r2)[0, 1]
        print(f"{t:>6.2f} {x.mean():>10.3e} {x.std():>10.3e} {corr:>14.3f}")
        rows = [(i, float(xx), float(rr)) for i, (xx, rr) in enumerate(cloud)]
        path = emit_table(Table(("particle_id", "x_m", "r2_m2"), rows,
                                meta={"snapshot_t_s": t, "seed": cfg.seed}),
                          OUT / f"snapshot_t{t:g}s.csv")
        print(f"       wrote {path}")
    print("\nthe correlation decaying toward zero is the dispersion picture: "
          "r^2 forgets where the particle started.")


if __name__ == "__main__":
    main()
