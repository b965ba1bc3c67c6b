"""Watch a released particle cloud evolve from paraboloid to dispersed plug.

On the flow surface x = v(r) t, x and r^2 are perfectly anticorrelated;
diffusion decays that correlation toward 0.  Runs ``snapshot_small_duct``.
"""

import csv
from pathlib import Path

import numpy as np

from ductflow import cli

OUT = Path(__file__).resolve().parent / "demo_out"
TIMES = (0.02, 0.2, 0.8)  # the preset's snapshot times


def main():
    if cli.main(["preset", "snapshot_small_duct", "--seed", "7", "--out", str(OUT)]) != 0:
        raise SystemExit("ductflow preset snapshot_small_duct failed")
    print(f"\n{'t':>6} {'mean x':>10} {'std x':>10} {'corr(x, r^2)':>14}")
    for t in TIMES:
        lines = (OUT / f"snapshot_t{t:g}s.csv").read_text().splitlines()
        rows = list(csv.DictReader(s for s in lines if s[:1] != "#"))
        x, r2 = (np.array([float(r[key]) for r in rows]) for key in ("x_m", "r2_m2"))
        print(f"{t:>6.2f} {x.mean():>10.3e} {x.std():>10.3e} {np.corrcoef(x, r2)[0, 1]:>14.3f}")


if __name__ == "__main__":
    main()
