"""Where does a duct channel sit between dispersion and flow-dominated?

Well below Pe / (4 d / a) = 1 the Taylor-Aris model (D_eff = D (1 + Pe^2 / 48))
applies; well above it, particles ride their streamline.  Runs ``regime_map``
(v = 1 mm/s, D = 1e-10 m^2/s) over a grid of radii and distances.
"""

import csv
from pathlib import Path

from ductflow import cli

OUT = Path(__file__).resolve().parent / "demo_out"


def main():
    if cli.main(["preset", "regime_map", "--out", str(OUT),
                 "--set", "regime.radii=5um,10um,50um,200um",
                 "--set", "regime.distances=200um,800um,5mm"]) != 0:
        raise SystemExit("ductflow preset regime_map failed")
    lines = (OUT / "regime_scenarios.csv").read_text().splitlines()
    print("\n  radius   distance     Pe    d/a   margin  D_eff/D regime")
    for row in csv.DictReader(s for s in lines if s[:1] != "#"):
        a, d, pe, ratio, margin = (float(row[key]) for key in (
            "radius_a_m", "d_m", "peclet", "distance_ratio", "margin"))
        print(f"{a * 1e6:>6.0f}um {d * 1e6:>8.0f}um {pe:>6.0f} {ratio:>6.0f} "
              f"{margin:>8.3g} {1.0 + pe * pe / 48.0:>8.3g} {row['regime']}")


if __name__ == "__main__":
    main()
