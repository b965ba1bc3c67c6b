"""Compare the closed-form impulse responses against the particle engine.

The narrow duct (a = 10 um) follows the Gaussian Taylor-Aris model; the wide
one (a = 200 um) the flow model: a 1/t-tailed pulse for a uniform release, a
rectangle of height 1 for a point release.  Runs both CIR presets, scaled down.
"""

import csv
from pathlib import Path

import numpy as np

from ductflow import cli

OUT = Path(__file__).resolve().parent / "demo_out"
N_TX = 4_000


def read_rows(path):
    """The data rows of a CSV table the CLI wrote, by column name."""
    return list(csv.DictReader(s for s in path.read_text().splitlines() if s[:1] != "#"))


def run_preset(name, distance):
    """Model peak times by model, then the simulated ``(t, P_ob)`` of both releases."""
    out = OUT / name
    if cli.main(["preset", name, "--out", str(out), "--threads", "2",
                 "--set", f"cir.distances={distance}", "--set", f"release.n_tx={N_TX}",
                 "--set", "grid.t_step=1ms"]) != 0:
        raise SystemExit(f"ductflow preset {name} failed")
    sims = (read_rows(out / f"cir_sim_{kind}_d{distance}.csv") for kind in ("uniform", "point"))
    return ({r["model"]: float(r["t_peak_s"]) for r in read_rows(out / "cir_peaks.csv")},
            *(np.array([(float(r["t_s"]), float(r["pob"])) for r in rows]).T for rows in sims))


def main():
    peaks, (t, pob), _ = run_preset("cir_small_duct", "800um")
    smoothed = np.convolve(pob, np.ones(81) / 81, mode="same")  # 81 ms running mean
    print(f"\nnarrow duct, d = 800 um: dispersion peak at {peaks['dispersion_uniform']:.3f}s,"
          f" simulated {t[np.argmax(smoothed)]:.3f}s\n")
    peaks, (t, pob), (_, point) = run_preset("cir_large_duct", "200um")
    print(f"\nwide duct, d = 200 um: flow peak at {peaks['flow_uniform']:.3f}s, simulated "
          f"{t[np.argmax(pob)]:.3f}s; point-release plateau {point.max():.3f}")


if __name__ == "__main__":
    main()
