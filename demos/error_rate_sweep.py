"""How the symbol interval trades data rate against interference errors.

The 1/t tail of the flow-dominated impulse response leaks earlier symbols
into later decisions, so the far link's error rate flattens out as the
symbol interval grows.  Runs ``ser_sweep`` on two distances.
"""

import csv
from pathlib import Path

from ductflow import cli

OUT = Path(__file__).resolve().parent / "demo_out"


def main():
    if cli.main(["preset", "ser_sweep", "--seed", "2", "--out", str(OUT),
                 "--set", "ser.distances=200um,800um",
                 "--set", "ser.symbol_intervals=0.1,0.2,0.3,0.45,0.6,0.75",
                 "--set", "ook.realizations=4000"]) != 0:
        raise SystemExit("ductflow preset ser_sweep failed")
    lines = (OUT / "ser_sweep.csv").read_text().splitlines()
    rows = list(csv.DictReader(s for s in lines if s[:1] != "#"))
    print(f"\n{'d':>8} {'T':>6} {'xi*':>5} {'analytic':>10} {'monte carlo':>12}")
    # Each point writes its Poisson-analytic row, then its Monte Carlo row.
    for analytic, mc in zip(rows[::2], rows[1::2]):
        print(f"{float(analytic['d_m']) * 1e6:>6.0f}um {float(analytic['T_s']):>6.2f} "
              f"{analytic['xi_opt']:>5} {float(analytic['ser']):>10.3e} {float(mc['ser']):>12.3e}")


if __name__ == "__main__":
    main()
