"""The benchmark's workloads: which CLI calls one job makes, and their size.

Each workload is a fixed configuration run through ``ductflow.cli.main``;
the benchmark seed is passed on as ``--seed`` and changes only the random
streams, never the sizes.  ``smoke`` selects tiny sizes that keep the
workload's code paths and checks (bar the cir_narrow peak time, which its
short grid does not reach) and finish in a few seconds.

Why these two:

* ``cir_narrow`` -- two threads, dominated by
  ``particles.run`` in a 10 um duct where wall reflections are frequent;
  its two receivers share one seeded release per release kind.
* ``ser_sweep`` -- the particle engine never runs; the OOK enumeration,
  threshold search and count Monte Carlo do the work.

A third, one ``monte_carlo_particles`` SER point (a single-thread engine run
over a 1e5-particle pool, far beyond L2), was left out: on a shared 2-vCPU
machine its wall time varied by up to 25 % between runs minutes apart,
which no run length within the benchmark's time budget averaged out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from checks import check_cir_narrow, check_ser_sweep, read_table

__all__ = ["Workload", "WORKLOADS"]

_SER_INTERVALS = "0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75"

#: The wide-duct link the SER preset uses (a = 200 um, D = 1e-12, n_tx = 1e3).
_WIDE_LINK = {
    "channel.radius": "200 um",
    "channel.diffusion": "1e-12",
    "release.n_tx": "1000",
    "ook.seq_len": "8",
    "ook.noise_mean": "4",
    "ook.realizations": "10000",
}


def _set_flags(overrides: dict[str, str]) -> list[str]:
    flags = []
    for key, value in overrides.items():
        flags += ["--set", f"{key}={value}"]
    return flags


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``full`` and ``smoke`` list the job's CLI calls as ``(command, overrides)``
    pairs: ``command`` is the argument list before the common flags
    (``("preset", "ser_sweep")`` or ``("ser",)``) and ``overrides`` the
    ``--set`` values.  Call ``i`` of a job writes into ``<out>/call<i>``.
    ``work_units(cfgs, out)`` is the job's work in the unit that
    ``rate_name`` names, and ``check`` checks a job's outputs.
    """

    name: str
    threads: int
    full: tuple
    smoke: tuple
    rate_name: str
    work_units: Callable
    check: Callable

    def calls(self, smoke: bool) -> tuple:
        return self.smoke if smoke else self.full

    def argvs(self, seed: int, out_dir: str, smoke: bool) -> list[list[str]]:
        argvs = []
        for index, (command, overrides) in enumerate(self.calls(smoke)):
            argvs.append(list(command) + _set_flags(overrides) + [
                "--seed", str(seed), "--threads", str(self.threads),
                "--out", f"{out_dir}/call{index}"])
        return argvs

    def configs(self, seed: int, smoke: bool) -> list:
        """The resolved configuration of every call, as the CLI builds it."""
        from ductflow.config import load_config
        from ductflow.presets import preset_config

        resolved = []
        for command, overrides in self.calls(smoke):
            if command[0] == "preset":
                resolved.append(preset_config(command[1], overrides=overrides, seed=seed))
            else:
                resolved.append(load_config(overrides=overrides, seed=seed))
        return resolved


# Particle-steps are counted as the configuration requests them, not as the
# engine performs them, so work an implementation skips counts as speed.

def _cir_particle_steps(cfgs, out) -> int:
    (cfg,) = cfgs
    steps = round(cfg.time_grid()[-1] / cfg["sim.time_step"])
    simulations = 2 * len(cfg["cir.distances"])  # uniform and point release
    return simulations * cfg["release.n_tx"] * steps


def _ser_rows_written(cfgs, out) -> int:
    return sum(len(read_table(p)[1]) for p in out.rglob("ser_sweep.csv"))


WORKLOADS: dict[str, Workload] = {
    "cir_narrow": Workload(
        name="cir_narrow",
        threads=2,
        full=((("preset", "cir_small_duct"), {"release.n_tx": "10000"}),),
        smoke=((("preset", "cir_small_duct"),
                {"release.n_tx": "300", "grid.t_stop": "0.3"}),),
        rate_name="particle_steps_per_core_s",
        work_units=_cir_particle_steps,
        check=check_cir_narrow,
    ),
    "ser_sweep": Workload(
        name="ser_sweep",
        threads=1,
        full=(
            (("preset", "ser_sweep"), {}),
            (("ser",), {**_WIDE_LINK,
                        "ser.distances": "200 um, 400 um, 600 um, 800 um",
                        "ser.symbol_intervals": _SER_INTERVALS,
                        "ook.method": "binomial_analytic"}),
        ),
        smoke=(
            (("preset", "ser_sweep"), {"ser.distances": "200 um, 800 um",
                                       "ser.symbol_intervals": "0.1, 0.5",
                                       "ook.realizations": "2000"}),
            (("ser",), {**_WIDE_LINK,
                        "ser.distances": "200 um, 800 um",
                        "ser.symbol_intervals": "0.1, 0.5",
                        "ook.realizations": "2000",
                        "ook.method": "binomial_analytic"}),
        ),
        rate_name="ser_points_per_s",
        work_units=_ser_rows_written,
        check=check_ser_sweep,
    ),
}
