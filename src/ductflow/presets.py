"""Experiment presets and the data-emission actions behind the CLI.

Each preset resolves to a complete configuration (duct, receiver, release,
grids) and a runner that writes the CSV tables needed to re-plot the
corresponding study: particle-position snapshots, impulse-response
comparisons for a narrow and a wide duct, the transport-regime map, and the
symbol-error-rate sweep versus symbol interval.  Exact figure-axis grids are
a choice of this package: uniform time grids spanning the visible ranges,
recorded in the emitted headers.

``ACTIONS`` is the CLI's command table: each subcommand's runner and help.
Every table goes through one writer that embeds the resolved configuration
and seed; partially written files are removed if a runner fails.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import MAX_GRID_POINTS, ConfigError, ResolvedConfig, load_config
from .duct import Regime, classify_regime
from .impulse import (DispersionModel, cir_dispersion, cir_flow_point, cir_flow_uniform,
                      dispersion_peak_time, flow_transit_times)
from .ook import (OokLinkConfig, SerMethod, detection_offsets, optimal_threshold, ser_analytic,
                  ser_monte_carlo_many)
from .output import Table, emit_table
from .particles import SimConfig, run, run_many

__all__ = ["PRESETS", "ACTIONS", "preset_config", "discard_partial_outputs",
           "regime_action", "cir_action", "simulate_action",
           "snapshot_action", "ser_action"]

_UM = 1e-6

#: Particles in the engine pool behind a ``particle_binomial`` SER point.
_POOL_PARTICLES = 100_000


def _write(cfg: ResolvedConfig, out_dir: Path, stem: str, columns, rows, **header) -> Path:
    """Emit one table as ``out_dir/<stem>.csv``, headed by ``cfg.header(**header)``."""
    table = Table(tuple(columns), rows, meta=cfg.header(**header))
    return emit_table(table, out_dir / f"{stem}.csv")


def _um_label(length_m: float) -> str:
    return f"{length_m / _UM:g}um"


def _sim_for_grid(cfg: ResolvedConfig, rx, release, sample_times,
                  snapshot_times=()) -> SimConfig:
    return cfg.build(SimConfig, channel=cfg.channel(), rx=rx, release=release,
                     time_step=cfg["sim.time_step"], seed=cfg["seed"],
                     sample_times=sample_times, snapshot_times=snapshot_times)


def regime_action(cfg: ResolvedConfig, out_dir: Path, threads: int = 1) -> list[Path]:
    """Regime verdicts for every configured (radius, distance) scenario."""
    channel = cfg.channel()
    rows = []
    for radius in cfg["regime.radii"]:
        for distance in cfg["regime.distances"]:
            scenario = load_config({"channel.radius": radius,
                                    "channel.diffusion": cfg["channel.diffusion"],
                                    "channel.mean_velocity": channel.mean_velocity,
                                    "rx.distance": distance})
            verdict = classify_regime(scenario.channel(), scenario.receiver())
            rows.append((radius, distance, verdict.distance_ratio, verdict.peclet,
                         verdict.margin, verdict.regime.value))
    ratios = np.logspace(-1, 3, 201)
    return [
        _write(cfg, out_dir, "regime_scenarios",
               ("radius_a_m", "d_m", "distance_ratio", "peclet", "margin", "regime"), rows,
               content="transport-regime classification"),
        _write(cfg, out_dir, "regime_boundary", ("distance_ratio", "peclet_boundary"),
               [(float(r), float(4.0 * r)) for r in ratios],
               content="separating line peclet = 4 d / a"),
    ]


def _analytic_cir_tables(cfg: ResolvedConfig, distance: float):
    channel = cfg.channel()
    rx = cfg.receiver(distance=distance)
    grid = cfg.time_grid()
    columns = ["t_s"]
    series = [grid]
    peak_rows = []
    if channel.diffusion_D > 0.0:
        disp = DispersionModel.for_channel(channel, rx)
        columns.append("pob_dispersion")
        series.append(cir_dispersion(disp, rx, grid))
        tmax = dispersion_peak_time(disp, rx.axial_distance_d)
        peak_rows.append((distance, "dispersion_uniform", tmax, cir_dispersion(disp, rx, tmax)))
    if channel.mean_velocity > 0.0:
        t2 = flow_transit_times(channel, rx)[1]
        columns.append("pob_flow_uniform")
        series.append(cir_flow_uniform(channel, rx, grid))
        peak_rows.append((distance, "flow_uniform", t2, cir_flow_uniform(channel, rx, t2)))
        point = cfg.release("point")
        columns.append("pob_flow_point")
        series.append(cir_flow_point(channel, rx, point, grid))
    rows = list(zip(*[np.asarray(s, dtype=float) for s in series]))
    return columns, rows, peak_rows


def cir_action(cfg: ResolvedConfig, out_dir: Path, threads: int = 1) -> list[Path]:
    """Closed-form impulse-response curves plus peak markers."""
    paths = []
    all_peaks = []
    for distance in cfg["cir.distances"]:
        columns, rows, peak_rows = cfg.build(_analytic_cir_tables, cfg, distance)
        all_peaks.extend(peak_rows)
        paths.append(_write(cfg, out_dir, f"cir_analytic_d{_um_label(distance)}",
                            columns, rows, content="analytic impulse responses",
                            rx_distance_m=distance))
    paths.append(_write(cfg, out_dir, "cir_peaks", ("d_m", "model", "t_peak_s", "pob_peak"),
                        all_peaks, content="impulse-response peak markers"))
    return paths


def simulate_action(cfg: ResolvedConfig, out_dir: Path, threads: int = 1) -> list[Path]:
    """Particle-simulated observation series on the configured time grid."""
    sim = _sim_for_grid(cfg, cfg.receiver(), cfg.release(), cfg.time_grid())
    series = run(sim, threads=threads).series
    rows = [(float(t), int(c), series.n_tx) for t, c in zip(series.times, series.counts)]
    return [_write(cfg, out_dir, "observations", ("t_s", "count", "n_tx"), rows,
                   content="simulated observation series")]


def _simulated_cir_paths(cfg: ResolvedConfig, out_dir: Path, threads: int) -> list[Path]:
    # Both release kinds share their stream, so one engine pass moves them
    # together and counts every distance's receiver; files are then written
    # distance by distance.
    distances = cfg["cir.distances"]
    receivers = tuple(cfg.receiver(distance=d) for d in distances)
    grid = cfg.time_grid()
    labels = ("uniform", "point")
    results = dict(zip(labels, run_many(
        [_sim_for_grid(cfg, receivers, cfg.release(label), grid) for label in labels],
        threads=threads)))
    paths = []
    for k, distance in enumerate(distances):
        for label in labels:
            series = results[label].all_series[k]
            # Binomial standard errors (0 if n_tx = 0) and 95 % CI half-widths.
            pob = series.probabilities()
            stderr = np.sqrt(pob * (1.0 - pob) / max(series.n_tx, 1))
            rows = [(float(t), float(p), float(se), float(hw), int(c), series.n_tx)
                    for t, p, se, hw, c in zip(
                        series.times, pob, stderr, 1.96 * stderr, series.counts)]
            paths.append(_write(
                cfg, out_dir, f"cir_sim_{label}_d{_um_label(distance)}",
                ("t_s", "pob", "stderr", "ci_half_width", "count", "n_tx"), rows,
                content="simulated impulse response", release=label,
                rx_distance_m=distance, seed=cfg["seed"]))
    return paths


def snapshot_action(cfg: ResolvedConfig, out_dir: Path, threads: int = 1) -> list[Path]:
    """Per-particle (x, r^2) clouds at the configured snapshot times."""
    times = np.asarray(cfg["snapshot.times"], dtype=float)
    # A sample at step 0 draws nothing, so the snapshots alone set the run,
    # and times that snap to one step collapse into one snapshot.
    sim = _sim_for_grid(cfg, cfg.receiver(), cfg.release(), [0.0], times)
    result = run(sim, threads=threads)
    return [_write(cfg, out_dir, f"snapshot_t{t:g}s", ("particle_id", "x_m", "r2_m2"),
                   [(i, float(x), float(r2)) for i, (x, r2) in enumerate(result.snapshots[t])],
                   content="particle position snapshot", snapshot_t_s=t)
            for t in sorted(result.snapshots)]


def _auto_link(cfg: ResolvedConfig, distance: float, symbol_interval: float):
    """Build the OOK link for one sweep point, resolving auto delay/threshold.

    Returns ``(link, rx, offsets)``: the link holds the regime's closed form
    at the detection ``offsets``, and threshold 0 if it is to be optimised.
    An invalid link raises ``ValueError``, which the caller's ``cfg.build`` reports.
    """
    channel = cfg.channel()
    rx = cfg.receiver(distance=distance)
    if classify_regime(channel, rx).regime is Regime.DISPERSION:
        model = DispersionModel.for_channel(channel, rx)
        closed_form = partial(cir_dispersion, model, rx)
        auto_delay = dispersion_peak_time(model, rx.axial_distance_d)
    else:
        closed_form = partial(cir_flow_uniform, channel, rx)
        auto_delay = flow_transit_times(channel, rx)[1]
    delay = cfg["ook.detection_delay"]
    offsets = detection_offsets(symbol_interval, cfg["ook.seq_len"],
                                auto_delay if delay == "auto" else float(delay))
    threshold = cfg["ook.threshold"]
    link = OokLinkConfig(pob=closed_form(offsets),
                         threshold_xi=0 if threshold == "optimal" else int(threshold),
                         noise_mean_Nn=cfg["ook.noise_mean"], n_tx=cfg["release.n_tx"])
    return link, rx, offsets


def _particle_pobs(cfg: ResolvedConfig, points, threads: int) -> list[np.ndarray]:
    """The empirical ``P_ob`` of one engine run per ``(rx, offsets)`` point.

    Each run releases ``_POOL_PARTICLES`` particles of the configured kind
    and counts those inside ``rx`` at the (step-snapped) detection
    ``offsets``; the runs share one set of workers.
    """
    pool = replace(cfg.release(), n_tx=_POOL_PARTICLES)
    results = run_many([_sim_for_grid(cfg, rx, pool, offsets) for rx, offsets in points],
                       threads=threads)
    return [result.series.probabilities() for result in results]


def ser_action(cfg: ResolvedConfig, out_dir: Path, threads: int = 1) -> list[Path]:
    """SER sweep over the configured distances and symbol intervals.

    Each point writes one row per ``ook.method`` entry, in the listed order.
    ``particle_binomial`` takes the link's ``P_ob`` from an engine pool as
    it is (:func:`_particle_pobs`).  ``monte_carlo_counts`` runs once over
    every point's link (:func:`ser_monte_carlo_many`), each row the one a
    sweep of that point alone would write.
    """
    methods = [SerMethod(method) for method in cfg["ook.method"]]
    realizations = cfg["ook.realizations"]
    run_mc = SerMethod.MONTE_CARLO_COUNTS in methods
    if run_mc and realizations < 1:
        raise ConfigError("need at least one realization")
    # The detection offsets are a time grid, refused like one before they exist.
    if cfg["ook.seq_len"] > MAX_GRID_POINTS:
        raise ConfigError(f"ook.seq_len gives {cfg['ook.seq_len']} detection offsets, "
                          f"more than the {MAX_GRID_POINTS} allowed")
    seed = cfg["seed"]
    grid = [(d, t) for d in cfg["ser.distances"] for t in cfg["ser.symbol_intervals"]]
    # Every link is checked before a particle_binomial pool starts the engine.
    points = [cfg.build(_auto_link, cfg, distance, symbol_interval)
              for distance, symbol_interval in grid]
    pobs = (_particle_pobs(cfg, [(rx, offsets) for _, rx, offsets in points], threads)
            if SerMethod.PARTICLE_BINOMIAL in methods else [None] * len(points))
    links, searches = [link for link, _, _ in points], [None] * len(points)
    if cfg["ook.threshold"] == "optimal":
        for i, link in enumerate(links):
            xi_opt, searches[i] = optimal_threshold(link, SerMethod.POISSON_ANALYTIC)
            links[i] = replace(link, threshold_xi=xi_opt)
    mc_results = (cfg.build(ser_monte_carlo_many, links, realizations, seed) if run_mc
                  else [None] * len(links))
    rows = []
    for (distance, symbol_interval), link, searched, pob, mc_result in zip(
            grid, links, searches, pobs, mc_results):
        for method in methods:
            used = 0
            if method is SerMethod.MONTE_CARLO_COUNTS:
                result, used = mc_result, realizations
            elif method is SerMethod.PARTICLE_BINOMIAL:
                result = ser_analytic(replace(link, pob=pob), SerMethod.BINOMIAL_ANALYTIC)
            elif method is SerMethod.POISSON_ANALYTIC and searched is not None:
                # The search's table holds every threshold, xi_opt's included.
                result = searched
            else:
                result = ser_analytic(link, method)
            rows.append((symbol_interval, distance, link.threshold_xi, result.ser,
                         method.value, used, seed))
    return [_write(cfg, out_dir, "ser_sweep",
                   ("T_s", "d_m", "xi_opt", "ser", "method", "realizations", "seed"), rows,
                   content="symbol error rate sweep")]


def _cir_preset(cfg: ResolvedConfig, out_dir: Path, threads: int) -> list[Path]:
    """Analytic curves and peaks, then the simulated responses."""
    return cir_action(cfg, out_dir) + _simulated_cir_paths(cfg, out_dir, threads)


#: Every CLI subcommand but ``preset``: ``name -> (runner, help)``, the
#: runner called as ``runner(cfg, out_dir, threads) -> paths``.
ACTIONS = {
    "regime": (regime_action, "classify transport regimes"),
    "cir": (cir_action, "emit analytic impulse responses"),
    "simulate": (simulate_action, "run the particle simulator"),
    "snapshot": (snapshot_action, "emit particle position snapshots"),
    "ser": (ser_action, "sweep the OOK symbol error rate"),
}

#: Named presets: ``name -> (runner, overrides)``, the overrides applied on
#: top of the built-in defaults.
PRESETS: dict[str, tuple] = {
    "snapshot_small_duct": (snapshot_action, {
        "channel.radius": 10e-6,
        "channel.diffusion": 1e-10,
        "release.kind": "uniform",
        "release.n_tx": 1_000,
        "snapshot.times": (0.02, 0.2, 0.8),
    }),
    "cir_small_duct": (_cir_preset, {
        "channel.radius": 10e-6,
        "channel.diffusion": 1e-10,
        "release.n_tx": 1_000_000,
        "cir.distances": (200e-6, 800e-6),
        "grid.t_stop": 1.4,
        "grid.t_step": 2e-3,
    }),
    "cir_large_duct": (_cir_preset, {
        "channel.radius": 200e-6,
        "channel.diffusion": 1e-10,
        "release.n_tx": 1_000_000,
        "cir.distances": (200e-6, 800e-6),
        "grid.t_stop": 1.5,
        "grid.t_step": 2e-3,
    }),
    "regime_map": (regime_action, {
        "regime.radii": (10e-6, 200e-6),
        "regime.distances": (200e-6, 800e-6),
    }),
    "ser_sweep": (ser_action, {
        "channel.radius": 200e-6,
        "channel.diffusion": 1e-12,
        "release.n_tx": 1_000,
        "ser.distances": (200e-6, 400e-6, 600e-6, 800e-6),
        "ser.symbol_intervals": (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                                 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75),
        "ook.seq_len": 8,
        "ook.noise_mean": 4.0,
        "ook.realizations": 10_000,
        "ook.detection_delay": "auto",
        "ook.threshold": "optimal",
        "ook.method": (SerMethod.POISSON_ANALYTIC.value, SerMethod.MONTE_CARLO_COUNTS.value),
    }),
}


def preset_config(name: str, file_path=None, overrides=None, seed=None) -> ResolvedConfig:
    """Resolve a named preset with optional file/flag overrides."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}' (choose from {sorted(PRESETS)})")
    return load_config(PRESETS[name][1], file_path=file_path, overrides=overrides, seed=seed)


def discard_partial_outputs(action, out_dir: str | Path):
    """Run ``action()`` and remove any files it created if it fails."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    before = {p for p in out.rglob("*") if p.is_file()}
    try:
        return action()
    except Exception:
        for path in {p for p in out.rglob("*") if p.is_file()} - before:
            path.unlink(missing_ok=True)
        raise

