"""Experiment presets and the data-emission actions behind the CLI.

Each preset resolves to a complete configuration (duct, receiver, release,
grids) and a runner that yields the CSV tables needed to re-plot the
corresponding study: particle-position snapshots, impulse-response
comparisons for a narrow and a wide duct, the transport-regime map, and the
symbol-error-rate sweep versus symbol interval.  Exact figure-axis grids are
a choice of this package: uniform time grids spanning the visible ranges,
recorded in the emitted headers.

``ACTIONS`` is the CLI's command table: each subcommand's runner and help.
Every table is headed by the resolved configuration and seed; runners write
no file, and :func:`publish` writes a call's tables all or none.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import replace
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import particles
from .config import MAX_GRID_POINTS, ConfigError, ResolvedConfig, load_config
from .duct import Regime, classify_regime
from .impulse import cir_flow_point, uniform_response
from .ook import (OokLinkConfig, SerMethod, detection_offsets, optimal_threshold_many,
                  ser_analytic_many, ser_monte_carlo_many)
from .output import Table, emit_table
from .particles import SimConfig

__all__ = ["PRESETS", "ACTIONS", "preset_config", "publish",
           "regime_action", "cir_action", "simulate_action",
           "snapshot_action", "ser_action"]

_UM = 1e-6

#: Particles in the engine pool behind a ``particle_binomial`` SER point.
_POOL_PARTICLES = 100_000


def _table(cfg: ResolvedConfig, stem: str, columns, rows, **header) -> tuple[str, Table]:
    """``("<stem>.csv", table)``, the table headed by ``cfg.header(**header)``."""
    return f"{stem}.csv", Table(tuple(columns), rows, meta=cfg.header(**header))


def _um_label(length_m: float) -> str:
    return f"{length_m / _UM:g}um"


def _sim_for_grid(cfg: ResolvedConfig, receivers, releases, sample_times,
                  snapshot_times=(), n_tx=None) -> SimConfig:
    """The engine pass of ``n_tx`` particles a release (default ``release.n_tx``)."""
    return cfg.build(SimConfig, channel=cfg.channel(), receivers=receivers, releases=releases,
                     n_tx=cfg["release.n_tx"] if n_tx is None else n_tx,
                     time_step=cfg["sim.time_step"], seed=cfg["seed"],
                     sample_times=sample_times, snapshot_times=snapshot_times)


def regime_action(cfg: ResolvedConfig, threads: int = 1):
    """Regime verdicts for every configured (radius, distance) scenario."""
    rows = []
    for radius in cfg["regime.radii"]:
        channel = cfg.build(replace, cfg.channel(), radius_a=radius)
        for distance in cfg["regime.distances"]:
            verdict = cfg.build(classify_regime, channel, distance)
            rows.append((radius, distance, verdict.distance_ratio, verdict.peclet,
                         verdict.margin, verdict.regime.value))
    yield _table(cfg, "regime_scenarios",
                 ("radius_a_m", "d_m", "distance_ratio", "peclet", "margin", "regime"), rows,
                 content="transport-regime classification")
    yield _table(cfg, "regime_boundary", ("distance_ratio", "peclet_boundary"),
                 [(float(r), float(4.0 * r)) for r in np.logspace(-1, 3, 201)],
                 content="separating line peclet = 4 d / a")


def _analytic_cir_tables(cfg: ResolvedConfig, distance: float):
    channel = cfg.channel()
    rx = cfg.receiver(distance=distance)
    grid = cfg.time_grid()
    columns = ["t_s"]
    series = [grid]
    peak_rows = []
    if channel.diffusion_D > 0.0:
        pob, t_peak = uniform_response(channel, rx, Regime.DISPERSION)
        columns.append("pob_dispersion")
        series.append(pob(grid))
        peak_rows.append((distance, "dispersion_uniform", t_peak, pob(t_peak)))
    if channel.mean_velocity > 0.0:
        pob, t_peak = uniform_response(channel, rx, Regime.FLOW_DOMINATED)
        columns += ["pob_flow_uniform", "pob_flow_point"]
        series += [pob(grid), cir_flow_point(channel, rx, cfg.release("point"), grid)]
        peak_rows.append((distance, "flow_uniform", t_peak, pob(t_peak)))
    rows = list(zip(*[np.asarray(s, dtype=float) for s in series]))
    return columns, rows, peak_rows


def cir_action(cfg: ResolvedConfig, threads: int = 1):
    """Closed-form impulse-response curves plus peak markers."""
    all_peaks = []
    for distance in cfg["cir.distances"]:
        columns, rows, peak_rows = cfg.build(_analytic_cir_tables, cfg, distance)
        all_peaks.extend(peak_rows)
        yield _table(cfg, f"cir_analytic_d{_um_label(distance)}", columns, rows,
                     content="analytic impulse responses", rx_distance_m=distance)
    yield _table(cfg, "cir_peaks", ("d_m", "model", "t_peak_s", "pob_peak"), all_peaks,
                 content="impulse-response peak markers")


def simulate_action(cfg: ResolvedConfig, threads: int = 1):
    """Particle-simulated observation series on the configured time grid."""
    sim = _sim_for_grid(cfg, (cfg.receiver(),), (cfg.release(),), cfg.time_grid())
    counts = particles.run(sim, threads=threads).counts[0, 0]
    rows = [(float(t), int(c), sim.n_tx) for t, c in zip(sim.sample_times, counts)]
    yield _table(cfg, "observations", ("t_s", "count", "n_tx"), rows,
                 content="simulated observation series")


def _simulated_cir_tables(cfg: ResolvedConfig, threads: int):
    # One engine pass moves both release kinds on the same normals and
    # counts every distance's receiver; tables then follow distance by
    # distance.
    distances = cfg["cir.distances"]
    labels = ("uniform", "point")
    sim = _sim_for_grid(cfg, tuple(cfg.receiver(distance=d) for d in distances),
                        tuple(cfg.release(label) for label in labels), cfg.time_grid())
    counts = particles.run(sim, threads=threads).counts
    n_tx = sim.n_tx
    for k, distance in enumerate(distances):
        for g, label in enumerate(labels):
            # Binomial standard errors (0 if n_tx = 0) and 95 % CI half-widths.
            pob = counts[g, k] / max(n_tx, 1)
            stderr = np.sqrt(pob * (1.0 - pob) / max(n_tx, 1))
            rows = [(float(t), float(p), float(se), float(hw), int(c), n_tx)
                    for t, p, se, hw, c in zip(
                        sim.sample_times, pob, stderr, 1.96 * stderr, counts[g, k])]
            yield _table(cfg, f"cir_sim_{label}_d{_um_label(distance)}",
                         ("t_s", "pob", "stderr", "ci_half_width", "count", "n_tx"), rows,
                         content="simulated impulse response", release=label,
                         rx_distance_m=distance, seed=cfg["seed"])


def snapshot_action(cfg: ResolvedConfig, threads: int = 1):
    """Per-particle (x, r^2) clouds at the configured snapshot times."""
    sim = _sim_for_grid(cfg, (), (cfg.release(),), (), cfg["snapshot.times"])
    snapshots = particles.run(sim, threads=threads).snapshots
    for t, cloud in zip(sim.snapshot_times.tolist(), snapshots):
        yield _table(cfg, f"snapshot_t{t:g}s", ("particle_id", "x_m", "r2_m2"),
                     [(i, float(x), float(r2)) for i, (x, r2) in enumerate(cloud[0])],
                     content="particle position snapshot", snapshot_t_s=t)


def _auto_link(cfg: ResolvedConfig, distance: float, symbol_interval: float):
    """Build the OOK link for one sweep point, resolving auto delay/threshold.

    Returns ``(link, rx, offsets)``: the link holds the regime's closed form
    (:func:`uniform_response`) at the detection ``offsets``, which start at
    that form's peak time if the delay is ``auto``, and threshold 0 if it is
    to be optimised.
    An invalid link raises ``ValueError``, which the caller's ``cfg.build`` reports.
    """
    channel = cfg.channel()
    rx = cfg.receiver(distance=distance)
    closed_form, t_peak = uniform_response(channel, rx, classify_regime(channel, distance).regime)
    delay = cfg["ook.detection_delay"]
    offsets = detection_offsets(symbol_interval, cfg["ook.seq_len"],
                                t_peak if delay == "auto" else float(delay))
    threshold = cfg["ook.threshold"]
    link = OokLinkConfig(pob=closed_form(offsets),
                         threshold_xi=0 if threshold == "optimal" else int(threshold),
                         noise_mean_Nn=cfg["ook.noise_mean"], n_tx=cfg["release.n_tx"])
    return link, rx, offsets


def _particle_pobs(cfg: ResolvedConfig, points, threads: int) -> list[np.ndarray]:
    """The empirical ``P_ob`` of each ``(rx, offsets)`` point, all from one engine run.

    Each point's offsets are first checked as a run of that point alone
    would check them.  The one run releases ``_POOL_PARTICLES`` particles
    of the configured kind and counts the points' distinct receivers at the
    union of their step-snapped offsets; each point reads its own receiver
    at its own steps.  The points thus share their paths, and each
    ``P_ob`` is still the fraction of one pool.
    """
    alone = [_sim_for_grid(cfg, (rx,), (cfg.release(),), offsets, n_tx=_POOL_PARTICLES)
             for rx, offsets in points]
    receivers = list(dict.fromkeys(rx for rx, _ in points))
    times = sorted(set().union(*(sim.sample_times.tolist() for sim in alone)))
    sim = _sim_for_grid(cfg, tuple(receivers), (cfg.release(),), times, n_tx=_POOL_PARTICLES)
    counts = particles.run(sim, threads=threads).counts[0] / _POOL_PARTICLES
    return [counts[receivers.index(rx), np.searchsorted(sim.sample_steps, one.sample_steps)]
            for (rx, _), one in zip(points, alone)]


def ser_action(cfg: ResolvedConfig, threads: int = 1):
    """SER sweep over the configured distances and symbol intervals.

    Each point gives one row per ``ook.method`` entry, in the listed order.
    ``particle_binomial`` takes each link's ``P_ob`` as it is from one
    engine run per sweep (:func:`_particle_pobs`).  Each method runs once
    over every point's link (:func:`optimal_threshold_many`,
    :func:`ser_analytic_many`, :func:`ser_monte_carlo_many`), each row the
    one a sweep of that point alone would give; with ``D > 0``, a
    ``particle_binomial`` row of a sweep whose points differ in their
    offsets is another draw of the same law, since the pool's axial
    increments are drawn at every point's offsets.
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
    links, results = [link for link, _, _ in points], {}
    if cfg["ook.threshold"] == "optimal":
        # The search's tables hold every threshold, xi_opt's included.
        found = cfg.build(optimal_threshold_many, links, SerMethod.POISSON_ANALYTIC)
        links = [replace(link, threshold_xi=xi) for link, (xi, _) in zip(links, found)]
        results[SerMethod.POISSON_ANALYTIC] = [best for _, best in found]
    # A table too large to build is refused here, before any pool runs.
    for method in (SerMethod.POISSON_ANALYTIC, SerMethod.BINOMIAL_ANALYTIC):
        if method in methods and method not in results:
            results[method] = cfg.build(ser_analytic_many, links, method)
    if SerMethod.PARTICLE_BINOMIAL in methods:
        pobs = _particle_pobs(cfg, [(rx, offsets) for _, rx, offsets in points], threads)
        # The pool's P_ob can make a larger table than the closed form's.
        results[SerMethod.PARTICLE_BINOMIAL] = cfg.build(
            ser_analytic_many, [replace(link, pob=pob) for link, pob in zip(links, pobs)],
            SerMethod.BINOMIAL_ANALYTIC)
    if run_mc:
        results[SerMethod.MONTE_CARLO_COUNTS] = cfg.build(ser_monte_carlo_many, links,
                                                          realizations, seed)
    rows = [(symbol_interval, distance, link.threshold_xi, results[method][i].ser, method.value,
             realizations if method is SerMethod.MONTE_CARLO_COUNTS else 0, seed)
            for i, ((distance, symbol_interval), link) in enumerate(zip(grid, links))
            for method in methods]
    yield _table(cfg, "ser_sweep",
                 ("T_s", "d_m", "xi_opt", "ser", "method", "realizations", "seed"), rows,
                 content="symbol error rate sweep")


def _cir_preset(cfg: ResolvedConfig, threads: int):
    """Analytic curves and peaks, then the simulated responses."""
    yield from cir_action(cfg)
    yield from _simulated_cir_tables(cfg, threads)


#: Every CLI subcommand but ``preset``: ``name -> (runner, help)``, the
#: runner called as ``runner(cfg, threads)`` to yield ``(file name, Table)`` pairs.
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


def publish(tables, out_dir: str | Path) -> list[Path]:
    """Write each ``(name, table)`` of ``tables`` as ``out_dir/name``, all or none.

    Each table is staged under a hidden name in ``out_dir`` (made first);
    all are renamed into place, in order, after the last is written.  A
    name that repeats raises ``ConfigError``.  On any exception,
    ``KeyboardInterrupt`` included, the staged files are removed, and then,
    deepest first, each directory this call made that is left empty.
    """
    out = Path(out_dir)
    made = list(takewhile(lambda path: not path.exists(), (out, *out.parents)))
    staged: dict[str, Path] = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, table in tables:
            if name in staged:
                raise ConfigError(f"two tables of this call share the file {out / name}")
            staged[name] = out / f".{name}.partial"
            emit_table(table, staged[name])
        for name, part in staged.items():
            part.replace(out / name)
    except BaseException:
        for part in staged.values():
            part.unlink(missing_ok=True)
        for path in made:
            with suppress(OSError):
                path.rmdir()
        raise
    return [out / name for name in staged]
