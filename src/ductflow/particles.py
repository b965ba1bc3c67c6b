"""Particle-based Monte Carlo engine for advection-diffusion duct transport.

Simulates non-interacting point particles in the full 3-D duct: explicit
first-order advection along the Poiseuille profile (evaluated at each
particle's pre-step radius) plus Euler-Maruyama diffusion with per-axis
increments ``N(0, 2 D dt)``, and a reflecting wall.  Boundary handling is a
specular reflection in the cross-sectional plane about the circle ``r = a``
(radius folded once to ``2a - r`` along the same diameter up to ``3a``, in
closed form beyond, for the rare multi-width excursion).  Sub-step wall
crossings are not interpolated; particles are reflected at their
end-of-step position only, a known ``O(sqrt(dt))`` boundary-layer bias of
plain particle schemes.

One step loop, ``_run_block``, serves every run: ``_initial_block`` places
a block of particles, ``_draw_normals`` and ``_advance_inplace`` move it,
and ``_hits`` counts every receiver at each sample step.  ``x`` never feeds
back into the cross-sectional motion, so the axial increments of the ``k``
steps since the last sample or snapshot step are drawn at that step as one
``N(0, 2 D k dt)``, exact in distribution.

Reproducibility contract: particles form blocks of ``_BLOCK`` by index, and
each run is cut into ``min(threads, os.cpu_count(), blocks)`` partitions of
whole blocks.  Block ``b`` owns two generators built from
``SeedSequence(seed, spawn_key=(b, axis))``: axis 0 draws its release
positions, then each step's ``y`` and ``z`` normals; axis 1 draws one ``x``
normal per particle at each sample or snapshot step, so the sample grid
leaves the ``y, z`` streams alone.
Normals are numpy's ziggurat ``standard_normal`` (Marsaglia & Tsang, 2000)
on SFC64, chosen over Philox for speed (13.5 against 22.5 ns a normal on a
2-vCPU Xeon, numpy 2.4).  A run is thus a function of its :class:`SimConfig`
alone, bit-identical for any worker count and partition.  Receivers are
transparent: a receiver's counts equal those of a run with that receiver
alone.

Workers are processes, not threads: each step makes a few dozen small NumPy
calls, and threads handed the GIL back and forth around every one of them,
so two threads ran no faster than one.  :func:`run_many`, the one scheduler,
sends the partitions of all its runs, largest first, to one pool of workers
and reassembles each run's counts and snapshots in block order; :func:`run`
is its one-run case, and one worker runs inline, with no pool.  The pool
forks, so the workers inherit the parent's imports (no re-import of numpy
per worker) and its module state; ``threads > 1`` therefore
needs a POSIX ``fork``.  ``import numpy`` starts OpenBLAS's thread pool,
which OpenBLAS shuts down before a fork (3 OS threads before the first
fork, 1 after, with numpy 2.4), and the executor forks its workers before
it starts its own threads; the workers make no BLAS calls.  Python 3.12 and
later warn (``DeprecationWarning``) at a fork while another OS thread
lives, such as an earlier pool's thread that is still exiting.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .duct import (
    DuctChannelConfig,
    ReceiverVolume,
    ReleaseKind,
    ReleaseSpec,
    validate_receiver,
    validate_release,
)

__all__ = ["SimConfig", "ObservationSeries", "SimResult", "run", "run_many"]

#: Particles per random-stream block; part of the reproducibility contract.
_BLOCK = 2048
_MAX_SEED = 2 ** 64


def _streams(seed: int, lo: int, hi: int):
    """Spans (offsets from ``lo``) and axis-0 and axis-1 generators of ``[lo, hi)``'s blocks."""
    starts = range(lo, hi, _BLOCK)
    spans = [(s - lo, min(s + _BLOCK, hi) - lo) for s in starts]
    cross, axial = ([Generator(SFC64(SeedSequence(seed, spawn_key=(s // _BLOCK, axis))))
                     for s in starts] for axis in (0, 1))
    return spans, cross, axial


@dataclass(frozen=True)
class ObservationSeries:
    """Receiver counts ``N_ob(t)`` at the sampled times."""

    times: np.ndarray
    counts: np.ndarray
    n_tx: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != t.shape:
            raise ValueError("times and counts must have matching shapes")
        if np.any(c < 0) or np.any(c > self.n_tx):
            raise ValueError("counts must lie in [0, n_tx]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "counts", c)

    def probabilities(self) -> np.ndarray:
        """Empirical ``P_ob`` at the sampled times: ``counts / n_tx`` (0 if ``n_tx = 0``)."""
        if self.n_tx == 0:
            return np.zeros_like(self.times)
        return self.counts / float(self.n_tx)


def _to_steps(times, time_step: float, what: str) -> np.ndarray:
    """Nearest step of each non-negative time; the step must fit in int64."""
    t = np.asarray(times, dtype=float)
    if np.any(t < 0.0):
        raise ValueError(f"{what} must be non-negative")
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        steps = np.rint(t / time_step)
    if not np.all(steps < 2.0 ** 63):  # nan fails too
        raise ValueError(f"{what} must round to fewer than 2**63 steps of {time_step:g} s")
    return steps.astype(np.int64)


@dataclass(frozen=True)
class SimConfig:
    """Full specification of one simulation run.

    ``rx`` is one receiver or a tuple of receivers; ``receivers`` always
    holds the tuple, in the given order, and every receiver is validated
    against the duct, as is a point release.  One run counts all of them on
    the same trajectories.

    Sample and snapshot times are snapped to the nearest step boundary at
    construction so no silent interpolation happens later; both must be
    non-negative.  Sample times must be strictly increasing after snapping;
    snapshot times are sorted, and those that snap to one step collapse.  A
    run lasts until the last sample or snapshot step.
    """

    channel: DuctChannelConfig
    rx: ReceiverVolume | tuple[ReceiverVolume, ...]
    release: ReleaseSpec
    time_step: float
    seed: int
    sample_times: Sequence[float]
    snapshot_times: Sequence[float] = ()
    receivers: tuple[ReceiverVolume, ...] = field(init=False)
    sample_steps: np.ndarray = field(init=False)
    snapshot_steps: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.time_step > 0.0:
            raise ValueError("time step must be positive")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 bits")
        receivers = (self.rx,) if isinstance(self.rx, ReceiverVolume) else tuple(self.rx)
        if not receivers:
            raise ValueError("at least one receiver is required")
        for rx in receivers:
            validate_receiver(self.channel, rx)
        object.__setattr__(self, "receivers", receivers)
        validate_release(self.channel, self.release)
        requested = np.asarray(self.sample_times, dtype=float)
        if requested.ndim != 1 or requested.size == 0:
            raise ValueError("at least one sample time is required")
        steps = _to_steps(requested, self.time_step, "sample times")
        if np.any(np.diff(steps) <= 0):
            raise ValueError("sample times must snap to distinct, increasing steps")
        # Sorted and deduplicated without np.unique, whose first call imports
        # numpy.ma (about 30 ms, nothing else on the CLI path loads it).
        snaps = np.array(sorted(set(_to_steps(self.snapshot_times, self.time_step,
                                              "snapshot times").tolist())), dtype=np.int64)
        object.__setattr__(self, "sample_steps", steps)
        object.__setattr__(self, "sample_times", steps * self.time_step)
        object.__setattr__(self, "snapshot_steps", snaps)
        object.__setattr__(self, "snapshot_times", snaps * self.time_step)

    @property
    def n_steps(self) -> int:
        return int(self.snapshot_steps.max(initial=self.sample_steps[-1]))


@dataclass(frozen=True)
class SimResult:
    """Observation series plus any requested position snapshots.

    ``all_series`` holds one series per receiver of the run, in the order of
    ``SimConfig.receivers``; ``series`` is the first of them.

    ``snapshots`` maps each (snapped) snapshot time to an ``(n, 2)`` array
    of per-particle ``(x, r^2)`` pairs, the natural plotting coordinates:
    a uniform cross-sectional distribution is uniform in ``r^2``, and
    without diffusion the ensemble collapses onto the line
    ``r^2 = a^2 (1 - x / (2 vbar t))``.
    """

    all_series: tuple[ObservationSeries, ...]
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)

    @property
    def series(self) -> ObservationSeries:
        return self.all_series[0]


def _initial_block(release: ReleaseSpec, radius_a: float, spans, gens):
    """Release-plane positions ``(x, y, z)`` of the blocks at ``spans``."""
    n = spans[-1][1] if spans else 0
    if release.kind is ReleaseKind.POINT:
        y0 = release.r0 * math.cos(release.phi0)
        z0 = release.r0 * math.sin(release.phi0)
        return np.zeros(n), np.full(n, y0), np.full(n, z0)
    # Uniform over the disk: r = a*sqrt(u) makes r^2 uniform on [0, a^2].
    u = np.empty((n, 2))
    for g, (s, e) in zip(gens, spans):
        g.random(out=u[s:e])
    r = radius_a * np.sqrt(u[:, 0])
    phi = (2.0 * u[:, 1] - 1.0) * math.pi
    return np.zeros(n), r * np.cos(phi), r * np.sin(phi)


def _reflect_inplace(y: np.ndarray, z: np.ndarray, r2: np.ndarray, radius_a: float) -> None:
    """Reflect radii ``r > a`` back into the disk along the same diameter.

    ``r2`` holds ``y*y + z*z`` and is kept so; only folded particles take a
    square root.  The single fold ``2a - r`` covers ``r <= 3a``, passing
    through the axis (and flipping the azimuth) past ``2a``.  Beyond ``3a``
    (astronomically rare at sane time steps) the signed position on the
    diameter is folded in closed form, ``|fmod(r - a, 4a) - 2a| - a``.
    """
    idx = np.flatnonzero(r2 > radius_a * radius_a)
    rr = np.sqrt(r2[idx])
    folded = 2.0 * radius_a - rr
    far = rr > 3.0 * radius_a
    if far.any():
        folded[far] = np.abs(np.fmod(rr[far] - radius_a, 4.0 * radius_a)
                             - 2.0 * radius_a) - radius_a
    scale = folded / rr
    y[idx] *= scale
    z[idx] *= scale
    r2[idx] = y[idx] ** 2 + z[idx] ** 2


def _draw_normals(spans, gens, *outs: np.ndarray) -> None:
    """Fill each of ``outs`` with standard normals, block after block."""
    for g, (s, e) in zip(gens, spans):
        for out in outs:
            g.standard_normal(out=out[s:e])


def _advance_inplace(x, y, z, r2, channel: DuctChannelConfig, dt: float, normals) -> None:
    """Advect ``x`` at the pre-step radius, then diffuse (``normals``) and reflect."""
    a = channel.radius_a
    x += (2.0 * channel.mean_velocity) * (1.0 - r2 / (a * a)) * dt
    if normals is not None:
        sigma = math.sqrt(2.0 * channel.diffusion_D * dt)
        y += sigma * normals[0]
        z += sigma * normals[1]
        np.multiply(y, y, out=r2)
        r2 += np.multiply(z, z, out=normals[0])
        _reflect_inplace(y, z, r2, a)


def _hits(rx: ReceiverVolume, radius_a: float, x, y, z, r2) -> int:
    """Number of particles inside ``rx``."""
    # Axial prefilter first: the radial and angular tests see few candidates.
    cand = np.flatnonzero(np.abs(x - rx.axial_distance_d) <= rx.extent_cx / 2.0)
    cand = cand[np.sqrt(r2[cand]) >= radius_a - rx.extent_cr]
    return int(np.count_nonzero(np.abs(np.arctan2(z[cand], y[cand])) <= rx.extent_cphi / 2.0))


def _run_block(config: SimConfig, lo: int, hi: int):
    """Counts and snapshots of particles ``[lo, hi)``; ``lo`` starts a block."""
    ch = config.channel
    dt = config.time_step
    spans, cross, axial = _streams(config.seed, lo, hi)
    x, y, z = _initial_block(config.release, ch.radius_a, spans, cross)
    r2 = y * y + z * z
    normals = (np.empty(hi - lo), np.empty(hi - lo)) if ch.diffusion_D > 0.0 else None
    columns = {int(s): col for col, s in enumerate(config.sample_steps)}
    snapshots = dict(zip(config.snapshot_steps.tolist(), config.snapshot_times.tolist()))
    counts = np.zeros((len(config.receivers), len(columns)), dtype=np.int64)
    snaps: dict[float, np.ndarray] = {}
    last = 0
    for j in sorted(columns.keys() | snapshots.keys()):
        for _ in range(last, j):
            if normals is not None:
                _draw_normals(spans, cross, *normals)
            _advance_inplace(x, y, z, r2, ch, dt, normals)
        if normals is not None and j > last:
            # The axial increments of steps last+1..j: one N(0, 2 D (j - last) dt).
            _draw_normals(spans, axial, normals[0])
            x += math.sqrt(2.0 * ch.diffusion_D * dt * (j - last)) * normals[0]
        last = j
        if j in columns:
            for k, rx in enumerate(config.receivers):
                counts[k, columns[j]] = _hits(rx, ch.radius_a, x, y, z, r2)
        if j in snapshots:
            snaps[snapshots[j]] = np.column_stack((x, r2))
    return counts, snaps


def _partitions(config: SimConfig, workers: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` of ``min(workers, blocks)`` runs of whole blocks."""
    n = config.release.n_tx
    blocks = -(-n // _BLOCK)
    parts = min(workers, max(blocks, 1))
    # Partition bounds fall on block boundaries, so no block is ever split.
    bounds = np.minimum(np.linspace(0, blocks, parts + 1).astype(int) * _BLOCK, n)
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def run_many(configs: Sequence[SimConfig], *, threads: int = 1) -> list[SimResult]:
    """:func:`run` of each of ``configs``, in order, on one set of workers.

    With ``workers = min(threads, os.cpu_count())``, each run is cut into
    ``workers`` partitions (fewer if it has fewer blocks), so a run longer
    than the others still spreads over every worker.  All partitions go to
    one pool, largest (in particle-steps) first; each result equals that
    config's own :func:`run`.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    workers = min(threads, os.cpu_count() or 1)
    tasks = [(k, config, lo, hi) for k, config in enumerate(configs)
             for lo, hi in _partitions(config, workers)]
    order = sorted(range(len(tasks)),
                   key=lambda i: -(tasks[i][3] - tasks[i][2]) * tasks[i][1].n_steps)
    ordered = [tasks[i][1:] for i in order]
    workers = min(workers, len(tasks))
    if workers <= 1:
        outputs = [_run_block(*task) for task in ordered]
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            outputs = list(pool.map(_run_block, *zip(*ordered)))
    done = dict(zip(order, outputs))
    parts: list[list] = [[] for _ in configs]
    for i, (k, *_) in enumerate(tasks):
        parts[k].append(done[i])
    results = []
    for config, part in zip(configs, parts):
        counts = np.sum([c for c, _ in part], axis=0)
        results.append(SimResult(
            tuple(ObservationSeries(config.sample_times, c, config.release.n_tx) for c in counts),
            {t: np.concatenate([snaps[t] for _, snaps in part]) for t in part[0][1]}))
    return results


def run(config: SimConfig, *, threads: int = 1) -> SimResult:
    """Simulate the configured release and return receiver counts over time.

    One pass over the trajectories counts every receiver of ``config`` and
    captures per-particle ``(x, r^2)`` pairs at its snapshot times.

    Parameters
    ----------
    config : SimConfig
    threads : int
        Requested worker processes (at least 1); at most ``os.cpu_count()``
        and one per block.  Has no effect on the results (see the module
        reproducibility contract).

    Returns
    -------
    SimResult
        One series of counts at every sample time per receiver (``all_series``,
        in receiver order; ``series`` is the first), plus a snapshot at each
        of ``config.snapshot_times``.  No partial results are returned on
        failure: a worker that raises or dies raises here.
    """
    return run_many([config], threads=threads)[0]
