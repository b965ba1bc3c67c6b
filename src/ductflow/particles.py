"""Particle-based Monte Carlo engine for advection-diffusion duct transport.

Simulates non-interacting point particles in the full 3-D duct: explicit
first-order advection along the Poiseuille profile (evaluated at each
particle's pre-step radius) plus Euler-Maruyama diffusion with per-axis
increments ``N(0, 2 D dt)``, and a reflecting wall.  Boundary handling is a
specular reflection in the cross-sectional plane about the circle ``r = a``
(radius folded to ``2a - r`` along the same ray, applied iteratively for the
rare multi-width excursion).  Sub-step wall crossings are not interpolated;
particles are reflected at their end-of-step position only, a known
``O(sqrt(dt))`` boundary-layer bias of plain particle schemes.

There is one step loop, ``_run_block``: ``_initial_block`` places a block
of particles, ``_advance_inplace`` moves it before every step but step 0,
and ``_hits`` counts every receiver at each sample step, for any ``D``.
:func:`run` runs one contiguous block per requested thread (one empty block
when ``n_tx = 0``) on a pool of at most ``os.cpu_count()`` worker threads.

Reproducibility contract: every random number is drawn from a counter-based
Philox stream keyed by ``(seed, step)`` at a counter offset fixed by the
absolute particle index (one 4-word counter block per particle per step).
A run is therefore a deterministic function of ``(config, seed)`` and
bit-identical for any partitioning of the ensemble across workers; the only
cross-partition reduction is an associative integer sum of receiver counts.
Receivers are transparent, so every receiver of a run observes the same
trajectories: a receiver's counts equal those of a run with that receiver
alone, and adding a receiver never changes another receiver's counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .duct import (
    DuctChannelConfig,
    ReceiverVolume,
    ReleaseKind,
    ReleaseSpec,
    validate_receiver,
    validate_release,
)

__all__ = [
    "SimConfig",
    "ObservationSeries",
    "SimResult",
    "run",
]

# One Philox counter block (4 x 64-bit words) per particle per stream; the
# first 3 words become the per-axis normals, the 4th is discarded.  Philox
# ``advance`` skips whole blocks, which is what makes per-particle offsets
# partition-independent.
_WORDS_PER_PARTICLE = 4
_MAX_SEED = 2 ** 64


def _raw_blocks(seed: int, stream: int, lo: int, n: int) -> np.ndarray:
    bits = Philox(key=np.array([seed, stream], dtype=np.uint64))
    if lo:
        bits.advance(int(lo))
    return bits.random_raw(_WORDS_PER_PARTICLE * int(n)).reshape(int(n), _WORDS_PER_PARTICLE)


def _to_open_unit(raw: np.ndarray) -> np.ndarray:
    # 53-bit mantissa shifted into (0, 1): never exactly 0 or 1, so the
    # Gaussian inverse CDF stays finite.
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _counter_normals(seed: int, stream: int, lo: int, n: int) -> np.ndarray:
    """Standard normals for particles ``[lo, lo + n)`` of stream ``stream``, shape (n, 3)."""
    return ndtri(_to_open_unit(_raw_blocks(seed, stream, lo, n)[:, :3]))


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
    """Nearest step of each non-negative time."""
    t = np.asarray(times, dtype=float)
    if np.any(t < 0.0):
        raise ValueError(f"{what} must be non-negative")
    return np.rint(t / time_step).astype(np.int64)


@dataclass(frozen=True)
class SimConfig:
    """Full specification of one simulation run.

    ``rx`` is one receiver or a tuple of receivers; ``receivers`` always
    holds the tuple, in the given order, and every receiver is validated
    against the duct, as is a point release.  One run counts all of them on
    the same trajectories.

    Sample times are snapped to the nearest step boundary at construction so
    no silent interpolation happens later; they must be non-negative and,
    after snapping, strictly increasing.  A run lasts until the last sample
    or snapshot step.
    """

    channel: DuctChannelConfig
    rx: ReceiverVolume | tuple[ReceiverVolume, ...]
    release: ReleaseSpec
    time_step: float
    seed: int
    sample_times: Sequence[float]
    receivers: tuple[ReceiverVolume, ...] = field(init=False)
    sample_steps: np.ndarray = field(init=False)

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
        object.__setattr__(self, "sample_steps", steps)
        object.__setattr__(self, "sample_times", steps * self.time_step)

    @property
    def n_steps(self) -> int:
        return int(self.sample_steps[-1])


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


def _initial_block(release: ReleaseSpec, radius_a: float, seed: int,
                   lo: int, n: int):
    """Release-plane positions ``(x, y, z)`` of particles ``[lo, lo + n)``."""
    if release.kind is ReleaseKind.POINT:
        y0 = release.r0 * math.cos(release.phi0)
        z0 = release.r0 * math.sin(release.phi0)
        return np.zeros(n), np.full(n, y0), np.full(n, z0)
    # Uniform over the disk from stream 0: radius a*sqrt(u) makes r^2
    # uniform on [0, a^2], and the azimuth is uniform.
    u = _to_open_unit(_raw_blocks(seed, 0, lo, n)[:, :2])
    r = radius_a * np.sqrt(u[:, 0])
    phi = (2.0 * u[:, 1] - 1.0) * math.pi
    return np.zeros(n), r * np.cos(phi), r * np.sin(phi)


def _reflect_inplace(y: np.ndarray, z: np.ndarray, radius_a: float) -> None:
    """Fold cross-sectional excursions back inside the wall circle.

    Radius ``r > a`` maps to ``2a - r`` along the same ray; a negative scale
    factor (excursion beyond ``2a``, astronomically rare at sane time steps)
    passes the point through the axis, i.e. folds again with the azimuth
    flipped.  Iterates until every particle satisfies ``r <= a``.
    """
    rr = np.sqrt(y * y + z * z)
    idx = np.flatnonzero(rr > radius_a)
    while idx.size:
        r_out = rr[idx]
        scale = (2.0 * radius_a - r_out) / r_out
        y[idx] *= scale
        z[idx] *= scale
        r_new = np.abs(2.0 * radius_a - r_out)
        rr[idx] = r_new
        idx = idx[r_new > radius_a]


def _advance_inplace(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                     channel: DuctChannelConfig, dt: float,
                     normals: np.ndarray | None) -> None:
    a = channel.radius_a
    r2 = y * y + z * z
    x += (2.0 * channel.mean_velocity) * (1.0 - r2 / (a * a)) * dt
    if normals is not None:
        sigma = math.sqrt(2.0 * channel.diffusion_D * dt)
        x += sigma * normals[:, 0]
        y += sigma * normals[:, 1]
        z += sigma * normals[:, 2]
        _reflect_inplace(y, z, a)


def _hits(rx: ReceiverVolume, radius_a: float, x, y, z) -> int:
    """Number of particles inside ``rx``."""
    # Axial prefilter first: the receiver window is narrow, so the radial
    # and angular tests run on a small candidate set.
    cand = np.flatnonzero(np.abs(x - rx.axial_distance_d) <= rx.extent_cx / 2.0)
    yc = y[cand]
    zc = z[cand]
    cand = cand[np.sqrt(yc * yc + zc * zc) >= radius_a - rx.extent_cr]
    return int(np.count_nonzero(np.abs(np.arctan2(z[cand], y[cand])) <= rx.extent_cphi / 2.0))


def _run_block(config: SimConfig, lo: int, hi: int, snapshot_steps: Sequence[int]):
    ch = config.channel
    n = hi - lo
    x, y, z = _initial_block(config.release, ch.radius_a, config.seed, lo, n)
    columns = {int(s): col for col, s in enumerate(config.sample_steps)}
    counts = np.zeros((len(config.receivers), len(columns)), dtype=np.int64)
    snapshot_set = set(snapshot_steps)
    snaps: dict[int, np.ndarray] = {}

    for j in range(max([config.n_steps, *snapshot_steps]) + 1):
        if j:
            normals = (_counter_normals(config.seed, j, lo, n)
                       if ch.diffusion_D > 0.0 else None)
            _advance_inplace(x, y, z, ch, config.time_step, normals)
        col = columns.get(j)
        if col is not None:
            for k, rx in enumerate(config.receivers):
                counts[k, col] = _hits(rx, ch.radius_a, x, y, z)
        if j in snapshot_set:
            snaps[j] = np.column_stack((x, y * y + z * z))
    return counts, snaps


def _run_partitioned(config: SimConfig, threads: int, snapshot_steps: Sequence[int]):
    if threads < 1:
        raise ValueError("threads must be at least 1")
    n = config.release.n_tx
    bounds = np.linspace(0, n, min(threads, max(n, 1)) + 1).astype(int)
    with ThreadPoolExecutor(max_workers=min(bounds.size - 1, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(_run_block, config, int(lo), int(hi), snapshot_steps)
                   for lo, hi in zip(bounds[:-1], bounds[1:])]
        results = [f.result() for f in futures]
    counts = np.sum([r[0] for r in results], axis=0)
    snaps = {s: np.concatenate([r[1][s] for r in results]) for s in snapshot_steps}
    return counts, snaps


def run(config: SimConfig, *, threads: int = 1,
        snapshot_times: Sequence[float] = ()) -> SimResult:
    """Simulate the configured release and return receiver counts over time.

    One pass over the trajectories counts every receiver of ``config``.

    Parameters
    ----------
    config : SimConfig
    threads : int
        Number of worker threads (at least 1) the ensemble is partitioned
        across.  Has no effect on the results (see the module
        reproducibility contract).
    snapshot_times : sequence of float
        Optional times at which to capture per-particle ``(x, r^2)`` pairs;
        snapped to step boundaries like the sample times and refused
        (``ValueError``) if negative.  The run lasts until the later of the
        last sample and the last snapshot.

    Returns
    -------
    SimResult
        One series of counts at every sample time per receiver (``all_series``,
        in receiver order; ``series`` is the first), plus any snapshots.  No
        partial results are returned on failure.
    """
    snap_steps = sorted(set(_to_steps(snapshot_times, config.time_step,
                                      "snapshot times").tolist()))
    counts, snaps = _run_partitioned(config, threads, snap_steps)
    all_series = tuple(ObservationSeries(config.sample_times, c, config.release.n_tx)
                       for c in counts)
    snapshots = {s * config.time_step: snaps[s] for s in snap_steps}
    return SimResult(all_series, snapshots)

