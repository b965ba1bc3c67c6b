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

One step loop, ``_run_block``, serves every pass: ``_initial_block`` places
a block of particles, ``_draw_normals`` and ``_advance_inplace`` move it,
``_hits`` counts every receiver at each sample step, and each snapshot step
fills its row of one ``(snapshots, releases, n, 2)`` array.  ``x`` never feeds
back into the cross-sectional motion, so the axial increments of the ``k``
steps since the last sample or snapshot step are drawn at that step as one
``N(0, 2 D k dt)``, exact in distribution.

Reproducibility contract: particles form blocks of ``_BLOCK`` by index.
Block ``b`` owns two generators built from
``SeedSequence(seed, spawn_key=(b, axis))``: axis 0 draws two release
uniforms per particle, for every release kind (a point release ignores
them), then each step's ``y`` and ``z`` normals per live particle; axis 1
draws one ``x`` normal per live particle at each sample or snapshot step,
so the sample grid leaves the ``y, z`` streams alone until a particle
retires.
Normals are numpy's ziggurat ``standard_normal`` (Marsaglia & Tsang, 2000)
on SFC64, chosen over Philox for speed (13.5 against 22.5 ns a normal on a
2-vCPU Xeon, numpy 2.4).  A run is thus a function of its :class:`SimConfig`
alone, bit-identical for any worker count and partition.

Retirement: the flow never runs upstream, so only axial diffusion brings a
particle back.  From the last snapshot step on (a snapshot holds every
particle), each sample step before the last retires each particle index
that every release row holds past the farthest receiver, ``max(d + c_x/2)``,
by ``k = _RETIRE_SIGMAS = 8`` widths ``sqrt(2 D t)``, ``t`` the time left
to the last sample step.  Such a particle would be counted again with
probability at most ``2 Phi(-k)``, about 1.2e-15 (reflection principle).
A pass with no receiver retires every particle there.  Each block's state
is compacted to its live particles, in index order, and its generators go
on drawing for them alone.  The decision is per particle, so the bytes stay
independent of the partition.  With ``D = 0`` the rule is exact and no
normal is drawn, so retirement moves no count.

The releases of one config, which share its ``n_tx``, draw the same
normals, common random numbers across releases (Glasserman, *Monte Carlo
Methods in Financial Engineering*, 2003, sec. 4.2).  One pass steps them as
one ``(G, n)`` state, one row per release, and applies each draw to every
row.  The state memory grows with ``G``.  A pass is cut into
``min(threads, os.cpu_count(), blocks)`` partitions of whole blocks, one per
worker.

Two contracts hold byte for byte only with ``D = 0`` or where nothing
retires, and otherwise in distribution: each release's counts equal those
of a config with that release alone, and each receiver's counts equal those
of a run with that receiver alone.  With ``D > 0`` a retired index hands
its draws to the live indices after it in its block, and which indices
retire depends on every row and on the farthest receiver.

Workers are processes, not threads: each step makes a few dozen small NumPy
calls, and threads handed the GIL back and forth around every one of them,
so two threads ran no faster than one.  :func:`run` reassembles the
partitions' counts and snapshots in block order; one partition runs
inline, with no fork.
Otherwise each partition runs in a child made by a bare ``os.fork``, so the
workers inherit the parent's imports (no re-import of numpy per worker) and
its module state; ``threads > 1`` therefore needs a POSIX ``fork``.  A
child sends its pickled outcome back on its own pipe and leaves by
``os._exit``; the parent runs no partition, so its peak memory holds no engine
state.  ``import numpy`` starts OpenBLAS's thread pool, which OpenBLAS
shuts down before a fork (3 OS threads before the first fork, 1 after, with
numpy 2.4); the engine starts no thread, and the workers make no BLAS
calls.  Python 3.12 and later warn (``DeprecationWarning``) at a fork while
another OS thread lives.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
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

__all__ = ["SimConfig", "SimResult", "run"]

#: Particles per random-stream block; part of the reproducibility contract.
_BLOCK = 2048
#: Axial-diffusion widths ``k`` past the farthest receiver at which a particle
#: retires; part of the reproducibility contract.
_RETIRE_SIGMAS = 8.0
_MAX_SEED = 2 ** 64


def _streams(seed: int, lo: int, hi: int):
    """Spans (offsets from ``lo``) and axis-0 and axis-1 generators of ``[lo, hi)``'s blocks."""
    starts = range(lo, hi, _BLOCK)
    spans = [(s - lo, min(s + _BLOCK, hi) - lo) for s in starts]
    cross, axial = ([Generator(SFC64(SeedSequence(seed, spawn_key=(s // _BLOCK, axis))))
                     for s in starts] for axis in (0, 1))
    return spans, cross, axial


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
    """Full specification of one engine pass.

    ``releases`` holds at least one release, all of one ``n_tx``; each
    release and each of the ``receivers`` (there may be none) is validated
    against the duct.  One pass moves every release on the same normals and
    counts every receiver of each at each sample time.

    Sample and snapshot times are snapped to the nearest step boundary at
    construction so no silent interpolation happens later; both must be
    non-negative, and either may be empty.  Sample times must be strictly
    increasing after snapping; snapshot times are sorted, and those that
    snap to one step collapse.  A pass lasts until the last sample or
    snapshot step, and takes no step if it has neither.
    """

    channel: DuctChannelConfig
    receivers: tuple[ReceiverVolume, ...]
    releases: tuple[ReleaseSpec, ...]
    time_step: float
    seed: int
    sample_times: Sequence[float]
    snapshot_times: Sequence[float] = ()
    sample_steps: np.ndarray = field(init=False)
    snapshot_steps: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.time_step < math.inf:  # nan fails too
            raise ValueError("time step must be positive and finite")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 bits")
        for rx in self.receivers:
            validate_receiver(self.channel, rx)
        if not self.releases:
            raise ValueError("at least one release is required")
        if len({release.n_tx for release in self.releases}) > 1:
            raise ValueError("releases must share one n_tx")
        for release in self.releases:
            validate_release(self.channel, release)
        steps = _to_steps(self.sample_times, self.time_step, "sample times")
        if steps.ndim != 1 or np.any(np.diff(steps) <= 0):
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
    def n_tx(self) -> int:
        return self.releases[0].n_tx

    @property
    def n_steps(self) -> int:
        return int(max(self.sample_steps.max(initial=0), self.snapshot_steps.max(initial=0)))


@dataclass(frozen=True)
class SimResult:
    """Receiver counts plus any requested position snapshots.

    ``counts[g, k]`` holds receiver ``k``'s counts ``N_ob`` at each sample
    time after release ``g``, in the orders of ``SimConfig.releases`` and
    ``SimConfig.receivers``; ``counts / max(n_tx, 1)`` is the empirical
    ``P_ob``.

    ``snapshots[i, g]`` holds the per-particle ``(x, r^2)`` pairs of release
    ``g`` at ``SimConfig.snapshot_times[i]``, an ``(n, 2)`` array; the whole
    is ``(snapshots, releases, n, 2)``.  ``(x, r^2)`` are the natural plotting
    coordinates:
    a uniform cross-sectional distribution is uniform in ``r^2``, and
    without diffusion the ensemble collapses onto the line
    ``r^2 = a^2 (1 - x / (2 vbar t))``.
    """

    counts: np.ndarray
    snapshots: np.ndarray


def _initial_block(releases: Sequence[ReleaseSpec], radius_a: float, spans, gens):
    """Release-plane positions ``(x, y, z)`` of the blocks at ``spans``, one row per release.

    Every release kind takes two uniforms per particle from ``gens``, so all
    of them leave the generators in one state; a point release ignores them.
    """
    n = spans[-1][1] if spans else 0
    u = np.empty((n, 2))
    for g, (s, e) in zip(gens, spans):
        g.random(out=u[s:e])
    # Uniform over the disk: r = a*sqrt(u) makes r^2 uniform on [0, a^2].
    r = radius_a * np.sqrt(u[:, 0])
    phi = (2.0 * u[:, 1] - 1.0) * math.pi
    y, z = np.empty((2, len(releases), n))
    for row, release in enumerate(releases):
        if release.kind is ReleaseKind.POINT:
            y[row] = release.r0 * math.cos(release.phi0)
            z[row] = release.r0 * math.sin(release.phi0)
        else:
            y[row], z[row] = r * np.cos(phi), r * np.sin(phi)
    return np.zeros_like(y), y, z


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
    """Advect ``x`` at the pre-step radius, then diffuse (``normals``) and reflect.

    ``x, y, z, r2`` are ``(n,)`` or ``(G, n)``; ``normals`` is ``(2, n)``
    (scaled in place), and each of its columns moves that particle of every row.
    ``y, z, r2`` must be C-contiguous (``ValueError`` otherwise).
    """
    if not (y.flags.c_contiguous and z.flags.c_contiguous and r2.flags.c_contiguous):
        # A reshape of any other layout copies, and the wall folds would be lost.
        raise ValueError("engine state must be C-contiguous")
    a = channel.radius_a
    x += (2.0 * channel.mean_velocity) * (1.0 - r2 / (a * a)) * dt
    if normals is not None:
        normals *= math.sqrt(2.0 * channel.diffusion_D * dt)
        y += normals[0]
        z += normals[1]
        np.multiply(y, y, out=r2)
        r2 += z * z
        _reflect_inplace(y.reshape(-1), z.reshape(-1), r2.reshape(-1), a)


def _hits(rx: ReceiverVolume, radius_a: float, x, y, z, r2) -> int:
    """Number of particles inside ``rx``."""
    # Axial prefilter first: the radial and angular tests see few candidates.
    cand = np.flatnonzero(np.abs(x - rx.axial_distance_d) <= rx.extent_cx / 2.0)
    cand = cand[np.sqrt(r2[cand]) >= radius_a - rx.extent_cr]
    return int(np.count_nonzero(np.abs(np.arctan2(z[cand], y[cand])) <= rx.extent_cphi / 2.0))


def _retirement_line(config: SimConfig, step: int, sigmas: float) -> float:
    """The axial position past which a particle retires at sample ``step`` (module docstring).

    It is ``inf`` before the last snapshot step, whose snapshot holds every
    particle, and from the last sample step on, after which nothing is
    counted.  With no receiver it is ``-inf``, so everything retires; it is
    ``nan``, so nothing retires, for ``sigmas = inf`` with ``D = 0`` or with
    no receiver.
    """
    final = int(config.sample_steps[-1])
    if not config.snapshot_steps.max(initial=0) <= step < final:
        return math.inf
    reach = max((rx.axial_distance_d + rx.extent_cx / 2.0 for rx in config.receivers),
                default=-math.inf)
    return reach + sigmas * math.sqrt(2.0 * config.channel.diffusion_D * config.time_step
                                      * (final - step))


def _run_block(config: SimConfig, lo: int, hi: int):
    """``(counts, snapshots)`` of particles ``[lo, hi)`` of ``config``; ``lo`` starts a block.

    Each release is one row of the ``(G, n)`` state, moved by the normals
    drawn once per step for all rows.  From the last snapshot step on, each
    sample step before the last retires the particles that no receiver can
    count again and compacts the state to the others.
    """
    ch = config.channel
    dt = config.time_step
    spans, cross, axial = _streams(config.seed, lo, hi)
    x, y, z = _initial_block(config.releases, ch.radius_a, spans, cross)
    r2 = y * y + z * z
    normals = np.empty((2, hi - lo)) if ch.diffusion_D > 0.0 else None
    columns = {s: i for i, s in enumerate(config.sample_steps.tolist())}
    frames = {s: i for i, s in enumerate(config.snapshot_steps.tolist())}
    counts = np.zeros((len(config.releases), len(config.receivers), len(columns)),
                      dtype=np.int64)
    snapshots = np.empty((len(frames), len(config.releases), hi - lo, 2))
    last = 0
    for j in sorted(columns.keys() | frames.keys()):
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
            for g in range(len(config.releases)):
                for k, rx in enumerate(config.receivers):
                    counts[g, k, columns[j]] = _hits(rx, ch.radius_a, x[g], y[g], z[g], r2[g])
        if j in frames:
            snapshots[frames[j]] = np.stack((x, r2), axis=-1)
        line = _retirement_line(config, j, _RETIRE_SIGMAS) if j in columns else math.inf
        if line < math.inf:  # nan fails too
            # An index retires once every row holds it past the line.
            live = x.min(axis=0) <= line
            if not live.all():
                keep = np.flatnonzero(live)
                x, y, z, r2 = (state.take(keep, axis=1) for state in (x, y, z, r2))
                ends = np.cumsum([np.count_nonzero(live[s:e]) for s, e in spans]).tolist()
                spans = list(zip([0] + ends[:-1], ends))
                if normals is not None:
                    normals = np.empty((2, keep.size))
                if not keep.size:
                    break  # the later counts stay 0
    return counts, snapshots


def _partitions(config: SimConfig, workers: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` of ``min(workers, blocks)`` runs of whole blocks."""
    n = config.n_tx
    blocks = -(-n // _BLOCK)
    parts = min(workers, max(blocks, 1))
    # Partition bounds fall on block boundaries, so no block is ever split.
    bounds = np.minimum(np.linspace(0, blocks, parts + 1).astype(int) * _BLOCK, n)
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _serve(config: SimConfig, lo: int, hi: int, fd: int) -> None:
    """In a forked child: run particles ``[lo, hi)``, send the outcome pickled on ``fd``, exit.

    The outcome is ``(True, output)`` or ``(False, exception)``; an
    exception that cannot be pickled goes as a ``RuntimeError`` naming it.  The
    child leaves by ``os._exit``, so it never returns into the caller and
    never flushes the stdio buffers it inherited.
    """
    code = 1
    try:
        try:
            outcome = (True, _run_block(config, lo, hi))
        except BaseException as exc:  # noqa: BLE001 - sent to the parent, which raises it
            try:
                outcome = (False, pickle.loads(pickle.dumps(exc)))
            except Exception:  # noqa: BLE001 - any failure to round-trip
                outcome = (False, RuntimeError(f"engine worker raised {type(exc).__name__}: "
                                               f"{exc} (cannot be pickled)"))
        with open(fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _fork_partitions(config: SimConfig, parts: Sequence[tuple[int, int]]) -> list:
    """The :func:`_run_block` output of each of ``parts``, one forked child per partition.

    Pipes are read as they become ready, so the first failure raises at
    once: the worker's exception, or ``RuntimeError`` if it died.  Then
    every child left is killed and reaped, so no child outlives the call.
    """
    live: dict[int, int] = {}  # read end -> pid, for each child not yet reaped
    pipes: list[int] = []
    try:
        for lo, hi in parts:
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(config, lo, hi, write)
            finally:
                os.close(write)  # before the next fork, so EOF comes when this child exits
            live[read] = pid
        outputs = {}
        while live:
            for read in select.select(list(live), [], [])[0]:
                with open(read, "rb", closefd=False) as pipe:
                    data = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(live[read], 0)[1])
                del live[read]
                if code < 0:
                    raise RuntimeError(f"engine worker killed by {signal.Signals(-code).name}")
                if code:
                    raise RuntimeError(f"engine worker exited with status {code} and no result")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                outputs[read] = value
        return [outputs[read] for read in pipes]
    except BaseException:
        for pid in live.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for read in pipes:
            os.close(read)


def run(config: SimConfig, *, threads: int = 1) -> SimResult:
    """Simulate ``config``: one pass over its trajectories.

    The pass counts each receiver after each release and captures
    per-particle ``(x, r^2)`` pairs at the snapshot times.

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
        The counts of every (release, receiver) pair at every sample time
        and a snapshot at each of the ``snapshot_times``.  A worker that
        raises or dies raises here, and no partial result is returned.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    parts = _partitions(config, min(threads, os.cpu_count() or 1))
    if len(parts) > 1:
        outputs = _fork_partitions(config, parts)
    else:
        outputs = [_run_block(config, *parts[0])]
    return SimResult(np.sum([counts for counts, _ in outputs], axis=0),
                     np.concatenate([snaps for _, snaps in outputs], axis=2))
