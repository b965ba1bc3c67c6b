"""Particle engine: release sampling, stepping, reflection, and full runs.

Release and step tests drive the helpers ``run`` itself uses
(``_streams``, ``_initial_block``, ``_draw_normals``, ``_advance_inplace``),
so they check the block-keyed ziggurat streams of every run.  Tests that
compare thread counts patch ``os.cpu_count`` (``several_cpus``), so they
split the ensemble into several partitions on any host.
"""

import hashlib
import math
import os
from concurrent.futures import Future

import numpy as np
import pytest
from scipy import stats

from ductflow import (
    FlowModel,
    ReceiverVolume,
    ReleaseSpec,
    SimConfig,
    cir_flow_uniform,
    flow_point_window,
    run,
    rx_area_fraction,
    velocity_at,
)
from ductflow import particles
from ductflow.particles import (
    _BLOCK,
    _advance_inplace,
    _draw_normals,
    _initial_block,
    _reflect_inplace,
    _streams,
)
from conftest import make_channel, make_receiver, point_in_receiver


def sim_config(channel, rx, release, sample_times, seed=1234, dt=1e-3):
    return SimConfig(channel=channel, rx=rx, release=release, time_step=dt, seed=seed,
                     sample_times=sample_times)


@pytest.fixture
def several_cpus(monkeypatch):
    """Eight CPUs as far as the engine can tell, so threads > 1 split the ensemble."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


def released(release, radius, seed, lo=0, hi=None):
    """The positions ``run`` starts particles ``[lo, hi)`` of ``seed`` from."""
    spans, cross, _ = _streams(seed, lo, release.n_tx if hi is None else hi)
    return _initial_block(release, radius, spans, cross)


def walked(release, channel, seed, steps, dt=1e-3):
    """Release positions and ``(x, y, z)`` after ``steps`` engine steps.

    ``x`` carries the advection only: ``run`` adds the axial noise at the
    sample and snapshot steps.
    """
    n = release.n_tx
    spans, cross, _ = _streams(seed, 0, n)
    start = _initial_block(release, channel.radius_a, spans, cross)
    x, y, z = (c.copy() for c in start)
    r2 = y * y + z * z
    normals = (np.empty(n), np.empty(n))
    for _ in range(steps):
        _draw_normals(spans, cross, *normals)
        _advance_inplace(x, y, z, r2, channel, dt, normals)
    return start, (x, y, z)


def radius(positions):
    _, y, z = positions
    return np.sqrt(y * y + z * z)


def azimuth(positions):
    _, y, z = positions
    return np.arctan2(z, y)


class TestInitialPositions:
    def test_point_release_is_deterministic(self):
        release = ReleaseSpec.point(5, 150e-6, 0.5)
        pos = released(release, 200e-6, 7)
        x, y, z = pos
        assert np.all(x == 0.0)
        assert np.unique(y).size == 1 and np.unique(z).size == 1
        assert radius(pos)[0] == pytest.approx(150e-6, rel=1e-12)
        assert azimuth(pos)[0] == pytest.approx(0.5, rel=1e-12)

    def test_uniform_release_r2_mean(self):
        n = 100_000
        u = (radius(released(ReleaseSpec.uniform(n), 1e-5, 99)) / 1e-5) ** 2
        stderr = math.sqrt(1.0 / 12.0 / n)
        assert abs(u.mean() - 0.5) <= 3.0 * stderr
        assert np.all(u <= 1.0)

    def test_uniform_release_band_fraction(self):
        channel = make_channel(radius=200e-6)
        rx = make_receiver(200e-6, 200e-6)
        n = 100_000
        pos = released(ReleaseSpec.uniform(n), 200e-6, 5)
        inside = point_in_receiver(rx, np.full(n, rx.axial_distance_d),
                                   radius(pos), azimuth(pos), 200e-6)
        frac = rx_area_fraction(channel, rx)
        stderr = math.sqrt(frac * (1.0 - frac) / n)
        assert abs(inside.mean() - frac) <= 3.0 * stderr

    def test_blocks_concatenate_to_one_draw(self):
        # Partition independence: runs of whole blocks draw exactly the
        # release positions and step normals of the one-partition draw.
        n = 3 * _BLOCK + 77
        release = ReleaseSpec.uniform(n)
        whole = released(release, 1e-5, 42)
        head = released(release, 1e-5, 42, 0, 2 * _BLOCK)
        tail = released(release, 1e-5, 42, 2 * _BLOCK, n)
        for w, h, t in zip(whole, head, tail):
            assert np.array_equal(w, np.concatenate([h, t]))
        draws = []
        for lo, hi in ((0, n), (0, 2 * _BLOCK), (2 * _BLOCK, n)):
            spans, cross, axial = _streams(42, lo, hi)
            _initial_block(release, 1e-5, spans, cross)  # a run draws the release first
            out = (np.empty(hi - lo), np.empty(hi - lo), np.empty(hi - lo))
            _draw_normals(spans, cross, *out[:2])
            _draw_normals(spans, axial, out[2])
            draws.append(out)
        for w, h, t in zip(*draws):
            assert np.array_equal(w, np.concatenate([h, t]))


class TestStep:
    def test_pure_advection_is_exact(self):
        channel = make_channel(radius=200e-6, diffusion=0.0)
        x0, y0, z0 = released(ReleaseSpec.uniform(2000), 200e-6, 3)
        x, y, z = x0.copy(), y0.copy(), z0.copy()
        r2 = y0 * y0 + z0 * z0
        _advance_inplace(x, y, z, r2, channel, 1e-3, None)
        a = channel.radius_a
        expected = x0 + (2.0 * channel.mean_velocity) * (1.0 - r2 / (a * a)) * 1e-3
        assert np.array_equal(x, expected)
        assert np.array_equal(y, y0) and np.array_equal(z, z0)
        assert np.allclose(x - x0, velocity_at(channel, np.sqrt(r2)) * 1e-3,
                           rtol=1e-12, atol=1e-12 * 2.0 * channel.mean_velocity * 1e-3)

    def test_brownian_moments_far_from_wall(self):
        # Center release with steps much smaller than the radius: no wall
        # contact, so the cross-sectional mean ~ 0 and variance ~ 2 D dt.
        channel = make_channel(radius=1e-4, diffusion=1e-12, mean_velocity=0.0)
        n = 200_000
        dt = 1e-3
        before, after = walked(ReleaseSpec.point(n, 0.0, 0.0), channel, 12, 1, dt)
        var = 2.0 * channel.diffusion_D * dt
        for old, new in zip(before[1:], after[1:]):
            delta = new - old
            assert abs(delta.mean()) <= 4.0 * math.sqrt(var / n)
            assert delta.var() == pytest.approx(var, rel=0.02)
        assert np.all(radius(after) <= 1e-4)
        assert np.array_equal(after[0], before[0])  # no flow, and x's noise comes from run

    def test_reflection_folds_radius_on_same_ray(self):
        y = np.array([1.5e-5, 0.0, 0.5e-5])
        z = np.array([0.0, -1.2e-5, 0.0])
        r2 = y * y + z * z
        _reflect_inplace(y, z, r2, 1e-5)
        assert y[0] == pytest.approx(0.5e-5, rel=1e-12) and z[0] == 0.0
        assert z[1] == pytest.approx(-0.8e-5, rel=1e-12) and y[1] == 0.0
        assert y[2] == 0.5e-5 and z[2] == 0.0  # inside: untouched
        assert np.array_equal(r2, y * y + z * z)

    def test_reflection_through_axis_for_huge_excursion(self):
        y = np.array([2.5e-5])
        z = np.array([0.0])
        r2 = y * y + z * z
        _reflect_inplace(y, z, r2, 1e-5)
        # 2a - r is negative: the fold passes through the axis.
        assert y[0] == pytest.approx(-0.5e-5, rel=1e-12)
        assert np.array_equal(r2, y * y + z * z)

    def test_wall_keeps_cross_section_uniform(self):
        # Zero-flux sanity: a uniform disk stays uniform in r^2 under many
        # diffusive steps with reflection.
        channel = make_channel(radius=1e-5, diffusion=1e-10, mean_velocity=0.0)
        cfg = sim_config(channel, make_receiver(1e-5, 200e-6), ReleaseSpec.uniform(20_000),
                         [0.05], seed=4)
        u = run(cfg, snapshot_times=[0.05]).snapshots[0.05][:, 1] / (1e-5) ** 2
        ks = stats.kstest(u, "uniform")
        assert ks.pvalue > 0.01

    def test_azimuthal_symmetry(self):
        channel = make_channel(radius=1e-5, diffusion=1e-10)
        _, pos = walked(ReleaseSpec.uniform(20_000), channel, 2, 20)
        counts, _ = np.histogram(azimuth(pos), bins=16, range=(-math.pi, math.pi))
        chi = stats.chisquare(counts)
        assert chi.pvalue > 0.01

    def test_flow_only_advection_matches_profile(self):
        # D = 0: every step adds the same u(r) dt, so x = u(r) t after any
        # number of steps, to the rounding of the step sum.
        channel = make_channel(radius=10e-6, diffusion=0.0)
        t = 0.4
        cfg = sim_config(channel, make_receiver(10e-6, 200e-6), ReleaseSpec.uniform(3000),
                         [0.1, t], dt=1e-3)
        cloud = run(cfg, snapshot_times=[t]).snapshots[t]
        x, r2 = cloud[:, 0], cloud[:, 1]
        u = 2.0 * channel.mean_velocity * (1.0 - r2 / (10e-6) ** 2)
        np.testing.assert_allclose(x, u * t, rtol=1e-12, atol=0.0)

    def test_axial_variance_on_sparse_grid(self):
        # v = 0: x is the sum of the axial increments alone, drawn in one
        # N(0, 2 D k dt) per sample interval.  sum(x^2) / (2 D t) is then
        # chi-square with n degrees of freedom; test it two-sided at 1e-3.
        channel = make_channel(radius=10e-6, diffusion=1e-10, mean_velocity=0.0)
        n = 20_000
        for times in ([0.3], [0.01, 0.3], np.arange(1, 301) * 1e-3):
            cfg = sim_config(channel, make_receiver(10e-6, 200e-6), ReleaseSpec.uniform(n),
                             times, seed=31)
            x = run(cfg, snapshot_times=[0.3]).snapshots[0.3][:, 0]
            stat = np.sum(x * x) / (2.0 * channel.diffusion_D * 0.3)
            assert stats.chi2.ppf(5e-4, n) <= stat <= stats.chi2.ppf(1.0 - 5e-4, n)

    def test_sample_grid_leaves_cross_section_alone(self):
        # The axial draws come from their own streams: a dense or a sparse
        # sample grid gives the same r^2 at a shared snapshot step.
        channel = make_channel(radius=10e-6, diffusion=1e-10)
        rx = make_receiver(10e-6, 20e-6)
        release = ReleaseSpec.uniform(_BLOCK + 500)
        clouds = [run(sim_config(channel, rx, release, times, seed=6), threads=2,
                      snapshot_times=[0.05]).snapshots[0.05]
                  for times in ([0.08], np.arange(1, 81) * 1e-3)]
        assert np.array_equal(clouds[0][:, 1], clouds[1][:, 1])
        assert not np.array_equal(clouds[0][:, 0], clouds[1][:, 0])


class TestRun:
    def test_flow_only_uniform_matches_closed_form(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        times = np.arange(1, 301) * 1e-3
        cfg = sim_config(wide_flow_only, rx, ReleaseSpec.uniform(50_000), times, seed=7)
        series = run(cfg).series
        model = FlowModel.for_channel(wide_flow_only, rx)
        p = cir_flow_uniform(model, series.times)
        bound = 3.0 * np.sqrt(p * (1.0 - p) / cfg.release.n_tx)
        inside = np.abs(series.probabilities() - p) <= bound + 1e-12
        assert inside.mean() >= 0.99

    def test_flow_only_point_release_window(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        release = ReleaseSpec.point(10_000, 150e-6, 0.0)
        times = np.arange(1, 401) * 1e-3
        cfg = sim_config(wide_flow_only, rx, release, times)
        series = run(cfg).series
        window = flow_point_window(wide_flow_only, rx, release)
        full = np.flatnonzero(series.counts == release.n_tx)
        assert abs(series.times[full[0]] - window[0]) <= cfg.time_step
        assert abs(series.times[full[-1]] - window[1]) <= cfg.time_step
        outside = (series.times < window[0] - cfg.time_step) | \
                  (series.times > window[1] + cfg.time_step)
        assert np.all(series.counts[outside] == 0)

    def test_empty_release(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        cfg = sim_config(wide_flow_only, rx, ReleaseSpec.uniform(0), [0.01, 0.02])
        series = run(cfg).series
        assert np.all(series.counts == 0)

    def test_deterministic_across_thread_counts(self, narrow_channel, several_cpus):
        rx = make_receiver(10e-6, 200e-6)
        times = np.arange(1, 60) * 2e-3
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(5_000), times)
        results = [run(cfg, threads=t, snapshot_times=[0.05]) for t in (1, 2, 7)]
        for other in results[1:]:
            assert np.array_equal(results[0].series.counts, other.series.counts)
            assert np.array_equal(results[0].snapshots[0.05], other.snapshots[0.05])

    @pytest.mark.parametrize("n_tx", [_BLOCK // 3, 3 * _BLOCK + 77])
    def test_counts_identical_across_partitions(self, narrow_channel, several_cpus, n_tx):
        # Below one block there is one partition whatever the thread count;
        # a ragged last block must not shift any other block's streams.
        cfg = sim_config(narrow_channel, make_receiver(10e-6, 20e-6), ReleaseSpec.uniform(n_tx),
                         np.arange(0, 41) * 1e-3, dt=1e-4)
        results = [run(cfg, threads=t, snapshot_times=[0.02]) for t in (1, 2, 3, 4)]
        assert results[0].series.counts.sum() > 0
        for other in results[1:]:
            assert np.array_equal(results[0].series.counts, other.series.counts)
            assert np.array_equal(results[0].snapshots[0.02], other.snapshots[0.02])

    def test_workers_capped_at_cpu_count(self, narrow_channel, monkeypatch):
        # One partition, and one pool worker, per requested thread, but no
        # more than there are CPUs or blocks; the fake pool runs each
        # partition inline, so no thread is started.
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                self.max_workers, self.blocks = max_workers, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.blocks += 1
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(particles, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for n_tx, parts in ((64, [1, 1, 1]), (10 * _BLOCK + 5, [1, 2, 4])):
            pools.clear()
            cfg = sim_config(narrow_channel, make_receiver(10e-6, 20e-6),
                             ReleaseSpec.uniform(n_tx), np.arange(1, 21) * 1e-3)
            counts = [run(cfg, threads=t).series.counts for t in (1, 2, 64)]
            assert [(p.max_workers, p.blocks) for p in pools] == [(k, k) for k in parts]
            assert all(np.array_equal(c, counts[0]) for c in counts)

    def test_mean_axial_position_tracks_mean_velocity(self, narrow_channel):
        rx = make_receiver(10e-6, 800e-6)
        times = [0.1, 0.2, 0.3]
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(20_000), times, seed=77)
        result = run(cfg, snapshot_times=times)
        for t in times:
            x = result.snapshots[t][:, 0]
            stderr = x.std() / math.sqrt(x.size)
            assert abs(x.mean() - narrow_channel.mean_velocity * t) <= 3.0 * stderr

    def test_sample_times_snap_to_steps(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        cfg = sim_config(wide_flow_only, rx, ReleaseSpec.uniform(10),
                         [0.0101, 0.0199], dt=1e-3)
        assert np.allclose(cfg.sample_times, [0.010, 0.020])
        with pytest.raises(ValueError):
            sim_config(wide_flow_only, rx, ReleaseSpec.uniform(10),
                       [0.0101, 0.0102], dt=1e-3)  # collide on the same step

    # SHA-256 of the counts' bytes: they pin the random streams and the
    # receiver test for D > 0 and D = 0.  Samples start at t = 0, so step 0
    # is observed too.  A change to the streams on purpose updates them.
    COUNTS_SHA256 = {
        1e-10: "9a30a916e7de4aaac2e67acd8a8077f24cb1330aba4c47781b51edfbed7ace02",
        0.0: "115b2f5c8f0182976d2f056a730dd5ddf652b10339cca57f80e94f3eb56d032a",
    }

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("diffusion", [1e-10, 0.0])
    def test_pinned_counts(self, diffusion, threads, several_cpus):
        channel = make_channel(radius=10e-6, diffusion=diffusion)
        cfg = sim_config(channel, make_receiver(10e-6, 20e-6), ReleaseSpec.uniform(1500),
                         np.arange(0, 41) * 1e-3, seed=2017, dt=1e-4)
        counts = run(cfg, threads=threads).series.counts
        assert counts.dtype == np.int64 and counts.sum() > 0
        assert hashlib.sha256(counts.tobytes()).hexdigest() == self.COUNTS_SHA256[diffusion]


class TestSnapshots:
    def test_at_release_plane(self, narrow_channel):
        rx = make_receiver(10e-6, 200e-6)
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(500), [0.01])
        result = run(cfg, snapshot_times=[0.0])
        cloud = result.snapshots[0.0]
        assert np.all(cloud[:, 0] == 0.0)
        assert np.all(cloud[:, 1] <= (10e-6) ** 2)

    def test_flow_only_cloud_lies_on_line(self):
        channel = make_channel(radius=10e-6, diffusion=0.0)
        rx = make_receiver(10e-6, 200e-6)
        t = 0.02
        cfg = sim_config(channel, rx, ReleaseSpec.uniform(2000), [t])
        cloud = run(cfg, snapshot_times=[t]).snapshots[t]
        a2 = (10e-6) ** 2
        line = a2 * (1.0 - cloud[:, 0] / (2.0 * channel.mean_velocity * t))
        assert np.allclose(cloud[:, 1], line, rtol=1e-9, atol=1e-24)

    def test_dispersion_uniformizes_r2(self, narrow_channel):
        # After long times the cross-wise positions decouple from x and r^2
        # is uniform on [0, a^2].
        rx = make_receiver(10e-6, 800e-6)
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(1000), [0.8], seed=15)
        cloud = run(cfg, snapshot_times=[0.8]).snapshots[0.8]
        u = cloud[:, 1] / (10e-6) ** 2
        ks = stats.kstest(u, "uniform")
        critical_1pct = 1.63 / math.sqrt(u.size)
        assert ks.statistic < critical_1pct


class TestMultiReceiver:
    """One pass over the trajectories serves every receiver of the config."""

    RECEIVERS = (make_receiver(10e-6, 20e-6), make_receiver(10e-6, 60e-6),
                 make_receiver(10e-6, 20e-6, cphi=math.pi))
    TIMES = np.arange(1, 41) * 2e-3
    SNAPS = [0.02, 0.08]

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("diffusion", [1e-10, 0.0])
    def test_counts_match_single_receiver_runs(self, diffusion, threads, several_cpus):
        channel = make_channel(radius=10e-6, diffusion=diffusion)
        release = ReleaseSpec.uniform(3000)
        multi = run(sim_config(channel, self.RECEIVERS, release, self.TIMES),
                    threads=threads, snapshot_times=self.SNAPS)
        assert len(multi.all_series) == len(self.RECEIVERS)
        assert multi.series is multi.all_series[0]
        for rx, series in zip(self.RECEIVERS, multi.all_series):
            single = run(sim_config(channel, rx, release, self.TIMES),
                         threads=threads, snapshot_times=self.SNAPS)
            assert series.counts.sum() > 0
            assert np.array_equal(series.counts, single.series.counts)
            assert np.array_equal(series.times, single.series.times)
            for t in self.SNAPS:
                assert np.array_equal(multi.snapshots[t], single.snapshots[t])

    def test_empty_release(self, narrow_channel):
        cfg = sim_config(narrow_channel, self.RECEIVERS, ReleaseSpec.uniform(0), self.TIMES)
        result = run(cfg, threads=3, snapshot_times=self.SNAPS)
        assert len(result.all_series) == len(self.RECEIVERS)
        for series in result.all_series:
            assert series.n_tx == 0
            assert np.array_equal(series.counts, np.zeros(self.TIMES.size, dtype=np.int64))
        assert all(result.snapshots[t].shape == (0, 2) for t in self.SNAPS)

    def test_single_receiver_keeps_rx(self, narrow_channel):
        rx = self.RECEIVERS[0]
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(10), self.TIMES)
        assert cfg.rx is rx and cfg.receivers == (rx,)
        result = run(cfg)
        assert result.all_series == (result.series,)

    def test_every_receiver_is_validated(self, narrow_channel):
        too_deep = ReceiverVolume(axial_distance_d=200e-6, extent_cx=5e-6,
                                  extent_cr=20e-6, extent_cphi=math.pi / 2)
        with pytest.raises(ValueError):
            sim_config(narrow_channel, (self.RECEIVERS[0], too_deep),
                       ReleaseSpec.uniform(10), self.TIMES)
        with pytest.raises(ValueError):
            sim_config(narrow_channel, (), ReleaseSpec.uniform(10), self.TIMES)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, narrow_channel, threads):
        cfg = sim_config(narrow_channel, self.RECEIVERS[0], ReleaseSpec.uniform(10),
                         self.TIMES)
        with pytest.raises(ValueError, match="threads"):
            run(cfg, threads=threads)
