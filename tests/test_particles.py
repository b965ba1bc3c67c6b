"""Particle engine: release sampling, stepping, reflection, and full runs.

Release and step tests drive the helpers ``run`` itself uses, so they check
the counter-based Philox + ``ndtri`` streams of every run.
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
    _advance_inplace,
    _counter_normals,
    _initial_block,
    _reflect_inplace,
)
from conftest import make_channel, make_receiver, point_in_receiver


def sim_config(channel, rx, release, sample_times, seed=1234, dt=1e-3):
    return SimConfig(channel=channel, rx=rx, release=release, time_step=dt, seed=seed,
                     sample_times=sample_times)


def released(release, radius, seed):
    """The positions ``run`` starts from: particles ``[0, n_tx)`` of ``seed``."""
    return _initial_block(release, radius, seed, 0, release.n_tx)


def stepped(positions, channel, dt, seed, j):
    """Copies of ``positions`` after engine step ``j`` of ``seed``'s streams."""
    x, y, z = (c.copy() for c in positions)
    normals = _counter_normals(seed, j, 0, x.size) if channel.diffusion_D > 0.0 else None
    _advance_inplace(x, y, z, channel, dt, normals)
    return x, y, z


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
        # Partition independence: any split of the ensemble draws exactly
        # the release positions and step normals of the one-block draw.
        release = ReleaseSpec.uniform(1000)
        whole = _initial_block(release, 1e-5, 42, 0, 1000)
        head = _initial_block(release, 1e-5, 42, 0, 300)
        tail = _initial_block(release, 1e-5, 42, 300, 700)
        for w, h, t in zip(whole, head, tail):
            assert np.array_equal(w, np.concatenate([h, t]))
        assert np.array_equal(_counter_normals(42, 3, 0, 1000),
                              np.concatenate([_counter_normals(42, 3, 0, 300),
                                              _counter_normals(42, 3, 300, 700)]))


class TestStep:
    def test_pure_advection_is_exact(self):
        channel = make_channel(radius=200e-6, diffusion=0.0)
        before = released(ReleaseSpec.uniform(2000), 200e-6, 3)
        x0, y0, z0 = before
        x, y, z = stepped(before, channel, 1e-3, 0, 1)
        a = channel.radius_a
        r2 = y0 * y0 + z0 * z0
        expected = x0 + (2.0 * channel.mean_velocity) * (1.0 - r2 / (a * a)) * 1e-3
        assert np.array_equal(x, expected)
        assert np.array_equal(y, y0) and np.array_equal(z, z0)
        assert np.allclose(x - x0, velocity_at(channel, radius(before)) * 1e-3, rtol=1e-12)

    def test_brownian_moments_far_from_wall(self):
        # Center release with steps much smaller than the radius: no wall
        # contact, so per-axis mean ~ 0 and variance ~ 2 D dt.
        channel = make_channel(radius=1e-4, diffusion=1e-12, mean_velocity=0.0)
        n = 200_000
        before = released(ReleaseSpec.point(n, 0.0, 0.0), 1e-4, 1)
        dt = 1e-3
        after = stepped(before, channel, dt, 12, 1)
        var = 2.0 * channel.diffusion_D * dt
        for old, new in zip(before, after):
            delta = new - old
            assert abs(delta.mean()) <= 4.0 * math.sqrt(var / n)
            assert delta.var() == pytest.approx(var, rel=0.02)
        assert np.all(radius(after) <= 1e-4)

    def test_reflection_folds_radius_on_same_ray(self):
        y = np.array([1.5e-5, 0.0])
        z = np.array([0.0, -1.2e-5])
        _reflect_inplace(y, z, 1e-5)
        assert y[0] == pytest.approx(0.5e-5, rel=1e-12) and z[0] == 0.0
        assert z[1] == pytest.approx(-0.8e-5, rel=1e-12) and y[1] == 0.0

    def test_reflection_through_axis_for_huge_excursion(self):
        y = np.array([2.5e-5])
        z = np.array([0.0])
        _reflect_inplace(y, z, 1e-5)
        # 2a - r is negative: the fold passes through the axis.
        assert y[0] == pytest.approx(-0.5e-5, rel=1e-12)

    def test_wall_keeps_cross_section_uniform(self):
        # Zero-flux sanity: a uniform disk stays uniform in r^2 under many
        # diffusive steps with reflection.
        channel = make_channel(radius=1e-5, diffusion=1e-10, mean_velocity=0.0)
        n = 20_000
        pos = released(ReleaseSpec.uniform(n), 1e-5, 8)
        for j in range(1, 51):
            pos = stepped(pos, channel, 1e-3, 4, j)
        u = (radius(pos) / 1e-5) ** 2
        ks = stats.kstest(u, "uniform")
        assert ks.pvalue > 0.01

    def test_azimuthal_symmetry(self):
        channel = make_channel(radius=1e-5, diffusion=1e-10)
        n = 20_000
        pos = released(ReleaseSpec.uniform(n), 1e-5, 2)
        for j in range(1, 21):
            pos = stepped(pos, channel, 1e-3, 9, j)
        counts, _ = np.histogram(azimuth(pos), bins=16, range=(-math.pi, math.pi))
        chi = stats.chisquare(counts)
        assert chi.pvalue > 0.01


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

    def test_deterministic_across_thread_counts(self, narrow_channel):
        rx = make_receiver(10e-6, 200e-6)
        times = np.arange(1, 60) * 2e-3
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(5_000), times)
        results = [run(cfg, threads=t, snapshot_times=[0.05]) for t in (1, 2, 7)]
        for other in results[1:]:
            assert np.array_equal(results[0].series.counts, other.series.counts)
            assert np.array_equal(results[0].snapshots[0.05], other.snapshots[0.05])

    def test_workers_capped_at_cpu_count(self, narrow_channel, monkeypatch):
        # One block per requested thread, but no more pool workers than CPUs;
        # the fake pool runs each block inline, so no thread is started.
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

        cfg = sim_config(narrow_channel, make_receiver(10e-6, 20e-6),
                         ReleaseSpec.uniform(64), np.arange(1, 21) * 1e-3)
        monkeypatch.setattr(particles, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        expected = run(cfg, threads=1).series.counts
        counts = run(cfg, threads=64).series.counts
        assert [(p.max_workers, p.blocks) for p in pools] == [(1, 1), (4, 64)]
        assert np.array_equal(counts, expected)

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
        1e-10: "4b1a65aa065166e881882aa81ff575c389c4559b1b58d411847cb5896ab76e4a",
        0.0: "33c27a6878059b422efb47ba7c76cffed78f6adc98d3cdb4f28666a79956a7b4",
    }

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("diffusion", [1e-10, 0.0])
    def test_pinned_counts(self, diffusion, threads):
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
    def test_counts_match_single_receiver_runs(self, diffusion, threads):
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
