"""Particle engine: release sampling, stepping, reflection, and full runs.

Release and step tests drive the helpers ``run`` itself uses
(``_streams``, ``_initial_block``, ``_draw_normals``, ``_advance_inplace``),
so they check the block-keyed ziggurat streams of every run.  Tests that
compare worker counts patch ``os.cpu_count`` (``several_cpus``), so they
split the ensemble into several partitions on any host.
"""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ductflow import (
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
    run_many,
)
from conftest import (exit_in_worker, make_channel, make_receiver, point_in_receiver,
                      raise_in_worker)


def sim_config(channel, rx, release, sample_times, seed=1234, dt=1e-3, snapshot_times=()):
    return SimConfig(channel=channel, rx=rx, release=release, time_step=dt, seed=seed,
                     sample_times=sample_times, snapshot_times=snapshot_times)


@pytest.fixture
def several_cpus(monkeypatch):
    """Eight CPUs as far as the engine can tell, so threads > 1 split the ensemble."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


def released(release, radius, seed, lo=0, hi=None):
    """The positions ``run`` starts particles ``[lo, hi)`` of ``seed`` from."""
    spans, cross, _ = _streams(seed, lo, release.n_tx if hi is None else hi)
    return tuple(row for row, in _initial_block([release], radius, spans, cross))


def walked(release, channel, seed, steps, dt=1e-3):
    """Release positions and ``(x, y, z)`` after ``steps`` engine steps.

    ``x`` carries the advection only: ``run`` adds the axial noise at the
    sample and snapshot steps.
    """
    n = release.n_tx
    spans, cross, _ = _streams(seed, 0, n)
    start = tuple(row for row, in _initial_block([release], channel.radius_a, spans, cross))
    x, y, z = (c.copy() for c in start)
    r2 = y * y + z * z
    normals = np.empty((2, n))
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
            _initial_block([release], 1e-5, spans, cross)  # a run draws the release first
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

    def test_reflection_past_three_radii_in_closed_form(self):
        # The diameter reflects with period 4a: 3.5a lands at -0.5a, 5.5a at +0.5a.
        y = np.array([3.5e-5, 0.0])
        z = np.array([0.0, 5.5e-5])
        r2 = y * y + z * z
        _reflect_inplace(y, z, r2, 1e-5)
        assert y[0] == pytest.approx(-0.5e-5, rel=1e-12) and z[0] == 0.0
        assert z[1] == pytest.approx(0.5e-5, rel=1e-12) and y[1] == 0.0
        assert np.array_equal(r2, y * y + z * z)

    # Radii past about 1e150 a are left out: r^2 overflows to inf there.
    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(ratio=st.floats(min_value=1.0, max_value=1e150, exclude_min=True),
           phi=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_reflection_lands_inside(self, ratio, phi):
        a = 1e-5
        y = np.array([ratio * a * math.cos(phi)])
        z = np.array([ratio * a * math.sin(phi)])
        r2 = y * y + z * z
        rr = np.sqrt(r2)
        scale = (2.0 * a - rr) / rr if r2[0] > a * a else 1.0
        single = (y * scale).tobytes(), (z * scale).tobytes()
        _reflect_inplace(y, z, r2, a)
        assert math.sqrt(r2[0]) <= a * (1.0 + 4.0 * np.finfo(float).eps)
        assert r2[0] == y[0] * y[0] + z[0] * z[0]
        if rr[0] <= 3.0 * a:
            # Up to 3a the single fold 2a - r keeps every engine byte.
            assert (y.tobytes(), z.tobytes()) == single

    @pytest.mark.parametrize("diffusion", ["1e10", "1e30"])
    def test_huge_diffusion_run_ends(self, tmp_path, diffusion):
        # A step that lands many radii past the wall still takes one fold.
        src = str(Path(particles.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "ductflow.cli", "simulate", "--out", str(tmp_path),
                        "--set", f"channel.diffusion={diffusion}", "--set", "release.n_tx=10",
                        "--set", "grid.t_stop=0.01"],
                       env=env, capture_output=True, check=True, timeout=60)

    def test_wall_keeps_cross_section_uniform(self):
        # Zero-flux sanity: a uniform disk stays uniform in r^2 under many
        # diffusive steps with reflection.
        channel = make_channel(radius=1e-5, diffusion=1e-10, mean_velocity=0.0)
        cfg = sim_config(channel, make_receiver(1e-5, 200e-6), ReleaseSpec.uniform(20_000),
                         [0.05], seed=4, snapshot_times=[0.05])
        u = run(cfg).snapshots[0.05][:, 1] / (1e-5) ** 2
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
                         [0.1, t], dt=1e-3, snapshot_times=[t])
        cloud = run(cfg).snapshots[t]
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
                             times, seed=31, snapshot_times=[0.3])
            x = run(cfg).snapshots[0.3][:, 0]
            stat = np.sum(x * x) / (2.0 * channel.diffusion_D * 0.3)
            assert stats.chi2.ppf(5e-4, n) <= stat <= stats.chi2.ppf(1.0 - 5e-4, n)

    def test_sample_grid_leaves_cross_section_alone(self):
        # The axial draws come from their own streams: a dense or a sparse
        # sample grid gives the same r^2 at a shared snapshot step.
        channel = make_channel(radius=10e-6, diffusion=1e-10)
        rx = make_receiver(10e-6, 20e-6)
        release = ReleaseSpec.uniform(_BLOCK + 500)
        clouds = [run(sim_config(channel, rx, release, times, seed=6, snapshot_times=[0.05]),
                      threads=2).snapshots[0.05]
                  for times in ([0.08], np.arange(1, 81) * 1e-3)]
        assert np.array_equal(clouds[0][:, 1], clouds[1][:, 1])
        assert not np.array_equal(clouds[0][:, 0], clouds[1][:, 0])


class TestRun:
    def test_flow_only_uniform_matches_closed_form(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        times = np.arange(1, 301) * 1e-3
        cfg = sim_config(wide_flow_only, rx, ReleaseSpec.uniform(50_000), times, seed=7)
        series = run(cfg).series
        p = cir_flow_uniform(wide_flow_only, rx, series.times)
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
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(5_000), times,
                         snapshot_times=[0.05])
        results = [run(cfg, threads=t) for t in (1, 2, 7)]
        for other in results[1:]:
            assert np.array_equal(results[0].series.counts, other.series.counts)
            assert np.array_equal(results[0].snapshots[0.05], other.snapshots[0.05])

    @pytest.mark.parametrize("n_tx", [_BLOCK // 3, 3 * _BLOCK + 77])
    def test_counts_identical_across_partitions(self, narrow_channel, several_cpus, n_tx):
        # Below one block there is one partition whatever the thread count;
        # a ragged last block must not shift any other block's streams.  A
        # many-config call gives each config the results of its own run,
        # whatever the other configs' partitions are.
        rx, times = make_receiver(10e-6, 20e-6), np.arange(0, 41) * 1e-3
        cfgs = [sim_config(narrow_channel, rx, release, times, seed=seed, dt=1e-4,
                           snapshot_times=[0.02])
                for release, seed in ((ReleaseSpec.uniform(n_tx), 1234),
                                      (ReleaseSpec.uniform(0), 1234),
                                      (ReleaseSpec.point(_BLOCK + 5, 8e-6, 0.3), 99))]
        alone = [run(cfg) for cfg in cfgs]
        assert alone[0].series.counts.sum() > 0
        for t in (1, 2, 3, 4):
            results = [run(cfgs[0], threads=t), *run_many(cfgs, threads=t)]
            for result, reference in zip(results, [alone[0], *alone]):
                assert np.array_equal(result.series.counts, reference.series.counts)
                assert np.array_equal(result.snapshots[0.02], reference.snapshots[0.02])

    # Every block-aligned cut of 3 or 4 full blocks and a ragged last one.
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(full=st.integers(3, 4), ragged=st.integers(1, _BLOCK - 1),
           cuts=st.sets(st.integers(1, 4)), seed=st.integers(0, 2 ** 64 - 1))
    def test_counts_independent_of_cut_points(self, full, ragged, cuts, seed):
        n_tx = full * _BLOCK + ragged
        cfg = sim_config(make_channel(radius=10e-6), make_receiver(10e-6, 20e-6),
                         ReleaseSpec.uniform(n_tx), np.arange(1, 41) * 1e-3, seed=seed,
                         snapshot_times=[0.02])
        bounds = [0, *sorted(c * _BLOCK for c in cuts if c <= full), n_tx]
        parts = [particles._run_block([cfg], lo, hi)[0] for lo, hi in zip(bounds, bounds[1:])]
        (counts, snaps), = particles._run_block([cfg], 0, n_tx)
        assert counts.sum() > 0
        assert np.array_equal(sum(c for c, _ in parts), counts)
        (t,) = snaps
        assert np.array_equal(np.concatenate([s[t] for _, s in parts]), snaps[t])

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        """Replaces ``ProcessPoolExecutor`` with a pool that maps in this process.

        Returns the list of pools made, each with its ``max_workers``, the
        ``(n_tx, lo, hi)`` of every task in submission order, and the number
        of configs in each task's group (``sizes``).
        """
        pools = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "fork"
                self.max_workers, self.tasks, self.sizes = max_workers, [], []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                tasks = list(zip(*iterables))
                self.tasks = [(group[0].release.n_tx, lo, hi) for group, lo, hi in tasks]
                self.sizes = [len(group) for group, _, _ in tasks]
                return [fn(*task) for task in tasks]

        monkeypatch.setattr(particles, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return pools

    def test_workers_capped_at_cpu_count(self, narrow_channel, inline_pool, monkeypatch):
        # One partition, and one worker, per requested thread, but no more
        # than there are CPUs or partitions; one worker runs inline, with no
        # pool.
        calls = []
        run_block = particles._run_block
        monkeypatch.setattr(particles, "_run_block",
                            lambda *args: calls.append(args) or run_block(*args))
        for n_tx, parts in ((64, [1, 1, 1]), (10 * _BLOCK + 5, [1, 2, 4])):
            cfg = sim_config(narrow_channel, make_receiver(10e-6, 20e-6),
                             ReleaseSpec.uniform(n_tx), np.arange(1, 21) * 1e-3)
            counts, seen = [], []
            for t in (1, 2, 64):
                inline_pool.clear()
                calls.clear()
                counts.append(run(cfg, threads=t).series.counts)
                workers = inline_pool[0].max_workers if inline_pool else 1
                seen.append((workers, len(calls)))
                assert len(inline_pool) == (workers > 1)
            assert seen == [(k, k) for k in parts]
            assert all(np.array_equal(c, counts[0]) for c in counts)
        # Two runs' partitions share the CPUs' workers (other seeds: no group).
        inline_pool.clear()
        calls.clear()
        run_many([cfg, replace(cfg, seed=cfg.seed + 1)], threads=64)
        assert (inline_pool[0].max_workers, len(calls)) == (4, 8)

    def test_partitions_submitted_largest_first(self, narrow_channel, inline_pool):
        # Partitions of every config share one pool and are submitted by
        # particle-steps, largest first: 200 steps of 3 blocks outweigh
        # 20 steps of 11.
        rx = make_receiver(10e-6, 20e-6)
        long = sim_config(narrow_channel, rx, ReleaseSpec.uniform(3 * _BLOCK),
                          np.arange(1, 201) * 1e-3)
        wide = sim_config(narrow_channel, rx, ReleaseSpec.uniform(10 * _BLOCK + 5),
                          np.arange(1, 21) * 1e-3)
        results = run_many([long, wide], threads=2)
        (pool,) = inline_pool
        assert pool.max_workers == 2
        n_long, n_wide = 3 * _BLOCK, 10 * _BLOCK + 5
        assert pool.tasks == [(n_long, _BLOCK, n_long), (n_long, 0, _BLOCK),
                              (n_wide, 5 * _BLOCK, n_wide), (n_wide, 0, 5 * _BLOCK)]
        for cfg, result in zip([long, wide], results):
            assert np.array_equal(result.series.counts, run(cfg).series.counts)

    def test_group_outweighs_single_run_of_same_size(self, narrow_channel, inline_pool):
        # A group of two releases steps twice the particles of one config
        # of the same particle count and steps, so its partitions go first.
        rx = make_receiver(10e-6, 20e-6)
        n, times = 2 * _BLOCK, np.arange(1, 21) * 1e-3
        single = sim_config(narrow_channel, rx, ReleaseSpec.uniform(n), times, seed=5)
        pair = [sim_config(narrow_channel, rx, release, times, seed=6)
                for release in (ReleaseSpec.uniform(n), ReleaseSpec.point(n, 8e-6))]
        results = run_many([single, *pair], threads=2)
        (pool,) = inline_pool
        assert pool.tasks == [(n, 0, _BLOCK), (n, _BLOCK, n), (n, 0, _BLOCK), (n, _BLOCK, n)]
        assert pool.sizes == [2, 2, 1, 1]
        for cfg, result in zip([single, *pair], results):
            assert np.array_equal(result.series.counts, run(cfg).series.counts)

    @pytest.mark.parametrize("fault,error", [(raise_in_worker, RuntimeError),
                                             (exit_in_worker, BrokenProcessPool)])
    def test_worker_failure_raises(self, narrow_channel, several_cpus, monkeypatch,
                                   fault, error):
        # Forked workers inherit the patched module.
        monkeypatch.setattr(particles, "_run_block", fault)
        cfg = sim_config(narrow_channel, make_receiver(10e-6, 20e-6),
                         ReleaseSpec.uniform(2 * _BLOCK), np.arange(1, 21) * 1e-3)
        with pytest.raises(error):
            run(cfg, threads=2)

    @pytest.mark.skipif(sys.version_info >= (3, 12),
                        reason="Python 3.12 and later warn at a fork while another OS "
                               "thread lives, such as an earlier pool's exiting thread")
    def test_fork_emits_no_warning(self, narrow_channel, several_cpus):
        cfg = sim_config(narrow_channel, make_receiver(10e-6, 20e-6),
                         ReleaseSpec.uniform(2 * _BLOCK), np.arange(1, 21) * 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = run(cfg, threads=2).series.counts
        assert np.array_equal(counts, run(cfg).series.counts)

    def test_mean_axial_position_tracks_mean_velocity(self, narrow_channel):
        rx = make_receiver(10e-6, 800e-6)
        times = [0.1, 0.2, 0.3]
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(20_000), times, seed=77,
                         snapshot_times=times)
        result = run(cfg)
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

    @pytest.mark.parametrize("what", ["sample_times", "snapshot_times"])
    def test_time_step_count_must_fit_int64(self, wide_flow_only, what):
        # At dt = 1 ms, 1e16 s is 1e19 steps, past 2**63 - 1; 1e15 s still fits.
        rx = make_receiver(200e-6, 200e-6)
        times = {"sample_times": [0.01], "snapshot_times": ()}
        with pytest.raises(ValueError, match="2\\*\\*63 steps"):
            sim_config(wide_flow_only, rx, ReleaseSpec.uniform(10), **{**times, what: [1e16]})
        cfg = sim_config(wide_flow_only, rx, ReleaseSpec.uniform(10), **{**times, what: [1e15]})
        assert cfg.n_steps == 10 ** 18

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "grid.t_start=1e300", "--set", "grid.t_stop=1e300",
         "--set", "release.n_tx=1"],
        ["snapshot", "--set", "snapshot.times=1e300", "--set", "release.n_tx=10"],
        # t / dt overflows to inf.
        ["snapshot", "--set", "snapshot.times=1e300", "--set", "sim.time_step=1e-10",
         "--set", "release.n_tx=10"],
    ])
    def test_huge_time_is_config_error(self, tmp_path, argv):
        # In a subprocess with a timeout: a step wrapped to -2**63 would
        # make a snapshot run loop for ever.
        src = str(Path(particles.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "ductflow.cli", *argv, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "configuration error" in done.stderr and "2**63" in done.stderr
        assert "Warning" not in done.stderr
        assert list(tmp_path.rglob("*.csv")) == []

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


class TestGrouping:
    """Runs sharing a stream key step as one state on shared normals."""

    TIMES = np.arange(0, 41) * 1e-3
    SNAPS = [0.02]

    def configs(self, diffusion, n_tx=_BLOCK + 700):
        channel = make_channel(radius=10e-6, diffusion=diffusion)
        near, wide = (make_receiver(10e-6, 20e-6, cphi=cphi) for cphi in (math.pi / 2, math.pi))
        far = make_receiver(10e-6, 40e-6)
        return [sim_config(channel, rx, release, self.TIMES, seed=21, dt=1e-4,
                           snapshot_times=self.SNAPS)
                for rx, release in (((near, far), ReleaseSpec.uniform(n_tx)),
                                    (wide, ReleaseSpec.point(n_tx, 8e-6, 0.3)),
                                    (near, ReleaseSpec.point(n_tx, 6e-6, -0.5)),
                                    (wide, ReleaseSpec.uniform(n_tx)))]

    @staticmethod
    def assert_same(result, reference):
        assert len(result.all_series) == len(reference.all_series)
        for series, expected in zip(result.all_series, reference.all_series):
            assert np.array_equal(series.counts, expected.counts)
        assert result.snapshots.keys() == reference.snapshots.keys()
        for t, cloud in reference.snapshots.items():
            assert np.array_equal(result.snapshots[t], cloud)

    @pytest.mark.parametrize("diffusion", [1e-10, 0.0])
    def test_group_matches_each_run(self, diffusion, several_cpus):
        cfgs = self.configs(diffusion)
        assert len({particles._stream_key(cfg) for cfg in cfgs}) == 1
        alone = [run(cfg) for cfg in cfgs]
        assert all(r.series.counts.sum() > 0 for r in alone)
        for t in (1, 2, 3, 4):
            for result, reference in zip(run_many(cfgs, threads=t), alone):
                self.assert_same(result, reference)

    def test_different_stream_keys_are_not_grouped(self, several_cpus, monkeypatch):
        base = self.configs(1e-10)[:2]
        cfgs = [*base, replace(base[1], seed=22),
                *self.configs(1e-10, n_tx=_BLOCK + 701)[1:2],
                replace(base[1], sample_times=self.TIMES[:-1])]
        alone = [run(cfg) for cfg in cfgs]
        groups = []
        run_block = particles._run_block
        monkeypatch.setattr(particles, "_run_block",
                            lambda group, lo, hi: groups.append(len(group))
                            or run_block(group, lo, hi))
        for result, reference in zip(run_many(cfgs, threads=1), alone):
            self.assert_same(result, reference)
        assert sorted(groups) == [1, 1, 1, 2]

    def test_group_draws_the_normals_of_one_run(self, monkeypatch):
        uniform, point = self.configs(1e-10)[:2]
        calls = []
        draw = particles._draw_normals
        monkeypatch.setattr(particles, "_draw_normals",
                            lambda *args: calls.append(1) or draw(*args))
        run(uniform)
        alone = len(calls)
        calls.clear()
        run_many([uniform, point])
        assert alone > 0 and len(calls) == alone


class TestSnapshots:
    def test_at_release_plane(self, narrow_channel):
        rx = make_receiver(10e-6, 200e-6)
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(500), [0.01],
                         snapshot_times=[0.0])
        result = run(cfg)
        cloud = result.snapshots[0.0]
        assert np.all(cloud[:, 0] == 0.0)
        assert np.all(cloud[:, 1] <= (10e-6) ** 2)

    def test_flow_only_cloud_lies_on_line(self):
        channel = make_channel(radius=10e-6, diffusion=0.0)
        rx = make_receiver(10e-6, 200e-6)
        t = 0.02
        cfg = sim_config(channel, rx, ReleaseSpec.uniform(2000), [t], snapshot_times=[t])
        cloud = run(cfg).snapshots[t]
        a2 = (10e-6) ** 2
        line = a2 * (1.0 - cloud[:, 0] / (2.0 * channel.mean_velocity * t))
        assert np.allclose(cloud[:, 1], line, rtol=1e-9, atol=1e-24)

    def test_dispersion_uniformizes_r2(self, narrow_channel):
        # After long times the cross-wise positions decouple from x and r^2
        # is uniform on [0, a^2].
        rx = make_receiver(10e-6, 800e-6)
        cfg = sim_config(narrow_channel, rx, ReleaseSpec.uniform(1000), [0.8], seed=15,
                         snapshot_times=[0.8])
        cloud = run(cfg).snapshots[0.8]
        u = cloud[:, 1] / (10e-6) ** 2
        ks = stats.kstest(u, "uniform")
        critical_1pct = 1.63 / math.sqrt(u.size)
        assert ks.statistic < critical_1pct

    def test_negative_time_refused(self, narrow_channel):
        with pytest.raises(ValueError, match="snapshot times must be non-negative"):
            sim_config(narrow_channel, make_receiver(10e-6, 200e-6), ReleaseSpec.uniform(10),
                       [0.01], snapshot_times=[0.02, -1e-3])

    def test_duplicates_collapse(self, narrow_channel):
        # Times that snap to one step give one snapshot; order does not matter.
        cfg = sim_config(narrow_channel, make_receiver(10e-6, 200e-6), ReleaseSpec.uniform(10),
                         [0.01], snapshot_times=[0.02, 0.0051, 0.005, 0.02])
        assert cfg.snapshot_steps.tolist() == [5, 20]
        assert np.array_equal(cfg.snapshot_times, [5e-3, 20e-3])
        assert sorted(run(cfg).snapshots) == [5e-3, 20e-3]

    def test_run_reaches_snapshot_after_last_sample(self, narrow_channel):
        cfg = sim_config(narrow_channel, make_receiver(10e-6, 200e-6), ReleaseSpec.uniform(10),
                         [0.01, 0.02], snapshot_times=[0.05])
        assert cfg.n_steps == 50
        assert sim_config(narrow_channel, make_receiver(10e-6, 200e-6),
                          ReleaseSpec.uniform(10), [0.01, 0.02]).n_steps == 20
        assert run(cfg).snapshots[0.05].shape == (10, 2)

    #: SHA-256 of the snapshots (in time order) and of the counts of the run
    #: below: they pin the snapshot path for a config made by ``replace``,
    #: which snaps and sorts the times again.
    SNAPSHOTS_SHA256 = "4477dbd652d78cbeba9a4efbe0f3f789a9cb4813d317ea226d40f56375071549"
    COUNTS_SHA256 = "e4f5c2746d20c2059be2f8b02c00ada7fd055490c96b741f558aa6d82b8acaa8"

    def test_replace_matches_pinned_snapshots(self, narrow_channel):
        cfg = sim_config(narrow_channel, make_receiver(10e-6, 20e-6), ReleaseSpec.uniform(2500),
                         np.arange(0, 21) * 1e-3, seed=2017, dt=1e-4)
        result = run(replace(cfg, snapshot_times=[0.03, 0.0101, 0.01, 0.0]))
        assert sorted(result.snapshots) == [k * 1e-4 for k in (0, 100, 101, 300)]
        digest = hashlib.sha256()
        for t in sorted(result.snapshots):
            digest.update(result.snapshots[t].tobytes())
        assert digest.hexdigest() == self.SNAPSHOTS_SHA256
        assert hashlib.sha256(result.series.counts.tobytes()).hexdigest() == self.COUNTS_SHA256


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
        multi = run(sim_config(channel, self.RECEIVERS, release, self.TIMES,
                               snapshot_times=self.SNAPS), threads=threads)
        assert len(multi.all_series) == len(self.RECEIVERS)
        assert multi.series is multi.all_series[0]
        for rx, series in zip(self.RECEIVERS, multi.all_series):
            single = run(sim_config(channel, rx, release, self.TIMES,
                                    snapshot_times=self.SNAPS), threads=threads)
            assert series.counts.sum() > 0
            assert np.array_equal(series.counts, single.series.counts)
            assert np.array_equal(series.times, single.series.times)
            for t in self.SNAPS:
                assert np.array_equal(multi.snapshots[t], single.snapshots[t])

    def test_empty_release(self, narrow_channel):
        cfg = sim_config(narrow_channel, self.RECEIVERS, ReleaseSpec.uniform(0), self.TIMES,
                         snapshot_times=self.SNAPS)
        result = run(cfg, threads=3)
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
