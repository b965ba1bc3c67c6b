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
import threading
import time
import warnings
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
    rx_area_fraction,
    velocity_at,
)
from ductflow import particles
from ductflow.presets import _sim_for_grid, preset_config
from ductflow.particles import (
    _BLOCK,
    _advance_inplace,
    _draw_normals,
    _initial_block,
    _reflect_inplace,
    _streams,
    run,
)
from conftest import (exit_in_worker, kill_in_worker, make_channel, make_receiver,
                      point_in_receiver, raise_in_worker, unpicklable_in_worker)


def sim_config(channel, receivers, release, n_tx, sample_times, seed=1234, dt=1e-3,
               snapshot_times=()):
    return SimConfig(channel=channel, receivers=receivers, releases=(release,), n_tx=n_tx,
                     time_step=dt, seed=seed, sample_times=sample_times,
                     snapshot_times=snapshot_times)


@pytest.fixture
def several_cpus(monkeypatch):
    """Eight CPUs as far as the engine can tell, so threads > 1 split the ensemble."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


def released(release, hi, radius, seed, lo=0):
    """The positions ``run`` starts particles ``[lo, hi)`` of ``seed`` from."""
    spans, cross, _ = _streams(seed, lo, hi)
    return tuple(row for row, in _initial_block([release], radius, spans, cross))


def walked(release, n, channel, seed, steps, dt=1e-3):
    """Release positions of ``n`` particles and ``(x, y, z)`` after ``steps`` engine steps.

    ``x`` carries the advection only: ``run`` adds the axial noise at the
    sample and snapshot steps.
    """
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
        pos = released(ReleaseSpec.point(150e-6, 0.5), 5, 200e-6, 7)
        x, y, z = pos
        assert np.all(x == 0.0)
        assert np.unique(y).size == 1 and np.unique(z).size == 1
        assert radius(pos)[0] == pytest.approx(150e-6, rel=1e-12)
        assert azimuth(pos)[0] == pytest.approx(0.5, rel=1e-12)

    def test_uniform_release_r2_mean(self):
        n = 100_000
        u = (radius(released(ReleaseSpec.uniform(), n, 1e-5, 99)) / 1e-5) ** 2
        stderr = math.sqrt(1.0 / 12.0 / n)
        assert abs(u.mean() - 0.5) <= 3.0 * stderr
        assert np.all(u <= 1.0)

    def test_uniform_release_band_fraction(self):
        channel = make_channel(radius=200e-6)
        rx = make_receiver(200e-6, 200e-6)
        n = 100_000
        pos = released(ReleaseSpec.uniform(), n, 200e-6, 5)
        inside = point_in_receiver(rx, np.full(n, rx.axial_distance_d),
                                   radius(pos), azimuth(pos), 200e-6)
        frac = rx_area_fraction(channel, rx)
        stderr = math.sqrt(frac * (1.0 - frac) / n)
        assert abs(inside.mean() - frac) <= 3.0 * stderr

    def test_blocks_concatenate_to_one_draw(self):
        # Partition independence: runs of whole blocks draw exactly the
        # release positions and step normals of the one-partition draw.
        n = 3 * _BLOCK + 77
        release = ReleaseSpec.uniform()
        whole = released(release, n, 1e-5, 42)
        head = released(release, 2 * _BLOCK, 1e-5, 42)
        tail = released(release, n, 1e-5, 42, 2 * _BLOCK)
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
        x0, y0, z0 = released(ReleaseSpec.uniform(), 2000, 200e-6, 3)
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
        before, after = walked(ReleaseSpec.point(0.0, 0.0), n, channel, 12, 1, dt)
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

    def test_state_of_another_layout_keeps_its_wall(self):
        # A column gather such as ``x[:, keep]`` returns an F-ordered array,
        # whose flat reshape is a copy: the wall folds must not be lost on it.
        channel = make_channel(radius=1e-5, diffusion=1e-10, mean_velocity=0.0)
        a, n = channel.radius_a, 500
        y, z = (np.asfortranarray(np.repeat(row[None], 2, axis=0))
                for row in released(ReleaseSpec.uniform(), n, a, 8)[1:])
        x, r2 = np.zeros_like(y), y * y + z * z
        normals = np.random.default_rng(8).standard_normal((2, n))
        # One step of sd a/2 per axis takes most particles past the wall.
        dt = a * a / (8.0 * channel.diffusion_D)
        assert not y.flags.c_contiguous
        try:
            _advance_inplace(x, y, z, r2, channel, dt, normals)
        except ValueError:
            return
        assert np.all(r2 <= a * a * (1.0 + 4.0 * np.finfo(float).eps))

    def test_wall_keeps_cross_section_uniform(self):
        # Zero-flux sanity: a uniform disk stays uniform in r^2 under many
        # diffusive steps with reflection.
        channel = make_channel(radius=1e-5, diffusion=1e-10, mean_velocity=0.0)
        cfg = sim_config(channel, (make_receiver(1e-5, 200e-6),), ReleaseSpec.uniform(), 20_000,
                         [0.05], seed=4, snapshot_times=[0.05])
        u = run(cfg).snapshots[0, 0][:, 1] / (1e-5) ** 2
        ks = stats.kstest(u, "uniform")
        assert ks.pvalue > 0.01

    def test_azimuthal_symmetry(self):
        channel = make_channel(radius=1e-5, diffusion=1e-10)
        _, pos = walked(ReleaseSpec.uniform(), 20_000, channel, 2, 20)
        counts, _ = np.histogram(azimuth(pos), bins=16, range=(-math.pi, math.pi))
        chi = stats.chisquare(counts)
        assert chi.pvalue > 0.01

    def test_flow_only_advection_matches_profile(self):
        # D = 0: every step adds the same u(r) dt, so x = u(r) t after any
        # number of steps, to the rounding of the step sum.
        channel = make_channel(radius=10e-6, diffusion=0.0)
        t = 0.4
        cfg = sim_config(channel, (make_receiver(10e-6, 200e-6),), ReleaseSpec.uniform(), 3000,
                         [0.1, t], dt=1e-3, snapshot_times=[t])
        cloud = run(cfg).snapshots[0, 0]
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
            cfg = sim_config(channel, (make_receiver(10e-6, 200e-6),), ReleaseSpec.uniform(), n,
                             times, seed=31, snapshot_times=[0.3])
            x = run(cfg).snapshots[0, 0][:, 0]
            stat = np.sum(x * x) / (2.0 * channel.diffusion_D * 0.3)
            assert stats.chi2.ppf(5e-4, n) <= stat <= stats.chi2.ppf(1.0 - 5e-4, n)

    def test_sample_grid_leaves_cross_section_alone(self):
        # The axial draws come from their own streams: a dense or a sparse
        # sample grid gives the same r^2 at a shared snapshot step.
        channel = make_channel(radius=10e-6, diffusion=1e-10)
        rx = make_receiver(10e-6, 20e-6)
        clouds = [run(sim_config(channel, (rx,), ReleaseSpec.uniform(), _BLOCK + 500, times,
                                 seed=6, snapshot_times=[0.05]), threads=2).snapshots[0, 0]
                  for times in ([0.08], np.arange(1, 81) * 1e-3)]
        assert np.array_equal(clouds[0][:, 1], clouds[1][:, 1])
        assert not np.array_equal(clouds[0][:, 0], clouds[1][:, 0])


class TestRun:
    def test_flow_only_uniform_matches_closed_form(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        times = np.arange(1, 301) * 1e-3
        cfg = sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), 50_000, times, seed=7)
        counts = run(cfg).counts[0, 0]
        p = cir_flow_uniform(wide_flow_only, rx, cfg.sample_times)
        bound = 3.0 * np.sqrt(p * (1.0 - p) / cfg.n_tx)
        inside = np.abs(counts / cfg.n_tx - p) <= bound + 1e-12
        assert inside.mean() >= 0.99

    def test_flow_only_point_release_window(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        release = ReleaseSpec.point(150e-6, 0.0)
        times = np.arange(1, 401) * 1e-3
        cfg = sim_config(wide_flow_only, (rx,), release, 10_000, times)
        counts, times = run(cfg).counts[0, 0], cfg.sample_times
        window = flow_point_window(wide_flow_only, rx, release)
        full = np.flatnonzero(counts == cfg.n_tx)
        assert abs(times[full[0]] - window[0]) <= cfg.time_step
        assert abs(times[full[-1]] - window[1]) <= cfg.time_step
        outside = (times < window[0] - cfg.time_step) | \
                  (times > window[1] + cfg.time_step)
        assert np.all(counts[outside] == 0)

    def test_empty_release(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        cfg = sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), 0, [0.01, 0.02])
        counts = run(cfg).counts[0, 0]
        assert np.all(counts == 0)

    def test_deterministic_across_thread_counts(self, narrow_channel, several_cpus):
        rx = make_receiver(10e-6, 200e-6)
        times = np.arange(1, 60) * 2e-3
        cfg = sim_config(narrow_channel, (rx,), ReleaseSpec.uniform(), 5_000, times,
                         snapshot_times=[0.05])
        results = [run(cfg, threads=t) for t in (1, 2, 7)]
        for other in results[1:]:
            assert np.array_equal(results[0].counts[0, 0], other.counts[0, 0])
            assert np.array_equal(results[0].snapshots, other.snapshots)

    @pytest.mark.parametrize("n_tx", [_BLOCK // 3, 3 * _BLOCK + 77])
    def test_counts_identical_across_partitions(self, narrow_channel, several_cpus, n_tx):
        # Below one block there is one partition whatever the thread count;
        # a ragged last block must not shift any other block's streams.
        rx, times = make_receiver(10e-6, 20e-6), np.arange(0, 41) * 1e-3
        cfgs = [sim_config(narrow_channel, (rx,), release, n, times, seed=seed, dt=1e-4,
                           snapshot_times=[0.02])
                for release, n, seed in ((ReleaseSpec.uniform(), n_tx, 1234),
                                         (ReleaseSpec.uniform(), 0, 1234),
                                         (ReleaseSpec.point(8e-6, 0.3), _BLOCK + 5, 99))]
        alone = [run(cfg) for cfg in cfgs]
        assert alone[0].counts[0, 0].sum() > 0
        for t in (1, 2, 3, 4):
            for cfg, reference in zip(cfgs, alone):
                result = run(cfg, threads=t)
                assert np.array_equal(result.counts[0, 0], reference.counts[0, 0])
                assert np.array_equal(result.snapshots, reference.snapshots)

    # Every block-aligned cut of 3 or 4 full blocks and a ragged last one.
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(full=st.integers(3, 4), ragged=st.integers(1, _BLOCK - 1),
           cuts=st.sets(st.integers(1, 4)), seed=st.integers(0, 2 ** 64 - 1))
    def test_counts_independent_of_cut_points(self, full, ragged, cuts, seed):
        n_tx = full * _BLOCK + ragged
        cfg = sim_config(make_channel(radius=10e-6), (make_receiver(10e-6, 20e-6),),
                         ReleaseSpec.uniform(), n_tx, np.arange(1, 41) * 1e-3, seed=seed,
                         snapshot_times=[0.02])
        bounds = [0, *sorted(c * _BLOCK for c in cuts if c <= full), n_tx]
        parts = [particles._run_block(cfg, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        counts, snaps = particles._run_block(cfg, 0, n_tx)
        assert counts.sum() > 0
        assert np.array_equal(sum(c for c, _ in parts), counts)
        assert snaps.shape == (1, 1, n_tx, 2)
        assert np.array_equal(np.concatenate([s for _, s in parts], axis=2), snaps)

    def test_workers_capped_at_cpu_count(self, narrow_channel, monkeypatch):
        # One partition, and one worker, per requested thread, but no more
        # than there are CPUs or partitions; one worker runs inline, with no
        # fork.  The partitions that would be forked run in this process.
        forks, calls = [], []
        run_block = particles._run_block
        monkeypatch.setattr(particles, "_run_block",
                            lambda *args: calls.append(args) or run_block(*args))
        monkeypatch.setattr(particles, "_fork_partitions",
                            lambda config, parts: forks.append(parts)
                            or [particles._run_block(config, *part) for part in parts])
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for n_tx, parts in ((64, [1, 1, 1]), (10 * _BLOCK + 5, [1, 2, 4])):
            cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),),
                             ReleaseSpec.uniform(), n_tx, np.arange(1, 21) * 1e-3)
            counts, seen = [], []
            for t in (1, 2, 64):
                forks.clear()
                calls.clear()
                counts.append(run(cfg, threads=t).counts[0, 0])
                workers = len(forks[0]) if forks else 1
                seen.append((workers, len(calls)))
                assert len(forks) == (workers > 1)
            assert seen == [(k, k) for k in parts]
            assert all(np.array_equal(c, counts[0]) for c in counts)

    @pytest.mark.parametrize("fault,error,match", [
        pytest.param(raise_in_worker, RuntimeError, "^worker failed$",
                     id="raise_in_worker-RuntimeError"),
        pytest.param(exit_in_worker, RuntimeError, "exited with status 1 and no result",
                     id="exit_in_worker-RuntimeError"),
        pytest.param(kill_in_worker, RuntimeError, "killed by SIGKILL",
                     id="kill_in_worker-RuntimeError"),
        pytest.param(unpicklable_in_worker, RuntimeError,
                     r"raised Unpicklable: worker failed \(cannot be pickled\)",
                     id="unpicklable_in_worker-RuntimeError")])
    def test_worker_failure_raises(self, narrow_channel, several_cpus, monkeypatch,
                                   fault, error, match):
        # Forked workers inherit the patched module.
        monkeypatch.setattr(particles, "_run_block", fault)
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),),
                         ReleaseSpec.uniform(), 2 * _BLOCK, np.arange(1, 21) * 1e-3)
        with pytest.raises(error, match=match):
            run(cfg, threads=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_outlives_a_pooled_run(self, narrow_channel, several_cpus):
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),),
                         ReleaseSpec.uniform(), 2 * _BLOCK, np.arange(1, 21) * 1e-3)
        assert np.array_equal(run(cfg, threads=2).counts[0, 0],
                              run(cfg).counts[0, 0])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("error,failing", [
        pytest.param(error, lo, id=error.__name__ + suffix)
        for lo, suffix in [(0, ""), (_BLOCK, "-second")]
        for error in (RuntimeError, KeyboardInterrupt)])
    def test_failure_kills_the_other_workers(self, narrow_channel, several_cpus, monkeypatch,
                                             error, failing):
        # One share fails at once while the other would run for a minute:
        # the parent raises the failure as soon as it comes, whichever share
        # it is, then kills and reaps the other worker instead of waiting.
        def fail_or_hang(config, lo, hi):
            if lo == failing:
                raise error("share failed")
            time.sleep(60)

        monkeypatch.setattr(particles, "_run_block", fail_or_hang)
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),),
                         ReleaseSpec.uniform(), 2 * _BLOCK, np.arange(1, 21) * 1e-3)
        start = time.monotonic()
        with pytest.raises(error, match="share failed"):
            run(cfg, threads=2)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_result_larger_than_a_pipe_buffer(self, narrow_channel, several_cpus):
        # The second worker's share is 3 blocks, so each of its snapshots
        # alone is 96 KiB, more than the 64 KiB a Linux pipe buffers.
        n = 5 * _BLOCK
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),), ReleaseSpec.uniform(), n,
                         np.arange(1, 21) * 1e-3, snapshot_times=[0.005, 0.02])
        assert particles._partitions(cfg, 2) == [(0, 2 * _BLOCK), (2 * _BLOCK, n)]
        assert (n - 2 * _BLOCK) * 2 * 8 > 64 * 1024
        one, two = run(cfg), run(cfg, threads=2)
        assert two.counts[0, 0].tobytes() == one.counts[0, 0].tobytes()
        assert two.snapshots.shape == one.snapshots.shape == (2, 1, n, 2)
        assert two.snapshots.tobytes() == one.snapshots.tobytes()

    def test_pooled_run_starts_no_thread(self, narrow_channel, several_cpus, monkeypatch):
        # A thread alive at a fork is what Python 3.12 and later warn about.
        # Forked workers inherit the patch, so their threads are refused too.
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),),
                         ReleaseSpec.uniform(), 2 * _BLOCK, np.arange(1, 21) * 1e-3)
        assert np.array_equal(run(cfg, threads=2).counts[0, 0],
                              run(cfg).counts[0, 0])

    def test_fork_emits_no_warning(self, narrow_channel, several_cpus):
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),),
                         ReleaseSpec.uniform(), 2 * _BLOCK, np.arange(1, 21) * 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = run(cfg, threads=2).counts[0, 0]
        assert np.array_equal(counts, run(cfg).counts[0, 0])

    def test_mean_axial_position_tracks_mean_velocity(self, narrow_channel):
        rx = make_receiver(10e-6, 800e-6)
        times = [0.1, 0.2, 0.3]
        cfg = sim_config(narrow_channel, (rx,), ReleaseSpec.uniform(), 20_000, times, seed=77,
                         snapshot_times=times)
        result = run(cfg)
        for t, cloud in zip(cfg.snapshot_times, result.snapshots):
            x = cloud[0][:, 0]
            stderr = x.std() / math.sqrt(x.size)
            assert abs(x.mean() - narrow_channel.mean_velocity * t) <= 3.0 * stderr

    def test_sample_times_snap_to_steps(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        cfg = sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), 10,
                         [0.0101, 0.0199], dt=1e-3)
        assert np.allclose(cfg.sample_times, [0.010, 0.020])
        with pytest.raises(ValueError):
            sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), 10,
                       [0.0101, 0.0102], dt=1e-3)  # collide on the same step

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1e-3])
    def test_time_step_must_be_positive_and_finite(self, wide_flow_only, dt):
        with pytest.raises(ValueError, match="time step must be positive and finite"):
            sim_config(wide_flow_only, (make_receiver(200e-6, 200e-6),), ReleaseSpec.uniform(), 10,
                       [0.01], dt=dt)

    def test_particle_count_and_seed_are_integers(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        with pytest.raises(ValueError, match="particle count must be non-negative"):
            sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), -1, [0.01])
        assert sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), 0, [0.01]).n_tx == 0
        for n_tx, seed in ((2500.5, 1), (10, 1.5)):
            with pytest.raises(ValueError, match="must be an integer"):
                sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), n_tx, [0.01], seed=seed)
        cfg = sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), np.int64(10), [0.01],
                         seed=np.uint64(3))
        assert type(cfg.n_tx) is int and type(cfg.seed) is int

    @pytest.mark.parametrize("what", ["sample_times", "snapshot_times"])
    def test_time_step_count_must_fit_int64(self, wide_flow_only, what):
        # At dt = 1 ms, 1e16 s is 1e19 steps, past 2**63 - 1; 1e15 s still fits.
        rx = make_receiver(200e-6, 200e-6)
        times = {"sample_times": [0.01], "snapshot_times": ()}
        with pytest.raises(ValueError, match="2\\*\\*63 steps"):
            sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), 10,
                       **{**times, what: [1e16]})
        cfg = sim_config(wide_flow_only, (rx,), ReleaseSpec.uniform(), 10,
                         **{**times, what: [1e15]})
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

    # SHA-256 of the counts' bytes at the default k and at k = inf (nothing
    # retires): they pin the random streams, the retirement and the receiver
    # test for D > 0 and D = 0.  Samples start at t = 0, so step 0 is
    # observed too.  A change to the streams on purpose updates them.
    COUNTS_SHA256 = {
        1e-10: ("88162d9eb15b2892e0db65932cde45a9b9f5c62fdf589ab55ecdf05653c30e54",
                "9a30a916e7de4aaac2e67acd8a8077f24cb1330aba4c47781b51edfbed7ace02"),
        0.0: ("115b2f5c8f0182976d2f056a730dd5ddf652b10339cca57f80e94f3eb56d032a",
              "115b2f5c8f0182976d2f056a730dd5ddf652b10339cca57f80e94f3eb56d032a"),
    }

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("diffusion", [1e-10, 0.0])
    def test_pinned_counts(self, diffusion, threads, several_cpus, monkeypatch):
        channel = make_channel(radius=10e-6, diffusion=diffusion)
        cfg = sim_config(channel, (make_receiver(10e-6, 20e-6),), ReleaseSpec.uniform(), 1500,
                         np.arange(0, 41) * 1e-3, seed=2017, dt=1e-4)
        for sigmas, expected in zip((particles._RETIRE_SIGMAS, math.inf),
                                    self.COUNTS_SHA256[diffusion]):
            monkeypatch.setattr(particles, "_RETIRE_SIGMAS", sigmas)
            counts = run(cfg, threads=threads).counts[0, 0]
            assert counts.dtype == np.int64 and counts.sum() > 0
            assert hashlib.sha256(counts.tobytes()).hexdigest() == expected


class TestGrouping:
    """The releases of one config step as one state on shared normals."""

    TIMES = np.arange(0, 41) * 1e-3
    SNAPS = [0.02]

    def config(self, diffusion, n_tx=_BLOCK + 700):
        """Four releases, the uniform one twice, and the three receivers ``near, far, wide``."""
        channel = make_channel(radius=10e-6, diffusion=diffusion)
        near, wide = (make_receiver(10e-6, 20e-6, cphi=cphi) for cphi in (math.pi / 2, math.pi))
        far = make_receiver(10e-6, 40e-6)
        return SimConfig(channel=channel, receivers=(near, far, wide),
                         releases=(ReleaseSpec.uniform(), ReleaseSpec.point(8e-6, 0.3),
                                   ReleaseSpec.point(6e-6, -0.5), ReleaseSpec.uniform()),
                         n_tx=n_tx, time_step=1e-4, seed=21, sample_times=self.TIMES,
                         snapshot_times=self.SNAPS)

    @pytest.mark.parametrize("diffusion", [1e-10, 0.0])
    def test_group_matches_each_run(self, diffusion, several_cpus, monkeypatch):
        # With D > 0 a retired index frees its normals for the indices after
        # it, and which indices retire depends on every row and receiver; so
        # the match is exact only when nothing retires (k = inf).
        if diffusion > 0.0:
            monkeypatch.setattr(particles, "_RETIRE_SIGMAS", math.inf)
        cfg = self.config(diffusion)
        alone = {(g, k): run(replace(cfg, releases=(release,), receivers=(rx,)))
                 for g, release in enumerate(cfg.releases) for k, rx in enumerate(cfg.receivers)}
        # Each release seen by a receiver: (release, receiver) pairs that count.
        assert all(alone[pair].counts.sum() > 0 for pair in ((0, 0), (1, 2), (2, 0), (3, 2)))
        for t in (1, 2, 3, 4):
            result = run(cfg, threads=t)
            assert result.counts.shape == (4, 3, self.TIMES.size)
            for (g, k), reference in alone.items():
                assert np.array_equal(result.counts[g, k], reference.counts[0, 0])
                assert np.array_equal(result.snapshots[:, g], reference.snapshots[:, 0])

    def test_group_draws_the_normals_of_one_run(self, monkeypatch):
        cfg = self.config(1e-10)
        calls = []
        draw = particles._draw_normals
        monkeypatch.setattr(particles, "_draw_normals",
                            lambda *args: calls.append(1) or draw(*args))
        run(replace(cfg, releases=cfg.releases[:1]))
        alone = len(calls)
        for rows in (2, 3, 4):
            calls.clear()
            run(replace(cfg, releases=cfg.releases[:rows]))
            assert alone > 0 and len(calls) == alone

    def test_no_release_refused(self):
        with pytest.raises(ValueError, match="at least one release"):
            replace(self.config(1e-10), releases=())

    def test_every_release_is_validated(self):
        cfg = self.config(1e-10)
        with pytest.raises(ValueError, match="release radius"):
            replace(cfg, releases=(cfg.releases[0], ReleaseSpec.point(11e-6)))


def small_duct_pass(n_tx, snapshot_times=(), diffusion="1e-10"):
    """The ``cir_small_duct`` preset's one engine pass (both releases, both receivers) at ``n_tx``."""
    cfg = preset_config("cir_small_duct", seed=5, overrides={
        "release.n_tx": str(n_tx), "channel.diffusion": diffusion})
    return _sim_for_grid(cfg, tuple(cfg.receiver(distance=d) for d in cfg["cir.distances"]),
                         tuple(cfg.release(kind) for kind in ("uniform", "point")),
                         cfg.time_grid(), snapshot_times)


class TestRetirement:
    """Particles that no receiver can count again leave the state at sample steps."""

    def test_retired_particles_are_never_counted_later(self, monkeypatch):
        # Coupled paths: run with nothing retired (k = inf) and apply the
        # k = 8 rule to the same paths at each sample step; a particle it
        # retires must lie in no receiver at any later sample step.
        sigmas = particles._RETIRE_SIGMAS
        monkeypatch.setattr(particles, "_RETIRE_SIGMAS", math.inf)
        cfg = small_duct_pass(1000)
        per_step = len(cfg.releases) * len(cfg.receivers)
        retired = np.zeros(cfg.n_tx, dtype=bool)
        xmin = np.full(cfg.n_tx, np.inf)
        counted_late = []
        hits = particles._hits

        def spy(rx, radius_a, x, y, z, r2):
            inside = point_in_receiver(rx, x, np.sqrt(r2), np.arctan2(z, y), radius_a)
            counted_late.append(int(np.count_nonzero(inside & retired)))
            np.minimum(xmin, x, out=xmin)
            if len(counted_late) % per_step == 0:  # every row and receiver of this step seen
                step = cfg.sample_steps[len(counted_late) // per_step - 1]
                retired[xmin > particles._retirement_line(cfg, step, sigmas)] = True
                xmin[:] = np.inf
            return hits(rx, radius_a, x, y, z, r2)

        monkeypatch.setattr(particles, "_hits", spy)
        particles._run_block(cfg, 0, cfg.n_tx)
        assert len(counted_late) == per_step * cfg.sample_steps.size
        assert retired.mean() > 0.9
        assert sum(counted_late) == 0

    @staticmethod
    def stepped(monkeypatch, cfg):
        """The counts of ``cfg`` and the particle-steps the engine took for them."""
        widths = []
        advance = particles._advance_inplace
        monkeypatch.setattr(particles, "_advance_inplace",
                            lambda x, *args: widths.append(x.shape[-1]) or advance(x, *args))
        counts, _ = particles._run_block(cfg, 0, cfg.n_tx)
        # Once every particle is retired the pass stops stepping.
        assert len(widths) <= cfg.n_steps
        return counts, sum(widths)

    def test_retirement_skips_particle_steps(self, monkeypatch):
        # The pass requests n_tx particle-steps a step; about 0.69 of them
        # move particles that a receiver can still count.
        cfg = small_duct_pass(1000)
        assert self.stepped(monkeypatch, cfg)[1] <= 0.75 * cfg.n_tx * cfg.n_steps
        monkeypatch.setattr(particles, "_RETIRE_SIGMAS", math.inf)
        assert self.stepped(monkeypatch, cfg)[1] == cfg.n_tx * cfg.n_steps

    def test_flow_only_retirement_is_exact(self, monkeypatch):
        # With D = 0 no particle ever moves upstream and no normal is drawn, so
        # retiring cuts the work and moves no count of either release.
        cfg = small_duct_pass(1000, diffusion="0")
        counts, steps = self.stepped(monkeypatch, cfg)
        assert steps <= 0.8 * cfg.n_tx * cfg.n_steps  # 0.78: the wall layer never arrives
        monkeypatch.setattr(particles, "_RETIRE_SIGMAS", math.inf)
        unretired, steps = self.stepped(monkeypatch, cfg)
        assert steps == cfg.n_tx * cfg.n_steps
        assert np.all(counts.sum(axis=-1) > 0)
        assert np.array_equal(counts, unretired)

    @pytest.mark.parametrize("last_snapshot", [1.0, 1.4, 1.6])
    def test_snapshots_hold_every_particle(self, monkeypatch, last_snapshot):
        # Nothing retires before the last snapshot step: every snapshot holds
        # all n_tx particles, bit for bit as with retirement off.
        cfg = small_duct_pass(600, snapshot_times=[0.2, last_snapshot])
        result = run(cfg)
        monkeypatch.setattr(particles, "_RETIRE_SIGMAS", math.inf)
        unretired = run(cfg)
        assert unretired.snapshots.shape == (2, 2, cfg.n_tx, 2)
        assert np.array_equal(result.snapshots, unretired.snapshots)
        # Past the last sample step, nothing retires at all.
        assert np.array_equal(result.counts, unretired.counts) == (last_snapshot >= 1.4)

    @pytest.mark.parametrize("diffusion", ["1e-10", "0"])
    def test_pass_without_receivers_stops_at_its_last_snapshot(self, monkeypatch, diffusion):
        # Nothing can be counted, so every particle retires at the first
        # sample step from the last snapshot on, and the pass stops there.
        cfg = replace(small_duct_pass(600, snapshot_times=[0.2, 0.5], diffusion=diffusion),
                      receivers=())
        assert 500 in cfg.sample_steps and cfg.n_steps > 500
        counts, steps = self.stepped(monkeypatch, cfg)
        assert counts.shape == (2, 0, cfg.sample_steps.size)
        assert steps == cfg.n_tx * 500
        assert run(cfg).snapshots.shape == (2, 2, cfg.n_tx, 2)

    def test_pass_without_observations_takes_no_step(self, monkeypatch):
        cfg = replace(small_duct_pass(600), sample_times=())
        assert cfg.n_steps == 0
        counts, steps = self.stepped(monkeypatch, cfg)
        assert counts.shape == (2, 2, 0) and steps == 0
        assert run(cfg).snapshots.shape == (0, 2, cfg.n_tx, 2)

    def test_empty_release_with_retirement(self, narrow_channel):
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),), ReleaseSpec.uniform(), 0,
                         np.arange(0, 41) * 1e-3, dt=1e-4)
        counts = run(cfg, threads=2).counts
        assert counts.shape == (1, 1, 41) and not counts.any()


class TestSnapshots:
    def test_at_release_plane(self, narrow_channel):
        rx = make_receiver(10e-6, 200e-6)
        cfg = sim_config(narrow_channel, (rx,), ReleaseSpec.uniform(), 500, [0.01],
                         snapshot_times=[0.0])
        result = run(cfg)
        cloud = result.snapshots[0, 0]
        assert np.all(cloud[:, 0] == 0.0)
        assert np.all(cloud[:, 1] <= (10e-6) ** 2)

    def test_flow_only_cloud_lies_on_line(self):
        channel = make_channel(radius=10e-6, diffusion=0.0)
        rx = make_receiver(10e-6, 200e-6)
        t = 0.02
        cfg = sim_config(channel, (rx,), ReleaseSpec.uniform(), 2000, [t], snapshot_times=[t])
        cloud = run(cfg).snapshots[0, 0]
        a2 = (10e-6) ** 2
        line = a2 * (1.0 - cloud[:, 0] / (2.0 * channel.mean_velocity * t))
        assert np.allclose(cloud[:, 1], line, rtol=1e-9, atol=1e-24)

    def test_dispersion_uniformizes_r2(self, narrow_channel):
        # After long times the cross-wise positions decouple from x and r^2
        # is uniform on [0, a^2].
        rx = make_receiver(10e-6, 800e-6)
        cfg = sim_config(narrow_channel, (rx,), ReleaseSpec.uniform(), 1000, [0.8], seed=15,
                         snapshot_times=[0.8])
        cloud = run(cfg).snapshots[0, 0]
        u = cloud[:, 1] / (10e-6) ** 2
        ks = stats.kstest(u, "uniform")
        critical_1pct = 1.63 / math.sqrt(u.size)
        assert ks.statistic < critical_1pct

    @pytest.mark.parametrize("dt,times", [(1e-3, [0.57, 0.7]), (0.1, [0.3])])
    def test_snapshots_align_with_snapshot_times(self, dt, times):
        # Snapped times need not equal the requested ones (700 steps of 1 ms
        # are 0.7000000000000001 s), so snapshots go by position, as counts
        # do: snapshots[i] is the cloud at snapshot_times[i].  With D = 0,
        # x = u(r) t at that time.
        channel = make_channel(radius=10e-6, diffusion=0.0)
        cfg = sim_config(channel, (make_receiver(10e-6, 200e-6),), ReleaseSpec.uniform(), 500,
                         [dt], dt=dt, snapshot_times=times)
        assert cfg.snapshot_times.tolist() != times
        result = run(cfg)
        assert result.snapshots.shape == (len(times), 1, 500, 2)
        for t, cloud in zip(cfg.snapshot_times, result.snapshots):
            u = 2.0 * channel.mean_velocity * (1.0 - cloud[0, :, 1] / (10e-6) ** 2)
            np.testing.assert_allclose(cloud[0, :, 0], u * t, rtol=1e-12, atol=0.0)

    def test_empty_release_without_receivers(self, narrow_channel, several_cpus):
        cfg = sim_config(narrow_channel, (), ReleaseSpec.uniform(), 0, (),
                         snapshot_times=[0.01, 0.02])
        result = run(cfg, threads=2)
        assert result.counts.shape == (1, 0, 0)
        assert result.snapshots.shape == (2, 1, 0, 2)

    def test_negative_time_refused(self, narrow_channel):
        with pytest.raises(ValueError, match="snapshot times must be non-negative"):
            sim_config(narrow_channel, (make_receiver(10e-6, 200e-6),), ReleaseSpec.uniform(),
                       10, [0.01], snapshot_times=[0.02, -1e-3])

    def test_duplicates_collapse(self, narrow_channel):
        # Times that snap to one step give one snapshot; order does not matter.
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 200e-6),), ReleaseSpec.uniform(),
                         10, [0.01], snapshot_times=[0.02, 0.0051, 0.005, 0.02])
        assert cfg.snapshot_steps.tolist() == [5, 20]
        assert np.array_equal(cfg.snapshot_times, [5e-3, 20e-3])
        assert run(cfg).snapshots.shape == (2, 1, 10, 2)

    def test_run_reaches_snapshot_after_last_sample(self, narrow_channel):
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 200e-6),), ReleaseSpec.uniform(),
                         10, [0.01, 0.02], snapshot_times=[0.05])
        assert cfg.n_steps == 50
        assert sim_config(narrow_channel, (make_receiver(10e-6, 200e-6),),
                          ReleaseSpec.uniform(), 10, [0.01, 0.02]).n_steps == 20
        assert run(cfg).snapshots.shape == (1, 1, 10, 2)

    #: SHA-256 of the snapshots (in time order) and of the counts of the run
    #: below: they pin the snapshot path for a config made by ``replace``,
    #: which snaps and sorts the times again.
    SNAPSHOTS_SHA256 = "4477dbd652d78cbeba9a4efbe0f3f789a9cb4813d317ea226d40f56375071549"
    COUNTS_SHA256 = "e4f5c2746d20c2059be2f8b02c00ada7fd055490c96b741f558aa6d82b8acaa8"

    def test_replace_matches_pinned_snapshots(self, narrow_channel):
        cfg = sim_config(narrow_channel, (make_receiver(10e-6, 20e-6),), ReleaseSpec.uniform(),
                         2500, np.arange(0, 21) * 1e-3, seed=2017, dt=1e-4)
        cfg = replace(cfg, snapshot_times=[0.03, 0.0101, 0.01, 0.0])
        assert cfg.snapshot_times.tolist() == [k * 1e-4 for k in (0, 100, 101, 300)]
        result = run(cfg)
        digest = hashlib.sha256()
        for cloud in result.snapshots:
            digest.update(cloud[0].tobytes())
        assert digest.hexdigest() == self.SNAPSHOTS_SHA256
        counts = result.counts[0, 0]
        assert hashlib.sha256(counts.tobytes()).hexdigest() == self.COUNTS_SHA256


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
        release = ReleaseSpec.uniform()
        multi_cfg = sim_config(channel, self.RECEIVERS, release, 3000, self.TIMES,
                               snapshot_times=self.SNAPS)
        multi = run(multi_cfg, threads=threads)
        assert len(multi.counts[0]) == len(self.RECEIVERS)
        for rx, counts in zip(self.RECEIVERS, multi.counts[0]):
            single_cfg = sim_config(channel, (rx,), release, 3000, self.TIMES,
                                    snapshot_times=self.SNAPS)
            single = run(single_cfg, threads=threads)
            assert counts.sum() > 0
            assert np.array_equal(counts, single.counts[0, 0])
            assert np.array_equal(multi_cfg.sample_times, single_cfg.sample_times)
            assert np.array_equal(multi.snapshots, single.snapshots)

    def test_empty_release(self, narrow_channel):
        cfg = sim_config(narrow_channel, self.RECEIVERS, ReleaseSpec.uniform(), 0, self.TIMES,
                         snapshot_times=self.SNAPS)
        result = run(cfg, threads=3)
        assert len(result.counts[0]) == len(self.RECEIVERS)
        assert cfg.n_tx == 0
        for counts in result.counts[0]:
            assert np.array_equal(counts, np.zeros(self.TIMES.size, dtype=np.int64))
        assert result.snapshots.shape == (len(self.SNAPS), 1, 0, 2)

    def test_single_receiver_gives_one_series(self, narrow_channel):
        rx = self.RECEIVERS[0]
        cfg = sim_config(narrow_channel, (rx,), ReleaseSpec.uniform(), 10, self.TIMES)
        assert cfg.receivers == (rx,)
        assert len(run(cfg).counts[0]) == 1

    def test_every_receiver_is_validated(self, narrow_channel):
        too_deep = ReceiverVolume(axial_distance_d=200e-6, extent_cx=5e-6,
                                  extent_cr=20e-6, extent_cphi=math.pi / 2)
        with pytest.raises(ValueError):
            sim_config(narrow_channel, (self.RECEIVERS[0], too_deep),
                       ReleaseSpec.uniform(), 10, self.TIMES)
        # No receiver at all is a valid pass that counts nothing.
        cfg = sim_config(narrow_channel, (), ReleaseSpec.uniform(), 10, self.TIMES)
        assert cfg.receivers == ()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, narrow_channel, threads):
        cfg = sim_config(narrow_channel, (self.RECEIVERS[0],), ReleaseSpec.uniform(), 10,
                         self.TIMES)
        with pytest.raises(ValueError, match="threads"):
            run(cfg, threads=threads)
