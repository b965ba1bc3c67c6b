"""Closed-form impulse responses, peak guidelines, and quadrature oracles."""

import math

import numpy as np
import pytest

from ductflow import (
    DispersionModel,
    FlowModel,
    ReceiverVolume,
    ReleaseSpec,
    cir_dispersion,
    cir_flow_point,
    cir_flow_uniform,
    dispersion_peak_time,
    dispersion_peak_value,
    effective_diffusion,
    flow_point_window,
    flow_transit_times,
    oracle_cir_dispersion,
    oracle_cir_flow,
)
from conftest import make_channel, make_receiver


def random_flow_setup(rng):
    """Random duct + receiver with positive flow, for property sweeps."""
    a = 10.0 ** rng.uniform(-5.2, -3.3)
    cr = a * rng.uniform(0.1, 1.0)
    cphi = rng.uniform(0.1, 1.0) * 2.0 * math.pi
    cx = a * rng.uniform(0.2, 2.0)
    d = cx / 2 + a * 10.0 ** rng.uniform(0.0, 2.0)
    v = 10.0 ** rng.uniform(-4.0, -2.0)
    channel = make_channel(radius=a, diffusion=0.0, mean_velocity=v)
    rx = ReceiverVolume(axial_distance_d=d, extent_cx=cx, extent_cr=cr, extent_cphi=cphi)
    return channel, rx


class TestEffectiveDiffusion:
    def test_narrow_duct_reference_value(self, narrow_channel):
        deff = effective_diffusion(narrow_channel)
        assert deff == pytest.approx(2.0933e-8, rel=1e-4)

    def test_no_flow_means_no_enhancement(self):
        channel = make_channel(mean_velocity=0.0)
        assert effective_diffusion(channel) == channel.diffusion_D

    def test_wide_duct_value(self, wide_channel):
        assert effective_diffusion(wide_channel) == pytest.approx(8.3334e-6, rel=1e-4)

    def test_undefined_without_diffusion(self, wide_flow_only):
        with pytest.raises(ValueError):
            effective_diffusion(wide_flow_only)

    def test_exceeds_d_and_grows_with_peclet(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = 10.0 ** rng.uniform(-12, -9)
            v = 10.0 ** rng.uniform(-4, -2)
            a = 10.0 ** rng.uniform(-5, -3)
            channel = make_channel(a, d, v)
            assert effective_diffusion(channel) > d
            faster = make_channel(a, d, 1.5 * v)
            assert effective_diffusion(faster) > effective_diffusion(channel)


class TestDispersionCir:
    @pytest.fixture
    def setup(self, narrow_channel):
        rx = make_receiver(10e-6, 800e-6)
        return DispersionModel.for_channel(narrow_channel, rx), rx

    def test_zero_at_and_before_release(self, setup):
        model, rx = setup
        assert cir_dispersion(model, rx, 0.0) == 0.0
        assert cir_dispersion(model, rx, -1.0) == 0.0
        assert cir_dispersion(model, rx, 1e-6) == pytest.approx(0.0, abs=1e-300)

    def test_symmetric_instant_closed_form(self, setup):
        # At t = d / vbar the axial Gaussian is centred on the receiver.
        model, rx = setup
        t = rx.axial_distance_d / model.mean_velocity
        sigma = math.sqrt(2.0 * model.d_eff * t)
        from scipy.special import ndtr
        u = rx.extent_cx / 2.0 / sigma
        expected = model.rx_fraction * (1.0 - 2.0 * ndtr(-u))
        assert cir_dispersion(model, rx, t) == pytest.approx(expected, rel=1e-12)
        assert cir_dispersion(model, rx, t) == pytest.approx(2.0e-3, rel=0.05)

    def test_tails_without_cancellation(self):
        # Before the front arrives (lo > 0) both CDFs sit near 1 and their
        # difference cancels, to 0 at t = 0.05 s; after it has passed
        # (hi < 0) both sit near 0.  Either way the response is the
        # difference of two upper tails, evaluated where they are small.
        from scipy.special import ndtr
        model = DispersionModel(d_eff=2e-9, mean_velocity=1e-3, rx_fraction=1.0)
        rx = ReceiverVolume(axial_distance_d=200e-6, extent_cx=20e-6,
                            extent_cr=10e-6, extent_cphi=math.pi)
        for t in (0.02, 0.05, 0.08, 0.12, 0.18, 0.22, 0.3, 0.5, 1.0):
            sigma = math.sqrt(2.0 * model.d_eff * t)
            lo = (rx.axial_distance_d - 10e-6 - model.mean_velocity * t) / sigma
            hi = (rx.axial_distance_d + 10e-6 - model.mean_velocity * t) / sigma
            assert lo > 0.0 or hi < 0.0
            expected = ndtr(-lo) - ndtr(-hi) if lo > 0.0 else ndtr(hi) - ndtr(lo)
            value = cir_dispersion(model, rx, t)
            assert value > 0.0
            assert value == pytest.approx(expected, rel=1e-12), t

    def test_bounded_by_rx_fraction(self, setup):
        model, rx = setup
        t = np.linspace(1e-3, 3.0, 800)
        values = cir_dispersion(model, rx, t)
        assert np.all(values <= model.rx_fraction + 1e-15)
        assert np.all(values >= 0.0)

    def test_matches_quadrature_oracle(self, setup):
        model, rx = setup
        for t in (0.1, 0.5, 0.779, 0.8, 1.5):
            assert cir_dispersion(model, rx, t) == pytest.approx(
                oracle_cir_dispersion(model, rx, t), abs=1e-9)

    def test_oracle_vanishes_at_long_times(self, setup):
        model, rx = setup
        assert oracle_cir_dispersion(model, rx, 1e6) < 1e-6

    def test_wide_axial_window_gives_total_mass(self, narrow_channel):
        # Window much wider than the Gaussian spread captures A_rx / a^2.
        rx = ReceiverVolume(axial_distance_d=0.5, extent_cx=0.99,
                            extent_cr=5e-6, extent_cphi=math.pi / 2)
        model = DispersionModel.for_channel(narrow_channel, rx)
        t = 0.5 / model.mean_velocity
        assert cir_dispersion(model, rx, t) == pytest.approx(model.rx_fraction, rel=1e-9)


class TestDispersionPeak:
    @pytest.fixture
    def setup(self, narrow_channel):
        rx = make_receiver(10e-6, 800e-6)
        return DispersionModel.for_channel(narrow_channel, rx), rx

    def test_reference_value_and_early_arrival(self, setup):
        model, rx = setup
        tmax = dispersion_peak_time(model, 800e-6)
        assert tmax == pytest.approx(0.779, rel=2e-3)
        assert tmax < 800e-6 / model.mean_velocity

    def test_matches_dense_argmax_of_axial_density(self, setup):
        # Independent route: maximise the Gaussian density at x = d by scan.
        model, _ = setup
        d = 800e-6
        t = np.linspace(0.4, 1.1, 240_001)
        density = np.exp(-((d - model.mean_velocity * t) ** 2)
                         / (4.0 * model.d_eff * t)) / np.sqrt(4.0 * math.pi * model.d_eff * t)
        t_scan = t[np.argmax(density)]
        assert dispersion_peak_time(model, d) == pytest.approx(t_scan, abs=2 * (t[1] - t[0]))

    def test_zero_distance(self, setup):
        model, _ = setup
        assert dispersion_peak_time(model, 0.0) == 0.0

    def test_no_flow_limit(self):
        channel = make_channel(mean_velocity=0.0)
        rx = make_receiver(10e-6, 800e-6)
        model = DispersionModel.for_channel(channel, rx)
        assert dispersion_peak_time(model, 800e-6) == pytest.approx(
            (800e-6) ** 2 / (2.0 * model.d_eff), rel=1e-12)

    def test_continuous_through_vanishing_flow(self, narrow_channel):
        rx = make_receiver(10e-6, 800e-6)
        deff = effective_diffusion(narrow_channel)
        slow = DispersionModel(d_eff=deff, mean_velocity=1e-12, rx_fraction=0.1875)
        still = DispersionModel(d_eff=deff, mean_velocity=0.0, rx_fraction=0.1875)
        assert dispersion_peak_time(slow, 800e-6) == pytest.approx(
            dispersion_peak_time(still, 800e-6), rel=1e-9)

    def test_peak_value_is_near_stationary(self, setup):
        model, rx = setup
        peak = dispersion_peak_value(model, rx)
        tmax = dispersion_peak_time(model, rx.axial_distance_d)
        for factor in (0.99, 1.01):
            assert peak >= cir_dispersion(model, rx, tmax * factor) * (1.0 - 1e-4)

    def test_peak_strictly_before_mean_arrival(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            model = DispersionModel(d_eff=10.0 ** rng.uniform(-9, -5),
                                    mean_velocity=10.0 ** rng.uniform(-4, -2),
                                    rx_fraction=0.5)
            d = 10.0 ** rng.uniform(-4, -2)
            assert dispersion_peak_time(model, d) < d / model.mean_velocity

    def test_no_flow_peak_value_matches_oracle(self):
        # At vbar = 0 the Gaussian stays centred on the release plane, so
        # the peak value is the off-centre window integral at sigma = d.
        channel = make_channel(mean_velocity=0.0)
        rx = make_receiver(10e-6, 800e-6)
        model = DispersionModel.for_channel(channel, rx)
        tmax = dispersion_peak_time(model, rx.axial_distance_d)
        value = dispersion_peak_value(model, rx)
        assert value == pytest.approx(oracle_cir_dispersion(model, rx, tmax), abs=1e-12)
        from scipy.special import ndtr
        d, half = rx.axial_distance_d, rx.extent_cx / 2.0
        expected = model.rx_fraction * (ndtr((d + half) / d) - ndtr((d - half) / d))
        assert value == pytest.approx(expected, rel=1e-9)


class TestFlowTransitTimes:
    def test_near_receiver(self, wide_flow_only):
        t1, t2 = flow_transit_times(wide_flow_only, make_receiver(200e-6, 200e-6))
        assert t1 == pytest.approx(0.1, rel=1e-12)
        assert t2 == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_far_receiver(self, wide_flow_only):
        t1, t2 = flow_transit_times(wide_flow_only, make_receiver(200e-6, 800e-6))
        assert t1 == pytest.approx(0.5, rel=1e-12)
        assert t2 == pytest.approx(0.85 / 1.5, rel=1e-12)

    def test_degenerate_axial_extent(self, wide_flow_only):
        rx = ReceiverVolume(axial_distance_d=200e-6, extent_cx=1e-12,
                            extent_cr=100e-6, extent_cphi=math.pi / 2)
        t1, t2 = flow_transit_times(wide_flow_only, rx)
        expected = 200e-6 / (2e-3 * 0.75)
        assert t1 == pytest.approx(expected, rel=1e-6)
        assert t2 - t1 == pytest.approx(1e-12 / (2e-3 * 0.75), rel=1e-6)

    def test_requires_flow(self):
        channel = make_channel(radius=200e-6, mean_velocity=0.0)
        with pytest.raises(ValueError):
            flow_transit_times(channel, make_receiver(200e-6, 200e-6))


class TestFlowUniformCir:
    @pytest.fixture
    def model(self, wide_flow_only):
        return FlowModel.for_channel(wide_flow_only, make_receiver(200e-6, 200e-6))

    def test_reference_values(self, model):
        assert cir_flow_uniform(model, model.t2) == pytest.approx(0.075, rel=1e-12)
        assert cir_flow_uniform(model, 2.0 * model.t2) == pytest.approx(0.0375, rel=1e-12)
        assert cir_flow_uniform(model, model.t1) == 0.0

    def test_structure_over_random_geometries(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            channel, rx = random_flow_setup(rng)
            model = FlowModel.for_channel(channel, rx)
            mid_at_t1 = model.rx_fraction - model.angle_fraction * (
                model.axial_distance_d - model.extent_cx / 2) / (2 * model.mean_velocity * model.t1)
            mid_at_t2 = model.rx_fraction - model.angle_fraction * (
                model.axial_distance_d - model.extent_cx / 2) / (2 * model.mean_velocity * model.t2)
            peak = cir_flow_uniform(model, model.t2)
            # continuity at the two branch points
            assert abs(mid_at_t1) <= 1e-12 * model.rx_fraction
            assert abs(mid_at_t2 - peak) <= 1e-12 * peak
            # zero before the first transit
            early = np.linspace(0.0, model.t1, 50)
            assert np.all(cir_flow_uniform(model, early) == 0.0)
            # global maximum at t2 (a grid point one ulp away may tie)
            grid = np.unique(np.concatenate([
                np.linspace(0.0, 4.0 * model.t2, 4001), [model.t1, model.t2]]))
            values = cir_flow_uniform(model, grid)
            assert grid[np.argmax(values)] == pytest.approx(model.t2, rel=1e-9)
            assert values.max() <= peak + 1e-15
            assert np.all(values <= model.rx_fraction + 1e-15)
            # polynomial tail: P(t) * t constant beyond t2
            tail = np.linspace(model.t2, 5.0 * model.t2, 100)
            products = cir_flow_uniform(model, tail) * tail
            assert np.allclose(products, products[0], rtol=1e-12)
            # the alpha fraction of the peak is seen at t2 / alpha
            for alpha in rng.uniform(0.05, 1.0, size=5):
                assert cir_flow_uniform(model, model.t2 / alpha) == pytest.approx(
                    alpha * peak, rel=1e-12)


class TestFlowPointCir:
    @pytest.fixture
    def rx(self):
        return make_receiver(200e-6, 200e-6)

    def test_reference_window(self, wide_flow_only, rx):
        release = ReleaseSpec.point(1000, 150e-6, 0.0)
        window = flow_point_window(wide_flow_only, rx, release)
        assert window[0] == pytest.approx(0.1714, rel=1e-3)
        assert window[1] == pytest.approx(0.2857, rel=1e-3)
        t = np.array([0.17, window[0], 0.2, window[1], 0.29])
        assert cir_flow_point(wide_flow_only, rx, release, t).tolist() == [0, 1, 1, 1, 0]

    def test_center_release_never_seen(self, wide_flow_only, rx):
        release = ReleaseSpec.point(1000, 0.0, 0.0)
        t = np.linspace(0.0, 10.0, 50)
        assert np.all(cir_flow_point(wide_flow_only, rx, release, t) == 0.0)

    def test_rect_center(self, wide_flow_only, rx):
        release = ReleaseSpec.point(1000, 150e-6, 0.0)
        t = rx.axial_distance_d / 0.875e-3
        assert cir_flow_point(wide_flow_only, rx, release, t) == 1.0

    def test_wall_release_never_advects(self, wide_flow_only, rx):
        release = ReleaseSpec.point(1000, 200e-6, 0.0)
        assert flow_point_window(wide_flow_only, rx, release) is None
        assert np.all(cir_flow_point(wide_flow_only, rx, release,
                                     np.linspace(0, 1e6, 20)) == 0.0)

    def test_time_integral_is_window_width(self, wide_flow_only, rx):
        from ductflow import velocity_at
        release = ReleaseSpec.point(1000, 150e-6, 0.0)
        t = np.linspace(0.0, 0.5, 200_001)
        integral = np.trapezoid(cir_flow_point(wide_flow_only, rx, release, t), t)
        expected = rx.extent_cx / velocity_at(wide_flow_only, release.r0)
        assert integral == pytest.approx(expected, abs=3 * (t[1] - t[0]))


class TestFlowOracle:
    def test_agrees_with_uniform_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            channel, rx = random_flow_setup(rng)
            model = FlowModel.for_channel(channel, rx)
            t = rng.uniform(0.5 * model.t1, 3.0 * model.t2)
            numeric = oracle_cir_flow(channel, rx, ReleaseSpec.uniform(1), t,
                                      n_radial_cells=2_000_000, n_angular_cells=2_000_000)
            assert abs(numeric - cir_flow_uniform(model, t)) < 2e-6

    def test_zero_before_first_transit(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        model = FlowModel.for_channel(wide_flow_only, rx)
        assert oracle_cir_flow(wide_flow_only, rx, ReleaseSpec.uniform(1),
                               0.5 * model.t1, 100_000, 100_000) == 0.0

    def test_point_release_is_exact(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        release = ReleaseSpec.point(1, 150e-6, 0.0)
        for t in (0.1, 0.2, 0.3):
            assert oracle_cir_flow(wide_flow_only, rx, release, t) == \
                cir_flow_point(wide_flow_only, rx, release, t)

