"""Closed-form impulse responses, peak guidelines, and quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ductflow import (
    ReceiverVolume,
    Regime,
    ReleaseSpec,
    classify_regime,
    cir_dispersion,
    cir_flow_point,
    cir_flow_uniform,
    dispersion_peak_time,
    effective_diffusion,
    flow_point_window,
    flow_transit_times,
    rx_area_fraction,
    uniform_response,
)
from ductflow.oracles import oracle_cir_dispersion, oracle_cir_flow
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
        return narrow_channel, make_receiver(10e-6, 800e-6)

    def test_zero_at_and_before_release(self, setup):
        channel, rx = setup
        assert cir_dispersion(channel, rx, 0.0) == 0.0
        assert cir_dispersion(channel, rx, -1.0) == 0.0
        assert cir_dispersion(channel, rx, 1e-6) == pytest.approx(0.0, abs=1e-300)

    def test_symmetric_instant_closed_form(self, setup):
        # At t = d / vbar the axial Gaussian is centred on the receiver.
        channel, rx = setup
        t = rx.axial_distance_d / channel.mean_velocity
        sigma = math.sqrt(2.0 * effective_diffusion(channel) * t)
        from scipy.special import ndtr
        u = rx.extent_cx / 2.0 / sigma
        expected = rx_area_fraction(channel, rx) * (1.0 - 2.0 * ndtr(-u))
        assert cir_dispersion(channel, rx, t) == pytest.approx(expected, rel=1e-12)
        assert cir_dispersion(channel, rx, t) == pytest.approx(2.0e-3, rel=0.05)

    def test_tails_without_cancellation(self):
        # Before the front arrives (lo > 0) both CDFs sit near 1 and their
        # difference cancels, to 0 at t = 0.05 s; after it has passed
        # (hi < 0) both sit near 0.  Either way the response is the
        # difference of two upper tails, evaluated where they are small.
        from scipy.special import ndtr
        channel = make_channel(radius=10e-6, diffusion=2e-9, mean_velocity=1e-3)
        rx = ReceiverVolume(axial_distance_d=200e-6, extent_cx=20e-6,
                            extent_cr=10e-6, extent_cphi=math.pi)
        d_eff, fraction = effective_diffusion(channel), rx_area_fraction(channel, rx)
        for t in (0.02, 0.05, 0.08, 0.12, 0.18, 0.22, 0.3, 0.5, 1.0):
            sigma = math.sqrt(2.0 * d_eff * t)
            lo = (rx.axial_distance_d - 10e-6 - channel.mean_velocity * t) / sigma
            hi = (rx.axial_distance_d + 10e-6 - channel.mean_velocity * t) / sigma
            assert lo > 0.0 or hi < 0.0
            expected = fraction * (ndtr(-lo) - ndtr(-hi) if lo > 0.0 else ndtr(hi) - ndtr(lo))
            value = cir_dispersion(channel, rx, t)
            assert value > 0.0
            assert value == pytest.approx(expected, rel=1e-12), t

    def test_bounded_by_rx_fraction(self, setup):
        channel, rx = setup
        t = np.linspace(1e-3, 3.0, 800)
        values = cir_dispersion(channel, rx, t)
        assert np.all(values <= rx_area_fraction(channel, rx) + 1e-15)
        assert np.all(values >= 0.0)

    def test_matches_quadrature_oracle(self, setup):
        channel, rx = setup
        for t in (0.1, 0.5, 0.779, 0.8, 1.5):
            assert cir_dispersion(channel, rx, t) == pytest.approx(
                oracle_cir_dispersion(channel, rx, t), abs=1e-9)

    def test_oracle_vanishes_at_long_times(self, setup):
        channel, rx = setup
        assert oracle_cir_dispersion(channel, rx, 1e6) < 1e-6

    def test_wide_axial_window_gives_total_mass(self, narrow_channel):
        # Window much wider than the Gaussian spread captures A_rx / a^2.
        rx = ReceiverVolume(axial_distance_d=0.5, extent_cx=0.99,
                            extent_cr=5e-6, extent_cphi=math.pi / 2)
        t = 0.5 / narrow_channel.mean_velocity
        assert cir_dispersion(narrow_channel, rx, t) == pytest.approx(
            rx_area_fraction(narrow_channel, rx), rel=1e-9)

    def test_refuses_a_channel_without_diffusion(self, wide_flow_only):
        with pytest.raises(ValueError, match="D = 0"):
            cir_dispersion(wide_flow_only, make_receiver(200e-6, 800e-6), 1.0)
        with pytest.raises(ValueError, match="D = 0"):
            oracle_cir_dispersion(wide_flow_only, make_receiver(200e-6, 800e-6), 1.0)

    def test_refuses_a_receiver_wider_than_the_duct(self, narrow_channel):
        rx = make_receiver(40e-6, 800e-6)
        for form in (cir_dispersion, oracle_cir_dispersion):
            with pytest.raises(ValueError, match="exceeds duct radius"):
                form(narrow_channel, rx, 1.0)

    def test_refuses_a_vanishing_area_fraction(self, narrow_channel):
        rx = make_receiver(10e-6, 800e-6, cphi=5e-324)
        for form in (cir_dispersion, oracle_cir_dispersion):
            with pytest.raises(ValueError, match="area fraction"):
                form(narrow_channel, rx, 1.0)


class TestDispersionPeak:
    @pytest.fixture
    def setup(self, narrow_channel):
        return narrow_channel, make_receiver(10e-6, 800e-6)

    def test_reference_value_and_early_arrival(self, setup):
        channel, _ = setup
        tmax = dispersion_peak_time(channel, 800e-6)
        assert tmax == pytest.approx(0.779, rel=2e-3)
        assert tmax < 800e-6 / channel.mean_velocity

    def test_matches_dense_argmax_of_axial_density(self, setup):
        # Independent route: maximise the Gaussian density at x = d by scan.
        channel, _ = setup
        d, d_eff = 800e-6, effective_diffusion(channel)
        t = np.linspace(0.4, 1.1, 240_001)
        density = np.exp(-((d - channel.mean_velocity * t) ** 2)
                         / (4.0 * d_eff * t)) / np.sqrt(4.0 * math.pi * d_eff * t)
        t_scan = t[np.argmax(density)]
        assert dispersion_peak_time(channel, d) == pytest.approx(t_scan, abs=2 * (t[1] - t[0]))

    def test_no_flow_limit(self):
        channel = make_channel(mean_velocity=0.0)
        assert dispersion_peak_time(channel, 800e-6) == pytest.approx(
            (800e-6) ** 2 / (2.0 * effective_diffusion(channel)), rel=1e-12)

    def test_continuous_through_vanishing_flow(self):
        slow = make_channel(mean_velocity=1e-12)
        still = make_channel(mean_velocity=0.0)
        assert effective_diffusion(slow) == pytest.approx(effective_diffusion(still), rel=1e-9)
        assert dispersion_peak_time(slow, 800e-6) == pytest.approx(
            dispersion_peak_time(still, 800e-6), rel=1e-9)

    def test_peak_value_is_near_stationary(self, setup):
        channel, rx = setup
        tmax = dispersion_peak_time(channel, 800e-6)
        peak = cir_dispersion(channel, rx, tmax)
        for factor in (0.99, 1.01):
            assert peak >= cir_dispersion(channel, rx, tmax * factor) * (1.0 - 1e-4)

    def test_peak_strictly_before_mean_arrival(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            a = 10.0 ** rng.uniform(-5, -3)
            channel = make_channel(radius=a, diffusion=10.0 ** rng.uniform(-12, -8),
                                   mean_velocity=10.0 ** rng.uniform(-4, -2))
            d = 10.0 ** rng.uniform(-4, -2)
            assert dispersion_peak_time(channel, d) < d / channel.mean_velocity

    def test_no_flow_peak_value_matches_oracle(self):
        # At vbar = 0 the Gaussian stays centred on the release plane, so
        # the peak value is the off-centre window integral at sigma = d.
        channel = make_channel(mean_velocity=0.0)
        rx = make_receiver(10e-6, 800e-6)
        tmax = dispersion_peak_time(channel, 800e-6)
        value = cir_dispersion(channel, rx, tmax)
        assert value == pytest.approx(oracle_cir_dispersion(channel, rx, tmax), abs=1e-12)
        from scipy.special import ndtr
        d, half = rx.axial_distance_d, rx.extent_cx / 2.0
        expected = rx_area_fraction(channel, rx) * (ndtr((d + half) / d) - ndtr((d - half) / d))
        assert value == pytest.approx(expected, rel=1e-9)

    def test_refuses_what_the_response_refuses(self, wide_flow_only):
        with pytest.raises(ValueError, match="D = 0"):
            dispersion_peak_time(wide_flow_only, 800e-6)

    @pytest.mark.parametrize("d", [0.0, -1e-6, math.inf, math.nan])
    def test_refuses_a_distance_not_positive_and_finite(self, narrow_channel, d):
        with pytest.raises(ValueError, match="distance must be positive and finite"):
            dispersion_peak_time(narrow_channel, d)

    def test_model_call_is_the_channel_call(self, setup):
        # perfbench/checks.py passes ``(DispersionModel.for_channel(channel, rx), d)``.
        from ductflow.impulse import DispersionModel
        channel, rx = setup
        model = DispersionModel.for_channel(channel, rx)
        assert dispersion_peak_time(model, 800e-6) == dispersion_peak_time(channel, 800e-6)
        assert oracle_cir_dispersion(model, rx, 0.5) == oracle_cir_dispersion(channel, rx, 0.5)
        for d in (0.0, -1e-6, math.inf, math.nan):
            with pytest.raises(ValueError, match="distance must be positive and finite"):
                dispersion_peak_time(model, d)


class TestUniformResponse:
    """Each regime's uniform-release form and its peak time."""

    @pytest.mark.parametrize("mean_velocity", [1e-3, 0.0])
    def test_dispersion_pair(self, mean_velocity):
        channel = make_channel(mean_velocity=mean_velocity)
        rx = make_receiver(10e-6, 800e-6)
        assert classify_regime(channel, 800e-6).regime is Regime.DISPERSION
        pob, t_peak = uniform_response(channel, rx, Regime.DISPERSION)
        assert t_peak == dispersion_peak_time(channel, 800e-6)
        t = np.linspace(0.0, 2.0, 41)
        assert np.array_equal(pob(t), cir_dispersion(channel, rx, t))
        if mean_velocity == 0.0:
            assert t_peak == pytest.approx(800e-6 ** 2 / (2.0 * effective_diffusion(channel)),
                                           rel=1e-12)

    @pytest.mark.parametrize("diffusion, distance, regime", [
        (1e-10, 200e-6, Regime.FLOW_DOMINATED),
        (1e-10, 250e-6, Regime.BOUNDARY),
        (0.0, 800e-6, Regime.FLOW_DOMINATED),
    ])
    def test_flow_pair(self, diffusion, distance, regime):
        channel, rx = make_channel(diffusion=diffusion), make_receiver(10e-6, distance)
        assert classify_regime(channel, distance).regime is regime
        pob, t_peak = uniform_response(channel, rx, regime)
        assert t_peak == flow_transit_times(channel, rx)[1]
        t = np.linspace(0.0, 2.0, 41)
        assert np.array_equal(pob(t), cir_flow_uniform(channel, rx, t))

    def test_zero_before_release(self):
        # One contract for every regime, as in the engine: nothing is seen
        # before the release, so both forms are 0 at t < 0 and neither raises.
        channel, rx = make_channel(), make_receiver(10e-6, 200e-6)
        for regime in (Regime.DISPERSION, Regime.FLOW_DOMINATED):
            pob, _ = uniform_response(channel, rx, regime)
            assert pob(-0.1) == 0.0
        aligned = ReleaseSpec.point(8e-6, 0.0)
        assert flow_point_window(channel, rx, aligned) is not None
        assert cir_flow_point(channel, rx, aligned, -0.1) == 0.0


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

    def test_overflowing_times_refused(self):
        # d / (2 vbar band) overflows, so t1 = t2 = inf.
        channel = make_channel(radius=200e-6, diffusion=0.0, mean_velocity=5e-324)
        with pytest.raises(ValueError, match="0 < t1 < t2"):
            flow_transit_times(channel, make_receiver(200e-6, 200e-6))


class TestFlowUniformCir:
    def test_reference_values(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        t1, t2 = flow_transit_times(wide_flow_only, rx)
        assert cir_flow_uniform(wide_flow_only, rx, t2) == pytest.approx(0.075, rel=1e-12)
        assert cir_flow_uniform(wide_flow_only, rx, 2.0 * t2) == pytest.approx(
            0.0375, rel=1e-12)
        assert cir_flow_uniform(wide_flow_only, rx, t1) == 0.0

    def test_vanishing_area_fraction_refused_at_any_time(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6, cphi=5e-324)
        t1, t2 = flow_transit_times(wide_flow_only, rx)
        for t in (0.0, 2.0 * t2):
            with pytest.raises(ValueError, match=r"area fraction must lie in \(0, 1\]"):
                cir_flow_uniform(wide_flow_only, rx, t)

    def test_structure_over_random_geometries(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            channel, rx = random_flow_setup(rng)
            t1, t2 = flow_transit_times(channel, rx)
            rx_fraction = rx_area_fraction(channel, rx)
            angle_fraction = rx.extent_cphi / (2 * math.pi)
            mid_at_t1 = rx_fraction - angle_fraction * (
                rx.axial_distance_d - rx.extent_cx / 2) / (2 * channel.mean_velocity * t1)
            mid_at_t2 = rx_fraction - angle_fraction * (
                rx.axial_distance_d - rx.extent_cx / 2) / (2 * channel.mean_velocity * t2)
            peak = cir_flow_uniform(channel, rx, t2)
            # continuity at the two branch points
            assert abs(mid_at_t1) <= 1e-12 * rx_fraction
            assert abs(mid_at_t2 - peak) <= 1e-12 * peak
            # zero before the first transit
            early = np.linspace(0.0, t1, 50)
            assert np.all(cir_flow_uniform(channel, rx, early) == 0.0)
            # global maximum at t2 (a grid point one ulp away may tie)
            grid = np.unique(np.concatenate([np.linspace(0.0, 4.0 * t2, 4001), [t1, t2]]))
            values = cir_flow_uniform(channel, rx, grid)
            assert grid[np.argmax(values)] == pytest.approx(t2, rel=1e-9)
            assert values.max() <= peak + 1e-15
            assert np.all(values <= rx_fraction + 1e-15)
            # polynomial tail: P(t) * t constant beyond t2
            tail = np.linspace(t2, 5.0 * t2, 100)
            products = cir_flow_uniform(channel, rx, tail) * tail
            assert np.allclose(products, products[0], rtol=1e-12)
            # the alpha fraction of the peak is seen at t2 / alpha
            for alpha in rng.uniform(0.05, 1.0, size=5):
                assert cir_flow_uniform(channel, rx, t2 / alpha) == pytest.approx(
                    alpha * peak, rel=1e-12)


class TestFlowPointCir:
    @pytest.fixture
    def rx(self):
        return make_receiver(200e-6, 200e-6)

    def test_reference_window(self, wide_flow_only, rx):
        release = ReleaseSpec.point(150e-6, 0.0)
        window = flow_point_window(wide_flow_only, rx, release)
        assert window[0] == pytest.approx(0.1714, rel=1e-3)
        assert window[1] == pytest.approx(0.2857, rel=1e-3)
        t = np.array([0.17, window[0], 0.2, window[1], 0.29])
        assert cir_flow_point(wide_flow_only, rx, release, t).tolist() == [0, 1, 1, 1, 0]

    def test_center_release_never_seen(self, wide_flow_only, rx):
        release = ReleaseSpec.point(0.0, 0.0)
        t = np.linspace(0.0, 10.0, 50)
        assert np.all(cir_flow_point(wide_flow_only, rx, release, t) == 0.0)

    def test_rect_center(self, wide_flow_only, rx):
        release = ReleaseSpec.point(150e-6, 0.0)
        t = rx.axial_distance_d / 0.875e-3
        assert cir_flow_point(wide_flow_only, rx, release, t) == 1.0

    def test_wall_release_never_advects(self, wide_flow_only, rx):
        release = ReleaseSpec.point(200e-6, 0.0)
        assert flow_point_window(wide_flow_only, rx, release) is None
        assert np.all(cir_flow_point(wide_flow_only, rx, release,
                                     np.linspace(0, 1e6, 20)) == 0.0)

    def test_time_integral_is_window_width(self, wide_flow_only, rx):
        from ductflow import velocity_at
        release = ReleaseSpec.point(150e-6, 0.0)
        t = np.linspace(0.0, 0.5, 200_001)
        integral = np.trapezoid(cir_flow_point(wide_flow_only, rx, release, t), t)
        expected = rx.extent_cx / velocity_at(wide_flow_only, release.r0)
        assert integral == pytest.approx(expected, abs=3 * (t[1] - t[0]))


@st.composite
def ducts_and_receivers(draw, diffusion=True):
    """A valid duct and wall receiver, over several decades of every length and rate."""
    a = draw(st.floats(1e-6, 1e-3))
    cx = a * draw(st.floats(1e-3, 10.0))
    rx = ReceiverVolume(axial_distance_d=cx / 2.0 * (1.0 + draw(st.floats(1e-6, 1e4))),
                        extent_cx=cx, extent_cr=a * draw(st.floats(1e-3, 1.0)),
                        extent_cphi=draw(st.floats(1e-3, 2.0 * math.pi)))
    channel = make_channel(radius=a, diffusion=draw(st.floats(1e-13, 1e-8)) if diffusion else 0.0,
                           mean_velocity=draw(st.floats(1e-6, 1e-1)))
    return channel, rx


#: Times as multiples of a scale, 0 and the scale included.
TIME_SCALES = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20).map(
    lambda s: np.array(s + [0.0, 1.0]))


class TestClosedFormProperties:
    """Bounds and continuity of the closed forms over random valid geometries."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(setup=ducts_and_receivers(), scales=TIME_SCALES)
    def test_dispersion_within_receiver_fraction(self, setup, scales):
        channel, rx = setup
        t = scales * dispersion_peak_time(channel, rx.axial_distance_d)
        pob = cir_dispersion(channel, rx, t)
        assert np.all(pob >= 0.0) and np.all(pob <= rx_area_fraction(channel, rx))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(setup=ducts_and_receivers(diffusion=False), scales=TIME_SCALES)
    def test_flow_uniform_within_receiver_fraction(self, setup, scales):
        channel, rx = setup
        t1, t2 = flow_transit_times(channel, rx)
        t = np.concatenate([scales * t2, [t1, np.nextafter(t1, np.inf), np.nextafter(t2, 0.0)]])
        pob = cir_flow_uniform(channel, rx, t)
        assert np.all(pob >= 0.0) and np.all(pob <= rx_area_fraction(channel, rx))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(setup=ducts_and_receivers(diffusion=False), scales=TIME_SCALES,
           r0=st.floats(0.0, 1.0), phi0=st.floats(-math.pi, math.pi, exclude_min=True))
    def test_flow_point_is_zero_or_one(self, setup, scales, r0, phi0):
        channel, rx = setup
        release = ReleaseSpec.point(r0 * channel.radius_a, phi0)
        t = scales * flow_transit_times(channel, rx)[1]
        window = flow_point_window(channel, rx, release)
        if window is not None:
            t = np.concatenate([t, window, np.nextafter(window, [0.0, np.inf])])
        assert set(cir_flow_point(channel, rx, release, t).tolist()) <= {0.0, 1.0}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(setup=ducts_and_receivers(diffusion=False))
    def test_flow_uniform_continuous_at_transit_times(self, setup):
        # One double past t1 the middle branch is within a few ulp of 0, and
        # one double before t2 within a few ulp of the tail at t2.  Each side
        # is the receiver fraction R, or a term no larger, carrying about
        # eight roundings of its own and of t1 or t2, so they agree to 16 ulp
        # of R; 2e5 random geometries reached 7.  Past t1 the middle branch
        # is R minus a term within rounding of R: it cancels no digits
        # because t1's band is x (2 - x), with x = c_r / a, not 1 - (1 - x)^2,
        # which was 82 ulp off at c_r = a / 1000.
        channel, rx = setup
        t1, t2 = flow_transit_times(channel, rx)
        ulp = np.spacing(rx_area_fraction(channel, rx))
        before, at = cir_flow_uniform(channel, rx, [t1, np.nextafter(t1, np.inf)])
        assert before == 0.0 and at <= 16.0 * ulp
        before, at = cir_flow_uniform(channel, rx, [np.nextafter(t2, 0.0), t2])
        assert abs(before - at) <= 16.0 * ulp


class TestFlowOracle:
    def test_agrees_with_uniform_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            channel, rx = random_flow_setup(rng)
            t1, t2 = flow_transit_times(channel, rx)
            t = rng.uniform(0.5 * t1, 3.0 * t2)
            numeric = oracle_cir_flow(channel, rx, ReleaseSpec.uniform(), t,
                                      n_radial_cells=2_000_000, n_angular_cells=2_000_000)
            assert abs(numeric - cir_flow_uniform(channel, rx, t)) < 2e-6

    def test_zero_before_first_transit(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        t1 = flow_transit_times(wide_flow_only, rx)[0]
        assert oracle_cir_flow(wide_flow_only, rx, ReleaseSpec.uniform(),
                               0.5 * t1, 100_000, 100_000) == 0.0

    def test_point_release_is_exact(self, wide_flow_only):
        rx = make_receiver(200e-6, 200e-6)
        release = ReleaseSpec.point(150e-6, 0.0)
        for t in (0.1, 0.2, 0.3):
            assert oracle_cir_flow(wide_flow_only, rx, release, t) == \
                cir_flow_point(wide_flow_only, rx, release, t)

