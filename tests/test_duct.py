"""Geometry, flow profile, dimensionless numbers, and regime classification."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ductflow import (
    DuctChannelConfig,
    ReceiverVolume,
    Regime,
    ReleaseSpec,
    classify_regime,
    peclet_number,
    rx_area_fraction,
    velocity_at,
)
from conftest import make_channel, make_receiver, point_in_receiver


class TestVelocity:
    def test_center_is_twice_mean(self, narrow_channel):
        assert velocity_at(narrow_channel, 0.0) == 2e-3

    def test_no_slip_at_wall(self, narrow_channel):
        assert velocity_at(narrow_channel, narrow_channel.radius_a) == 0.0

    def test_parabolic_value(self, wide_channel):
        # 2 * (1 - 0.75^2) = 0.875 of the mean velocity
        assert velocity_at(wide_channel, 150e-6) == pytest.approx(0.875e-3, rel=1e-12)

    def test_monotone_decreasing(self, wide_channel):
        r = np.linspace(0.0, wide_channel.radius_a, 500)
        v = velocity_at(wide_channel, r)
        assert np.all(np.diff(v) < 0.0)
        assert np.all((v >= 0.0) & (v <= 2e-3))

    def test_outside_duct_rejected(self, narrow_channel):
        with pytest.raises(ValueError):
            velocity_at(narrow_channel, -1e-9)
        with pytest.raises(ValueError):
            velocity_at(narrow_channel, narrow_channel.radius_a * 1.001)

    def test_cross_sectional_average_is_mean_velocity(self, wide_channel):
        # Uniform-in-r^2 sampling makes the disk average a plain 1-D mean.
        u = (np.arange(200_000) + 0.5) / 200_000
        avg = velocity_at(wide_channel, wide_channel.radius_a * np.sqrt(u)).mean()
        assert avg == pytest.approx(wide_channel.mean_velocity, rel=1e-10)


class TestMeanVelocityFromPressure:
    def test_channel_takes_only_a_mean_velocity(self):
        # A pressure-driven flow enters as its mean velocity |grad p| a^2 / (8 eta);
        # the duct takes no pressure gradient or viscosity.
        with pytest.raises(TypeError):
            DuctChannelConfig(radius_a=1e-5, diffusion_D=1e-10)
        with pytest.raises(TypeError):
            DuctChannelConfig(radius_a=1e-5, diffusion_D=1e-10, pressure_gradient=1.0,
                              viscosity_eta=1e-3)
        with pytest.raises(ValueError, match="mean velocity"):
            DuctChannelConfig(radius_a=1e-5, diffusion_D=1e-10, mean_velocity=-1e-3)
        assert DuctChannelConfig(radius_a=1e-5, diffusion_D=1e-10,
                                 mean_velocity=0.0).mean_velocity == 0.0


class TestPeclet:
    def test_narrow_duct(self, narrow_channel):
        assert peclet_number(narrow_channel) == 100.0

    def test_wide_duct(self, wide_channel):
        assert peclet_number(wide_channel) == 2000.0

    def test_pure_diffusion(self):
        assert peclet_number(make_channel(mean_velocity=0.0)) == 0.0

    def test_flow_only_is_infinite(self):
        assert peclet_number(make_channel(diffusion=0.0)) == math.inf

    def test_still_fluid_has_none(self):
        # 0 / 0: neither flow nor diffusion, so no transport regime either.
        still = make_channel(diffusion=0.0, mean_velocity=0.0)
        with pytest.raises(ValueError, match="Peclet number is undefined"):
            peclet_number(still)
        with pytest.raises(ValueError, match="Peclet number is undefined"):
            classify_regime(still, make_receiver())

    def test_scaling_in_random_triples(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            v, a, d = 10.0 ** rng.uniform(-5, 0, size=3)
            base = peclet_number(make_channel(radius=a, diffusion=d, mean_velocity=v))
            assert peclet_number(make_channel(a, d, 3.0 * v)) == pytest.approx(3.0 * base, rel=1e-12)
            assert peclet_number(make_channel(2.0 * a, d, v)) == pytest.approx(2.0 * base, rel=1e-12)
            assert peclet_number(make_channel(a, 4.0 * d, v)) == pytest.approx(base / 4.0, rel=1e-12)


class TestRegime:
    def test_dispersion_side_scenario(self, narrow_channel):
        verdict = classify_regime(narrow_channel, make_receiver(10e-6, 800e-6))
        assert verdict.peclet == 100.0
        assert verdict.distance_ratio == 80.0
        assert verdict.margin == pytest.approx(0.3125, rel=1e-12)
        assert verdict.regime is Regime.DISPERSION

    def test_flow_dominated_scenario(self, wide_channel):
        verdict = classify_regime(wide_channel, make_receiver(200e-6, 200e-6))
        assert verdict.margin == pytest.approx(500.0, rel=1e-12)
        assert verdict.regime is Regime.FLOW_DOMINATED

    def test_boundary_on_exact_equality(self):
        # Pe = 4 d/a: a=1e-5, v=1e-3, D=1e-10 gives Pe=100; d/a=25 puts the
        # separating value at exactly 100.
        verdict = classify_regime(make_channel(), make_receiver(10e-6, 250e-6))
        assert verdict.margin == 1.0
        assert verdict.regime is Regime.BOUNDARY

    def test_invariant_under_joint_rescaling(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = 10.0 ** rng.uniform(-6, -3)
            d = a * 10.0 ** rng.uniform(0.0, 2.0)
            v = 10.0 ** rng.uniform(-4, -2)
            dcoef = 10.0 ** rng.uniform(-12, -9)
            scale = 10.0 ** rng.uniform(-1, 1)
            base = classify_regime(make_channel(a, dcoef, v),
                                   make_receiver(a, d))
            # a, d scaled together and v scaled inversely keeps Pe and d/a.
            scaled = classify_regime(make_channel(a * scale, dcoef, v / scale),
                                     make_receiver(a * scale, d * scale))
            assert scaled.regime is base.regime
            assert scaled.margin == pytest.approx(base.margin, rel=1e-9)

    def test_flow_only_classifies_flow_dominated(self):
        verdict = classify_regime(make_channel(diffusion=0.0), make_receiver())
        assert verdict.regime is Regime.FLOW_DOMINATED
        assert verdict.margin == math.inf


class TestRxAreaFraction:
    def test_full_band_covers_disk(self):
        channel = make_channel(radius=1e-4)
        rx = ReceiverVolume(axial_distance_d=1e-3, extent_cx=1e-5,
                            extent_cr=1e-4, extent_cphi=2.0 * math.pi)
        assert rx_area_fraction(channel, rx) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("radius", [10e-6, 200e-6])
    def test_half_radius_quarter_turn(self, radius):
        channel = make_channel(radius=radius)
        assert rx_area_fraction(channel, make_receiver(radius)) == pytest.approx(0.1875, rel=1e-12)

    def test_band_wider_than_duct_rejected(self, narrow_channel):
        rx = ReceiverVolume(axial_distance_d=1e-4, extent_cx=1e-5,
                            extent_cr=2e-5, extent_cphi=math.pi)
        with pytest.raises(ValueError):
            rx_area_fraction(narrow_channel, rx)

    def test_vanishing_fraction_refused(self, narrow_channel):
        # c_phi / 2 pi underflows to 0 for the smallest subnormal angle.
        rx = make_receiver(10e-6, cphi=5e-324)
        with pytest.raises(ValueError, match=r"area fraction must lie in \(0, 1\]"):
            rx_area_fraction(narrow_channel, rx)

    def test_matches_indicator_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = 10.0 ** rng.uniform(-5, -3)
            cr = a * rng.uniform(0.05, 1.0)
            cphi = rng.uniform(0.05, 1.0) * 2.0 * math.pi
            channel = make_channel(radius=a)
            rx = ReceiverVolume(axial_distance_d=a * 10, extent_cx=a,
                                extent_cr=cr, extent_cphi=cphi)
            u_band = (1.0 - cr / a) ** 2
            radial, _ = quad(lambda u: 1.0 if u >= u_band else 0.0,
                             0.0, 1.0, points=[u_band], limit=200)
            angular, _ = quad(lambda p: 1.0 if abs(p) <= cphi / 2 else 0.0,
                              -math.pi, math.pi, points=[-cphi / 2, cphi / 2], limit=200)
            assert rx_area_fraction(channel, rx) == pytest.approx(
                radial * angular / (2.0 * math.pi), abs=1e-9)


class TestPointInReceiver:
    RX = ReceiverVolume(axial_distance_d=200e-6, extent_cx=100e-6,
                        extent_cr=100e-6, extent_cphi=math.pi / 2)

    def test_receiver_center_on_wall(self):
        assert point_in_receiver(self.RX, 200e-6, 200e-6, 0.0, 200e-6)

    def test_axially_outside(self):
        assert not point_in_receiver(self.RX, 300.1e-6, 200e-6, 0.0, 200e-6)

    def test_radially_below_band(self):
        assert not point_in_receiver(self.RX, 200e-6, 99.9e-6, 0.0, 200e-6)

    def test_angularly_outside(self):
        assert not point_in_receiver(self.RX, 200e-6, 200e-6, math.pi / 2, 200e-6)

    def test_vectorized(self):
        x = np.array([200e-6, 200e-6, 400e-6])
        r = np.array([200e-6, 50e-6, 200e-6])
        phi = np.zeros(3)
        inside = point_in_receiver(self.RX, x, r, phi, 200e-6)
        assert inside.tolist() == [True, False, False]

    def test_invalid_coordinates(self):
        with pytest.raises(ValueError):
            point_in_receiver(self.RX, 0.0, -1e-6, 0.0, 200e-6)
        with pytest.raises(ValueError):
            point_in_receiver(self.RX, 0.0, 1e-6, 3.2, 200e-6)


class TestValidation:
    def test_receiver_invariants(self):
        with pytest.raises(ValueError):
            ReceiverVolume(axial_distance_d=1e-6, extent_cx=1e-5,
                           extent_cr=1e-6, extent_cphi=1.0)  # d <= c_x/2
        with pytest.raises(ValueError):
            ReceiverVolume(axial_distance_d=1e-4, extent_cx=1e-5,
                           extent_cr=1e-6, extent_cphi=7.0)  # c_phi > 2 pi

    def test_release_invariants(self):
        with pytest.raises(ValueError):
            ReleaseSpec.point(-1e-6, 0.0)
        with pytest.raises(ValueError):
            ReleaseSpec.point(1e-6, 4.0)

    def test_channel_invariants(self):
        with pytest.raises(ValueError):
            DuctChannelConfig(radius_a=0.0, diffusion_D=1e-10, mean_velocity=1e-3)
        with pytest.raises(ValueError):
            DuctChannelConfig(radius_a=1e-5, diffusion_D=-1e-10, mean_velocity=1e-3)
        with pytest.raises(ValueError):
            DuctChannelConfig(radius_a=1e-5, diffusion_D=1e-10, mean_velocity=-1e-3)

    @pytest.mark.parametrize("field", ["radius_a", "diffusion_D", "mean_velocity"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_channel_refuses_non_finite(self, field, value):
        # An infinite D or radius would keep the engine's wall fold looping forever.
        fields = {"radius_a": 1e-5, "diffusion_D": 1e-10, "mean_velocity": 1e-3, field: value}
        with pytest.raises(ValueError, match="finite"):
            DuctChannelConfig(**fields)
