"""Acceptance gate: every criterion checked at its stated tolerance.

Each criterion prints one pass/fail line (also echoed in the terminal
summary); run with ``pytest tests/test_acceptance.py -s`` to watch them
live.  The expensive particle runs are shared through module fixtures, so
the full gate takes on the order of a minute.
"""

import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

import conftest
from ductflow import (
    DuctChannelConfig,
    OokLinkConfig,
    ReceiverVolume,
    ReleaseSpec,
    SerMethod,
    SimConfig,
    cir_dispersion,
    cir_flow_uniform,
    detection_offsets,
    dispersion_peak_time,
    effective_diffusion,
    flow_point_window,
    flow_transit_times,
    optimal_threshold_many,
    peclet_number,
    rx_area_fraction,
    ser_analytic_many,
    ser_monte_carlo_many,
)
from ductflow.cli import main as cli_main
from ductflow.oracles import oracle_cir_dispersion, oracle_cir_flow
from ductflow.particles import run
from test_impulse import random_flow_setup


def check(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {num:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def smoothed_argmax(counts: np.ndarray, window: int) -> int:
    kernel = np.ones(window) / window
    return int(np.argmax(np.convolve(counts, kernel, mode="same")))


def quarter_receiver(radius: float, distance: float) -> ReceiverVolume:
    return ReceiverVolume(axial_distance_d=distance, extent_cx=radius / 2,
                          extent_cr=radius / 2, extent_cphi=math.pi / 2)


def flow_sweep_link(channel, distance, T, K=8, n_tx=1000, noise=4.0):
    rx = quarter_receiver(channel.radius_a, distance)
    t2 = flow_transit_times(channel, rx)[1]
    return OokLinkConfig(pob=cir_flow_uniform(channel, rx, detection_offsets(T, K, t2)),
                         threshold_xi=0, noise_mean_Nn=noise, n_tx=n_tx)


NARROW = DuctChannelConfig(radius_a=10e-6, diffusion_D=1e-10, mean_velocity=1e-3)
WIDE = DuctChannelConfig(radius_a=200e-6, diffusion_D=1e-10, mean_velocity=1e-3)
WIDE_FLOW_ONLY = DuctChannelConfig(radius_a=200e-6, diffusion_D=0.0, mean_velocity=1e-3)
WIDE_SER = DuctChannelConfig(radius_a=200e-6, diffusion_D=1e-12, mean_velocity=1e-3)


def _run_uniform(channel, distance, t_stop, n_tx, seed, snapshot_times=(), threads=4):
    rx = quarter_receiver(channel.radius_a, distance)
    times = np.arange(1, int(round(t_stop / 1e-3)) + 1) * 1e-3
    cfg = SimConfig(channel=channel, receivers=(rx,), releases=(ReleaseSpec.uniform(),),
                    n_tx=n_tx, time_step=1e-3, seed=seed, sample_times=times,
                    snapshot_times=snapshot_times)
    return rx, cfg, run(cfg, threads=threads)


@pytest.fixture(scope="module")
def narrow_far_run():
    """a = 10 um, d = 800 um, uniform release of 1e5 (criteria 6 and 7)."""
    return _run_uniform(NARROW, 800e-6, 1.1, 100_000, seed=20242,
                        snapshot_times=[0.8])


def test_criterion_01_effective_diffusion():
    deff = effective_diffusion(NARROW)
    exact = 1e-10 * (1.0 + 100.0 ** 2 / 48.0)
    ok = deff == pytest.approx(2.0933e-8, rel=1e-4) and \
        abs(deff - 2.1e-8) / 2.1e-8 < 0.01 and deff == exact
    check(1, "effective diffusion 2.0933e-8, within 1% of reported 2.1e-8",
          ok, f"D_eff={deff:.5e}")


def test_criterion_02_regime_map_values():
    expected = {(100.0, 20.0), (100.0, 80.0), (2000.0, 1.0), (2000.0, 4.0)}
    got = set()
    for radius in (10e-6, 200e-6):
        channel = DuctChannelConfig(radius_a=radius, diffusion_D=1e-10,
                                    mean_velocity=1e-3)
        for distance in (200e-6, 800e-6):
            got.add((peclet_number(channel), distance / radius))
    check(2, "scenario dots (Pe, d/a) equal the published values exactly",
          got == expected, f"{sorted(got)}")


def test_criterion_03_flow_only_exactness():
    rx, cfg, result = _run_uniform(WIDE_FLOW_ONLY, 200e-6, 0.5, 100_000, seed=301)
    counts = result.counts[0, 0]
    p = cir_flow_uniform(WIDE_FLOW_ONLY, rx, cfg.sample_times)
    bound = 3.0 * np.sqrt(p * (1.0 - p) / cfg.n_tx)
    inside = np.abs(counts / cfg.n_tx - p) <= bound + 1e-12
    uniform_ok = inside.mean() >= 0.99

    release = ReleaseSpec.point(150e-6, 0.0)
    times = np.arange(1, 401) * 1e-3
    cfg = SimConfig(channel=WIDE_FLOW_ONLY, receivers=(rx,), releases=(release,), n_tx=100_000,
                    time_step=1e-3, seed=302, sample_times=times)
    point = run(cfg, threads=4).counts[0, 0]
    window = flow_point_window(WIDE_FLOW_ONLY, rx, release)
    full = np.flatnonzero(point == cfg.n_tx)
    edges_ok = (abs(cfg.sample_times[full[0]] - window[0]) <= 1e-3 + 1e-12
                and abs(cfg.sample_times[full[-1]] - window[1]) <= 1e-3 + 1e-12)
    check(3, "flow-only simulation inside 3-sigma of the closed form; "
             "point-release edges within one step",
          uniform_ok and edges_ok,
          f"inside={inside.mean():.3f}, edge devs "
          f"{abs(cfg.sample_times[full[0]] - window[0]):.1e}/"
          f"{abs(cfg.sample_times[full[-1]] - window[1]):.1e} s")


def test_criterion_04_quadrature_oracles():
    rng = np.random.default_rng(404)
    worst_flow = 0.0
    for _ in range(100):
        channel, rx = random_flow_setup(rng)
        t1, t2 = flow_transit_times(channel, rx)
        t = rng.uniform(0.5 * t1, 3.0 * t2)
        numeric = oracle_cir_flow(channel, rx, ReleaseSpec.uniform(), t)
        worst_flow = max(worst_flow, abs(numeric - cir_flow_uniform(channel, rx, t)))
    flow_ok = worst_flow < 1e-6

    worst_disp = 0.0
    for _ in range(100):
        a = 10.0 ** rng.uniform(-5.2, -3.3)
        d_coef = 10.0 ** rng.uniform(-11, -9)
        v = 10.0 ** rng.uniform(-4, -2)
        channel = DuctChannelConfig(radius_a=a, diffusion_D=d_coef, mean_velocity=v)
        cx = a * rng.uniform(0.2, 2.0)
        rx = ReceiverVolume(axial_distance_d=cx / 2 + a * 10.0 ** rng.uniform(0.5, 2.0),
                            extent_cx=cx, extent_cr=a * rng.uniform(0.1, 1.0),
                            extent_cphi=rng.uniform(0.1, 1.0) * 2.0 * math.pi)
        t_ref = rx.axial_distance_d / v
        t = t_ref * 10.0 ** rng.uniform(-0.5, 0.5)
        worst_disp = max(worst_disp, abs(oracle_cir_dispersion(channel, rx, t)
                                         - cir_dispersion(channel, rx, t)))
    disp_ok = worst_disp < 1e-9
    check(4, "quadrature oracles match closed forms over 100 random configs",
          flow_ok and disp_ok,
          f"max |flow dev|={worst_flow:.2e} (<1e-6), "
          f"max |dispersion dev|={worst_disp:.2e} (<1e-9)")


def radial_blur(channel, rx, t2):
    """Relative shift of the flow model's ``t2`` by a radius error of ``sqrt(2 D t2)``.

    ``u(r) = 2 vbar (1 - r^2 / a^2)`` changes by ``|u'(r_in)| / u(r_in) =
    2 r_in / (a^2 - r_in^2)`` per unit radius at the receiver's inner radius
    ``r_in = a - c_r``.
    """
    a = channel.radius_a
    r_in = a - rx.extent_cr
    return math.sqrt(2.0 * channel.diffusion_D * t2) * 2.0 * r_in / (a * a - r_in * r_in)


def peak_location_allowance(channel, rx, t2, p2, n_tx):
    """Relative allowance of the smoothed-argmax peak time about the flow model's ``t2``.

    Physics: ``t2`` is when the layer at the receiver's inner radius
    ``r_in = a - c_r`` reaches its far end, a kink that radial diffusion
    blurs.  By ``t2`` a particle's radius spreads by about
    ``sqrt(2 D t2)``, so the kink moves by about :func:`radial_blur` of
    ``t2`` (7.1 % at a = 200 um, d = 800 um; +6.1 % measured over 1e6
    particles, +5.9 % at dt / 4).

    Sampling: past ``t2`` the curve falls as ``p2 t2 / t``, so a count error
    of 3 binomial standard deviations moves the argmax by up to
    ``3 sqrt((1 - p2) / (n p2))`` of ``t2``.  A particle stays in the
    receiver for many steps, so neighbouring counts hold mostly the same
    particles and the 5-step smoothing does not average this error down.
    """
    return radial_blur(channel, rx, t2) + 3.0 * math.sqrt((1.0 - p2) / (n_tx * p2))


def peak_value_allowance(channel, rx, t2, p2, n_tx):
    """Allowance of the simulated peak value about the flow model's ``p2 = P(t2)``.

    Physics: a particle now at radius ``r`` has moved at the speed of its
    path's mean radius, which differs from ``r`` by ``sigma``, about
    ``N(0, 2 D t2 / 3)`` (a Brownian path's mean about its end point);
    axial diffusion moves it by a further ``sqrt(2 D t2)``.  So the layers
    just above ``r_in`` leave the receiver's far end ``f = d + c_x / 2``
    over a spread of times of relative width
    ``s = sqrt(b^2 / 3 + 2 D t2 / f^2)``, with ``b`` the :func:`radial_blur`.
    At ``t = t2 (1 + s tau)`` they hold ``k G(tau) p2`` fewer particles than
    the model, with ``G(tau) = phi(tau) - tau Phi(-tau)`` (the one-sided
    Gaussian blur of the layers' cut-off at ``r_in``) and
    ``k = 2 r_in sigma / (r_lo^2 - r_in^2) = s f / c_x``, where the band
    ``r_in < r < r_lo`` inside the receiver at ``t2`` gives ``p2``.  Past
    ``t2`` the model falls as ``(1 - s tau) p2``, so the blurred curve peaks
    where ``Phi(-tau) = s / k = c_x / f``, ``k phi(tau) p2`` below ``p2``:
    7.2 % at a = 200 um, d = 800 um, against 7.6-7.8 % measured over 2e6
    particles (3.1 % against 3.1 % at d = 200 um, and 14.5 % against 14.4 %
    at ``t2`` itself).

    Sampling: 3 binomial standard deviations of the count at the peak.
    """
    far = rx.axial_distance_d + rx.extent_cx / 2.0
    s = math.sqrt(radial_blur(channel, rx, t2) ** 2 / 3.0
                  + 2.0 * channel.diffusion_D * t2 / far ** 2)
    tau = NormalDist().inv_cdf(1.0 - rx.extent_cx / far)
    drop = s * far / rx.extent_cx * NormalDist().pdf(tau)
    return 3.0 * math.sqrt(p2 * (1.0 - p2) / n_tx) + drop * p2


def test_criterion_05_wide_duct_reproduction():
    details = []
    ok = True
    for distance, t_stop in ((200e-6, 0.30), (800e-6, 0.85)):
        rx, cfg, result = _run_uniform(WIDE, distance, t_stop, 100_000, seed=20240)
        counts, n_tx = result.counts[0, 0], cfg.n_tx
        t2 = flow_transit_times(WIDE, rx)[1]
        idx = smoothed_argmax(counts, 5)
        t_peak = cfg.sample_times[idx]
        p_peak = counts[idx] / n_tx
        p_ref = cir_flow_uniform(WIDE, rx, t2)
        if distance == 200e-6:
            loc_ok = abs(t_peak - t2) <= 0.05 * t2
            tol = 3.0 * math.sqrt(p_ref * (1.0 - p_ref) / n_tx) + 0.05 * p_ref
            val_ok = True
        else:
            allowance = peak_location_allowance(WIDE, rx, t2, p_ref, n_tx)
            loc_ok = abs(t_peak - t2) <= allowance * t2
            tol = peak_value_allowance(WIDE, rx, t2, p_ref, n_tx)
            # The allowances still tell the model's t2 and P(t2) from those
            # computed with the mean velocity in place of u(r_in).
            t2_mean = (distance + rx.extent_cx / 2.0) / WIDE.mean_velocity
            p_mean = cir_flow_uniform(WIDE, rx, t2_mean)
            loc_ok &= abs(t_peak - t2_mean) > peak_location_allowance(
                WIDE, rx, t2_mean, p_ref, n_tx) * t2_mean
            val_ok = abs(p_peak - p_mean) > peak_value_allowance(
                WIDE, rx, t2_mean, p_mean, n_tx)
            details.append(f"d={distance * 1e6:.0f}um location allowance {allowance:.1%}")
        val_ok &= abs(p_peak - p_ref) <= tol
        ok = ok and loc_ok and val_ok
        details.append(f"d={distance * 1e6:.0f}um peak t dev "
                       f"{(t_peak - t2) / t2:+.1%}, value dev "
                       f"{abs(p_peak - p_ref):.1e}<= {tol:.1e}")

    rx = quarter_receiver(200e-6, 200e-6)
    release = ReleaseSpec.point(150e-6, 0.0)
    times = np.arange(1, 401) * 1e-3
    cfg = SimConfig(channel=WIDE, receivers=(rx,), releases=(release,), n_tx=100_000,
                    time_step=1e-3, seed=20241, sample_times=times)
    counts = run(cfg, threads=4).counts[0, 0]
    window = flow_point_window(WIDE, rx, release)
    width = window[1] - window[0]
    inner = (cfg.sample_times > window[0] + 0.02) & (cfg.sample_times < window[1] - 0.02)
    half = np.median(counts[inner]) / 2.0
    above = np.flatnonzero(counts >= half)
    rise_dev = abs(cfg.sample_times[above[0]] - window[0])
    fall_dev = abs(cfg.sample_times[above[-1]] - window[1])
    rect_ok = rise_dev <= 0.10 * width and fall_dev <= 0.10 * width
    ok = ok and rect_ok
    details.append(f"rect edges dev {rise_dev / width:.1%}/{fall_dev / width:.1%} of width")
    check(5, "wide-duct peaks match the flow model; point release stays rectangular",
          ok, "; ".join(details))


def test_criterion_06_dispersion_peak_time(narrow_far_run):
    rx, cfg, result = narrow_far_run
    t_ref = dispersion_peak_time(NARROW, rx.axial_distance_d)  # 800 um
    idx = smoothed_argmax(result.counts[0, 0], 81)
    t_peak = cfg.sample_times[idx]
    ok = abs(t_peak - t_ref) <= 0.10 * t_ref
    check(6, "narrow-duct simulated peak time within 10% of the design guideline",
          ok, f"t_peak={t_peak:.3f}s vs {t_ref:.3f}s ({(t_peak - t_ref) / t_ref:+.1%})")


def test_criterion_07_taylor_variance(narrow_far_run):
    _, _, result = narrow_far_run
    x = result.snapshots[0, 0][:, 0]
    target = 2.0 * effective_diffusion(NARROW) * 0.8
    ratio = x.var() / target
    ok = abs(ratio - 1.0) <= 0.10
    check(7, "axial variance at t=0.8s within 10% of 2 D_eff t",
          ok, f"ratio={ratio:.4f}")


def test_criterion_08_flow_cir_structure():
    rng = np.random.default_rng(808)
    ok = True
    worst = 0.0
    for _ in range(50):
        channel, rx = random_flow_setup(rng)
        t1, t2 = flow_transit_times(channel, rx)
        rx_fraction = rx_area_fraction(channel, rx)
        angle_fraction = rx.extent_cphi / (2 * math.pi)
        peak = cir_flow_uniform(channel, rx, t2)
        mid_at_t1 = rx_fraction - angle_fraction * (
            rx.axial_distance_d - rx.extent_cx / 2) / (2 * channel.mean_velocity * t1)
        mid_at_t2 = rx_fraction - angle_fraction * (
            rx.axial_distance_d - rx.extent_cx / 2) / (2 * channel.mean_velocity * t2)
        cont = max(abs(mid_at_t1) / rx_fraction, abs(mid_at_t2 - peak) / peak)
        worst = max(worst, cont)
        ok &= cont < 1e-12
        early = np.linspace(0.0, t1, 64)
        ok &= bool(np.all(cir_flow_uniform(channel, rx, early) == 0.0))
        grid = np.unique(np.concatenate([np.linspace(0.0, 5.0 * t2, 2501), [t1, t2]]))
        values = cir_flow_uniform(channel, rx, grid)
        t_at_max = grid[int(np.argmax(values))]
        ok &= abs(t_at_max - t2) <= 1e-9 * t2  # maximiser is t2 (up to float ties)
        ok &= values.max() <= peak + 1e-15
        tail = np.linspace(t2, 6.0 * t2, 64)
        products = cir_flow_uniform(channel, rx, tail) * tail
        ok &= bool(np.allclose(products, products[0], rtol=1e-12))
        for alpha in rng.uniform(0.02, 1.0, size=8):
            ok &= abs(cir_flow_uniform(channel, rx, t2 / alpha) - alpha * peak) \
                <= 1e-12 * peak
    check(8, "flow response: continuity, dead time, peak at t2, 1/t tail, "
             "alpha-fraction law", ok, f"worst branch mismatch {worst:.1e} rel")


def test_criterion_09_ser_pipeline():
    # (a) Poisson vs exact binomial enumeration in the approximation's
    # operating regime (n_tx = 1e3, P_ob(t0) <= 0.1, SER in the bulk).
    worst_rel = 0.0
    scenarios = [(400e-6, T) for T in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75)]
    scenarios += [(200e-6, T) for T in (0.1, 0.2, 0.3)]
    for distance, T in scenarios:
        link = flow_sweep_link(WIDE_SER, distance, T)
        xi, _ = optimal_threshold_many([link])[0]
        link = replace(link, threshold_xi=xi)
        rp = ser_analytic_many([link], SerMethod.POISSON_ANALYTIC)[0].ser
        rb = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0].ser
        worst_rel = max(worst_rel, abs(rp - rb) / rb)
    a_ok = worst_rel <= 0.05

    # (b) count-model Monte Carlo against the exact binomial computation.
    link = flow_sweep_link(WIDE_SER, 200e-6, 0.25)
    xi, _ = optimal_threshold_many([link])[0]
    link = replace(link, threshold_xi=xi)
    exact = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0].ser
    mc = ser_monte_carlo_many([link], 10_000, seed=909)[0]
    clt = 3.0 * math.sqrt(exact * (1.0 - exact) / (10_000 * link.seq_len_K))
    b_ok = abs(mc.ser - exact) <= clt

    # (c) long-interval behaviour: the far link stays interference-limited
    # while the near link becomes reliable.
    link_far = flow_sweep_link(WIDE_SER, 800e-6, 0.75)
    _, far = optimal_threshold_many([link_far])[0]
    link_near = flow_sweep_link(WIDE_SER, 200e-6, 0.75)
    _, near = optimal_threshold_many([link_near])[0]
    c_ok = far.ser > 1e-2 and near.ser < 1e-2

    check(9, "SER pipeline: Poisson~binomial 5%, Monte Carlo in CLT bound, "
             "interference keeps the far link above 1e-2",
          a_ok and b_ok and c_ok,
          f"max rel {worst_rel:.2%}; |mc-exact|={abs(mc.ser - exact):.2e}<= {clt:.2e}; "
          f"far={far.ser:.3e}, near={near.ser:.3e}")


def test_criterion_10_thread_determinism(tmp_path):
    args = ["simulate", "--seed", "1010", "--set", "release.n_tx=20000",
            "--set", "channel.radius=200 um", "--set", "rx.distance=200 um",
            "--set", "grid.t_stop=0.2", "--set", "grid.t_step=0.002"]
    rc1 = cli_main(args + ["--out", str(tmp_path / "t1"), "--threads", "1"])
    rc2 = cli_main(args + ["--out", str(tmp_path / "t4"), "--threads", "4"])
    b1 = (tmp_path / "t1" / "observations.csv").read_bytes()
    b2 = (tmp_path / "t4" / "observations.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and b1 == b2
    check(10, "same seed, different --threads produce byte-identical files",
          ok, f"{len(b1)} bytes compared")
