"""OOK detection, exact SER, threshold search, and Monte Carlo."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, poisson

from ductflow import (
    OokLinkConfig,
    Regime,
    ReleaseSpec,
    SerMethod,
    SimConfig,
    cir_flow_uniform,
    classify_regime,
    detection_offsets,
    flow_transit_times,
    optimal_threshold,
    run,
    ser_analytic,
    ser_monte_carlo,
    ser_monte_carlo_many,
)
from ductflow import presets
from ductflow.config import load_config
from ductflow.ook import (_MC_BLOCK, _MC_CELLS, _binomial_pmf, _count_terms, _error_table,
                          _inverse_cdf, _mc_block_errors, _poisson_pmf)
from ductflow.presets import _auto_link, _particle_pobs, preset_config
from conftest import make_channel, make_receiver


def flow_link(distance=200e-6, T=0.1, K=8, xi=30, noise=4.0, n_tx=1000,
              diffusion=1e-12):
    channel = make_channel(radius=200e-6, diffusion=diffusion)
    rx = make_receiver(200e-6, distance)
    t2 = flow_transit_times(channel, rx)[1]
    link = OokLinkConfig(pob=cir_flow_uniform(channel, rx, detection_offsets(T, K, t2)),
                         threshold_xi=xi, noise_mean_Nn=noise, n_tx=n_tx)
    return link, channel, rx


def binom_pmf_oracle(n, p):
    """``scipy.stats.binom.pmf`` on ``0..n-1``, or ``exp`` of ``binom.logpmf``
    where the former overflows (p below about 1e-303)."""
    k = np.arange(n)
    try:
        return binom.pmf(k, n, p)
    except OverflowError:
        return np.exp(binom.logpmf(k, n, p))


def brute_force_errors(link, method):
    """Per-symbol error at every threshold ``0..n_tx``, sequence by sequence.

    Averages over all ``2^K`` bit sequences.  Symbol ``i``'s count is the
    noise plus the count of every offset ``j`` with ``a[i - j] = 1``: Poisson
    with the summed mean (``scipy.stats.poisson.cdf``), or the convolution of
    the ``scipy.stats.binom`` pmfs with the Poisson noise's, cut where they
    fall below 1e-30.  Each distinct set of offsets is evaluated once.
    """
    k, n = link.seq_len_K, link.n_tx
    pvec = link.isi_probabilities()
    sequences = list(product((0, 1), repeat=k))
    offsets = [[tuple(j for j in range(i + 1) if bits[i - j]) for i in range(k)]
               for bits in sequences]
    distinct = sorted({key for row in offsets for key in row})
    if method is SerMethod.POISSON_ANALYTIC:
        lams = np.array([link.noise_mean_Nn + n * sum(pvec[j] for j in key)
                         for key in distinct])
        rows = poisson.cdf(np.arange(n + 1)[None, :] - 1, lams[:, None])
    else:
        def cut(pmf):
            return pmf[:np.flatnonzero(pmf > 1e-30).max(initial=0) + 1]

        counts = [cut(binom_pmf_oracle(n, p)) for p in pvec]
        # Sorted, every key follows its prefix key[:-1].
        laws = {(): cut(poisson.pmf(np.arange(n), link.noise_mean_Nn))}
        rows = np.zeros((len(distinct), n + 1))
        for row, key in zip(rows, distinct):
            if key not in laws:
                laws[key] = np.convolve(laws[key[:-1]], counts[key[-1]])[:n]
            pmf = laws[key]
            row[1:pmf.size + 1] = np.cumsum(pmf)
            row[pmf.size + 1:] = row[pmf.size]
    below = dict(zip(distinct, rows))
    errors = np.zeros((k, n + 1))
    for bits, row in zip(sequences, offsets):
        for i, key in enumerate(row):
            errors[i] += below[key] if bits[i] else 1.0 - below[key]
    return errors / 2 ** k


def rounding_tolerance(link):
    """Bound on ``|_error_table - brute_force_errors|`` from rounding and trimming.

    With ``eps`` the double epsilon and ``m = n_tx + Nn + 30``, which bounds
    every count and every mean a pmf is evaluated at:

    * each of the ``K + 1`` pmfs (noise and offsets) carries a relative
      error of at most ``6 m log(m) eps`` in its values, and hence in its
      mass: the Poisson pmf is ``exp`` of terms as large as ``m log m``
      (``k log lam``, ``log k!``, ``lam``), and the binomial kernel and the
      oracle's scipy pmfs and CDFs do better;
    * each of the ``2 K`` convolutions and the cumulative sum, and each of the
      oracle's ``K`` convolutions and its cumulative sum, adds at most
      ``(n_tx + 1) eps`` to a probability;
    * trimming drops at most ``n_tx + 1`` cells of at most 1e-18 from each pmf
      (1e-30 in the oracle).
    """
    k, n = link.seq_len_K, link.n_tx
    m = n + link.noise_mean_Nn + 30.0
    eps = np.finfo(float).eps
    return ((k + 1) * (6.0 * m * math.log(m) * eps + (n + 1) * (1e-18 + 1e-30))
            + (3 * k + 2) * (n + 1) * eps)


def assert_matches_brute_force(link, method):
    """The error table, the SER at ``link``'s threshold and the optimum, against the oracle."""
    table = _error_table(link, method)
    # Thresholds past the table's last column share that column's errors.
    table = np.pad(table, ((0, 0), (0, link.n_tx + 1 - table.shape[1])), mode="edge")
    oracle = brute_force_errors(link, method)
    tol = rounding_tolerance(link)
    assert np.max(np.abs(table - oracle)) <= tol
    result = ser_analytic(link, method)
    assert np.array_equal(result.per_symbol_errors,
                          np.clip(table[:, link.threshold_xi], 0.0, 1.0))
    xi, best = optimal_threshold(link, method)
    assert np.array_equal(best.per_symbol_errors, np.clip(table[:, xi], 0.0, 1.0))
    assert best.ser <= 1.0 and np.all(best.per_symbol_errors <= 1.0)
    assert best.ser >= 0.0 and np.all(best.per_symbol_errors >= 0.0)
    # The table is within tol of the oracle at every threshold, so the
    # table's minimiser is within 2 tol of the oracle's minimum.
    assert oracle[:, xi].mean() <= oracle.mean(axis=0).min() + 2.0 * tol
    return best


def _scan_links() -> dict:
    """Links the error table is checked on against brute force, keyed by test id."""
    cfg = preset_config("ser_sweep")
    links = {f"sweep-d{d * 1e6:g}um-T{T:g}": _auto_link(cfg, d, T)[0]
             for d in cfg["ser.distances"] for T in cfg["ser.symbol_intervals"]}
    rng = np.random.default_rng(2017)
    for i in range(40):
        k = int(rng.integers(1, 9))
        pvec = rng.random(k) ** rng.uniform(1.0, 8.0)
        links[f"random{i}"] = OokLinkConfig(pvec, 0, float(rng.choice([0.0, 0.5, 4.0, 30.0])),
                                            int(rng.choice([20, 100, 400, 1000])))
    links["dead-channel"] = OokLinkConfig(np.zeros(3), 0, 4.0, 1000)
    links["dead-channel-no-noise"] = OokLinkConfig(np.zeros(1), 0, 0.0, 1000)
    links["no-noise"] = flow_link(T=0.2, noise=0.0)[0]
    # The all-ones mean, 4 + 50 x 3.25, lies far above n_tx = 50, so much of
    # the count's mass lies past n_tx, which the error table censors into cell n_tx.
    links["never-saturates"] = OokLinkConfig([0.95, 0.9, 0.8, 0.6], 0, 4.0, 50)
    return links


SCAN_LINKS = _scan_links()
ANALYTIC = [SerMethod.POISSON_ANALYTIC, SerMethod.BINOMIAL_ANALYTIC]


def _pmf_window(mean, var, top=None):
    """The cells ``_trimmed_pmf`` evaluates around ``mean``, as ``(low, high)``."""
    half = 12.0 * math.sqrt(var) + 30.0
    high = int(mean + half)
    return max(int(mean - half), 0), high if top is None else min(high, top)


class TestPmfs:
    """The pmfs against exact values (mpmath, 40 digits) and against ``scipy.stats``.

    Each pmf is its value at the mode, from Loader's saddle-point form, times
    running products of the ratios of neighbouring cells.  With ``eps`` the
    double epsilon, a cell ``s`` steps from the mode is off by at most
    ``eps (8 + c s)`` relative:

    * the anchor sums five terms of magnitude at most 1 (``stirlerr`` and
      ``bd0`` at the mode), then takes ``exp``, a square root and the final
      product with the ratios: a few ulp, budgeted as ``8 eps``;
    * each binomial step rounds ``(n - k) / (k + 1)``, its product with
      ``p / q`` and the running product, and carries the two roundings of the
      shared ``q = 1 - p`` and ``p / q``: five half-ulps, ``c = 2.5``; each
      Poisson step rounds ``lam / (k + 1)`` and the running product, ``c = 1``.

    Cells near the underflow threshold lose their relative precision, so an
    absolute ``1e-300`` is allowed on top.
    """

    P_GRID = [0.0, 1e-18, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-15,
              np.nextafter(1.0, 0.0), 1.0]
    N_GRID = [0, 1, 7, 100, 1000, 3000]
    LAM_GRID = [0.0, 1e-18, 1e-6, 0.5, 4.0, 37.3, 1e3]

    @staticmethod
    def _assert_accurate(pmf, low, exact, per_step):
        """``pmf`` on ``low..`` within the bound above of ``exact(k)``, at sampled cells."""
        eps = np.finfo(float).eps
        mode = low + int(np.argmax(pmf))
        high = low + pmf.size - 1
        cells = set(np.linspace(low, high, 41).astype(int)) | {mode - 1, mode, mode + 1}
        assert np.all(pmf >= 0.0) and np.all(pmf <= 1.0)
        for k in sorted(int(c) for c in cells if low <= c <= high):
            # argmax can sit one cell off the mode the pmf is anchored at on ties.
            tol = eps * (8.0 + per_step * (abs(k - mode) + 1))
            ref = exact(k)
            assert abs(mpmath.mpf(float(pmf[k - low])) - ref) <= tol * ref + 1e-300, k

    @pytest.mark.parametrize("n", N_GRID + [10**7])
    def test_binomial_accuracy(self, n):
        mpmath.mp.dps = 40
        for p in self.P_GRID + list(np.random.default_rng(n).random(20)):
            low, high = (0, n) if n <= 3000 else _pmf_window(n * p, n * p * (1.0 - p), n)
            exact_p = mpmath.mpf(float(p))

            def exact(k):
                return (mpmath.binomial(n, k) * exact_p ** k
                        * (1 - exact_p) ** (n - k))

            self._assert_accurate(_binomial_pmf(low, high, n, p), low, exact, 2.5)

    @pytest.mark.parametrize("lam", LAM_GRID + [1e7])
    def test_poisson_accuracy(self, lam):
        mpmath.mp.dps = 40
        low, high = _pmf_window(lam, lam)
        exact_lam = mpmath.mpf(lam)

        def exact(k):
            if lam == 0.0:
                return mpmath.mpf(k == 0)
            return mpmath.exp(k * mpmath.log(exact_lam) - mpmath.loggamma(k + 1) - exact_lam)

        self._assert_accurate(_poisson_pmf(low, high, lam), low, exact, 1.0)

    # scipy.stats evaluates these pmfs in log space: its Poisson pmf,
    # exp(k log lam - lgamma(k + 1) - lam), carries a relative error up to
    # about 6 m log(m) eps (m = lam + 12 sd + 31) and its binomial pmf less,
    # so every cell agrees within that plus the bound above.

    @pytest.mark.parametrize("n", N_GRID)
    def test_binomial_matches_scipy_stats(self, n):
        k = np.arange(n + 1)
        m = n + 31.0
        eps = np.finfo(float).eps
        for p in self.P_GRID + list(np.random.default_rng(n).random(20)):
            tol = eps * (8.0 + 2.5 * (n + 1) + 6.0 * m * math.log(m))
            assert np.allclose(_binomial_pmf(0, n, n, p), binom.pmf(k, n, p),
                               rtol=tol, atol=1e-300), p

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_poisson_matches_scipy_stats(self, lam):
        high = int(lam + 12.0 * math.sqrt(lam) + 30.0)
        m = high + 1.0
        tol = np.finfo(float).eps * (8.0 + high + 6.0 * m * math.log(m))
        assert np.allclose(_poisson_pmf(0, high, lam), poisson.pmf(np.arange(high + 1), lam),
                           rtol=tol, atol=1e-300)


class TestSerAnalytic:
    def test_dead_channel_k1(self):
        link = OokLinkConfig(np.zeros(1), 1, 0.0, 1000)
        assert ser_analytic(link).ser == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_zero_threshold_gives_half(self, k):
        link, *_ = flow_link(K=k, xi=0)
        result = ser_analytic(link)
        assert result.ser == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(result.per_symbol_errors, 0.5, atol=1e-12)

    def test_ser_equals_mean_per_symbol(self):
        link, *_ = flow_link(K=8, xi=55)
        for method in (SerMethod.POISSON_ANALYTIC, SerMethod.BINOMIAL_ANALYTIC):
            result = ser_analytic(link, method)
            assert result.ser == pytest.approx(
                float(np.mean(result.per_symbol_errors)), abs=1e-15)

    @pytest.mark.parametrize("distance,T", [(200e-6, 0.1), (200e-6, 0.3),
                                            (400e-6, 0.3), (400e-6, 0.75)])
    def test_poisson_close_to_binomial_when_valid(self, distance, T):
        # n_tx = 1e3 with P_ob(t0) <= 0.1; agreement degrades only deep in
        # the tails (SER far below 1e-2), where binomial variance n p (1-p)
        # genuinely undercuts the Poisson n p.
        link, *_ = flow_link(distance=distance, T=T, xi=0)
        xi, _ = optimal_threshold(link)
        link = replace(link, threshold_xi=xi)
        rp = ser_analytic(link, SerMethod.POISSON_ANALYTIC).ser
        rb = ser_analytic(link, SerMethod.BINOMIAL_ANALYTIC).ser
        assert rp == pytest.approx(rb, rel=0.05)

    def test_binomial_kernel_overflow(self):
        # p from the smallest normal double up to 1e-30.  Every count here
        # has a mean n p below the pmf tail, so it is 0 exactly, as on a
        # dead channel, and no pmf is evaluated.
        pvec = [np.finfo(float).tiny, 1e-305, 1e-300, 1e-30]
        for n in (1000, 10**7):
            tiny = OokLinkConfig(pvec, 1, 0.5, n)
            dead = replace(tiny, pob=np.zeros(len(pvec)))
            for method in ANALYTIC:
                assert np.array_equal(ser_analytic(tiny, method).per_symbol_errors,
                                      ser_analytic(dead, method).per_symbol_errors)
                if n == 1000:  # the oracle's tables are n_tx wide
                    assert_matches_brute_force(tiny, method)
            assert np.array_equal(ser_monte_carlo(tiny, 100, seed=1).per_symbol_errors,
                                  ser_monte_carlo(dead, 100, seed=1).per_symbol_errors)

    def test_isi_free_channel_reduces_to_single_symbol(self):
        # P_ob supported strictly inside one symbol interval: no memory.
        def pulse(t):
            return np.where((t > 0.02) & (t < 0.08), 0.05, 0.0)

        full = OokLinkConfig(pulse(detection_offsets(0.1, 6, 0.05)), 30, 4.0, 1000)
        single = OokLinkConfig(pulse(detection_offsets(0.1, 1, 0.05)), 30, 4.0, 1000)
        assert ser_analytic(full).ser == pytest.approx(ser_analytic(single).ser, abs=1e-14)
        assert np.allclose(ser_analytic(full).per_symbol_errors,
                           ser_analytic(single).ser, atol=1e-14)

    @pytest.mark.parametrize("method", ANALYTIC, ids=lambda m: m.value)
    @pytest.mark.parametrize("xi", [28, 30, 32])
    def test_tiny_error_matches_mpmath(self, xi, method):
        # One symbol with n_tx p = 200 signal molecules over Poisson(4) noise:
        # the SER is about P(Poisson(4) >= xi) / 2, 2.5e-15 down to 7.3e-19, far
        # below an ulp of 1.  Exact to 40 digits, with the miss P(N + X_0 < xi) / 2.
        mpmath.mp.dps = 40
        noise = [mpmath.exp(-4) * mpmath.mpf(4) ** k / mpmath.factorial(k) for k in range(100)]
        p = mpmath.mpf(0.2)
        if method is SerMethod.POISSON_ANALYTIC:
            signal = [mpmath.exp(-1000 * p) * (1000 * p) ** b / mpmath.factorial(b)
                      for b in range(xi)]
        else:
            signal = [mpmath.binomial(1000, b) * p ** b * (1 - p) ** (1000 - b) for b in range(xi)]
        miss = sum(noise[k - b] * signal[b] for k in range(xi) for b in range(k + 1))
        exact = (miss + mpmath.gammainc(xi, 0, 4, regularized=True)) / 2
        # Trimming keeps the noise cells above 1e-18, k <= top, so every false
        # alarm loses P(N > top), and the miss may read as low as 0.  Each kept
        # cell is off by at most (8 + |k - 4| + 1) eps relative (TestPmfs), a
        # sum of them by top eps more, and halving and adding by 2 eps.
        top = max(k for k, cell in enumerate(noise) if cell > 1e-18)
        tol = ((mpmath.gammainc(top + 1, 0, 4, regularized=True) + miss) / 2
               + (2 * top + 7) * np.finfo(float).eps * exact)
        result = ser_analytic(OokLinkConfig([0.2], xi, 4.0, 1000), method)
        assert abs(mpmath.mpf(result.ser) - exact) <= tol


class TestOptimalThreshold:
    def test_dead_channel_ties_at_half_and_breaks_low(self):
        # With no signal and no noise every threshold errs on exactly half
        # the symbols (xi = 0 flags all zeros, xi >= 1 misses all ones), so
        # the whole domain ties and the smallest threshold wins.
        link = OokLinkConfig(np.zeros(1), 0, 0.0, 1000)
        xi, result = optimal_threshold(link)
        assert xi == 0
        assert result.ser == pytest.approx(0.5, abs=1e-15)
        assert ser_analytic(replace(link, threshold_xi=1)).ser == result.ser

    def test_matches_direct_scan(self):
        link, *_ = flow_link(T=0.3)
        xi, result = optimal_threshold(link)
        scan = [ser_analytic(replace(link, threshold_xi=x)).ser for x in range(0, 300)]
        assert xi == int(np.argmin(scan))
        assert result.ser == pytest.approx(min(scan), abs=1e-14)

    def test_optimum_beats_sampled_alternatives(self):
        rng = np.random.default_rng(31)
        link, *_ = flow_link(T=0.25)
        xi, result = optimal_threshold(link)
        for other in rng.integers(0, link.n_tx + 1, size=25):
            assert result.ser <= ser_analytic(
                replace(link, threshold_xi=int(other))).ser + 1e-15

    def test_strong_isolated_channel_is_reliable(self):
        # Single-shot link with a strong pulse and weak noise.
        link = OokLinkConfig(np.array([0.2]), 0, 1.0, 2000)
        xi, result = optimal_threshold(link)
        assert result.ser < 1e-3
        assert 1 < xi < 400

    def test_binomial_search_agrees_with_poisson_when_valid(self):
        link, *_ = flow_link(T=0.3)
        xi_p, rp = optimal_threshold(link, SerMethod.POISSON_ANALYTIC)
        xi_b, rb = optimal_threshold(link, SerMethod.BINOMIAL_ANALYTIC)
        assert abs(xi_p - xi_b) <= 3
        assert rp.ser == pytest.approx(rb.ser, rel=0.05)

    # Checks the error table against brute force; it keeps its earlier name
    # so that its 208 ids stay comparable across versions.
    @pytest.mark.parametrize("method", ANALYTIC, ids=lambda m: m.value)
    @pytest.mark.parametrize("name", sorted(SCAN_LINKS))
    def test_saturating_scan_equals_full_table(self, name, method):
        assert_matches_brute_force(SCAN_LINKS[name], method)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pvec=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           noise=st.floats(0.0, 60.0), n_tx=st.integers(1, 400),
           xi=st.integers(0, 400), method=st.sampled_from(ANALYTIC))
    def test_scan_property(self, pvec, noise, n_tx, xi, method):
        assert_matches_brute_force(OokLinkConfig(pvec, min(xi, n_tx), noise, n_tx), method)

    def test_ser_non_increasing_in_n_tx(self):
        sers = []
        for n_tx in (200, 500, 1000, 2000):
            link, *_ = flow_link(T=0.4, n_tx=n_tx)
            _, result = optimal_threshold(link)
            sers.append(result.ser)
        assert all(a >= b - 1e-12 for a, b in zip(sers, sers[1:]))


def particle_cfg(diffusion):
    """A 10 um duct whose receiver, at 20 um, matches ``make_receiver(10e-6, 20e-6)``."""
    return load_config({"channel.radius": 10e-6, "channel.diffusion": diffusion,
                        "rx.distance": 20e-6, "release.n_tx": 200,
                        "sim.time_step": 1e-4, "seed": 7})


#: Three symbols 10 ms apart, detected from 15 ms on, on n_tx = 200 at threshold 6.
PARTICLE_OFFSETS = detection_offsets(0.01, 3, 0.015)
PARTICLE_LINK = OokLinkConfig(np.zeros(3), 6, 0.5, 200)


def particle_link(cfg, threads):
    """``PARTICLE_LINK`` on the pool's ``P_ob`` at ``PARTICLE_OFFSETS``, as the sweep builds it."""
    (pob,) = _particle_pobs(cfg, [(cfg.receiver(), PARTICLE_OFFSETS)], threads)
    return replace(PARTICLE_LINK, pob=pob)


def binary_search_cells(term, u):
    """The count of each uniform in ``u`` by binary search of the term's cumulative sum."""
    start, pmf = term
    return np.minimum(np.searchsorted(np.cumsum(pmf), u, side="right"), pmf.size - 1) + start


def mask_counts_block(link, terms, realizations, rng):
    """One block of the count Monte Carlo by boolean masks and binary search.

    The form the flat-index scatter and the guide table replaced: offset
    ``j`` adds its counts through the mask ``sent[:, :K - j]`` on the view
    ``counts[:, j:]``, drawing one uniform per masked cell in C order.
    """
    k = link.seq_len_K
    sent = rng.integers(0, 2, size=(realizations, k), dtype=np.int64) == 1
    counts = binary_search_cells(terms[0], rng.random((realizations, k)))
    for j, term in enumerate(terms[1:]):
        active = sent[:, :k - j]
        counts[:, j:][active] += binary_search_cells(term, rng.random(np.count_nonzero(active)))
    return (counts >= link.threshold_xi) != sent


def adversarial_uniforms(pmf):
    """Uniforms on and next to every edge a guide table or a binary search can meet.

    Every cumulative sum and its neighbouring doubles, every bucket edge
    ``i / m`` and the double below it for each power of two ``m`` up to
    eight times the pmf's width, and the ends ``0`` and ``1 - 2^-53`` of
    ``Generator.random``'s range.
    """
    cdf = np.cumsum(pmf)
    edges = [cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [0.0, 1.0 - 2.0 ** -53]]
    m = 1
    while m <= 8 * pmf.size:
        buckets = np.arange(m) / m
        edges += [buckets, np.nextafter(buckets, -1.0)]
        m *= 2
    u = np.concatenate(edges)
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


def _inverse_cdf_terms() -> dict:
    """Trimmed pmfs the guide table is checked on, keyed by test id."""
    link, *_ = flow_link(T=0.1, K=8)
    terms = {f"flow-{i}": term
             for i, term in enumerate(_count_terms(link, SerMethod.BINOMIAL_ANALYTIC))}
    terms["point-mass"] = (0, np.ones(1))
    terms["point-mass-start"] = (7, np.ones(1))
    terms["two-cells"] = (3, np.array([0.25, 0.75]))
    # Cumulative sums that fall on bucket edges i / m.
    terms["quarters"] = (0, np.full(4, 0.25))
    # Cells of 1e-19 vanish when added to a sum near 1, so the cumulative
    # sum runs flat across them, in the middle and at the top.
    terms["flat-runs"] = (2, np.array([0.5, 1e-19, 1e-19, 0.25, 0.25 - 1e-17, 1e-17, 1e-19, 1e-19]))
    # Short of 1 by more than a cell: the top uniforms draw the last cell.
    terms["short-mass"] = (1, np.array([0.3, 0.3, 0.3]))
    terms["wide-poisson"] = (0, _poisson_pmf(0, 399, 200.0))
    return terms


INVERSE_CDF_TERMS = _inverse_cdf_terms()


class TestSerMonteCarlo:
    def test_counts_mode_matches_binomial_analytic(self):
        link, *_ = flow_link(T=0.25)
        xi, _ = optimal_threshold(link)
        link = replace(link, threshold_xi=xi)
        exact = ser_analytic(link, SerMethod.BINOMIAL_ANALYTIC).ser
        mc = ser_monte_carlo(link, 10_000, seed=17, method=SerMethod.MONTE_CARLO_COUNTS)
        bound = 3.0 * math.sqrt(exact * (1.0 - exact) / (10_000 * link.seq_len_K))
        assert abs(mc.ser - exact) <= bound

    # Pinned count-mode SER of the draw order bits, one noise uniform per
    # cell, then one uniform per active (realization, symbol) cell for each
    # offset, each turned into a count by inverse CDF.  A change of that
    # stream on purpose updates it.
    def test_counts_mode_pinned(self):
        link, *_ = flow_link(T=0.25, xi=70)
        result = ser_monte_carlo(link, 2000, seed=17)
        assert result.ser == 0.059125
        assert result.per_symbol_errors.tolist() == [
            0.0715, 0.0305, 0.023, 0.033, 0.044, 0.0655, 0.093, 0.1125]

    # Two blocks, the second of 5 realizations: the errors of each symbol,
    # summed over 65 541 realizations, that the boolean-mask, binary-search
    # draw gave.
    def test_counts_mode_pinned_two_blocks(self):
        link, *_ = flow_link(T=0.25, xi=70)
        realizations = _MC_BLOCK + 5
        result = ser_monte_carlo(link, realizations, seed=17)
        errors = np.array([4442, 2205, 1233, 2003, 3266, 4756, 6110, 7403])
        assert result.ser == 0.059920507773759936
        assert result.per_symbol_errors.tolist() == (errors / realizations).tolist()

    @pytest.mark.parametrize("name", INVERSE_CDF_TERMS)
    def test_inverse_cdf_is_binary_search(self, name):
        # The guide table draws the cell a binary search would, on every
        # uniform next to an edge and on random ones, for 1-D and 2-D u.
        term = INVERSE_CDF_TERMS[name]
        u = np.concatenate([adversarial_uniforms(term[1]),
                            np.random.default_rng(5).random(10_000)])
        assert np.array_equal(_inverse_cdf(term, u), binary_search_cells(term, u))
        u = u[:u.size // 4 * 4].reshape(-1, 4)
        cells = _inverse_cdf(term, u)
        assert cells.shape == u.shape
        assert np.array_equal(cells, binary_search_cells(term, u))

    @pytest.mark.parametrize("k", [1, 2, 8, 25])
    @pytest.mark.parametrize("xi", ["zero", "own", "n_tx"])
    def test_block_matches_boolean_masks(self, k, xi):
        # The same uniforms give the same counts, so the same errors of each
        # symbol, and the generators end in the same state.
        link, *_ = flow_link(T=0.1, K=k)
        links = [link, OokLinkConfig(np.where(np.arange(k) % 2, 0.0, link.pob), 0, 0.0, 1000)]
        for link in links:
            link = replace(link, threshold_xi={"zero": 0, "own": 30, "n_tx": link.n_tx}[xi])
            terms = _count_terms(link, SerMethod.BINOMIAL_ANALYTIC)
            fast, slow = np.random.default_rng(k), np.random.default_rng(k)
            assert np.array_equal(_mc_block_errors([link], [terms], 3001, fast)[0],
                                  mask_counts_block(link, terms, 3001, slow).sum(axis=0))
            assert fast.random() == slow.random()

    @pytest.mark.parametrize("k", [1, 8, 25])
    @pytest.mark.parametrize("realizations", [3001, _MC_BLOCK + 5])
    def test_many_is_one_link_at_a_time(self, k, realizations):
        # Links that differ in pob (zero entries included), in threshold and
        # in n_tx: each result equals, bit for bit, a run of that link alone.
        link, *_ = flow_link(T=0.1, K=k)
        links = [link, replace(link, threshold_xi=0), replace(link, threshold_xi=link.n_tx),
                 replace(link, pob=np.where(np.arange(k) % 2, 0.0, link.pob[::-1])),
                 replace(link, pob=np.zeros(k)),
                 replace(link, n_tx=300, threshold_xi=12)]
        many = ser_monte_carlo_many(links, realizations, seed=29)
        assert len(many) == len(links)
        for one, got in zip(links, many):
            alone = ser_monte_carlo(one, realizations, seed=29)
            assert got.ser == alone.ser
            assert np.array_equal(got.per_symbol_errors, alone.per_symbol_errors)

    def test_many_refuses_mixed_links(self):
        link, *_ = flow_link(K=8)
        for other in (flow_link(K=9)[0], replace(link, noise_mean_Nn=5.0)):
            with pytest.raises(ValueError, match="share their sequence length and noise mean"):
                ser_monte_carlo_many([link, other], 10, seed=1)
        assert ser_monte_carlo_many([], 10, seed=1) == []
        with pytest.raises(ValueError, match="at least one realization"):
            ser_monte_carlo_many([link], 0, seed=1)

    def test_inverse_cdf_cells(self):
        # Cumulative sums 0.25, 0.75 and 1 - 2^-53, the largest uniform
        # Generator.random returns; u on an edge draws the next cell.
        term = (3, np.array([0.25, 0.5, 0.25 - 2.0 ** -53]))
        u = np.array([0.0, np.nextafter(0.25, 0.0), 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53])
        assert _inverse_cdf(term, u).tolist() == [3, 3, 4, 4, 5, 5]
        # A u above the last cumulative sum draws the last cell.
        assert _inverse_cdf((0, np.array([0.5, 0.25])), np.array([0.8, 0.99])).tolist() == [1, 1]

    def test_counts_mode_unbiased_over_seeds(self):
        # Seeds 1-40 at 1e4 realizations: each standardised deviation is
        # about N(0, 1), so their mean lies within 4 / sqrt(40) of 0.
        link, *_ = flow_link(T=0.25)
        xi, _ = optimal_threshold(link)
        link = replace(link, threshold_xi=xi)
        exact = ser_analytic(link, SerMethod.BINOMIAL_ANALYTIC).ser
        sd = math.sqrt(exact * (1.0 - exact) / (10_000 * link.seq_len_K))
        z = [(ser_monte_carlo(link, 10_000, seed=s).ser - exact) / sd for s in range(1, 41)]
        assert abs(np.mean(z)) <= 4.0 / math.sqrt(40)

    def test_zero_threshold_empirical_half(self):
        link, *_ = flow_link(xi=0)
        mc = ser_monte_carlo(link, 4000, seed=3)
        assert abs(mc.ser - 0.5) <= 3.0 * math.sqrt(0.25 / (4000 * 8))

    def test_single_realization_reproducible(self):
        link, *_ = flow_link()
        one = ser_monte_carlo(link, 1, seed=55)
        two = ser_monte_carlo(link, 1, seed=55)
        assert one.ser == two.ser
        assert np.array_equal(one.per_symbol_errors, two.per_symbol_errors)

    def test_blocks_bound_memory(self):
        # 3e5 realizations span five blocks of _MC_BLOCK.  A block holds its
        # bits (1 byte a cell); its noise draw holds the uniforms, the counts
        # and the cumulative sums the guide table's dense step compares them
        # with (8 bytes each) and the step's flags (1 byte): 26 bytes a cell,
        # 13.7 MB measured.  One offset's draw holds the counts (8 bytes a
        # cell) and, per target (at most about half the cells), the target,
        # its uniform, its drawn count and the sum gathered or compared with
        # it (8 bytes each): about 25.5 bytes a cell.  The peak stays under
        # 32 bytes a cell of one block, 16.8 MB: below even one unblocked
        # (realizations, K) int64 array (19.2 MB).  Drawn unblocked, the peak
        # was 77 MB.  Summing the blocks' errors must keep every per-symbol
        # rate within 4 standard errors of the binomial-analytic value.
        link, *_ = flow_link(T=0.25)
        xi, _ = optimal_threshold(link)
        link = replace(link, threshold_xi=xi)
        realizations = 300_000
        bound = 32 * _MC_BLOCK * link.seq_len_K
        assert realizations > 4 * _MC_BLOCK and bound < 8 * realizations * link.seq_len_K
        tracemalloc.start()
        try:
            mc = ser_monte_carlo(link, realizations, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        p = ser_analytic(link, SerMethod.BINOMIAL_ANALYTIC).per_symbol_errors
        assert np.all(np.abs(mc.per_symbol_errors - p)
                      <= 4.0 * np.sqrt(p * (1.0 - p) / realizations))

    def test_blocks_bound_memory_for_long_links(self):
        # At K = 64 a block holds _MC_CELLS // 64 = 8192 realizations, so
        # 40 000 span five blocks.  Per cell of one block the peak is the one
        # test_blocks_bound_memory counts, under 32 bytes; one unblocked
        # (realizations, K) int64 array would be 20.5 MB, and drawn as one
        # block they peak at 66.6 MB.  Every per-symbol rate lies within 4
        # standard errors of the binomial-analytic value.
        link, *_ = flow_link(T=0.05, K=64)
        xi, _ = optimal_threshold(link)
        link = replace(link, threshold_xi=xi)
        realizations = 40_000
        bound = 32 * _MC_CELLS
        assert realizations > 3 * (_MC_CELLS // 64) and bound < 8 * realizations * 64
        tracemalloc.start()
        try:
            mc = ser_monte_carlo(link, realizations, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        p = ser_analytic(link, SerMethod.BINOMIAL_ANALYTIC).per_symbol_errors
        assert np.all(np.abs(mc.per_symbol_errors - p)
                      <= 4.0 * np.sqrt(p * (1.0 - p) / realizations))

    def test_refuses_analytic_methods(self):
        link, *_ = flow_link()
        for method in (*ANALYTIC, SerMethod.PARTICLE_BINOMIAL):
            with pytest.raises(ValueError, match="not a Monte Carlo method"):
                ser_monte_carlo(link, 10, seed=1, method=method)

    # The particle Monte Carlo that ``particle_binomial`` replaced drew every
    # release from a pool's per-particle observation patterns.  On a
    # 2000-particle pool of the engine's earlier streams (seed 7, 2000
    # realizations) it gave these SERs and per-symbol errors.
    MC_PARTICLE_SER = {
        1e-10: (0.17833333333333334, [0.101, 0.203, 0.231]),
        0.0: (0.16233333333333333, [0.0925, 0.1665, 0.228]),
    }
    # The exact binomial SER and per-symbol errors on the same-sized pool of
    # the block-keyed streams: they pin the pool bit for bit.
    PINNED_PARTICLE_SER = {
        1e-10: (0.22554450773727788,
                [0.18299466003105097, 0.21608056170274342, 0.2775583014780392]),
        0.0: (0.13603852607525938,
              [0.04962502937837393, 0.1396283865950368, 0.21886216225236738]),
    }

    @staticmethod
    def pool_sd(link, n_pool):
        """Bound on the standard deviation of each per-symbol error from the
        pool's sampling error: ``sum_j |de/dp_j| sd(p_j)``, which holds for
        any correlation between offsets (gradient by central differences)."""
        p = link.pob
        bound = 0.0
        for j, step in enumerate(1e-6 * np.eye(p.size)):
            up, down = (ser_analytic(replace(link, pob=p + sign * step),
                                     SerMethod.BINOMIAL_ANALYTIC).per_symbol_errors
                        for sign in (1.0, -1.0))
            bound = bound + np.abs(up - down) / 2e-6 * math.sqrt(p[j] * (1.0 - p[j]) / n_pool)
        return bound

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("diffusion", [1e-10, 0.0])
    def test_particle_mode_pinned(self, monkeypatch, diffusion, threads):
        monkeypatch.setattr(presets, "_POOL_PARTICLES", 2000)
        cfg = particle_cfg(diffusion)
        link, other = (particle_link(cfg, t) for t in (threads, 4 - threads))
        exact, again = (ser_analytic(k, SerMethod.BINOMIAL_ANALYTIC) for k in (link, other))
        assert exact.ser == again.ser
        assert np.array_equal(exact.per_symbol_errors, again.per_symbol_errors)
        ser, per_symbol = self.PINNED_PARTICLE_SER[diffusion]
        assert exact.ser == pytest.approx(ser, rel=1e-12)
        assert np.allclose(exact.per_symbol_errors, per_symbol, rtol=1e-12, atol=0.0)
        # The retired Monte Carlo estimated the exact SER of its own pool.
        # Against this pool's, it differs by its 2000 realizations' binomial
        # error plus the sampling error of two independent 2000-particle
        # pools; 4 standard deviations of both together.
        _, mc = self.MC_PARTICLE_SER[diffusion]
        e = exact.per_symbol_errors
        sd = np.sqrt(e * (1.0 - e) / 2000 + 2.0 * self.pool_sd(link, 2000) ** 2)
        assert np.all(np.abs(np.array(mc) - e) <= 4.0 * sd)


class TestParticleBinomial:
    """``particle_binomial``: the binomial SER on a pool's empirical ``P_ob``."""

    def test_is_binomial_on_pool_fractions(self, monkeypatch):
        monkeypatch.setattr(presets, "_POOL_PARTICLES", 2000)
        cfg = particle_cfg(1e-10)
        link = particle_link(cfg, threads=2)
        offsets = 0.015 + 0.01 * np.arange(3)
        assert np.array_equal(PARTICLE_OFFSETS, offsets)
        pool = SimConfig(channel=make_channel(radius=10e-6, diffusion=1e-10),
                         rx=make_receiver(10e-6, 20e-6), release=ReleaseSpec.uniform(2000),
                         time_step=1e-4, seed=7, sample_times=offsets)
        counts = run(pool).series.counts
        assert np.all(counts > 0)
        assert np.array_equal(link.pob, counts / 2000)
        result = ser_analytic(link, SerMethod.BINOMIAL_ANALYTIC)
        oracle = brute_force_errors(link, SerMethod.BINOMIAL_ANALYTIC)[:, link.threshold_xi]
        assert np.max(np.abs(result.per_symbol_errors - oracle)) <= rounding_tolerance(link)


class TestLongSequences:
    """Links longer than the presets' K = 8, up to lengths whose ``2^K``
    sequences no enumeration could visit."""

    @pytest.mark.parametrize("k", [20, 25])
    def test_long_links_run_in_bounded_memory(self, k):
        # n_tx = 1000: the error table is K x 1001 doubles (200 kB at K = 25),
        # and each law it is built from spans at most 1000 cells.
        link, *_ = flow_link(T=0.05, K=k)
        tracemalloc.start()
        try:
            for method in ANALYTIC:
                xi, result = optimal_threshold(link, method)
                assert result.per_symbol_errors.shape == (k,)
                assert 0.0 < result.ser < 0.5
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_k25_binomial_matches_count_monte_carlo(self):
        # Symbol i's errors are iid over realizations, so each per-symbol
        # estimate lies within 4 standard errors of its exact value; so does
        # the SER, whose per-realization mean error has variance at most
        # ser (1 - ser) because it lies in [0, 1].  The 26 checks at 4
        # standard errors fail together with probability below 2e-3.
        link, *_ = flow_link(T=0.05, K=25)
        xi, _ = optimal_threshold(link)
        link = replace(link, threshold_xi=xi)
        exact = ser_analytic(link, SerMethod.BINOMIAL_ANALYTIC)
        realizations = 20_000
        mc = ser_monte_carlo(link, realizations, seed=25)
        p = exact.per_symbol_errors
        assert np.all(np.abs(mc.per_symbol_errors - p)
                      <= 4.0 * np.sqrt(p * (1.0 - p) / realizations))
        assert abs(mc.ser - exact.ser) <= 4.0 * math.sqrt(
            exact.ser * (1.0 - exact.ser) / realizations)

    def test_sweep_sized_tables_pass(self):
        link, *_ = flow_link(K=12)
        optimal_threshold(link)
        ser_analytic(link, SerMethod.BINOMIAL_ANALYTIC)


class TestLinkValidation:
    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            OokLinkConfig(np.zeros(4), 1001, 4.0, 1000)
        with pytest.raises(ValueError):
            OokLinkConfig(np.zeros(4), -1, 4.0, 1000)

    def test_basic_invariants(self):
        with pytest.raises(ValueError, match="symbol interval must be positive"):
            detection_offsets(0.0, 4, 0.05)
        with pytest.raises(ValueError, match="sequence length must be at least 1"):
            detection_offsets(0.1, 0, 0.05)
        with pytest.raises(ValueError, match="detection delay must be non-negative"):
            detection_offsets(0.1, 4, -0.05)
        with pytest.raises(ValueError, match="sequence length must be at least 1"):
            OokLinkConfig(np.zeros(0), 0, 4.0, 1000)
        with pytest.raises(ValueError, match="observation probabilities"):
            OokLinkConfig([0.5, 1.5], 0, 4.0, 1000)
        with pytest.raises(ValueError, match="observation probabilities"):
            OokLinkConfig([np.nan], 0, 4.0, 1000)

    def test_link_is_its_probabilities(self):
        pvec = np.array([0.3, 0.1, 0.05])
        link = OokLinkConfig(pvec, 2, 4.0, 100)
        assert link.seq_len_K == 3
        assert np.array_equal(link.pob, pvec) and link.isi_probabilities() is link.pob
        pvec[0] = 0.9
        assert link.pob[0] == 0.3
        with pytest.raises(ValueError):
            link.pob[0] = 0.9

    def test_pob_zero_at_zero_delay(self):
        # At t0 = 0 the first offset is the release instant, where neither
        # closed form has seen a molecule arrive.
        for diffusion, regime in [(1e-9, Regime.DISPERSION), (1e-12, Regime.FLOW_DOMINATED)]:
            cfg = load_config({"channel.radius": 10e-6, "channel.diffusion": diffusion,
                               "ook.detection_delay": 0.0})
            link, rx, offsets = _auto_link(cfg, 200e-6, 0.1)
            assert classify_regime(cfg.channel(), rx).regime is regime
            assert offsets[0] == 0.0 and offsets[1] == 0.1
            assert link.pob[0] == 0.0
            assert np.any(link.pob > 0.0)
