"""OOK detection, exact SER, threshold search, and Monte Carlo."""

import math
import tracemalloc
from collections import deque
from dataclasses import replace
from itertools import product
from statistics import NormalDist

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
    optimal_threshold_many,
    ser_analytic_many,
    ser_monte_carlo_many,
)
from ductflow import ook, particles, presets
from ductflow.config import load_config
from ductflow.ook import (_MC_BLOCK, _MC_CELLS, _cdf_edges, _count_terms, _error_table,
                          _mc_block_errors, _sorted_draw, _stacked_pmfs)
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
    pvec = link.pob
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
    table = _error_table(link, terms_of(link, method))
    # Thresholds past the table's last column share that column's errors.
    table = np.pad(table, ((0, 0), (0, link.n_tx + 1 - table.shape[1])), mode="edge")
    oracle = brute_force_errors(link, method)
    tol = rounding_tolerance(link)
    assert np.max(np.abs(table - oracle)) <= tol
    result = ser_analytic_many([link], method)[0]
    assert np.array_equal(result.per_symbol_errors,
                          np.clip(table[:, link.threshold_xi], 0.0, 1.0))
    xi, best = optimal_threshold_many([link], method)[0]
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


def terms_of(link, method=SerMethod.BINOMIAL_ANALYTIC):
    """``link``'s count terms, from a stacked pass over it alone."""
    return next(_count_terms([link], method))


def binomial_terms(n, ps):
    """``(start, pmf)`` of ``Binomial(n, p)`` for each ``p`` in ``ps``, from one stacked pass."""
    return terms_of(OokLinkConfig(ps, 0, 0.0, n))[1:]


def poisson_term(lam):
    """``(start, pmf)`` of ``Poisson(lam)``: the noise term of a link with noise mean ``lam``."""
    return terms_of(OokLinkConfig([0.0], 0, lam, 1), SerMethod.POISSON_ANALYTIC)[0]


def same_terms(a, b):
    """Whether two lists of ``(start, pmf)`` agree bit for bit."""
    return len(a) == len(b) and all(
        s == t and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for (s, x), (t, y) in zip(a, b))


class TestPmfs:
    """The stacked pass's pmfs against exact values (mpmath, 40 digits) and ``scipy.stats``.

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
    absolute ``1e-300`` is allowed on top.  The pass keeps only the cells
    above 1e-18, so every cell it drops must lie at most there.
    """

    P_GRID = [0.0, 1e-18, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-15,
              np.nextafter(1.0, 0.0), 1.0]
    N_GRID = [1, 7, 100, 1000, 3000]
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

    @staticmethod
    def _assert_matches(term, reference, tol):
        """``term`` within ``tol`` relative of ``reference`` on ``0..``, where it keeps a cell."""
        start, pmf = term
        kept = np.zeros(reference.size, dtype=bool)
        kept[start:start + pmf.size] = True
        assert np.allclose(pmf, reference[kept], rtol=tol, atol=1e-300)
        assert np.all(reference[~kept] <= ook._PMF_TAIL * (1.0 + tol))

    @pytest.mark.parametrize("n", N_GRID + [10**7])
    def test_binomial_accuracy(self, n):
        mpmath.mp.dps = 40
        ps = self.P_GRID + list(np.random.default_rng(n).random(20))
        for p, (low, pmf) in zip(ps, binomial_terms(n, ps)):
            exact_p = mpmath.mpf(float(p))

            def exact(k):
                return (mpmath.binomial(n, k) * exact_p ** k
                        * (1 - exact_p) ** (n - k))

            self._assert_accurate(pmf, low, exact, 2.5)

    @pytest.mark.parametrize("lam", LAM_GRID + [1e7])
    def test_poisson_accuracy(self, lam):
        mpmath.mp.dps = 40
        low, pmf = poisson_term(lam)
        exact_lam = mpmath.mpf(lam)

        def exact(k):
            if lam == 0.0:
                return mpmath.mpf(k == 0)
            return mpmath.exp(k * mpmath.log(exact_lam) - mpmath.loggamma(k + 1) - exact_lam)

        self._assert_accurate(pmf, low, exact, 1.0)

    # scipy.stats evaluates these pmfs in log space: its Poisson pmf,
    # exp(k log lam - lgamma(k + 1) - lam), carries a relative error up to
    # about 6 m log(m) eps (m = lam + 12 sd + 31) and its binomial pmf less,
    # so every cell agrees within that plus the bound above.

    @pytest.mark.parametrize("n", N_GRID)
    def test_binomial_matches_scipy_stats(self, n):
        k = np.arange(n + 1)
        m = n + 31.0
        eps = np.finfo(float).eps
        ps = self.P_GRID + list(np.random.default_rng(n).random(20))
        for p, term in zip(ps, binomial_terms(n, ps)):
            tol = eps * (8.0 + 2.5 * (n + 1) + 6.0 * m * math.log(m))
            self._assert_matches(term, binom.pmf(k, n, p), tol)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_poisson_matches_scipy_stats(self, lam):
        high = int(lam + 12.0 * math.sqrt(lam) + 30.0)
        m = high + 1.0
        tol = np.finfo(float).eps * (8.0 + high + 6.0 * m * math.log(m))
        self._assert_matches(poisson_term(lam), poisson.pmf(np.arange(high + 1), lam), tol)


#: Links whose laws are point masses or sit at the ends of their domains.
DEGENERATE_LINKS = [
    OokLinkConfig([1.0], 0, 0.0, 1),
    OokLinkConfig([0.0, 1.0, 0.0], 0, 0.0, 7),
    OokLinkConfig([1.0, 1e-300], 0, 4.0, 100_000),
    OokLinkConfig([1e-18, 1e-19, np.nextafter(1.0, 0.0)], 0, 1e-19, 1000),
    OokLinkConfig(np.zeros(4), 0, 0.0, 100_000),
]


def links_of(n_tx):
    """Links with ``n_tx`` drawn from ``n_tx``, and ``pob`` with 0, 1 and the tail among it."""
    return st.builds(
        OokLinkConfig,
        pob=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1e-18])),
                     min_size=1, max_size=6),
        threshold_xi=st.just(0), noise_mean_Nn=st.floats(0.0, 1e4), n_tx=n_tx)


class TestCountTerms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(links=st.lists(links_of(st.integers(1, 10**7)), min_size=1, max_size=4),
           method=st.sampled_from(ANALYTIC))
    def test_bound_counts_the_cells_evaluated(self, links, method):
        # Each link's bound counts the window cells the stacked pass is asked
        # for; a dead term (mean at most the tail) is asked for its cell 0.
        # A cap of the largest link's count passes, and one fewer refuses that
        # link before any pmf of any link is evaluated.
        cells = []
        asked = []

        def recorded(low, high, *args):
            asked.append(int(np.sum(high - low + 1.0)))
            return _stacked_pmfs(low, high, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ook, "_TABLE_CELLS", -1)
            for link in links:
                with pytest.raises(ValueError, match="SER pmfs of") as refused:
                    _count_terms([link], method)
                cells.append(int(str(refused.value).split("SER pmfs of ")[1].split()[0]))
            patch.setattr(ook, "_stacked_pmfs", recorded)
            patch.setattr(ook, "_TABLE_CELLS", max(cells) - 1)
            with pytest.raises(ValueError, match=f"SER pmfs of {max(cells)} cells"):
                _count_terms(links, method)
            assert asked == []
            patch.setattr(ook, "_TABLE_CELLS", max(cells))
            terms = list(_count_terms(links, method))
        means = [np.append(link.noise_mean_Nn, link.n_tx * link.pob) for link in links]
        dead = sum(int(np.sum(mean <= ook._PMF_TAIL)) for mean in means)
        assert sum(asked) == sum(cells) + dead
        assert [len(one) for one in terms] == [link.seq_len_K + 1 for link in links]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(links=st.lists(st.one_of(links_of(st.sampled_from([1, 7, 1000, 100_000])),
                                    st.sampled_from(DEGENERATE_LINKS)),
                          min_size=1, max_size=6).flatmap(st.permutations),
           batch=st.integers(1, 6000), method=st.sampled_from(ANALYTIC))
    def test_stacked_pass_is_each_link_alone(self, links, batch, method):
        # However the links are ordered and the pass is cut into batches,
        # each link's terms are bit for bit those of a pass over it alone.
        alone = [terms_of(link, method) for link in links]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ook, "_BATCH_CELLS", batch)
            stacked = list(_count_terms(links, method))
        assert len(stacked) == len(links)
        for got, want in zip(stacked, alone):
            assert same_terms(got, want)

    @pytest.mark.parametrize("link", DEGENERATE_LINKS + [OokLinkConfig([1.0, 0.0], 0, 0.0, 2**53)])
    def test_point_masses(self, link):
        # A dead term (p = 0 here) is the point mass at 0, and under the
        # binomial p = 1 is the one at n_tx, with no special case: p / q = inf
        # zeroes the cells below the mode, and at n_tx = 2**53 the mode's own
        # ratio, 0 * inf, is never read.
        terms = terms_of(link)
        for p, (start, pmf) in zip(link.pob, terms[1:]):
            if p in (0.0, 1.0):
                assert (start, pmf.tolist()) == (0 if p == 0.0 else link.n_tx, [1.0])

    def test_memory_is_flat_in_the_links(self):
        # Links are evaluated lazily, a batch at a time, and each link's
        # terms are dropped as the next is made: 32 copies of a wide link
        # (n_tx = 1e6, windows of up to 1690 cells, trimmed to 1157) peak
        # above one copy by at most one batch's temporaries, eight float
        # arrays of _BATCH_CELLS plus one window (82 kB measured).  Holding
        # every link's pmfs would take 31 times a link's buffers more (2.1 MB).
        cfg = load_config(overrides={"release.n_tx": "1000000"})
        link = _auto_link(cfg, cfg["ser.distances"][0], cfg["ser.symbol_intervals"][0])[0]
        terms = terms_of(link)
        held = sum({id(pmf.base): pmf.base.nbytes for _, pmf in terms}.values())
        widest = max(pmf.size for _, pmf in terms)

        def peak(links):
            tracemalloc.start()
            try:
                deque(_count_terms(links, SerMethod.BINOMIAL_ANALYTIC), maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batch = 8 * 8 * (ook._BATCH_CELLS + 2 * widest)
        assert 31 * held > batch
        assert peak([link] * 32) - peak([link]) < batch


class TestSerAnalytic:
    def test_dead_channel_k1(self):
        link = OokLinkConfig(np.zeros(1), 1, 0.0, 1000)
        assert ser_analytic_many([link])[0].ser == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_zero_threshold_gives_half(self, k):
        link, *_ = flow_link(K=k, xi=0)
        result = ser_analytic_many([link])[0]
        assert result.ser == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(result.per_symbol_errors, 0.5, atol=1e-12)

    def test_ser_equals_mean_per_symbol(self):
        link, *_ = flow_link(K=8, xi=55)
        for method in (SerMethod.POISSON_ANALYTIC, SerMethod.BINOMIAL_ANALYTIC):
            result = ser_analytic_many([link], method)[0]
            assert result.ser == pytest.approx(
                float(np.mean(result.per_symbol_errors)), abs=1e-15)

    @pytest.mark.parametrize("distance,T", [(200e-6, 0.1), (200e-6, 0.3),
                                            (400e-6, 0.3), (400e-6, 0.75)])
    def test_poisson_close_to_binomial_when_valid(self, distance, T):
        # n_tx = 1e3 with P_ob(t0) <= 0.1; agreement degrades only deep in
        # the tails (SER far below 1e-2), where binomial variance n p (1-p)
        # genuinely undercuts the Poisson n p.
        link, *_ = flow_link(distance=distance, T=T, xi=0)
        xi, _ = optimal_threshold_many([link])[0]
        link = replace(link, threshold_xi=xi)
        rp = ser_analytic_many([link], SerMethod.POISSON_ANALYTIC)[0].ser
        rb = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0].ser
        assert rp == pytest.approx(rb, rel=0.05)

    def test_refuses_non_analytic_methods(self):
        link, *_ = flow_link()
        for method in (SerMethod.MONTE_CARLO_COUNTS, SerMethod.PARTICLE_BINOMIAL):
            for entry in (ser_analytic_many, optimal_threshold_many):
                with pytest.raises(ValueError, match="not an analytic method"):
                    entry([link], method)

    def test_binomial_kernel_overflow(self):
        # p from the smallest normal double up to 1e-30.  Every count here
        # has a mean n p below the pmf tail, so it is 0 exactly, as on a
        # dead channel, and no pmf is evaluated.
        pvec = [np.finfo(float).tiny, 1e-305, 1e-300, 1e-30]
        for n in (1000, 10**7):
            tiny = OokLinkConfig(pvec, 1, 0.5, n)
            dead = replace(tiny, pob=np.zeros(len(pvec)))
            for method in ANALYTIC:
                assert np.array_equal(ser_analytic_many([tiny], method)[0].per_symbol_errors,
                                      ser_analytic_many([dead], method)[0].per_symbol_errors)
                if n == 1000:  # the oracle's tables are n_tx wide
                    assert_matches_brute_force(tiny, method)
            assert np.array_equal(ser_monte_carlo_many([tiny], 100, seed=1)[0].per_symbol_errors,
                                  ser_monte_carlo_many([dead], 100, seed=1)[0].per_symbol_errors)

    def test_isi_free_channel_reduces_to_single_symbol(self):
        # P_ob supported strictly inside one symbol interval: no memory.
        def pulse(t):
            return np.where((t > 0.02) & (t < 0.08), 0.05, 0.0)

        full = OokLinkConfig(pulse(detection_offsets(0.1, 6, 0.05)), 30, 4.0, 1000)
        single = OokLinkConfig(pulse(detection_offsets(0.1, 1, 0.05)), 30, 4.0, 1000)
        assert ser_analytic_many([full])[0].ser == pytest.approx(
            ser_analytic_many([single])[0].ser, abs=1e-14)
        assert np.allclose(ser_analytic_many([full])[0].per_symbol_errors,
                           ser_analytic_many([single])[0].ser, atol=1e-14)

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
        result = ser_analytic_many([OokLinkConfig([0.2], xi, 4.0, 1000)], method)[0]
        assert abs(mpmath.mpf(result.ser) - exact) <= tol


class TestOptimalThreshold:
    def test_dead_channel_ties_at_half_and_breaks_low(self):
        # With no signal and no noise every threshold errs on exactly half
        # the symbols (xi = 0 flags all zeros, xi >= 1 misses all ones), so
        # the whole domain ties and the smallest threshold wins.
        link = OokLinkConfig(np.zeros(1), 0, 0.0, 1000)
        xi, result = optimal_threshold_many([link])[0]
        assert xi == 0
        assert result.ser == pytest.approx(0.5, abs=1e-15)
        assert ser_analytic_many([replace(link, threshold_xi=1)])[0].ser == result.ser

    def test_matches_direct_scan(self):
        link, *_ = flow_link(T=0.3)
        xi, result = optimal_threshold_many([link])[0]
        scan = [ser_analytic_many([replace(link, threshold_xi=x)])[0].ser for x in range(0, 300)]
        assert xi == int(np.argmin(scan))
        assert result.ser == pytest.approx(min(scan), abs=1e-14)

    def test_optimum_beats_sampled_alternatives(self):
        rng = np.random.default_rng(31)
        link, *_ = flow_link(T=0.25)
        xi, result = optimal_threshold_many([link])[0]
        for other in rng.integers(0, link.n_tx + 1, size=25):
            assert result.ser <= ser_analytic_many(
                [replace(link, threshold_xi=int(other))])[0].ser + 1e-15

    def test_strong_isolated_channel_is_reliable(self):
        # Single-shot link with a strong pulse and weak noise.
        link = OokLinkConfig(np.array([0.2]), 0, 1.0, 2000)
        xi, result = optimal_threshold_many([link])[0]
        assert result.ser < 1e-3
        assert 1 < xi < 400

    def test_binomial_search_agrees_with_poisson_when_valid(self):
        link, *_ = flow_link(T=0.3)
        xi_p, rp = optimal_threshold_many([link], SerMethod.POISSON_ANALYTIC)[0]
        xi_b, rb = optimal_threshold_many([link], SerMethod.BINOMIAL_ANALYTIC)[0]
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
            _, result = optimal_threshold_many([link])[0]
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

    The form the flat-index scatter and the sorted draws replaced: offset
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
    """Uniforms on and next to every edge an inverse CDF can meet, many of them tied.

    Every cumulative sum and its neighbouring doubles, every dyadic fraction
    ``i / m`` and the double below it for each power of two ``m`` up to
    eight times the pmf's width (so many values repeat), and the ends ``0``
    and ``1 - 2^-53`` of ``Generator.random``'s range.
    """
    cdf = np.cumsum(pmf)
    edges = [cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), [0.0, 1.0 - 2.0 ** -53]]
    m = 1
    while m <= 8 * pmf.size:
        buckets = np.arange(m) / m
        edges += [buckets, np.nextafter(buckets, -1.0)]
        m *= 2
    u = np.concatenate(edges)
    return u[(u >= 0.0) & (u < 1.0)]


def sorted_draw_cells(terms, u):
    """The count :func:`_sorted_draw` gives each uniform of ``u`` from each term, shaped as ``u``.

    Each uniform's target is its flat index in ``u``, as the noise draw's are.
    """
    targets, runs = _sorted_draw(np.arange(u.size, dtype=np.int32), u.reshape(-1),
                                 [_cdf_edges(pmf) for _, pmf in terms])
    cells = []
    for (start, pmf), term_runs in zip(terms, runs):
        assert term_runs.size == pmf.size
        flat = np.empty(u.size, dtype=np.int64)
        flat[targets] = np.repeat(start + np.arange(pmf.size), term_runs)
        cells.append(flat.reshape(u.shape))
    return cells


def _inverse_cdf_terms() -> dict:
    """Trimmed pmfs the sorted draw is checked on, keyed by test id."""
    link, *_ = flow_link(T=0.1, K=8)
    terms = {f"flow-{i}": term
             for i, term in enumerate(terms_of(link))}
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
    terms["wide-poisson"] = poisson_term(200.0)
    return terms


INVERSE_CDF_TERMS = _inverse_cdf_terms()


class TestSerMonteCarlo:
    def test_counts_mode_matches_binomial_analytic(self):
        link, *_ = flow_link(T=0.25)
        xi, _ = optimal_threshold_many([link])[0]
        link = replace(link, threshold_xi=xi)
        exact = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0].ser
        mc = ser_monte_carlo_many([link], 10_000, seed=17)[0]
        bound = 3.0 * math.sqrt(exact * (1.0 - exact) / (10_000 * link.seq_len_K))
        assert abs(mc.ser - exact) <= bound

    # Pinned count-mode SER of the draw order bits, one noise uniform per
    # cell, then one uniform per active (realization, symbol) cell for each
    # offset, each turned into a count by inverse CDF.  A change of that
    # stream on purpose updates it.
    def test_counts_mode_pinned(self):
        link, *_ = flow_link(T=0.25, xi=70)
        result = ser_monte_carlo_many([link], 2000, seed=17)[0]
        assert result.ser == 0.059125
        assert result.per_symbol_errors.tolist() == [
            0.0715, 0.0305, 0.023, 0.033, 0.044, 0.0655, 0.093, 0.1125]

    # Two blocks, the second of 5 realizations: at K = 8 a realization
    # holds K (K + 1) / 2 = 36 (symbol, offset) pairs, so a block holds
    # _MC_CELLS // 36 = 14 563 realizations.  The errors of each symbol,
    # summed over 14 568 realizations, that the boolean-mask, binary-search
    # draw of the same two blocks gives.
    def test_counts_mode_pinned_two_blocks(self):
        link, *_ = flow_link(T=0.25, xi=70)
        realizations = _MC_CELLS // (8 * 9 // 2) + 5
        result = ser_monte_carlo_many([link], realizations, seed=17)[0]
        errors = np.array([968, 513, 283, 425, 695, 1071, 1357, 1720])
        assert result.ser == 0.060337726523887976
        assert result.per_symbol_errors.tolist() == (errors / realizations).tolist()

    @pytest.mark.parametrize("name", INVERSE_CDF_TERMS)
    def test_inverse_cdf_is_binary_search(self, name):
        # The sorted draw gives each uniform the cell a binary search would,
        # on every uniform next to an edge, tied or not, and on random ones,
        # for 1-D and 2-D u, and with every other term drawn from the same
        # sorted uniforms.
        term = INVERSE_CDF_TERMS[name]
        u = np.concatenate([adversarial_uniforms(term[1]),
                            np.random.default_rng(5).random(10_000)])
        (cells,) = sorted_draw_cells([term], u)
        assert np.array_equal(cells, binary_search_cells(term, u))
        u = u[:u.size // 4 * 4].reshape(-1, 4)
        (cells,) = sorted_draw_cells([term], u)
        assert cells.shape == u.shape
        assert np.array_equal(cells, binary_search_cells(term, u))
        terms = list(INVERSE_CDF_TERMS.values())
        for other, cells in zip(terms, sorted_draw_cells(terms, u)):
            assert np.array_equal(cells, binary_search_cells(other, u))

    @pytest.mark.parametrize("k", [1, 2, 8, 25])
    @pytest.mark.parametrize("xi", ["zero", "own", "n_tx"])
    def test_block_matches_boolean_masks(self, k, xi):
        # The same uniforms give the same counts, so the same errors of each
        # symbol, and the generators end in the same state.
        link, *_ = flow_link(T=0.1, K=k)
        links = [link, OokLinkConfig(np.where(np.arange(k) % 2, 0.0, link.pob), 0, 0.0, 1000)]
        for link in links:
            link = replace(link, threshold_xi={"zero": 0, "own": 30, "n_tx": link.n_tx}[xi])
            terms = terms_of(link)
            fast, slow = np.random.default_rng(k), np.random.default_rng(k)
            edge_terms = [(start, _cdf_edges(pmf)) for start, pmf in terms]
            assert np.array_equal(_mc_block_errors([link], [edge_terms], 3001, fast)[0],
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
            alone = ser_monte_carlo_many([one], realizations, seed=29)[0]
            assert got.ser == alone.ser
            assert np.array_equal(got.per_symbol_errors, alone.per_symbol_errors)

    def test_many_refuses_mixed_links(self):
        link, *_ = flow_link(K=8)
        for other in (flow_link(K=9)[0], replace(link, noise_mean_Nn=5.0)):
            with pytest.raises(ValueError, match="share their sequence length and noise mean"):
                ser_monte_carlo_many([link, other], 10, seed=1)
        with pytest.raises(ValueError, match="at least one realization"):
            ser_monte_carlo_many([link], 0, seed=1)

    def test_inverse_cdf_cells(self):
        # Cumulative sums 0.25, 0.75 and 1 - 2^-53, the largest uniform
        # Generator.random returns; u on an edge draws the next cell.
        term = (3, np.array([0.25, 0.5, 0.25 - 2.0 ** -53]))
        u = np.array([0.0, np.nextafter(0.25, 0.0), 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53])
        assert sorted_draw_cells([term], u)[0].tolist() == [3, 3, 4, 4, 5, 5]
        # Unsorted and tied uniforms keep their own cells.
        assert sorted_draw_cells([term], u[::-1])[0].tolist() == [5, 5, 4, 4, 3, 3]
        assert sorted_draw_cells([term], np.repeat(u[2:4], 3))[0].tolist() == [4] * 6
        # A u above the last cumulative sum draws the last cell.
        assert sorted_draw_cells([(0, np.array([0.5, 0.25]))],
                                 np.array([0.8, 0.99]))[0].tolist() == [1, 1]

    def test_counts_mode_unbiased_over_seeds(self):
        # Seeds 1-40 at 1e4 realizations: each standardised deviation is
        # about N(0, 1), so their mean lies within 4 / sqrt(40) of 0.
        link, *_ = flow_link(T=0.25)
        xi, _ = optimal_threshold_many([link])[0]
        link = replace(link, threshold_xi=xi)
        exact = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0].ser
        sd = math.sqrt(exact * (1.0 - exact) / (10_000 * link.seq_len_K))
        z = [(ser_monte_carlo_many([link], 10_000, seed=s)[0].ser - exact) / sd
             for s in range(1, 41)]
        assert abs(np.mean(z)) <= 4.0 / math.sqrt(40)

    def test_zero_threshold_empirical_half(self):
        link, *_ = flow_link(xi=0)
        mc = ser_monte_carlo_many([link], 4000, seed=3)[0]
        assert abs(mc.ser - 0.5) <= 3.0 * math.sqrt(0.25 / (4000 * 8))

    def test_single_realization_reproducible(self):
        link, *_ = flow_link()
        one = ser_monte_carlo_many([link], 1, seed=55)[0]
        two = ser_monte_carlo_many([link], 1, seed=55)[0]
        assert one.ser == two.ser
        assert np.array_equal(one.per_symbol_errors, two.per_symbol_errors)

    def test_blocks_bound_memory(self):
        # At K = 8 a realization has K (K + 1) / 2 = 36 (symbol, offset)
        # pairs, so a block holds _MC_CELLS // 36 = 14 563 realizations and
        # 3e5 span 21 blocks (and more than 4 of the largest, _MC_BLOCK).  A
        # block peaks in its noise draw: the bits (1 byte a cell) and the
        # draw's flat cells, uniforms, sort order, sorted uniforms and sorted
        # cells (4 + 8 + 8 + 8 + 4 bytes), 33 bytes a cell of 14 563 x 8, or
        # 3.7 MB measured.  The offsets' held int32 targets, about (K + 1) / 4
        # a cell, with the counts and bits stay below that.  The bound, 32
        # bytes a cell of an _MC_BLOCK-realization block (16.8 MB), is below
        # even one unblocked (realizations, K) int64 array (19.2 MB).
        # Summing the blocks' errors must keep every per-symbol rate within 4
        # standard errors of the binomial-analytic value.
        link, *_ = flow_link(T=0.25)
        xi, _ = optimal_threshold_many([link])[0]
        link = replace(link, threshold_xi=xi)
        realizations = 300_000
        bound = 32 * _MC_BLOCK * link.seq_len_K
        assert realizations > 4 * _MC_BLOCK and bound < 8 * realizations * link.seq_len_K
        tracemalloc.start()
        try:
            mc = ser_monte_carlo_many([link], realizations, seed=3)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        p = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0].per_symbol_errors
        assert np.all(np.abs(mc.per_symbol_errors - p)
                      <= 4.0 * np.sqrt(p * (1.0 - p) / realizations))

    def test_blocks_bound_memory_for_long_links(self):
        # At K = 64 a realization has 2080 (symbol, offset) pairs, so a block
        # holds _MC_CELLS // 2080 = 252 realizations and 40 000 span 159
        # blocks (and more than 3 of _MC_CELLS // 64, the old block).  A block
        # holds at most _MC_CELLS int32 targets, 2.1 MB, and about half that
        # on average; its noise draw takes 33 bytes a cell of 252 x 64: 1.6 MB
        # measured, under the bound of 32 _MC_CELLS bytes (16.8 MB).  One
        # unblocked (realizations, K) int64 array would be 20.5 MB, and every
        # offset's targets of one block of 40 000 realizations 166 MB.  Every
        # per-symbol rate lies within 4 standard errors of the
        # binomial-analytic value.
        link, *_ = flow_link(T=0.05, K=64)
        xi, _ = optimal_threshold_many([link])[0]
        link = replace(link, threshold_xi=xi)
        realizations = 40_000
        bound = 32 * _MC_CELLS
        assert realizations > 3 * (_MC_CELLS // 64) and bound < 8 * realizations * 64
        tracemalloc.start()
        try:
            mc = ser_monte_carlo_many([link], realizations, seed=3)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        p = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0].per_symbol_errors
        assert np.all(np.abs(mc.per_symbol_errors - p)
                      <= 4.0 * np.sqrt(p * (1.0 - p) / realizations))

    def test_long_links_hold_bounded_draws(self):
        # At K = 4096 one realization has K (K + 1) / 2 = 8.4e6 (symbol,
        # offset) pairs, 16 times _MC_CELLS: a block is one realization, and
        # it adds its draws group by group as they fill _MC_CELLS targets.  It
        # holds at most _MC_CELLS int32 targets (2.1 MB); the link's cell
        # edges and the held draws' run lengths, at most twice the pmfs'
        # bytes; and under 1 kB of arrays and tuples per offset: 3.9 MB
        # measured.
        # Holding every offset's targets, about K (K + 1) / 4 of them, would
        # take 16.8 MB (21 MB measured).
        link, *_ = flow_link(T=0.05, K=4096)
        k = link.seq_len_K
        pmf_bytes = sum(pmf.nbytes for _, pmf in terms_of(link))
        bound = 4 * _MC_CELLS + 2 * pmf_bytes + 1024 * k
        assert k * (k + 1) // 2 > _MC_CELLS and bound < k * (k + 1)
        tracemalloc.start()
        try:
            ser_monte_carlo_many([link], 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("cap", [1, 7, 40, 100])
    def test_grouped_draws_are_the_held_draws(self, monkeypatch, cap):
        # Three realizations of K = 16 hold about 200 targets.  Past a cap
        # below that, a block adds its draws group by group, each link on its
        # own counts: the errors and the generator's end state are those of
        # the block that holds every draw at once.
        link, *_ = flow_link(T=0.1, K=16)
        links = [link, replace(link, pob=link.pob[::-1], threshold_xi=5),
                 replace(link, pob=np.zeros(16), threshold_xi=0)]
        terms = [[(start, _cdf_edges(pmf)) for start, pmf in terms_of(one)] for one in links]
        held_rng = np.random.default_rng(4)
        held = _mc_block_errors(links, terms, 3, held_rng)
        monkeypatch.setattr(ook, "_MC_CELLS", cap)
        rng = np.random.default_rng(4)
        assert np.array_equal(_mc_block_errors(links, terms, 3, rng), held)
        assert rng.bit_generator.state == held_rng.bit_generator.state

    def test_sweep_shares_its_draws_in_bounded_memory(self):
        # The ser_sweep preset's 60 links at 1e4 realizations: one block of
        # R = 10 000 realizations, K = 8, RK cells.  The block keeps its bits
        # and their working copy (1 byte a cell each), the noise counts (8)
        # and each offset's sorted targets, int32, at most one per
        # (realization, symbol, offset) triple: 4 K (K + 1) / 2 = 144 bytes
        # a realization.  On top of that it holds at most one of: the noise
        # draw's flat cells, uniforms, sort order, sorted uniforms and
        # reordered targets (4 + 8 + 8 + 8 + 4 bytes a cell); an offset's
        # draw, the same per target; or one link's counts, its drawn values
        # and its scatter's index (8 each).  So 48 bytes a cell bounds the
        # rest, and the links' pmfs, their cell edges and their runs add at
        # most 3 times the pmfs' bytes.  Keeping every link's counts
        # or drawn values at once would take 38 MB or more.
        cfg = preset_config("ser_sweep")
        links = []
        for d in cfg["ser.distances"]:
            for T in cfg["ser.symbol_intervals"]:
                link = _auto_link(cfg, d, T)[0]
                links.append(replace(link, threshold_xi=optimal_threshold_many([link])[0][0]))
        assert len(links) == 60
        realizations, k = cfg["ook.realizations"], cfg["ook.seq_len"]
        pmf_bytes = sum(pmf.nbytes for link in links
                        for _, pmf in terms_of(link))
        bound = 4 * realizations * k * (k + 1) // 2 + 48 * realizations * k + 3 * pmf_bytes
        assert realizations * k * (k + 1) // 2 <= _MC_CELLS
        assert bound < 8 * realizations * k * len(links)
        tracemalloc.start()
        try:
            ser_monte_carlo_many(links, realizations, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    # The particle Monte Carlo that ``particle_binomial`` replaced drew every
    # release from a pool's per-particle observation patterns.  On a
    # 2000-particle pool of the engine's earlier streams (seed 7, 2000
    # realizations) it gave these SERs and per-symbol errors.
    MC_PARTICLE_SER = {
        1e-10: (0.17833333333333334, [0.101, 0.203, 0.231]),
        0.0: (0.16233333333333333, [0.0925, 0.1665, 0.228]),
    }
    # The exact binomial SER and per-symbol errors on the same-sized pool of
    # the block-keyed streams, with retirement: they pin the pool bit for bit.
    PINNED_PARTICLE_SER = {
        1e-10: (0.21554179664298953,
                [0.18299466003105094, 0.21608056170274337, 0.24755016819517428]),
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
            up, down = (ser_analytic_many([replace(link, pob=p + sign * step)],
                                          SerMethod.BINOMIAL_ANALYTIC)[0].per_symbol_errors
                        for sign in (1.0, -1.0))
            bound = bound + np.abs(up - down) / 2e-6 * math.sqrt(p[j] * (1.0 - p[j]) / n_pool)
        return bound

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("diffusion", [1e-10, 0.0])
    def test_particle_mode_pinned(self, monkeypatch, diffusion, threads):
        monkeypatch.setattr(presets, "_POOL_PARTICLES", 2000)
        cfg = particle_cfg(diffusion)
        link, other = (particle_link(cfg, t) for t in (threads, 4 - threads))
        exact, again = (ser_analytic_many([k], SerMethod.BINOMIAL_ANALYTIC)[0]
                        for k in (link, other))
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


@pytest.mark.parametrize("many", [
    lambda: ser_analytic_many([]),
    lambda: optimal_threshold_many([]),
    lambda: ser_monte_carlo_many([], 10, seed=1),
], ids=["ser_analytic", "optimal_threshold", "ser_monte_carlo"])
def test_batch_of_nothing_is_empty(many):
    assert many() == []


class TestParticleBinomial:
    """``particle_binomial``: the binomial SER on a pool's empirical ``P_ob``."""

    def test_is_binomial_on_pool_fractions(self, monkeypatch):
        monkeypatch.setattr(presets, "_POOL_PARTICLES", 2000)
        cfg = particle_cfg(1e-10)
        link = particle_link(cfg, threads=2)
        offsets = 0.015 + 0.01 * np.arange(3)
        assert np.array_equal(PARTICLE_OFFSETS, offsets)
        pool = SimConfig(channel=make_channel(radius=10e-6, diffusion=1e-10),
                         receivers=(make_receiver(10e-6, 20e-6),),
                         releases=(ReleaseSpec.uniform(),), n_tx=2000, time_step=1e-4, seed=7,
                         sample_times=offsets)
        counts = particles.run(pool).counts[0, 0]
        assert np.all(counts > 0)
        assert np.array_equal(link.pob, counts / 2000)
        result = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0]
        oracle = brute_force_errors(link, SerMethod.BINOMIAL_ANALYTIC)[:, link.threshold_xi]
        assert np.max(np.abs(result.per_symbol_errors - oracle)) <= rounding_tolerance(link)

    @staticmethod
    def sweep(diffusion):
        """``particle_cfg``'s duct and pool over 2 distances and 2 symbol intervals,
        and the ``(rx, offsets)`` of its points: four offset grids of K = 8."""
        cfg = load_config({"channel.radius": 10e-6, "channel.diffusion": diffusion,
                           "release.n_tx": 200, "sim.time_step": 1e-4, "seed": 7,
                           "ser.distances": (20e-6, 40e-6), "ser.symbol_intervals": (0.01, 0.015),
                           "ook.method": ("particle_binomial",), "ook.realizations": 0})
        points = [_auto_link(cfg, d, T)[1:] for d in cfg["ser.distances"]
                  for T in cfg["ser.symbol_intervals"]]
        return cfg, points

    def test_sweep_is_one_engine_run(self, monkeypatch):
        monkeypatch.setattr(presets, "_POOL_PARTICLES", 2000)
        cfg, points = self.sweep(0.0)
        calls, engine = [], particles.run
        monkeypatch.setattr(particles, "run",
                            lambda config, **kw: calls.append(config) or engine(config, **kw))
        (name, table), = presets.ser_action(cfg, threads=2)
        assert len(table.rows) == 4
        (config,) = calls
        assert config.n_tx == 2000
        assert config.receivers == tuple(cfg.receiver(distance=d) for d in (20e-6, 40e-6))
        grids = [np.rint(offsets / 1e-4).astype(np.int64) for _, offsets in points]
        assert len({grid.tobytes() for grid in grids}) == 4
        assert np.array_equal(config.sample_steps, np.unique(np.concatenate(grids)))

    def test_pool_owns_its_count(self, monkeypatch):
        # The pool's pass moves _POOL_PARTICLES particles of the configured
        # release; the links it feeds keep release.n_tx.
        monkeypatch.setattr(presets, "_POOL_PARTICLES", 2000)
        cfg, _ = self.sweep(0.0)
        passes, links, engine, analytic = [], [], particles.run, presets.ser_analytic_many
        monkeypatch.setattr(particles, "run",
                            lambda config, **kw: passes.append(config) or engine(config, **kw))
        monkeypatch.setattr(presets, "ser_analytic_many",
                            lambda batch, method: links.extend(batch) or analytic(batch, method))
        list(presets.ser_action(cfg, threads=1))
        (config,) = passes
        assert config.n_tx == 2000 and config.releases == (cfg.release(),)
        assert len(links) == 4 and {link.n_tx for link in links} == {cfg["release.n_tx"]} == {200}

    def test_shared_run_matches_each_point_alone(self, monkeypatch):
        # At D > 0 the shared run draws the axial increments at the union of
        # the points' steps, so each P_ob is another draw of the pool
        # fraction a run of that point alone gives.  Each is binomial, sd at
        # most sqrt(p (1 - p) / n) with p the pair's mean, and sd(A - B) <=
        # sd(A) + sd(B) whatever their correlation.  z keeps the normal
        # false-alarm rate of all 32 two-sided comparisons at 1e-6.
        monkeypatch.setattr(presets, "_POOL_PARTICLES", 2000)
        cfg, points = self.sweep(1e-10)
        shared = _particle_pobs(cfg, points, threads=2)
        alone = [_particle_pobs(cfg, [point], threads=1)[0] for point in points]
        z = NormalDist().inv_cdf(1.0 - 1e-6 / (2 * 32))
        for a, b in zip(shared, alone):
            assert np.any(b > 0)
            p = (a + b) / 2.0
            assert np.all(np.abs(a - b) <= z * 2.0 * np.sqrt(p * (1.0 - p) / 2000))
        # The union grid moved the axial draws.
        assert any(not np.array_equal(a, b) for a, b in zip(shared, alone))


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
                xi, result = optimal_threshold_many([link], method)[0]
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
        xi, _ = optimal_threshold_many([link])[0]
        link = replace(link, threshold_xi=xi)
        exact = ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)[0]
        realizations = 20_000
        mc = ser_monte_carlo_many([link], realizations, seed=25)[0]
        p = exact.per_symbol_errors
        assert np.all(np.abs(mc.per_symbol_errors - p)
                      <= 4.0 * np.sqrt(p * (1.0 - p) / realizations))
        assert abs(mc.ser - exact.ser) <= 4.0 * math.sqrt(
            exact.ser * (1.0 - exact.ser) / realizations)

    def test_error_table_memory(self):
        # The default link at K = 400: a table of K (W + 1) = 2.6e6 cells.
        # The table keeps two (K, W + 1) float64 arrays, the miss and the
        # false alarm, summed in place: 16 bytes a cell.  On top of that the
        # walk holds at most eight vectors of at most W + 1 cells (the law,
        # the law with a bit, a convolution and its censored copy, the law
        # with the signal, and a kernel's scratch); the K + 1 pmfs, views of
        # the stacked pass's buffers, each counted once; and under 1 kB of
        # tuples and array views per term: 16.2 bytes a cell measured.
        # Holding every law, then summing into copies, took 49.6.
        cfg = load_config(overrides={"ook.seq_len": "400"})
        link = _auto_link(cfg, cfg["ser.distances"][0], cfg["ser.symbol_intervals"][0])[0]
        # Views of one buffer share it: counting it per view would loosen the bound.
        held = sum({id(pmf.base): pmf.base.nbytes for _, pmf in terms_of(link)}.values())
        for method in ANALYTIC:
            tracemalloc.start()
            try:
                table = _error_table(link, terms_of(link, method))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            k, w = link.seq_len_K, table.shape[1]
            assert k == 400 and k * w > 2e6
            assert peak < 16 * k * (w + 1) + 8 * 8 * (w + 1) + 2 * held + 1024 * (k + 1)

    def test_sweep_sized_tables_pass(self):
        link, *_ = flow_link(K=12)
        optimal_threshold_many([link])
        ser_analytic_many([link], SerMethod.BINOMIAL_ANALYTIC)


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

    def test_counts_are_integers(self):
        # Each count is read with operator.index and stored as a plain int.
        for xi, n_tx in ((2.5, 1000), (0, 10.5)):
            with pytest.raises(ValueError, match="must be an integer"):
                OokLinkConfig([0.2], xi, 4.0, n_tx)
        with pytest.raises(ValueError, match="sequence length must be an integer"):
            detection_offsets(0.1, 2.5, 0.0)
        link = OokLinkConfig([0.2], np.int64(3), 4.0, np.int64(10))
        assert type(link.threshold_xi) is int and type(link.n_tx) is int
        assert detection_offsets(0.1, np.int64(3), 0.0).size == 3

    def test_bool_threshold_is_threshold_one(self):
        # True is the threshold 1, read as one column of the error table,
        # not a mask over its columns.
        link = OokLinkConfig([0.3, 0.1], True, 4.0, 10)
        assert link.threshold_xi == 1 and type(link.threshold_xi) is int
        got, want = ser_analytic_many([link, replace(link, threshold_xi=1)])
        assert got.per_symbol_errors.shape == (2,)
        assert got.ser == want.ser

    @pytest.mark.parametrize("noise", [-1.0, math.inf, math.nan])
    def test_noise_mean_must_be_non_negative_and_finite(self, noise):
        with pytest.raises(ValueError, match="noise mean must be non-negative and finite"):
            OokLinkConfig([0.2], 0, noise, 1000)

    def test_link_is_its_probabilities(self):
        pvec = np.array([0.3, 0.1, 0.05])
        link = OokLinkConfig(pvec, 2, 4.0, 100)
        assert link.seq_len_K == 3
        assert np.array_equal(link.pob, pvec)
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
