"""On-off-keying link layer: exact and Monte Carlo symbol error rates.

A transmitter releases ``n_tx`` particles for a 1 and nothing for a 0, once
per symbol interval ``T``; the receiver samples its particle count once per
symbol at ``t0 + k T`` and thresholds it (count >= xi -> 1).  Because the
impulse response decays slowly, molecules from earlier symbols leak into
later detection instants (intersymbol interference), so the error
probability of symbol ``i`` depends on the transmitted prefix ``a[j <= i]``.

The exact average SER is the mean over the uniform ensemble of binary
sequences, and it needs no enumeration of that ensemble.  The bits are iid
fair and every count term is independent, so the count at detection instant
``i`` is ``N + a[i] X_0 + S_i`` with ``S_i = sum_{j=1..i} a[i-j] X_j``: the
law of ``S_i`` is the convolution of the mixtures ``(delta_0 + X_j) / 2``
for ``j = 1..i``.  Symbol ``i`` therefore errs with probability
``P(N + X_0 + S_i < xi) / 2 + P(N + S_i >= xi) / 2``, a miss of a 1 or a
false alarm on a 0.  ``X_j`` is the count that offset ``j`` contributes and
``N`` is Poisson with mean ``Nn``.  Count models:

* ``POISSON_ANALYTIC`` -- ``X_j`` is ``Poisson(n_tx P_ob(t0 + j T))``, so
  the count is Poisson with the mean signal
  ``n_tx * sum_j a[i-j] P_ob(t0 + j T) + Nn`` (good for large ``n_tx`` and
  small ``P_ob``);
* ``BINOMIAL_ANALYTIC`` -- ``X_j`` is ``Binomial(n_tx, P_ob(t0 + j T))``,
  the exact count of one release.

Both run one code path: walking ``i = 0..K-1``, it keeps the law of
``N + S_i`` and its convolution with ``X_0``, both censored at ``n_tx``.
Symbol ``i``'s miss and false alarm at every threshold ``0..n_tx`` are a
forward cumulative sum of the latter and a reverse one of the former: sums
of nonnegative cells from the error's own side, accurate to a few ulp
relative however small (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, sec. 4.2).  That takes two convolutions of tail-trimmed
pmfs per symbol, so time and memory grow linearly in ``K``, without limit.
:func:`ser_analytic` reads one threshold of that table and
:func:`optimal_threshold` its minimum.

Both analytic models treat counts at different sampling instants as
independent, and for the SER that loses nothing: the SER is a mean of
single-instant errors, and one instant's count sums independent releases.
``MONTE_CARLO_COUNTS`` samples that same model from the trimmed pmfs that
``BINOMIAL_ANALYTIC`` convolves, by inverse CDF on one uniform per count.
It draws block by block of realizations, at most ``_MC_BLOCK`` of them and
at most ``_MC_CELLS`` cells ``(realization, symbol)``, each draw in C order
of ``(realization, symbol)``.  A block first draws the bits, then the noise
of every sampling instant: links of one sequence length and noise mean
share these common random numbers, so a sweep draws them once per block
for all its links.  Each link then restarts from the generator state after
the noise and draws, for ``j = 0..K-1``, offset ``j``'s count for every
transmitted 1 whose offset-``j`` instant lies in the sequence.  That is
one uniform per such 1 whatever the link, so every link leaves the
generator in one state, from which the next block draws its bits: each
link gets the result it would get run alone.  A guide table (Chen & Asau,
1974) turns each uniform into the cell a binary search of the cumulative
sum would find, and offset ``j`` adds its counts at the flat indices of
those 1s shifted by ``j``: a block makes no binary search per draw.
Trimming drops only tail cells below 1e-18, about ``max(1, sd / 4) 1e-18``
of a term's mass, so a count's law is off by at most the sum over its
``K + 1`` terms, which no Monte Carlo run resolves.
``PARTICLE_BINOMIAL`` is ``BINOMIAL_ANALYTIC`` on the empirical
``P_ob(t0 + j T)`` of one particle-engine run of 100 000 particles, which
the CLI's SER action makes.  A molecule seen at one instant can be seen
again at the next, but that correlation couples the counts of different
symbols, never the count of one, so the method is exact given the pool.
External noise molecules are modelled as Poisson with mean ``Nn``,
independent across sampling instants.

The pmfs are computed as R's ``dbinom`` and ``dpois`` compute them (C.
Loader, "Fast and Accurate Computation of Binomial Probabilities", 2000),
over the contiguous range of cells a trimmed pmf needs.  The value at the
mode is Loader's saddle-point form: ``exp`` of the Stirling-formula errors
``stirlerr`` of ``n``, ``k`` and ``n - k`` and of the deviances ``bd0``,
``x log(x / m) + m - x`` summed as a series near ``x = m``, so no large
terms cancel.  The other cells follow by running products of the ratios of
neighbouring cells, ``(n - k) / (k + 1) p / q`` for the binomial and
``lam / (k + 1)`` for the Poisson, upward and downward from the mode.  A
cell ``s`` steps from the mode is off by at most about ``(8 + 2.5 s) eps``
relative: a few 1e-12 at the ends of the widest range, at ``n_tx = 1e7``.

Every method sees the channel only through the ``K`` values
``P_ob(t0 + j T)`` at the :func:`detection_offsets`, which a link holds as
``pob``, whether a closed form or a particle pool gave them; this module
never evaluates an impulse response itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

__all__ = ["SerMethod", "OokLinkConfig", "SerResult", "detection_offsets", "ser_analytic",
           "optimal_threshold", "ser_monte_carlo", "ser_monte_carlo_many"]

_PMF_TAIL = 1e-18
#: Realizations the count Monte Carlo draws at a time, at most.
_MC_BLOCK = 1 << 16
#: Cells ``(realization, symbol)`` one count Monte Carlo block holds, at most.
_MC_CELLS = 8 * _MC_BLOCK


class SerMethod(Enum):
    """How a symbol error rate was computed."""

    POISSON_ANALYTIC = "poisson_analytic"
    BINOMIAL_ANALYTIC = "binomial_analytic"
    MONTE_CARLO_COUNTS = "monte_carlo_counts"
    PARTICLE_BINOMIAL = "particle_binomial"


def detection_offsets(symbol_interval_T: float, seq_len_K: int,
                      detection_delay_t0: float) -> np.ndarray:
    """Delays ``t0 + j T``, ``j = 0 .. K-1``, at which a link observes a release.

    Symbol ``i`` is detected at ``t0 + i T``, so the release of symbol
    ``i - j`` is seen there ``t0 + j T`` after it was sent.
    """
    if not symbol_interval_T > 0.0:
        raise ValueError("symbol interval must be positive")
    if seq_len_K < 1:
        raise ValueError("sequence length must be at least 1")
    if detection_delay_t0 < 0.0:
        raise ValueError("detection delay must be non-negative")
    return detection_delay_t0 + symbol_interval_T * np.arange(seq_len_K)


@dataclass(frozen=True)
class OokLinkConfig:
    """Configuration of one OOK link.

    ``pob`` holds ``P_ob(t0 + j T)`` for ``j = 0 .. K-1``, the channel's
    observation probabilities at the :func:`detection_offsets`: the SER
    depends on the channel only through them.  ``seq_len_K`` is their
    number ``K``.  ``pob`` is stored as a read-only copy.
    """

    pob: np.ndarray
    threshold_xi: int
    noise_mean_Nn: float
    n_tx: int

    def __post_init__(self):
        pob = np.array(self.pob, dtype=float)
        if pob.ndim != 1 or pob.size < 1:
            raise ValueError("sequence length must be at least 1")
        if not np.all((pob >= 0.0) & (pob <= 1.0)):
            raise ValueError("observation probabilities must lie in [0, 1]")
        # Past 2^53 not every count is a double: n_tx p and the pmf ratios lose their meaning.
        if not 1 <= self.n_tx <= 2 ** 53:
            raise ValueError("per-symbol particle count must lie in 1..2**53")
        if not 0 <= self.threshold_xi <= self.n_tx:
            raise ValueError("detection threshold must lie in {0, ..., n_tx}")
        if self.noise_mean_Nn < 0.0:
            raise ValueError("noise mean must be non-negative")
        pob.flags.writeable = False
        object.__setattr__(self, "pob", pob)

    @property
    def seq_len_K(self) -> int:
        return self.pob.size

    def isi_probabilities(self) -> np.ndarray:
        """The ISI vector ``P_ob(t0 + j T)``, ``j = 0 .. K-1``: the array ``pob``."""
        return self.pob


@dataclass(frozen=True)
class SerResult:
    """Symbol error rate with its per-symbol decomposition.

    ``ser`` equals the mean of ``per_symbol_errors`` by construction (the
    sequence average and the per-symbol average commute).
    """

    ser: float
    per_symbol_errors: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.ser <= 1.0:
            raise ValueError("symbol error rate must lie in [0, 1]")


#: ``stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n)`` for ``n = 0..15``,
#: to double precision; ``n = 0`` is never read.
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n: int) -> float:
    """The error of Stirling's formula for ``log(n!)``, ``n >= 1``: the table, then its series."""
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mean: float) -> float:
    """``x log(x / mean) + mean - x``, as a series that does not cancel near ``x = mean``."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        s = (x - mean) * v
        term = 2.0 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            nxt = s + term / j
            if nxt == s:
                return s
            s, j = nxt, j + 2
    return x * math.log(x / mean) + mean - x


def _from_mode(anchor: float, i: int, ratios: np.ndarray) -> np.ndarray:
    """A pmf on ``ratios.size + 1`` cells from its value ``anchor`` at cell ``i``, its mode.

    ``ratios[m]`` is ``pmf[m + 1] / pmf[m]`` for ``m >= i`` and
    ``pmf[m] / pmf[m + 1]`` for ``m < i``, both at most about 1: running
    products of them, outward from the mode, give the cells above and below.
    """
    pmf = np.empty(ratios.size + 1)
    pmf[i] = 1.0
    np.multiply.accumulate(ratios[i:], out=pmf[i + 1:])
    np.multiply.accumulate(ratios[:i][::-1], out=pmf[:i][::-1])
    pmf *= anchor
    return pmf


def _poisson_pmf(low: int, high: int, lam: float) -> np.ndarray:
    """``P(Poisson(lam) = k)`` for ``k = low..high``, anchored at the mode (module notes)."""
    if lam == 0.0:
        return (np.arange(low, high + 1) == 0).astype(float)
    mode = min(max(int(lam), low), high)
    if mode == 0:
        anchor = math.exp(-lam)
    else:
        anchor = math.exp(-_stirlerr(mode) - _bd0(mode, lam)) / math.sqrt(2.0 * math.pi * mode)
    # Between cells k and k + 1 the ratio is lam / (k + 1), inverted below the mode.
    ratios = np.arange(low + 1, high + 1, dtype=float)
    i = mode - low
    np.divide(lam, ratios[i:], out=ratios[i:])
    ratios[:i] /= lam
    return _from_mode(anchor, i, ratios)


def _binomial_pmf(low: int, high: int, n: int, p: float) -> np.ndarray:
    """``P(Binomial(n, p) = k)`` for ``k = low..high`` within ``0..n``, anchored at the mode."""
    q = 1.0 - p
    if n == 0 or p == 0.0 or q == 0.0:
        return (np.arange(low, high + 1) == (0 if p == 0.0 else n)).astype(float)
    mode = min(max(int((n + 1) * p), low), high)
    if mode == 0:
        anchor = math.exp(-_bd0(n, n * q) - n * p if p < 0.1 else n * math.log(q))
    elif mode == n:
        anchor = math.exp(-_bd0(n, n * p) - n * q if q < 0.1 else n * math.log(p))
    else:
        lc = (_stirlerr(n) - _stirlerr(mode) - _stirlerr(n - mode)
              - _bd0(mode, n * p) - _bd0(n - mode, n * q))
        anchor = math.exp(lc) * math.sqrt(n / (2.0 * math.pi * (mode * (n - mode))))
    # Between cells k and k + 1 the ratio is (n - k) / (k + 1) p / q, inverted
    # below the mode; computed in place, for speed.
    k1 = np.arange(low + 1, high + 1, dtype=float)
    ratios = (n + 1.0) - k1
    ratios *= p / q
    i = mode - low
    ratios[i:] /= k1[i:]
    np.divide(k1[:i], ratios[:i], out=ratios[:i])
    return _from_mode(anchor, i, ratios)


def _trimmed_pmf(pmf_at, mean: float, var: float,
                 top: int | None = None) -> tuple[int, np.ndarray]:
    """``(start, pmf)``: ``pmf_at(low, high)`` over the cells where it exceeds ``_PMF_TAIL``.

    A mean at most the tail gives ``(0, [1.0])`` unevaluated: by Markov's
    inequality no cell ``k >= 1`` exceeds the mean, so trimming keeps only
    ``k = 0``.  Otherwise only ``mean +- (12 sd + 30)``, and no cell above
    ``top``, is evaluated; the pmfs lie far below the tail outside it.
    """
    if mean <= _PMF_TAIL:
        return 0, np.ones(1)
    half = 12.0 * math.sqrt(var) + 30.0
    low = max(int(mean - half), 0)
    high = int(mean + half) if top is None else min(int(mean + half), top)
    pmf = pmf_at(low, high)
    keep = np.flatnonzero(pmf > _PMF_TAIL)
    return low + int(keep[0]), pmf[keep[0]: keep[-1] + 1]


def _count_terms(link: OokLinkConfig, method: SerMethod) -> list[tuple[int, np.ndarray]]:
    """Tail-trimmed ``(start, pmf)`` of the external noise, then of each offset's count.

    Offset ``j`` contributes ``Poisson(n_tx p_j)`` under ``POISSON_ANALYTIC``,
    whose mass past ``n_tx`` the censored laws keep, and
    ``Binomial(n_tx, p_j)``, on ``0..n_tx``, under ``BINOMIAL_ANALYTIC``.
    """
    lam, n, pvec = link.noise_mean_Nn, link.n_tx, link.pob
    if method is SerMethod.POISSON_ANALYTIC:
        offsets = [_trimmed_pmf(partial(_poisson_pmf, lam=n * p), n * p, n * p)
                   for p in pvec]
    elif method is SerMethod.BINOMIAL_ANALYTIC:
        offsets = [_trimmed_pmf(partial(_binomial_pmf, n=n, p=p), n * p, n * p * (1.0 - p), n)
                   for p in pvec]
    else:
        raise ValueError(f"{method} is not an analytic method")
    return [_trimmed_pmf(partial(_poisson_pmf, lam=lam), lam, lam)] + offsets


def _add(law: np.ndarray, term: tuple[int, np.ndarray], n: int) -> np.ndarray:
    """The pmf on ``0..n`` of ``min(C + X, n)``, ``C ~ law`` and ``X ~ term`` independent.

    ``law`` may itself be censored at ``n``: ``X >= 0``, so censoring
    ``min(C, n) + X`` again gives ``min(C + X, n)``.  Cell ``n`` sums the
    mass at or past ``n``; none is dropped.
    """
    start, pmf = term
    full = np.convolve(law, pmf)
    if start + full.size <= n + 1:
        return np.concatenate((np.zeros(start), full))
    below = max(n - start, 0)
    return np.concatenate((np.zeros(n - below), full[:below], [full[below:].sum()]))


def _error_table(link: OokLinkConfig, method: SerMethod) -> np.ndarray:
    """Error probability of symbol ``i`` at threshold ``xi``, shape ``(K, W + 1)``.

    Walks ``i = 0..K-1`` keeping the law of ``N + S_i`` (see the module
    notes), censored at ``n_tx``.  A miss is the forward cumulative sum of
    the law with the signal, a false alarm the reverse cumulative sum of the
    law without it: both add nonnegative cells from the error's own side,
    with no complement.  Past the widest law's last cell ``W - 1``, every
    threshold has column ``W``'s errors, so the table stops there, or at
    ``n_tx`` if ``W`` is ``n_tx + 1``.
    """
    n = link.n_tx
    noise, signal, *interference = _count_terms(link, method)
    law = _add(np.array([1.0]), noise, n)
    laws = []
    for i in range(link.seq_len_K):
        if i:
            with_bit = _add(law, interference[i - 1], n)
            mixed = np.zeros(max(law.size, with_bit.size))
            mixed[:law.size] = law
            mixed[:with_bit.size] += with_bit
            law = 0.5 * mixed
        laws.append((_add(law, signal, n), law))
    # Laws only widen with i, and adding the signal widens them further.
    width = laws[-1][0].size
    miss, false_alarm = np.zeros((2, link.seq_len_K, width + 1))
    for i, (with_signal, without) in enumerate(laws):
        miss[i, 1:with_signal.size + 1] = with_signal
        false_alarm[i, :without.size] = without
    np.cumsum(miss, axis=1, out=miss)
    false_alarm = np.cumsum(false_alarm[:, ::-1], axis=1)[:, ::-1]
    return (0.5 * miss + 0.5 * false_alarm)[:, :n + 1]


def _ser_result(table: np.ndarray, xi: int) -> SerResult:
    """The analytic SER at threshold ``xi`` from an :func:`_error_table`."""
    per_symbol = table[:, min(xi, table.shape[1] - 1)]
    # A trimmed pmf's summed mass can round a few ulp above 1, so an error
    # can too; results are clipped back.
    return SerResult(
        ser=min(float(per_symbol.mean()), 1.0),
        per_symbol_errors=np.minimum(per_symbol, 1.0),
    )


def ser_analytic(link: OokLinkConfig,
                 method: SerMethod = SerMethod.POISSON_ANALYTIC) -> SerResult:
    """Exact average SER over all ``2^K`` equiprobable binary sequences.

    Evaluated without enumerating them: symbol ``i``'s error averages a
    miss and a false alarm over the convolved interference law (see the
    module notes), two convolutions per symbol for any sequence length.
    """
    return _ser_result(_error_table(link, method), link.threshold_xi)


def optimal_threshold(link: OokLinkConfig,
                      method: SerMethod = SerMethod.POISSON_ANALYTIC
                      ) -> tuple[int, SerResult]:
    """Threshold search over ``xi in {0, ..., n_tx}``.

    Returns the SER-minimising threshold (smallest index on ties) together
    with the analytic SER at that threshold, the same result
    :func:`ser_analytic` gives there: both read one error table that holds
    every threshold at once.
    """
    table = _error_table(link, method)
    xi = int(np.argmin(table.mean(axis=0)))
    return xi, _ser_result(table, xi)


def _inverse_cdf(term: tuple[int, np.ndarray], u: np.ndarray) -> np.ndarray:
    """Counts drawn from the trimmed pmf ``term = (start, pmf)``, one per uniform in ``u``.

    ``u`` in ``[cdf[k - 1], cdf[k])`` draws cell ``k``; trimming can leave the
    cumulative sum a few 1e-18 below 1, and ``u`` above it draws the last cell.
    That is the cell a binary search of ``cdf`` would find; a guide table
    (Chen & Asau, 1974) finds it without one.  ``m``, a power of two at
    least four times the pmf's width, cuts ``[0, 1)`` into buckets
    ``[i / m, (i + 1) / m)``, and ``guide[i]`` is the cell of ``u = i / m``.
    With ``m`` a power of two, ``u m`` and ``i / m`` are exact, so ``u``
    lies in bucket ``floor(u m)``, whose guide cell is at most ``u``'s own.
    Walking forward while ``cdf[c] <= u`` ends on it, and the last cell's
    edge, set to ``inf``, keeps the walk inside the pmf.  One dense step
    checks every draw; only the draws that moved step again.
    """
    start, pmf = term
    width = pmf.size
    cdf = np.cumsum(pmf)
    m = 1 << (4 * width - 1).bit_length()
    guide = np.minimum(np.searchsorted(cdf, np.arange(m) / m, side="right"), width - 1)
    cdf[-1] = np.inf
    flat_u = u.reshape(-1)
    cells = np.empty(flat_u.size, dtype=np.intp)
    np.multiply(flat_u, m, out=cells, casting="unsafe")
    np.take(guide, cells, out=cells, mode="clip")
    moved = np.flatnonzero(np.take(cdf, cells) <= flat_u)
    while moved.size:
        cells[moved] += 1
        moved = moved[np.take(cdf, cells[moved]) <= flat_u[moved]]
    cells += start
    return cells.reshape(u.shape)


def _mc_block_errors(links: list[OokLinkConfig], terms: list[list[tuple[int, np.ndarray]]],
                     realizations: int, rng: np.random.Generator) -> np.ndarray:
    """Errors of each link at each symbol over one block, shape ``(len(links), K)``.

    ``terms[m]`` is link ``m``'s :func:`_count_terms`; the links share their
    noise term, so the bits and the noise counts are drawn once.
    """
    k = links[0].seq_len_K
    sent = rng.integers(0, 2, size=(realizations, k), dtype=np.int64) == 1
    noise = _inverse_cdf(terms[0][0], rng.random((realizations, k)))
    shared = rng.bit_generator.state
    errors = np.empty((len(links), k), dtype=np.int64)
    for m, (link, link_terms) in enumerate(zip(links, terms)):
        rng.bit_generator.state = shared
        counts = noise if m == len(links) - 1 else noise.copy()
        flat = counts.reshape(-1)
        # A 1 sent at symbol s < k - j of realization r adds offset j's count
        # at flat index r k + s + j: the 1s left once the last j columns are
        # cleared, shifted by j.  Ascending, these targets are the C order of
        # (r, s) in which offset j draws.
        active = sent.copy()
        for j, term in enumerate(link_terms[1:]):
            if j:
                active[:, k - j] = False
            targets = np.flatnonzero(active)
            targets += j
            draws = _inverse_cdf(term, rng.random(targets.size))
            draws += np.take(flat, targets, mode="clip")
            flat[targets] = draws
            del targets, draws  # before the next offset's targets and uniforms
        errors[m] = np.count_nonzero((counts >= link.threshold_xi) != sent, axis=0)
    return errors


def ser_monte_carlo_many(links: list[OokLinkConfig], realizations: int,
                         seed: int) -> list[SerResult]:
    """:func:`ser_monte_carlo` of each link, drawing what the links share once.

    All links must share ``seq_len_K`` and ``noise_mean_Nn``, as the points
    of a sweep do.  Each block then draws the bits and the noise counts once
    for every link, and each link only its own offsets' counts (see the
    module notes), so each result is bit for bit ``ser_monte_carlo(link,
    realizations, seed)``.  Links may differ in ``pob``, threshold and
    ``n_tx``; ``[]`` gives ``[]``.
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    if not links:
        return []
    k, noise = links[0].seq_len_K, links[0].noise_mean_Nn
    if any(link.seq_len_K != k or link.noise_mean_Nn != noise for link in links):
        raise ValueError("Monte Carlo links must share their sequence length and noise mean")
    terms = [_count_terms(link, SerMethod.BINOMIAL_ANALYTIC) for link in links]
    rng = np.random.default_rng([seed, 0])
    block = min(_MC_BLOCK, max(1, _MC_CELLS // k))
    errors = np.zeros((len(links), k), dtype=np.int64)
    for start in range(0, realizations, block):
        errors += _mc_block_errors(links, terms, min(block, realizations - start), rng)
    return [SerResult(ser=float(e.sum() / (realizations * k)), per_symbol_errors=e / realizations)
            for e in errors]


def ser_monte_carlo(link: OokLinkConfig, realizations: int, seed: int,
                    method: SerMethod = SerMethod.MONTE_CARLO_COUNTS) -> SerResult:
    """Monte Carlo SER over uniformly random K-bit sequences.

    ``MONTE_CARLO_COUNTS``, the one method, samples per-symbol counts from the
    trimmed pmfs that ``BINOMIAL_ANALYTIC`` convolves: it estimates what that
    method computes, so it no longer checks the pmf kernels (the pmf tests
    and the brute-force SER do).  Blocks of at most ``_MC_BLOCK``
    realizations and ``_MC_CELLS`` cells keep memory flat in
    ``realizations`` and ``K``; a fixed seed reproduces the result.  This is
    :func:`ser_monte_carlo_many` of the one link.
    """
    if method is not SerMethod.MONTE_CARLO_COUNTS:
        raise ValueError(f"{method} is not a Monte Carlo method")
    return ser_monte_carlo_many([link], realizations, seed)[0]
