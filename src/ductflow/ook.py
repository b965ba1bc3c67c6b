"""On-off-keying link layer: signal model, detection, and symbol error rates.

A transmitter releases ``n_tx`` particles for a 1 and nothing for a 0, once
per symbol interval ``T``; the receiver samples its particle count once per
symbol at ``t0 + k T`` and thresholds it (count >= xi -> 1).  Because the
impulse response decays slowly, molecules from earlier symbols leak into
later detection instants (intersymbol interference), so the error
probability of symbol ``i`` depends on the transmitted prefix ``a[j <= i]``.

The exact average SER enumerates the uniform ensemble of binary sequences.
The per-symbol error depends on the prefix only through the set of past
offsets ``j`` with ``a[i - j] = 1``, so the enumeration is organised by that
offset mask (an exact reorganisation of the sequence average): mask ``m``
occurs under symbol index ``i`` iff it fits in ``i + 1`` bits, with uniform
probability over those masks.  Count models:

* ``POISSON_ANALYTIC`` -- counts are Poisson with the mean signal
  ``n_tx * sum_j a[i-j] P_ob(t0 + j T) + Nn`` (good for large ``n_tx`` and
  small ``P_ob``);
* ``BINOMIAL_ANALYTIC`` -- counts are the exact convolution of independent
  ``Binomial(n_tx, P_ob(t0 + j T))`` terms plus Poisson external noise.

Both analytic models run one code path: the miss and false-alarm tables of
every count law at the requested thresholds, which :func:`ser_analytic`
evaluates at one threshold and :func:`optimal_threshold` scans upward from
``xi = 0``.  The scan stops at the first threshold where every law misses
with probability exactly 1 (so false alarms are exactly 0): every higher
threshold gives that same SER, so the smallest minimiser is already found.
Poisson tables are built in chunks of ``_SCAN_ROWS`` thresholds; a binomial
table ends where the widest law's tail-trimmed support does, past which its
survival is exactly 0.  Exact enumeration refuses sequence lengths above
``_MAX_ENUM_K`` and tables whose estimated size exceeds ``_MEMORY_BUDGET``.

Both analytic models treat counts at different sampling instants as
independent.  ``MONTE_CARLO_COUNTS`` samples that same model: it draws the
bits of every realization, then the Poisson noise of every sampling instant,
then, for each offset ``j`` with ``P_ob(t0 + j T) > 0``, one
``Binomial(n_tx, P_ob(t0 + j T))`` count per transmitted 1 whose
offset-``j`` instant lies in the sequence, in C order of
``(realization, symbol)``.  The
``MONTE_CARLO_PARTICLES`` mode instead drives the particle engine, so a
molecule observed at one sampling instant can be observed again at the
next -- quantifying exactly the correlation the analytic factorisation
ignores.  External noise molecules are modelled as Poisson with mean ``Nn``,
independent across sampling instants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import gammaln, pdtr, xlogy
from scipy.special._ufuncs import _binom_pmf

from .duct import DuctChannelConfig, ReceiverVolume, ReleaseSpec
from .impulse import ImpulseResponse
from .particles import SimConfig, observation_patterns

__all__ = [
    "SerMethod",
    "OokLinkConfig",
    "SerResult",
    "mean_signal",
    "detect",
    "symbol_error_prob_poisson",
    "ser_analytic",
    "optimal_threshold",
    "ser_monte_carlo",
]

_MAX_ENUM_K = 20
_PMF_TAIL = 1e-18
#: Thresholds per table chunk of the Poisson threshold scan.
_SCAN_ROWS = 64
#: Largest estimated table memory, in bytes, an exact enumeration may ask for.
_MEMORY_BUDGET = 1 << 30


class SerMethod(Enum):
    """How a symbol error rate was computed."""

    POISSON_ANALYTIC = "poisson_analytic"
    BINOMIAL_ANALYTIC = "binomial_analytic"
    MONTE_CARLO_COUNTS = "monte_carlo_counts"
    MONTE_CARLO_PARTICLES = "monte_carlo_particles"


@dataclass(frozen=True)
class OokLinkConfig:
    """Configuration of one OOK link.

    ``cir`` is either a vectorised callable ``t -> P_ob(t)`` (e.g. one of
    the closed forms, partially applied) or a sampled
    :class:`~ductflow.impulse.ImpulseResponse`; a sampled response is
    interpolated and must cover every positive detection offset
    ``t0 + j T``, from the first through the interference horizon
    ``t0 + (K - 1) T`` (``ValueError`` otherwise).  ``P_ob`` is treated as 0
    for non-positive delays.
    """

    symbol_interval_T: float
    seq_len_K: int
    detection_delay_t0: float
    threshold_xi: int
    noise_mean_Nn: float
    n_tx: int
    cir: ImpulseResponse | Callable

    def __post_init__(self):
        if not self.symbol_interval_T > 0.0:
            raise ValueError("symbol interval must be positive")
        if self.seq_len_K < 1:
            raise ValueError("sequence length must be at least 1")
        if self.detection_delay_t0 < 0.0:
            raise ValueError("detection delay must be non-negative")
        if self.n_tx < 1:
            raise ValueError("per-symbol particle count must be at least 1")
        if not 0 <= self.threshold_xi <= self.n_tx:
            raise ValueError("detection threshold must lie in {0, ..., n_tx}")
        if self.noise_mean_Nn < 0.0:
            raise ValueError("noise mean must be non-negative")
        if isinstance(self.cir, ImpulseResponse):
            # pob_at reads 0 off the grid, which would silently drop signal
            # before its first time and interference after its last.
            offsets = self.detection_delay_t0 + self.symbol_interval_T * np.arange(self.seq_len_K)
            times = self.cir.times
            if not times.size or times[-1] < offsets[-1]:
                raise ValueError("sampled impulse response must cover the interference "
                                 f"horizon t0 + (K-1) T = {offsets[-1]:g} s")
            positive = offsets[offsets > 0.0]
            if positive.size and times[0] > positive[0]:
                raise ValueError("sampled impulse response must start by the first "
                                 f"positive detection offset {positive[0]:g} s")

    def pob(self, tau):
        """Observation probability at delay ``tau`` (0 for ``tau <= 0``)."""
        tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
        vals = np.zeros_like(tau_arr)
        pos = tau_arr > 0.0
        if np.any(pos):
            if isinstance(self.cir, ImpulseResponse):
                vals[pos] = self.cir.pob_at(tau_arr[pos])
            else:
                vals[pos] = np.asarray(self.cir(tau_arr[pos]), dtype=float)
        return float(vals[0]) if np.ndim(tau) == 0 else vals

    def isi_probabilities(self) -> np.ndarray:
        """``P_ob(t0 + j T)`` for offsets ``j = 0 .. K-1``."""
        offsets = self.detection_delay_t0 + self.symbol_interval_T * np.arange(self.seq_len_K)
        return np.atleast_1d(self.pob(offsets))


@dataclass(frozen=True)
class SerResult:
    """Symbol error rate with its per-symbol decomposition.

    ``ser`` equals the mean of ``per_symbol_errors`` by construction (the
    sequence average and the per-symbol average commute).
    """

    ser: float
    per_symbol_errors: np.ndarray
    threshold_used: int
    method: SerMethod
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.ser <= 1.0:
            raise ValueError("symbol error rate must lie in [0, 1]")


def detect(count: int, xi: int):
    """Threshold detection: 1 iff ``count >= xi`` (boundary inclusive)."""
    return (np.asarray(count) >= xi).astype(int) if np.ndim(count) else int(count >= xi)


def _check_sequence(sequence, k: int) -> np.ndarray:
    bits = np.asarray(sequence, dtype=np.int64)
    if bits.shape != (k,):
        raise ValueError(f"sequence must have length {k}")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("sequence must be binary")
    return bits


def mean_signal(link: OokLinkConfig, sequence, t: float) -> float:
    """Expected receiver count at time ``t`` for a transmitted sequence.

    ``n_tx * sum_k a[k] P_ob(t - k T) + Nn``; releases later than ``t``
    contribute nothing because ``P_ob`` vanishes for non-positive delays.
    """
    bits = _check_sequence(sequence, link.seq_len_K)
    delays = t - link.symbol_interval_T * np.arange(link.seq_len_K)
    return float(link.n_tx * np.sum(bits * link.pob(delays)) + link.noise_mean_Nn)


def _poisson_pmf(k, lam):
    """``P(Poisson(lam) = k)``: the formula and clip of ``scipy.stats.poisson.pmf``."""
    return np.clip(np.exp(xlogy(k, lam) - gammaln(k + 1) - lam), 0.0, 1.0)


def _binomial_pmf(k, n, p):
    """``P(Binomial(n, p) = k)``: the kernel and clip of ``scipy.stats.binom.pmf``.

    The clip is part of the result: the raw kernel can exceed 1 by a few ulp.
    """
    return np.clip(_binom_pmf(k, n, p), 0.0, 1.0)


def _poisson_cdf(k, lam):
    """``P(Poisson(lam) <= k)`` for scalar/array ``k`` and ``lam`` (0 for k < 0)."""
    k = np.asarray(k, dtype=float)
    out = np.where(k >= 0.0, pdtr(np.maximum(k, 0.0), lam), 0.0)
    return out if out.ndim else float(out)


def symbol_error_prob_poisson(link: OokLinkConfig, sequence, i: int) -> float:
    """Poisson-model error probability of symbol ``i`` given ``a[j <= i]``.

    With ``lam`` the mean signal at the detection instant ``t0 + i T``:
    a transmitted 1 is missed with probability ``P(N < xi)``, a transmitted
    0 is falsely detected with probability ``P(N >= xi)``.
    """
    bits = _check_sequence(sequence, link.seq_len_K)
    if not 0 <= i < link.seq_len_K:
        raise ValueError("symbol index out of range")
    pvec = link.isi_probabilities()
    lam = link.noise_mean_Nn + link.n_tx * float(
        np.sum(bits[: i + 1][::-1] * pvec[: i + 1]))
    cdf = _poisson_cdf(link.threshold_xi - 1, lam)
    return float(cdf) if bits[i] == 1 else float(1.0 - cdf)


# ---------------------------------------------------------------------------
# Exact enumeration, organised by interference mask.
#
# Mask m encodes which past offsets j carry a 1 (bit j of m <-> a[i-j] = 1);
# bit 0 is the current symbol.  Under symbol index i, the admissible masks
# are exactly those below 2**(i+1), each with probability 2**-(i+1) over the
# uniform sequence ensemble.
# ---------------------------------------------------------------------------


def _guard_enumeration(link: OokLinkConfig, method: SerMethod, rows: int,
                       terms=()) -> None:
    """Refuse an enumeration too long, or with tables too large, to run.

    The size estimate counts the 8-byte cells held at once.  Poisson laws:
    the mask bit matrix (int64, then float) and a ``rows``-threshold CDF
    table with its complement and the CDF routine's output.  Binomial laws
    (``terms`` from :func:`_binomial_terms`): the subset-DP pmfs of every
    mask and the survival table with its complement.
    """
    k = link.seq_len_K
    if k > _MAX_ENUM_K:
        raise ValueError(
            f"sequence length {k} is too large for exact enumeration "
            f"(limit {_MAX_ENUM_K}); use ser_monte_carlo instead")
    masks = 2 ** k
    if method is SerMethod.BINOMIAL_ANALYTIC:
        (_, noise), *offsets = terms
        # Mask m's pmf spans the noise's cells plus size - 1 more per offset
        # in m, and each offset lies in half of the masks.
        cells = (masks * (noise.size + 2 * rows)
                 + masks // 2 * sum(pmf.size - 1 for _, pmf in offsets))
    else:
        cells = masks * (2 * k + 3 * rows)
    if 8 * cells > _MEMORY_BUDGET:
        raise ValueError(
            f"exact enumeration needs about {8 * cells / 2**20:.0f} MiB for K = {k} "
            f"at {rows} threshold(s) per table, over the {_MEMORY_BUDGET >> 20} MiB "
            "budget; use ser_monte_carlo instead")


def _mask_bit_matrix(k: int) -> np.ndarray:
    masks = np.arange(2 ** k, dtype=np.int64)
    return ((masks[:, None] >> np.arange(k)) & 1).astype(float)


def _mask_weights(k: int) -> np.ndarray:
    """Probability weight of each mask in the sequence-and-symbol average."""
    masks = np.arange(2 ** k, dtype=np.int64)
    bitlen = np.zeros(masks.size, dtype=np.int64)
    nz = masks > 0
    bitlen[nz] = np.floor(np.log2(masks[nz])).astype(np.int64) + 1
    bitlen = np.maximum(bitlen, 1)
    return (2.0 ** (1.0 - bitlen) - 2.0 ** (-k)) / k


def _per_symbol_from_mask_errors(err: np.ndarray, k: int) -> np.ndarray:
    cumulative = np.cumsum(err)
    sizes = 2 ** np.arange(1, k + 1)
    return cumulative[sizes - 1] / sizes


def _trimmed_pmf(pmf: np.ndarray) -> tuple[int, np.ndarray]:
    keep = np.flatnonzero(pmf > _PMF_TAIL)
    if keep.size == 0:
        return 0, np.array([1.0])
    return int(keep[0]), pmf[keep[0]: keep[-1] + 1]


def _binomial_terms(link: OokLinkConfig) -> list[tuple[int, np.ndarray]]:
    """Tail-trimmed ``(start, pmf)`` of the external noise, then of each offset's count."""
    if link.noise_mean_Nn > 0.0:
        lam = link.noise_mean_Nn
        n_max = int(lam + 12.0 * math.sqrt(lam) + 30.0)
        noise_pmf = _trimmed_pmf(_poisson_pmf(np.arange(n_max + 1), lam))
    else:
        noise_pmf = (0, np.array([1.0]))
    support = np.arange(link.n_tx + 1)
    return [noise_pmf] + [_trimmed_pmf(_binomial_pmf(support, link.n_tx, p))
                          for p in link.isi_probabilities()]


def _binomial_mask_survivals(link: OokLinkConfig, xis: np.ndarray) -> np.ndarray:
    """``P(C_m >= xi)`` for every threshold in ``xis`` and mask m, shape (len(xis), 2^K).

    Count distributions are built by subset dynamic programming: the
    distribution of a mask is its lowest-offset binomial convolved onto the
    distribution of the remaining bits, so each of the 2^K masks costs one
    convolution of tail-trimmed PMFs.
    """
    k = link.seq_len_K
    terms = _binomial_terms(link)
    _guard_enumeration(link, SerMethod.BINOMIAL_ANALYTIC, xis.size, terms)
    noise_pmf, *offset_pmfs = terms
    dists: list[tuple[int, np.ndarray] | None] = [None] * (2 ** k)
    dists[0] = noise_pmf
    sf = np.zeros((2 ** k, xis.size))
    for m in range(2 ** k):
        if dists[m] is None:
            low = (m & -m).bit_length() - 1
            s_rest, p_rest = dists[m ^ (1 << low)]
            s_bit, p_bit = offset_pmfs[low]
            dists[m] = (s_rest + s_bit, np.convolve(p_rest, p_bit))
        start, pmf = dists[m]
        tail_mass = np.cumsum(pmf[::-1])[::-1]
        rel = xis - start
        row = sf[m]
        row[rel <= 0] = tail_mass[0]
        inside = (rel > 0) & (rel < pmf.size)
        row[inside] = tail_mass[rel[inside]]
    return np.ascontiguousarray(sf.T)


def _threshold_tails(link: OokLinkConfig, method: SerMethod, xis: np.ndarray):
    """Detection error tables of every count law at the thresholds ``xis``.

    Returns ``(law, miss, false_alarm)``: ``law[m]`` is the count law of mask
    ``m``, and ``miss[i, l] = P(C < xis[i])`` and ``false_alarm[i, l] =
    P(C >= xis[i])`` under law ``l``.  Poisson laws are the distinct mask
    means; binomial laws are the masks themselves.  Each method computes its
    native side (the Poisson CDF, the binomial survival) and takes the other
    as its complement.  Both tables are row-major (one row per threshold),
    and :func:`_guard_enumeration` vets their size before they are built.
    """
    if method is SerMethod.POISSON_ANALYTIC:
        _guard_enumeration(link, method, xis.size)
        pvec = link.isi_probabilities()
        lam = link.noise_mean_Nn + link.n_tx * (_mask_bit_matrix(link.seq_len_K) @ pvec)
        uniq, law = np.unique(lam, return_inverse=True)
        miss = _poisson_cdf(xis[:, None] - 1.0, uniq[None, :])
        return law, miss, 1.0 - miss
    if method is SerMethod.BINOMIAL_ANALYTIC:
        false_alarm = _binomial_mask_survivals(link, xis)
        return np.arange(false_alarm.shape[1]), 1.0 - false_alarm, false_alarm
    raise ValueError(f"{method} is not an analytic method")


def _ser_result(link: OokLinkConfig, method: SerMethod, tails, row: int, xi: int,
                **meta) -> SerResult:
    """The analytic SER of ``tails`` row ``row``, the threshold ``xi``."""
    law, miss, false_alarm = tails
    # Odd masks carry a 1 in the current symbol: their error is a miss.
    odd = (np.arange(law.size) & 1).astype(bool)
    err = np.where(odd, miss[row, law], false_alarm[row, law])
    per_symbol = _per_symbol_from_mask_errors(err, link.seq_len_K)
    # A trimmed pmf's summed mass can round a few ulp above 1, so a mask
    # error can fall a few ulp outside [0, 1]; results are clipped back.
    return SerResult(
        ser=min(max(float(per_symbol.mean()), 0.0), 1.0),
        per_symbol_errors=np.clip(per_symbol, 0.0, 1.0),
        threshold_used=xi,
        method=method,
        meta={"isi_probabilities": link.isi_probabilities(), **meta},
    )


def ser_analytic(link: OokLinkConfig,
                 method: SerMethod = SerMethod.POISSON_ANALYTIC) -> SerResult:
    """Exact average SER over all ``2^K`` equiprobable binary sequences.

    The outer average over sequences of per-sequence mean symbol errors is
    evaluated exactly through the interference-mask reorganisation (a
    bijective regrouping, not an approximation).  Sequence lengths above 20,
    and tables over the memory budget, are refused in favour of
    :func:`ser_monte_carlo`.
    """
    xi = link.threshold_xi
    return _ser_result(link, method, _threshold_tails(link, method, np.array([xi])), 0, xi)


def optimal_threshold(link: OokLinkConfig,
                      method: SerMethod = SerMethod.POISSON_ANALYTIC
                      ) -> tuple[int, SerResult]:
    """Threshold search over ``xi in {0, ..., n_tx}``.

    Returns the SER-minimising threshold (smallest index on ties) together
    with the analytic SER at that threshold, the same result
    :func:`ser_analytic` gives there.  The scan stops at saturation (see the
    module notes), which leaves the result equal to an exhaustive search's.
    """
    stop, rows = link.n_tx, _SCAN_ROWS
    if method is SerMethod.BINOMIAL_ANALYTIC:
        # Survivals are exactly 0 past the widest law's support end, and each
        # table rebuilds the subset DP, so one table reaches saturation.
        end = sum(start + pmf.size - 1 for start, pmf in _binomial_terms(link))
        stop = min(stop, end + 1)
        rows = stop + 1
    best = None
    for lo in range(0, stop + 1, rows):
        xis = np.arange(lo, min(lo + rows, stop + 1))
        tails = law, miss, false_alarm = _threshold_tails(link, method, xis)
        if lo == 0:
            weights = _mask_weights(link.seq_len_K)
            odd = (np.arange(weights.size) & 1).astype(bool)
            w_miss = np.bincount(law, weights=weights * odd, minlength=miss.shape[1])
            w_false = np.bincount(law, weights=weights * ~odd, minlength=miss.shape[1])
        # Row-major tables: each row's sum is one dot product, whatever the chunk.
        ser_by_xi = miss @ w_miss + false_alarm @ w_false
        row = int(np.argmin(ser_by_xi))
        if lo == 0 or ser_by_xi[row] < best[0]:
            best = (float(ser_by_xi[row]), tails, row, int(xis[row]))
        if np.all(miss == 1.0, axis=1).any():
            break
    ser_min, tails, row, best_xi = best
    return best_xi, _ser_result(link, method, tails, row, best_xi,
                                ser_by_threshold_min=ser_min)


def _mc_counts_errors(link: OokLinkConfig, realizations: int,
                      rng: np.random.Generator) -> np.ndarray:
    k = link.seq_len_K
    bits = rng.integers(0, 2, size=(realizations, k), dtype=np.int64)
    counts = rng.poisson(link.noise_mean_Nn, size=(realizations, k)).astype(np.int64)
    sent = bits == 1
    for j, p in enumerate(link.isi_probabilities()):
        if p <= 0.0:
            continue
        # A 1 sent at symbol s adds a Binomial(n_tx, p_j) count at symbol s + j.
        active = sent[:, :k - j]
        draws = np.zeros(active.shape, dtype=np.int64)
        draws[active] = rng.binomial(link.n_tx, p, size=np.count_nonzero(active))
        counts[:, j:] += draws
    detected = counts >= link.threshold_xi
    return detected != sent


def _mc_particle_errors(link: OokLinkConfig, realizations: int, seed: int,
                        channel: DuctChannelConfig, rx: ReceiverVolume,
                        release: ReleaseSpec, time_step: float,
                        pool_particles: int, threads: int) -> np.ndarray:
    k = link.seq_len_K
    offsets = link.detection_delay_t0 + link.symbol_interval_T * np.arange(k)
    pool = SimConfig(
        channel=channel,
        rx=rx,
        release=replace(release, n_tx=pool_particles),
        time_step=time_step,
        horizon=float(offsets[-1]),
        seed=seed,
        sample_times=offsets,
    )
    patterns = observation_patterns(pool, threads=threads)
    codes = patterns @ (1 << np.arange(k, dtype=np.int64))
    weights = np.bincount(codes, minlength=2 ** k).astype(float)
    probs = weights / weights.sum()
    live = np.flatnonzero(probs > 0.0)
    probs = probs[live] / probs[live].sum()
    live_bits = ((live[:, None] >> np.arange(k)) & 1).astype(np.int64)

    rng = np.random.default_rng([seed, 1])
    bits = rng.integers(0, 2, size=(realizations, k), dtype=np.int64)
    counts = rng.poisson(link.noise_mean_Nn, size=(realizations, k)).astype(np.int64)
    for rel in range(k):
        # Each release is an independent draw of n_tx particles from the
        # pool's empirical joint observation pattern; sampling the pattern
        # multinomially preserves the cross-instant correlation.
        draw = rng.multinomial(link.n_tx, probs, size=realizations)
        seen = draw @ live_bits  # column m: particles observed at offset m
        active = bits[:, rel] == 1
        span = k - rel
        counts[:, rel:] += np.where(active[:, None], seen[:, :span], 0)
    detected = counts >= link.threshold_xi
    return detected != (bits == 1)


def ser_monte_carlo(link: OokLinkConfig, realizations: int, seed: int,
                    method: SerMethod = SerMethod.MONTE_CARLO_COUNTS,
                    *, channel: DuctChannelConfig | None = None,
                    rx: ReceiverVolume | None = None,
                    release: ReleaseSpec | None = None,
                    time_step: float = 1e-3,
                    pool_particles: int = 100_000,
                    threads: int = 1) -> SerResult:
    """Monte Carlo SER over uniformly random K-bit sequences.

    ``MONTE_CARLO_COUNTS`` draws per-symbol counts from the factorised
    binomial-plus-Poisson model (so it estimates exactly what
    ``BINOMIAL_ANALYTIC`` computes).  ``MONTE_CARLO_PARTICLES`` drives the
    particle engine with superposed releases and therefore captures the
    correlation of individual molecules across sampling instants; it needs
    the physical channel (``channel``, ``rx``, ``release``, ``time_step``).
    Results are reproducible for a fixed seed.
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    if method is SerMethod.MONTE_CARLO_COUNTS:
        errors = _mc_counts_errors(link, realizations, np.random.default_rng([seed, 0]))
    elif method is SerMethod.MONTE_CARLO_PARTICLES:
        if channel is None or rx is None or release is None:
            raise ValueError("particle-based SER needs channel, rx and release")
        errors = _mc_particle_errors(link, realizations, seed, channel, rx,
                                     release, time_step, pool_particles, threads)
    else:
        raise ValueError(f"{method} is not a Monte Carlo method")
    per_symbol = errors.mean(axis=0)
    return SerResult(
        ser=float(errors.mean()),
        per_symbol_errors=per_symbol,
        threshold_used=link.threshold_xi,
        method=method,
        meta={"realizations": realizations, "seed": seed},
    )
