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
pmfs per symbol, written into the table and summed there, so time and
memory grow linearly in ``K``.  A link whose pmfs span more than
``_TABLE_CELLS`` cells, for any method, is refused before any pmf of its
sweep is evaluated, and a table of more cells before it is built.
:func:`ser_analytic_many` reads one threshold of it,
:func:`optimal_threshold_many` its minimum.

Both analytic models treat counts at different sampling instants as
independent, and for the SER that loses nothing: the SER is a mean of
single-instant errors, and one instant's count sums independent releases.
``MONTE_CARLO_COUNTS`` samples that same model from the trimmed pmfs that
``BINOMIAL_ANALYTIC`` convolves, by inverse CDF on one uniform per count.
Each block of realizations draws, in C order of ``(realization, symbol)``,
the bits, the noise of every sampling instant, then for ``j = 0..K-1`` one
uniform per transmitted 1 whose offset-``j`` instant lies in the sequence.
No draw depends on ``pob``, so a sweep's links (one ``K``, one ``Nn``)
share them all.  Each draw is sorted once with the flat indices it adds to,
and a link's inverse CDF is one binary search of it per pmf cell (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. III): each uniform gets
the cell a binary search of the cumulative sum would, and each link its
result run alone.  A block holds at most ``_MC_BLOCK`` realizations and the
draws, as int32 sorted indices, of ``_MC_CELLS`` triples ``(realization,
symbol, offset)``; past that, in one realization of ``K >= 1024``, each
link keeps its own ``K`` counts and takes the draws as they fill.
Trimming drops only tail cells below 1e-18, about ``max(1, sd / 4) 1e-18``
of a term's mass, so a count's law is off by at most the sum over its
``K + 1`` terms, which no Monte Carlo run resolves.
``PARTICLE_BINOMIAL`` is ``BINOMIAL_ANALYTIC`` on the empirical
``P_ob(t0 + j T)`` of a pool of 100 000 particles, from one engine run per
sweep, which the CLI's SER action makes.  A molecule seen at one instant
can be seen again at the next, but that correlation couples the counts of
different symbols, never the count of one, so the method is exact given
the pool.
External noise molecules are modelled as Poisson with mean ``Nn``,
independent across sampling instants.

The pmfs are computed as R's ``dbinom`` and ``dpois`` compute them (C.
Loader, "Fast and Accurate Computation of Binomial Probabilities", 2000),
over the contiguous range of cells a trimmed pmf needs, those of a whole
sweep in one stacked pass whose every cell sees the operations of a pass
over its term alone.  The value at the mode is Loader's saddle-point form:
``exp`` of the Stirling-formula errors ``stirlerr`` of ``n``, ``k`` and
``n - k`` and of the deviances ``bd0``, ``x log(x / m) + m - x`` summed as
a series near ``x = m``, so no large terms cancel.  The other cells follow
by running products of the ratios of neighbouring cells, ``(n - k) / (k +
1) p / q`` for the binomial and ``lam / (k + 1)`` for the Poisson, upward
and downward from the mode.  A cell ``s`` steps from the mode is off by at
most about ``(8 + 2.5 s) eps`` relative: a few 1e-12 at the ends of the
widest range, at ``n_tx = 1e7``.

Every method sees the channel only through the ``K`` values
``P_ob(t0 + j T)`` at the :func:`detection_offsets`, which a link holds as
``pob``, whether a closed form or a particle pool gave them; this module
never evaluates an impulse response itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from typing import Iterator

import numpy as np

__all__ = ["SerMethod", "OokLinkConfig", "SerResult", "detection_offsets",
           "ser_analytic_many", "optimal_threshold_many", "ser_monte_carlo_many"]

_PMF_TAIL = 1e-18
#: Realizations the count Monte Carlo draws at a time, at most.
_MC_BLOCK = 1 << 16
#: Triples ``(realization, symbol, offset)`` one count Monte Carlo block holds, at most.
_MC_CELLS = 8 * _MC_BLOCK
#: Cells ``(symbol, threshold)`` of an error table, and of the pmfs any method evaluates,
#: at most; about 16.5 bytes a table cell to build.
_TABLE_CELLS = 1 << 22
#: Window cells a stacked pmf pass evaluates (or one wider term); 4096 raised peak RSS 0.1 MB.
_BATCH_CELLS = 3 << 10


def _integer(value, what: str) -> int:
    """``value`` as a plain ``int`` (:func:`operator.index`); ``ValueError`` if it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


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
    if not 0.0 < symbol_interval_T < math.inf:
        raise ValueError("symbol interval must be positive and finite")
    if _integer(seq_len_K, "sequence length") < 1:
        raise ValueError("sequence length must be at least 1")
    if not 0.0 <= detection_delay_t0 < math.inf:
        raise ValueError("detection delay must be non-negative and finite")
    return detection_delay_t0 + symbol_interval_T * np.arange(seq_len_K)


@dataclass(frozen=True)
class OokLinkConfig:
    """Configuration of one OOK link.

    ``pob`` holds ``P_ob(t0 + j T)`` for ``j = 0 .. K-1``, the channel's
    observation probabilities at the :func:`detection_offsets`: the SER
    depends on the channel only through them.  ``seq_len_K`` is their
    number ``K``.  ``pob`` is stored as a read-only copy, ``threshold_xi``
    and ``n_tx`` as plain ``int``; a non-integer raises ``ValueError``.
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
        for name in ("n_tx", "threshold_xi"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        # Past 2^53 not every count is a double: n_tx p and the pmf ratios lose their meaning.
        if not 1 <= self.n_tx <= 2 ** 53:
            raise ValueError("per-symbol particle count must lie in 1..2**53")
        if not 0 <= self.threshold_xi <= self.n_tx:
            raise ValueError("detection threshold must lie in {0, ..., n_tx}")
        if not 0.0 <= self.noise_mean_Nn < math.inf:  # nan fails too
            raise ValueError("noise mean must be non-negative and finite")
        pob.flags.writeable = False
        object.__setattr__(self, "pob", pob)

    @property
    def seq_len_K(self) -> int:
        return self.pob.size


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


def _mode_pmf(mode: int, lam: float, n: int, p: float) -> float:
    """Loader's saddle-point value at ``mode`` of ``Poisson(lam)`` if ``n`` is 0, else of
    ``Binomial(n, p)``."""
    if not n:
        if mode == 0:
            return math.exp(-lam)
        return math.exp(-_stirlerr(mode) - _bd0(mode, lam)) / math.sqrt(2.0 * math.pi * mode)
    q = 1.0 - p
    if mode == 0:
        return math.exp(-_bd0(n, n * q) - n * p if p < 0.1 else n * math.log(q))
    if mode == n:
        return math.exp(-_bd0(n, n * p) - n * q if q < 0.1 else n * math.log(p))
    lc = (_stirlerr(n) - _stirlerr(mode) - _stirlerr(n - mode)
          - _bd0(mode, n * p) - _bd0(n - mode, n * q))
    return math.exp(lc) * math.sqrt(n / (2.0 * math.pi * (mode * (n - mode))))


def _stacked_pmfs(low, high, mode, lam, n, p) -> list[tuple[int, np.ndarray]]:
    """Tail-trimmed ``(start, pmf)`` of each term, from one stacked pass, as views of one buffer.

    Term ``t`` is ``Poisson(lam[t])`` if ``n[t]`` is 0, else ``Binomial(n[t],
    p[t])``, on cells ``low[t]..high[t]``.  Running products outward from
    :func:`_mode_pmf` at ``mode[t]`` of the ratios ``r(k) / k`` above the mode
    and ``k / r(k)`` below, ``r(k) = lam + ((n + 1) - k) p / q`` with one part
    an exact 0, give each cell the operations of a pass over its term alone.
    """
    size = (high - low).astype(np.int64) + 1
    ends = np.cumsum(size)
    heads = ends - size
    k = np.repeat(low - heads, size) + np.arange(ends[-1])
    mode_at = np.repeat(mode, size)
    below, above = k < mode_at, k > mode_at
    k += below  # below the mode, cell k holds pmf[k] / pmf[k + 1], read at k + 1
    # p = 1: inf odds zero the cells below the mode; its own 0 * inf is never read.
    with np.errstate(divide="ignore", invalid="ignore"):
        odds = np.where(n > 0, p / (1.0 - p), 0.0)
        r = (np.repeat(n + 1.0, size) - k) * np.repeat(odds, size) + np.repeat(lam, size)
    pmf = np.ones(k.size)  # the mode's cell
    np.divide(k, r, out=pmf, where=below)
    np.divide(r, k, out=pmf, where=above)
    mids = heads + (mode - low).astype(np.int64)
    for head, mid, end in zip(heads.tolist(), mids.tolist(), ends.tolist()):
        up, down = pmf[mid:end], pmf[head:mid + 1][::-1]
        np.multiply.accumulate(up, out=up)
        np.multiply.accumulate(down, out=down)
    pmf *= np.repeat(list(map(_mode_pmf, mode.astype(np.int64).tolist(), lam.tolist(),
                              n.tolist(), p.tolist())), size)
    kept = np.flatnonzero(pmf > _PMF_TAIL)
    first, stop = kept[kept.searchsorted(heads)], kept[kept.searchsorted(ends) - 1] + 1
    starts = (low.astype(np.int64) + (first - heads)).tolist()
    return [(start, pmf[a:b]) for start, a, b in zip(starts, first.tolist(), stop.tolist())]


def _count_terms(links: list[OokLinkConfig],
                 method: SerMethod) -> Iterator[list[tuple[int, np.ndarray]]]:
    """Per link, the tail-trimmed ``(start, pmf)`` of the noise, then of each offset's count.

    Offset ``j`` contributes ``Poisson(n_tx p_j)`` under ``POISSON_ANALYTIC``,
    whose mass past ``n_tx`` the censored laws keep, and
    ``Binomial(n_tx, p_j)``, on ``0..n_tx``, under ``BINOMIAL_ANALYTIC``.
    Each is evaluated on its window, the cells ``mean +- (12 sd + 30)`` in
    ``0..``, a binomial's not above ``n_tx``: outside it the pmfs lie far
    below the tail.  A mean at most the tail gives ``(0, [1.0])``, as
    ``Poisson(0)`` on cell 0: by Markov's inequality no cell ``k >= 1``
    exceeds the mean.  A link whose windows span more than ``_TABLE_CELLS``
    cells raises ``ValueError`` before any pmf is evaluated; then
    :func:`_stacked_pmfs` evaluates the terms lazily, about ``_BATCH_CELLS``
    window cells at a time.
    """
    if method not in (SerMethod.POISSON_ANALYTIC, SerMethod.BINOMIAL_ANALYTIC):
        raise ValueError(f"{method} is not an analytic method")
    if not links:
        return iter(())
    sizes = [link.seq_len_K + 1 for link in links]
    heads = np.cumsum(sizes) - sizes
    # The terms of all links in a row: each link's noise (p = 0), then its offsets.
    p = np.concatenate([part for link in links for part in ((0.0,), link.pob)])
    n = np.repeat([link.n_tx for link in links], sizes)
    means = n * p
    means[heads] = [link.noise_mean_Nn for link in links]
    poisson = np.full(p.size, method is SerMethod.POISSON_ANALYTIC)
    poisson[heads] = True
    half = 12.0 * np.sqrt(np.where(poisson, means, means * (1.0 - p))) + 30.0
    low, high = np.maximum(means - half, 0.0) // 1.0, (means + half) // 1.0
    np.minimum(high, n, out=high, where=~poisson)
    live = means > _PMF_TAIL
    cells = np.add.reduceat(np.where(live, high - low + 1.0, 0.0), heads)
    if cells.max() > _TABLE_CELLS:
        raise ValueError(f"SER pmfs of {int(cells[cells > _TABLE_CELLS][0])} cells, "
                         f"more than the {_TABLE_CELLS} allowed")
    high[~live] = 0.0
    mode = np.clip(np.where(poisson, means, (n + 1) * p) // 1.0, low, high)
    cols = (low, high, mode, np.where(poisson & live, means, 0.0),
            np.where(poisson | ~live, 0, n), p)
    width = high - low + 1.0
    cuts = np.flatnonzero(np.diff((np.cumsum(width) - width) // _BATCH_CELLS)) + 1
    bounds = [0, *cuts.tolist(), p.size]
    flat = chain.from_iterable(_stacked_pmfs(*(col[a:b] for col in cols))
                               for a, b in zip(bounds, bounds[1:]))
    return (list(islice(flat, size)) for size in sizes)


def _add(law: np.ndarray, term: tuple[int, np.ndarray], n: int) -> np.ndarray:
    """The pmf on ``0..n`` of ``min(C + X, n)``, ``C ~ law`` and ``X ~ term`` independent.

    ``law`` may itself be censored at ``n``: ``X >= 0``, so censoring
    ``min(C, n) + X`` again gives ``min(C + X, n)``.  Cell ``n`` sums the
    mass at or past ``n``; none is dropped.
    """
    start, pmf = term
    full = np.convolve(law, pmf)
    if start + full.size <= n + 1:
        return np.concatenate((np.zeros(start), full)) if start else full
    below = max(n - start, 0)
    return np.concatenate((np.zeros(n - below), full[:below], [full[below:].sum()]))


def _error_table(link: OokLinkConfig, terms: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Error probability of symbol ``i`` at threshold ``xi``, shape ``(K, W + 1)``.

    Walks ``i = 0..K-1`` keeping the law of ``N + S_i`` (see the module
    notes), censored at ``n_tx``.  A miss is the forward cumulative sum of
    the law with the signal, a false alarm the reverse cumulative sum of the
    law without it: both add nonnegative cells from the error's own side,
    with no complement.  Past the widest law's last cell ``W - 1``, every
    threshold has column ``W``'s errors, so the table stops there, or at
    ``n_tx`` if ``W`` is ``n_tx + 1``.  ``terms`` are the link's :func:`_count_terms`; a
    table of more than ``_TABLE_CELLS`` cells raises ``ValueError`` before it is made.
    """
    n, k = link.n_tx, link.seq_len_K
    # The trimmed pmfs give the table's width exactly, before any is convolved.
    width = min(n + 1, 1 + sum(start + pmf.size - 1 for start, pmf in terms))
    if k * (width + 1) > _TABLE_CELLS:
        raise ValueError(f"SER table of {k * (width + 1)} cells, "
                         f"more than the {_TABLE_CELLS} allowed")
    noise, signal, *interference = terms
    miss, false_alarm = np.zeros((2, k, width + 1))
    law = _add(np.array([1.0]), noise, n)
    for i in range(k):
        if i:
            # X >= 0, so the law with the bit is never the shorter.
            with_bit = _add(law, interference[i - 1], n)
            with_bit[:law.size] += law
            with_bit *= 0.5
            law = with_bit
        with_signal = _add(law, signal, n)
        miss[i, 1:with_signal.size + 1] = with_signal
        false_alarm[i, :law.size] = law
    np.cumsum(miss, axis=1, out=miss)
    reverse = false_alarm[:, ::-1]
    np.cumsum(reverse, axis=1, out=reverse)
    miss *= 0.5
    false_alarm *= 0.5
    miss += false_alarm
    return miss[:, :n + 1]


def _ser_result(table: np.ndarray, xi: int) -> SerResult:
    """The analytic SER at threshold ``xi`` from an :func:`_error_table`."""
    per_symbol = table[:, min(xi, table.shape[1] - 1)]
    # A trimmed pmf's summed mass can round a few ulp above 1, so an error
    # can too; results are clipped back.
    return SerResult(
        ser=min(float(per_symbol.mean()), 1.0),
        per_symbol_errors=np.minimum(per_symbol, 1.0),
    )


def _optimum(table: np.ndarray) -> tuple[int, SerResult]:
    """The SER-minimising threshold of an :func:`_error_table` (smallest on ties), and its SER."""
    xi = int(np.argmin(table.mean(axis=0)))
    return xi, _ser_result(table, xi)


def ser_analytic_many(links: list[OokLinkConfig],
                      method: SerMethod = SerMethod.POISSON_ANALYTIC) -> list[SerResult]:
    """Exact average SER of each link over all ``2^K`` equiprobable binary sequences.

    Evaluated without enumerating them: symbol ``i``'s error averages a
    miss and a false alarm over the convolved interference law (see the
    module notes), two convolutions per symbol for any sequence length.
    Every pmf of the links comes from one stacked pass (:func:`_count_terms`),
    and each result is bit for bit that of the link alone; the tables are
    built one at a time.  ``[]`` gives ``[]``.
    """
    return [_ser_result(_error_table(link, terms), link.threshold_xi)
            for link, terms in zip(links, _count_terms(links, method))]


def optimal_threshold_many(links: list[OokLinkConfig],
                           method: SerMethod = SerMethod.POISSON_ANALYTIC
                           ) -> list[tuple[int, SerResult]]:
    """Threshold search over ``xi in {0, ..., n_tx}`` for each link.

    Gives, per link, the SER-minimising threshold (smallest index on ties)
    and the analytic SER there, the same result :func:`ser_analytic_many`
    gives: both read one error table that holds every threshold at once.
    ``[]`` gives ``[]``.
    """
    return [_optimum(_error_table(link, terms))
            for link, terms in zip(links, _count_terms(links, method))]


def _cdf_edges(pmf: np.ndarray) -> np.ndarray:
    """``[0, cdf[0], ..., cdf[-2], inf]``: cell ``k`` draws the uniforms in ``[edges[k], edges[k + 1])``.

    The last cell draws every uniform past ``cdf[-2]`` (trimming can leave the
    sum a few 1e-18 below 1), so each gets the cell a binary search of ``cdf`` finds.
    """
    return np.concatenate(([0.0], np.cumsum(pmf)[:-1], [np.inf]))


def _sorted_draw(targets: np.ndarray, u: np.ndarray,
                 edges: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """``targets`` in ascending order of ``u``, and for each of ``edges`` the cells' runs.

    For a term ``(start, pmf)`` with edges ``_cdf_edges(pmf)``, cell ``k``
    takes the ``runs[k]`` sorted uniforms in ``[edges[k], edges[k + 1])``, so
    they draw the counts ``np.repeat(start + np.arange(runs.size), runs)``.
    """
    order = u.argsort()
    u = u[order]
    return targets[order], [np.diff(u.searchsorted(cell_edges)) for cell_edges in edges]


def _add_draws(counts: np.ndarray, draws: list, m: int,
               terms: list[tuple[int, np.ndarray]]) -> None:
    """Adds link ``m``'s counts from each :func:`_sorted_draw` in ``draws``, under ``terms``."""
    # One offset's targets are distinct; np.add.at is just faster than +=.
    for (targets, runs), (start, _) in zip(draws, terms):
        np.add.at(counts, targets, np.arange(start, start + runs[m].size).repeat(runs[m]))


def _mc_block_errors(links: list[OokLinkConfig], terms: list[list[tuple[int, np.ndarray]]],
                     realizations: int, rng: np.random.Generator) -> np.ndarray:
    """Errors of each link at each symbol over one block, shape ``(len(links), K)``.

    ``terms[m]`` is link ``m``'s :func:`_count_terms`, each pmf as its
    :func:`_cdf_edges`; the links share their noise term, and every draw is
    made and sorted once for all of them.
    """
    k = links[0].seq_len_K
    sent = rng.integers(0, 2, size=(realizations, k), dtype=np.int64) == 1
    cells = realizations * k
    draw = _sorted_draw(np.arange(cells, dtype=np.int32), rng.random(cells), [terms[0][0][1]])
    noise = np.zeros(cells, dtype=np.int64)  # after the sort: no part of its peak
    _add_draws(noise, [draw], 0, terms[0][:1])
    del draw
    # A 1 sent at symbol s < k - j of realization r adds offset j's count at
    # flat index r k + s + j: the 1s left once the last j columns are
    # cleared, shifted by j.  Ascending, these targets are the C order of
    # (r, s) in which offset j draws.  The held draws, of offsets first..,
    # pass _MC_CELLS targets only in one realization of K >= 1024: each link
    # then keeps its own counts, K of them, and takes the draws as they fill.
    active = sent.copy()
    draws, first, held, kept = [], 0, 0, None
    for j in range(k):
        if j:
            active[:, k - j] = False
        targets = active.ravel().nonzero()[0].astype(np.int32)
        targets += j
        if draws and held + targets.size > _MC_CELLS:
            kept = np.tile(noise, (len(links), 1)) if kept is None else kept
            for m, link_terms in enumerate(terms):
                _add_draws(kept[m], draws, m, link_terms[1 + first:])
            draws, first, held = [], j, 0
        draws.append(_sorted_draw(targets, rng.random(targets.size),
                                  [link_terms[j + 1][1] for link_terms in terms]))
        held += targets.size
    errors = np.empty((len(links), k), dtype=np.int64)
    # One buffer for every link: a fresh copy per link fragments the heap.
    counts = np.empty_like(noise)
    for m, (link, link_terms) in enumerate(zip(links, terms)):
        np.copyto(counts, noise if kept is None else kept[m])
        _add_draws(counts, draws, m, link_terms[1 + first:])
        detected = counts.reshape(realizations, k) >= link.threshold_xi
        errors[m] = np.count_nonzero(detected != sent, axis=0)
    return errors


def ser_monte_carlo_many(links: list[OokLinkConfig], realizations: int,
                         seed: int) -> list[SerResult]:
    """Monte Carlo SER of each link over uniformly random K-bit sequences.

    It samples per-symbol counts (``MONTE_CARLO_COUNTS``) from the trimmed
    pmfs that ``BINOMIAL_ANALYTIC`` convolves, so it estimates what that
    method computes and does not check the pmfs.  The links must share
    ``seq_len_K`` and ``noise_mean_Nn``, as a sweep's points do.  Blocks of at
    most ``_MC_BLOCK`` realizations that hold at most ``_MC_CELLS`` draws
    (module notes) keep memory flat in ``realizations``; each block draws and
    sorts every uniform once for all links.  A fixed seed reproduces each
    result, bit for bit that of the link alone; ``[]`` gives ``[]``.
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    if not links:
        return []
    k, noise = links[0].seq_len_K, links[0].noise_mean_Nn
    if any(link.seq_len_K != k or link.noise_mean_Nn != noise for link in links):
        raise ValueError("Monte Carlo links must share their sequence length and noise mean")
    terms = [[(start, _cdf_edges(pmf)) for start, pmf in link_terms]
             for link_terms in _count_terms(links, SerMethod.BINOMIAL_ANALYTIC)]
    rng = np.random.default_rng([seed, 0])
    block = min(_MC_BLOCK, max(1, _MC_CELLS // (k * (k + 1) // 2)))
    errors = np.zeros((len(links), k), dtype=np.int64)
    for start in range(0, realizations, block):
        errors += _mc_block_errors(links, terms, min(block, realizations - start), rng)
    return [SerResult(ser=float(e.sum() / (realizations * k)), per_symbol_errors=e / realizations)
            for e in errors]
