"""Metropolis sampling of the continuum measure |Psi_N|^2.

The squared wave function is read as a Boltzmann weight for N charges
on the cylinder.  The log-weight uses the factored pair form
2p [gamma max(x_j, x_k) + ln|1 - e^{gamma(x_min - x_max) + i gamma dy}|],
which never exponentiates a positive number, so it stays finite at any
separation; coincident points give -inf and are simply never accepted.

Sampling uses single-particle proposals, Gaussian in x and
uniform-wrapped in y, with widths each chain adapts in its discarded
burn-in only.  Each chain keeps an N x N matrix of log-weight terms, so
the energy change of a move is a sum over a cached row and a proposed
one, and an accepted move writes its new row into row and column i.
The chains of a run advance in lockstep, and a sweep evaluates its
proposals in blocks of up to :data:`BLOCK` particles: one vectorised
call pairs the block's proposals of every chain with the current points
and with each other, and each chain then makes its own accept test move
by move.

Every generator is drawn in a fixed order: the initial state, then per
adaptation window of :data:`ADAPT_SWEEPS` sweeps (fewer in the last)
one ``standard_normal((sweeps, N))`` array of x steps and one
``random((2, sweeps, N))`` array whose first half moves y and whose
second half tests acceptance, both sweep-major with particles in label
order.  A seed therefore fixes every sample, however many chains run
beside it and whatever the block size.  The order is chosen for speed
alone: a window's draws are two calls per chain, and each kind of step
is one contiguous array that a few operations scale for all chains at
once; drawing once per sweep instead was as fast from N = 32 on and
slower at N = 4.
Particle labels are never sorted while sampling; order statistics
appear only in the excess measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import ConfigError, ModelParams


@dataclass(frozen=True)
class McConfig:
    """Sampler schedule: all counts positive; the seed fixes every chain.

    Every chain starts from the proposal widths :data:`START_WIDTHS` and
    adapts them in its burn-in (see :func:`_run_chain`).
    """

    sweeps: int
    burn_in: int
    thinning: int
    seed: int
    chains: int

    def __post_init__(self):
        if min(self.sweeps, self.burn_in, self.thinning, self.chains) <= 0:
            raise ConfigError("sweeps, burn_in, thinning, chains must be positive")


def _pair_factors(gamma: float) -> tuple[np.ndarray, ...]:
    """-gamma, gamma / 2, gamma, 1/2 and 4 as 0-d arrays, the constants of
    ``_pair_row``: a ufunc takes these without the conversion it makes of
    a Python float on every call."""
    return tuple(np.array(v) for v in (-gamma, 0.5 * gamma, gamma, 0.5, 4.0))


def _pair_row(x, y, xs: np.ndarray, ys: np.ndarray,
              factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """The bracket of the pair form for a charge at (x, y) and each point
    of (xs, ys), without the factor 2p; factors is ``_pair_factors(gamma)``.

    x, y, xs and ys broadcast against each other, so one call may pair
    many charges with many points; each element goes through the same
    ufuncs whatever the shapes, so its bits do not depend on them.  The
    bracket is symmetric bit for bit under exchange of the two points.
    A coincident point gives -inf, with a divide warning unless the
    caller ignores it.
    """
    neg_g, half_g, g, half, four = factors
    dx = np.abs(x - xs)
    decay = neg_g * dx
    mod = np.square(np.expm1(decay)) \
        + four * np.exp(decay) * np.square(np.sin(half_g * (y - ys)))
    return g * (half * (x + xs + dx)) + half * np.log(mod)


def _pair_matrix(coords: np.ndarray, gamma: float) -> np.ndarray:
    """Symmetric N x N matrix of pair terms with a zero diagonal."""
    xs, ys = coords[:, 0], coords[:, 1]
    with np.errstate(divide="ignore"):  # each point meets itself
        pairs = _pair_row(xs[:, None], ys[:, None], xs[None, :], ys[None, :],
                          _pair_factors(gamma))
    np.fill_diagonal(pairs, 0.0)
    return pairs


def _start_coordinates(params: ModelParams, rng: np.random.Generator
                       ) -> np.ndarray:
    """Particles near the root-configuration positions, random y."""
    circ = 2.0 * math.pi / params.gamma
    coords = np.empty((params.N, 2))
    coords[:, 0] = params.p * params.gamma * np.arange(params.N) \
        + 0.05 * rng.standard_normal(params.N)
    coords[:, 1] = rng.uniform(0.0, circ, params.N)
    return coords


#: The proposal widths in x and y that every chain starts from.
START_WIDTHS = (0.5, 0.5)
#: Sweeps per window: a chain draws a window's moves at its start, and
#: adapts its proposal widths after each whole window of burn-in.
ADAPT_SWEEPS = 50
#: The most moves of a sweep whose proposals one ``_pair_row`` call pairs.
BLOCK = 32


def _run_chain(params: ModelParams, mc: McConfig, rngs,
               sigma: tuple[float, float], n_keep: int):
    """One chain per generator in rngs, each from a fresh initial state
    and the widths sigma, advanced in lockstep: (kept samples of shape
    (C, n_keep, N, 2), per-chain acceptances over all moves, moves of
    all chains, per-chain final widths).

    After each whole window of :data:`ADAPT_SWEEPS` burn-in sweeps, a
    chain multiplies both its widths by 0.7 if it accepted below 0.30 of
    the window's moves, by 1.4 if above 0.60; the kept samples are drawn
    with the widths the burn-in ends with.

    The run goes window by window, ADAPT_SWEEPS sweeps each and fewer in
    the last.  No draw depends on the state and the widths are fixed in
    a window, so each chain makes the window's draws at its start, in
    the order the module docstring gives, and a few array operations
    turn them into every x step, y step and accept threshold
    log(1 - u) / 2p of the window.  A sweep moves each particle once, in
    label order, so its proposals are two array sums of the points at
    its start and its steps.

    Each chain caches the log-weight / 2p in a symmetric matrix: the
    pair terms off the diagonal and -x_i^2 / 2p on it, so the energy
    change of moving particle i is a sum over its new row less its
    cached one.  One ``_pair_row`` call per block of up to :data:`BLOCK`
    moves pairs the block's proposals of every chain, shaped (m, C, 1),
    with the current points followed by the block's proposals, shaped
    (C, N + m).  Per move, one reduction over the negated cached row and
    the proposed row gives the change in every chain, and each chain
    makes its own accept test.  An accepted move writes its row into
    row and column i of its matrix, and makes one write into column i
    of the block's later rows, the cached and proposed entries side by
    side (the latter from the proposal-to-proposal terms); the accepted
    points are written once, at the end of the block.  ``_pair_row`` is
    symmetric bit for bit, so every term is the one a call per move
    would give, and the samples do not depend on BLOCK.
    """
    g = params.gamma
    two_p = 2.0 * params.p
    circ = 2.0 * math.pi / g
    n, chains = params.N, len(rngs)
    size = min(BLOCK, n)
    start = np.stack([_start_coordinates(params, rng) for rng in rngs])
    pairs = np.stack([_pair_matrix(coords, g) for coords in start])
    labels = np.arange(n)
    pairs[:, labels, labels] = start[:, :, 0] * start[:, :, 0] / -two_p
    factors = _pair_factors(g)
    # points[0] and points[1] hold every chain's x and y, then room for the
    # proposals of one block; proposed holds the sweep's proposals, and
    # moved marks the points a block moves
    points = np.empty((2, chains, n + size))
    points[:, :, :n] = start.transpose(2, 0, 1)
    current = points[:, :, :n]
    xs, ys = current
    proposed = np.empty((2, chains, n))
    x_new, y_new = proposed
    moved = np.zeros((chains, n), dtype=bool)
    own_new = np.empty((chains, n))
    # steps[:, s, c]: chain c's x steps, y steps and thresholds in sweep s
    # of a window
    steps = np.empty((3, ADAPT_SWEEPS, chains, n))
    # rows[k, c, 0] holds chain c's cached row of the block's k-th
    # particle, negated, and rows[k, c, 1] its proposed row; later[k, c, j]
    # holds the entries of the block's later row j that an accepted k-th
    # move writes, negated cached and proposed side by side
    rows = np.empty((size, chains, 2, n))
    later = np.empty((size, chains, size, 2))
    widths = [sigma] * chains
    accepted, window_start = [0] * chains, [0] * chains
    kept = np.empty((chains, n_keep, n, 2))
    stored = 0
    total_sweeps = mc.burn_in + n_keep * mc.thinning
    row_sums = np.add.reduce
    # a proposal onto an occupied point has energy -inf and is rejected
    with np.errstate(divide="ignore"):
        for first in range(0, total_sweeps, ADAPT_SWEEPS):
            span = min(ADAPT_SWEEPS, total_sweeps - first)
            dx, dy, thresholds = steps[:, :span]
            for c, rng in enumerate(rngs):
                dx[:, c] = rng.standard_normal((span, n))
                steps[1:, :span, c] = rng.random((2, span, n))
            sigmas = np.array(widths)[:, :, None]
            dx *= sigmas[:, 0]
            # uniform(-1, 1) is -1 + 2 random()
            dy *= 2.0
            dy -= 1.0
            dy *= sigmas[:, 1]
            np.subtract(1.0, thresholds, out=thresholds)
            np.log(thresholds, out=thresholds)
            thresholds /= two_p
            for sweep in range(first, first + span):
                s = sweep - first
                np.add(xs, dx[s], out=x_new)
                np.add(ys, dy[s], out=y_new)
                np.remainder(y_new, circ, out=y_new)
                np.multiply(x_new, x_new, out=own_new)
                own_new /= -two_p
                # limits[i][c]: chain c accepts particle i's move when its
                # change exceeds this
                limits = thresholds[s].T.tolist()
                for b0 in range(0, n, BLOCK):
                    b1 = min(b0 + BLOCK, n)
                    m = b1 - b0
                    points[:, :, n:n + m] = proposed[:, :, b0:b1]
                    # terms[k, c]: chain c's k-th proposal of the block
                    # against the current points, then against the block's
                    # proposals
                    terms = _pair_row(x_new[:, b0:b1].T[:, :, None],
                                      y_new[:, b0:b1].T[:, :, None],
                                      points[0, :, :n + m],
                                      points[1, :, :n + m], factors)
                    block = rows[:m]
                    np.negative(pairs[:, b0:b1].swapaxes(0, 1),
                                out=block[:, :, 0])
                    block[:, :, 1] = terms[:, :, :n]
                    # a proposal meets its own particle in -x_new^2 / 2p
                    own = labels[:m]
                    block[own, :, 1, b0 + own] = own_new[:, b0:b1].T
                    side = later[:m, :, :m]
                    np.negative(terms[:, :, b0:b1], out=side[..., 0])
                    side[..., 1] = terms[:, :, n:].transpose(2, 1, 0)
                    for k, i in enumerate(range(b0, b1)):
                        changes = row_sums(block[k], axis=(1, 2)).tolist()
                        for c, (change, limit) in enumerate(
                                zip(changes, limits[i])):
                            if limit < change:
                                accepted[c] += 1
                                moved[c, i] = True
                                row = block[k, c, 1]
                                pairs[c, i] = pairs[c, :, i] = row
                                # the block's later moves see i at its
                                # new point
                                block[k + 1:, c, :, i] = side[k, c, k + 1:]
                    np.copyto(current, proposed, where=moved)
                    moved.fill(False)
                if sweep >= mc.burn_in \
                        and (sweep - mc.burn_in) % mc.thinning == 0:
                    kept[:, stored, :, 0] = xs
                    kept[:, stored, :, 1] = ys
                    stored += 1
            if first + span <= mc.burn_in and span == ADAPT_SWEEPS:
                for c, (sx, sy) in enumerate(widths):
                    rate = (accepted[c] - window_start[c]) / (ADAPT_SWEEPS * n)
                    scale = 0.7 if rate < 0.30 else 1.4 if rate > 0.60 else 1.0
                    widths[c] = (sx * scale, sy * scale)
                window_start = accepted.copy()
    moves = total_sweeps * n
    return (kept[:, :stored], [a / moves for a in accepted], moves * chains,
            widths)


#: A run is degenerate when its mean acceptance leaves this band, or
#: when its split R-hat is NaN or at least RHAT_TOLERANCE away from 1.
ACCEPTANCE_BAND = (0.01, 0.99)
RHAT_TOLERANCE = 0.1
#: Batches of the batch-means standard errors, and the refusal of a
#: series too short for one.
BATCHES = 50
ONE_SAMPLE = "one kept sample gives no standard error; run more sweeps"
#: Phase bins of :func:`phase_profile`, and its bulk window as fractions
#: of the droplet length.
PHASE_BINS = 6
PHASE_WINDOW = (0.3, 0.7)
#: erf elementwise over the few hundred points the Gaussian estimators
#: need; the standard library's spares ``mcmc`` the about 25 MB that
#: loading ``scipy.special`` costs.
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass
class McRun:
    #: each chain's final proposal widths, in the order of chain_acceptance
    sigma: tuple[tuple[float, float], ...]
    samples: np.ndarray
    acceptance: float
    chain_acceptance: tuple[float, ...]
    rhat: float
    #: single-particle moves made by all chains, burn-in included
    moves: int

    @property
    def pathological(self) -> bool:
        lo, hi = ACCEPTANCE_BAND
        return not lo <= self.acceptance <= hi

    @property
    def rhat_ok(self) -> bool:
        return abs(self.rhat - 1.0) < RHAT_TOLERANCE  # False for NaN

    def pooled(self) -> np.ndarray:
        c, n, N, _ = self.samples.shape
        return self.samples.reshape(c * n, N, 2)


def _split_rhat(series: np.ndarray) -> float:
    """Potential scale reduction over split chains of a scalar series."""
    half = series.shape[1] // 2
    if half < 2:
        return math.nan
    chunks = np.concatenate([series[:, :half], series[:, half:2 * half]])
    means = chunks.mean(axis=1)
    variances = chunks.var(axis=1, ddof=1)
    W = variances.mean()
    B = half * means.var(ddof=1)
    if W == 0.0:
        return math.nan
    return math.sqrt((half - 1) / half + B / (W * half))


def metropolis_run(params: ModelParams, mc: McConfig) -> McRun:
    """Sample |Psi|^2 with mc.chains independent chains.

    Chains get independent generators spawned from the master seed and
    advance in lockstep, each adapting its widths in its own burn-in, so
    the result is reproducible given (seed, chains).  The number of kept
    samples per chain is sweeps // thinning.
    """
    n_keep = mc.sweeps // mc.thinning
    if n_keep < 1:
        raise ConfigError("sweeps shorter than one thinning interval")
    rngs = [np.random.default_rng(seed)
            for seed in np.random.SeedSequence(mc.seed).spawn(mc.chains)]
    samples, accs, moves, sigma = _run_chain(params, mc, rngs, START_WIDTHS,
                                             n_keep)
    rhat = _split_rhat(samples[:, :, :, 0].sum(axis=2))
    return McRun(sigma=tuple(sigma), samples=samples,
                 acceptance=float(np.mean(accs)),
                 chain_acceptance=tuple(accs), rhat=rhat, moves=moves)


#: Sokal's window constant: the autocorrelation sum of
#: :func:`effective_samples` stops at the first lag M >= SOKAL_WINDOW
#: tau(M).
SOKAL_WINDOW = 5.0


def effective_samples(series: np.ndarray) -> float:
    """Effective sample size of observables sampled by several chains,
    summed over the chains: ``series`` has shape (observables, chains,
    samples), and the result is the mean over observables of
    chains * samples / tau.

    tau(M) = 1 + 2 sum_{t=1..M} rho(t) is the integrated autocorrelation
    time with Sokal's automatic window, the smallest M with M >= c tau(M)
    for c = :data:`SOKAL_WINDOW` (Sokal, Monte Carlo Methods in
    Statistical Mechanics, 1996), the largest lag where none is.  Each
    observable's normalised autocorrelation rho, by FFT, is averaged over
    its chains before the window is chosen.  A constant observable has
    no autocorrelation and gives NaN.
    """
    series = np.asarray(series, dtype=float)
    _, chains, n = series.shape
    centred = series - series.mean(axis=-1, keepdims=True)
    f = np.fft.rfft(centred, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[..., :n]
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = (acov / acov[..., :1]).mean(axis=1)
    taus = 1.0 + 2.0 * np.cumsum(rho[:, 1:], axis=1)
    lags = np.arange(1, n)
    ess = []
    for tau in taus:
        within = np.flatnonzero(lags >= SOKAL_WINDOW * tau)
        t = tau[within[0]] if within.size else tau[-1] if tau.size else 1.0
        ess.append(chains * n / t)
    return float(np.mean(ess))


def angular_ess(samples: np.ndarray, gamma: float) -> float:
    """:func:`effective_samples` of the per-sample means over the
    particles of cos(gamma y) and sin(gamma y), the first Fourier mode
    of the angular marginal, over ``samples`` of shape (C, S, N, 2) such
    as ``McRun.samples``."""
    phase = gamma * np.asarray(samples)[..., 1]
    return effective_samples(np.stack([np.cos(phase).mean(axis=-1),
                                       np.sin(phase).mean(axis=-1)]))


def _batching(count: int) -> tuple[int, int]:
    """(batches, batch size) of every batch-means error over count
    samples: :data:`BATCHES` batches from 2 BATCHES samples on, else
    count // 2 batches of two (of one for 2 or 3 samples), the samples
    past the last whole batch left out.  Fewer than two have none."""
    if count < 2:
        raise ConfigError(ONE_SAMPLE)
    nbatches = BATCHES if count >= 2 * BATCHES else max(2, count // 2)
    return nbatches, count // nbatches


def batch_stderr(series: np.ndarray) -> float:
    """Standard error of the mean by batch means, batched by
    :func:`_batching`."""
    series = np.asarray(series, dtype=float).ravel()
    nbatches, size = _batching(series.size)
    means = series[: nbatches * size].reshape(nbatches, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(nbatches))


# -- observables -----------------------------------------------------------------

@dataclass
class ExcessStats:
    """Particle-excess statistics at cut positions (k - 1/2) p gamma.

    ``histogram[xbar]`` maps the integer excess K to its frequency;
    ``p_zero`` and ``p_zero_stderr`` are per-xbar.
    """

    xbars: tuple[float, ...]
    histogram: dict[float, dict[int, float]]
    p_zero: dict[float, float]
    p_zero_stderr: dict[float, float]


def _cut_index(xbar: float, step: float) -> int:
    """The k >= 1 of a cut xbar = (k - 1/2) step, where step = p gamma."""
    k = xbar / step + 0.5
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ConfigError(f"cut {xbar} is not of the form (k - 1/2) p gamma")
    return int(round(k))


def measure_excess(samples: np.ndarray, xbars, params: ModelParams
                   ) -> ExcessStats:
    """Excess K = #{x_j <= xbar} - k at each cut xbar = (k - 1/2) p gamma,
    over ``samples`` of shape (S, N, 2), such as ``McRun.pooled()``."""
    samples = np.asarray(samples)
    xs = samples[:, :, 0]
    step = params.p * params.gamma
    hist: dict[float, dict[int, float]] = {}
    p_zero: dict[float, float] = {}
    p_err: dict[float, float] = {}
    xbars = tuple(float(x) for x in xbars)
    for xbar in xbars:
        K = np.sum(xs <= xbar, axis=1) - _cut_index(xbar, step)
        values, counts = np.unique(K, return_counts=True)
        freq = counts / K.size
        hist[xbar] = {int(v): float(f) for v, f in zip(values, freq)}
        p_zero[xbar] = hist[xbar].get(0, 0.0)
        p_err[xbar] = batch_stderr(K == 0)
    return ExcessStats(xbars=xbars, histogram=hist, p_zero=p_zero,
                       p_zero_stderr=p_err)


def _batch_rows(values: np.ndarray, nbatches: int, size: int):
    """The rows of each of nbatches batches of ``size`` consecutive rows
    of values, then the rows past the last whole batch."""
    for b in range(nbatches):
        yield values[b * size:(b + 1) * size]
    yield values[nbatches * size:]


def _batch_counts(batches, edges: np.ndarray) -> np.ndarray:
    """Counts of the values of each batch in the bins of edges, one row
    per batch, such as the batches of :func:`_batch_rows`.  Values are
    binned as np.histogram bins them: every bin is half-open but the
    last, which holds its right edge, and values outside the edges are
    left out.  The batches are binned one at a time, so no temporary
    spans them all.
    """
    nbins = edges.size - 1
    counts = []
    for rows in batches:
        bins = np.searchsorted(edges, rows, side="right")
        bins -= 1
        bins[rows == edges[-1]] = nbins - 1
        counts.append(np.bincount(bins[(bins >= 0) & (bins < nbins)],
                                  minlength=nbins))
    return np.array(counts)


#: Values per slice of the Kolmogorov-Smirnov ramp of density_histogram.
KS_SLICE = 1 << 14


@dataclass
class DensityEstimate:
    centers: np.ndarray
    density: np.ndarray
    stderr: np.ndarray
    y_ks: float


def density_histogram(samples: np.ndarray, bins: np.ndarray,
                      params: ModelParams) -> DensityEstimate:
    """x-histogram normalized to N particles, with a y-uniformity statistic,
    over ``samples`` of shape (S, N, 2), such as ``McRun.pooled()``.

    The y marginal is exactly uniform by rotation invariance; y_ks is
    the Kolmogorov-Smirnov distance of the pooled wrapped y values
    from the uniform law, a cheap detector for sampler bugs.
    """
    samples = np.asarray(samples)
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ConfigError("bins must be increasing edges")
    widths = np.diff(edges)
    nbatches, size = _batching(samples.shape[0])
    counts = _batch_counts(_batch_rows(samples[:, :, 0], nbatches, size),
                           edges)
    density = counts.sum(axis=0) / samples.shape[0] / widths
    # each bin's batch means in one contiguous row, as batch_stderr takes them
    means = np.ascontiguousarray((counts[:nbatches] / size).T)
    stderr = means.std(axis=1, ddof=1) / math.sqrt(nbatches) / widths
    # one copy of the y values, sorted and scaled to [0, 1) in place, met by
    # the ramp i / n a slice at a time
    ys = samples[:, :, 1].flatten()
    ys.sort()
    ys *= params.gamma
    ys /= 2.0 * math.pi
    y_ks = -math.inf if ys.size else math.nan
    for lo in range(0, ys.size, KS_SLICE):
        part = ys[lo:lo + KS_SLICE]
        up = np.arange(lo + 1, lo + part.size + 1) / ys.size
        y_ks = max(y_ks, np.max(up - part), np.max(part - up + 1.0 / ys.size))
    return DensityEstimate(centers=0.5 * (edges[:-1] + edges[1:]),
                           density=density, stderr=stderr, y_ks=float(y_ks))


# -- exact references for cross-validation ------------------------------------------

@dataclass
class PhaseProfile:
    """Bulk density folded by x mod (p gamma), against the renewal prediction."""

    edges: np.ndarray
    observed: np.ndarray
    stderr: np.ndarray
    predicted: np.ndarray
    window: tuple[float, float]

    @property
    def zscores(self) -> np.ndarray:
        return (self.observed - self.predicted) / self.stderr

    @property
    def contrast(self) -> float:
        """Peak-to-trough spread of the observed profile, in units of its mean."""
        return float((self.observed.max() - self.observed.min())
                     / self.observed.mean())


def phase_window(params: ModelParams) -> tuple[float, float]:
    """The bulk window (lo, hi) of :func:`phase_profile` in x.

    :data:`PHASE_WINDOW` of the droplet length, snapped inward to whole
    periods p gamma so every phase bin covers the same number of
    orbitals.  A window of no full period, counted in integers, is refused.
    """
    period = params.p * params.gamma
    length = (params.N - 1) * period
    lo_k = math.ceil(PHASE_WINDOW[0] * length / period)
    hi_k = math.floor(PHASE_WINDOW[1] * length / period)
    if hi_k - lo_k < 1:
        raise ConfigError("window too narrow to hold one full period")
    return lo_k * period, hi_k * period


def phase_profile(samples: np.ndarray, params: ModelParams,
                  bulk_occ: np.ndarray) -> PhaseProfile:
    """Fold bulk x samples by the lattice period into :data:`PHASE_BINS`
    bins and compare to occupations; ``samples`` has shape (S, N, 2),
    such as ``McRun.pooled()``.

    Only the samples inside :func:`phase_window` are folded.  bulk_occ
    is the length-p vector of stationary occupations; the prediction is
    the wrapped-Gaussian mix it induces.  The standard errors are batch
    means of the window fractions, batched by :func:`_batching`; each
    batch must hold a sample inside the window.
    """
    samples = np.asarray(samples)
    bulk_occ = np.asarray(bulk_occ, dtype=float)
    if bulk_occ.size != params.p:
        raise ConfigError(f"need {params.p} bulk occupations, got {bulk_occ.size}")
    lo, hi = phase_window(params)
    period = params.p * params.gamma
    edges = np.linspace(0.0, period, PHASE_BINS + 1)
    nbatches, size = _batching(len(samples))
    # fold each batch's samples inside the window
    counts = _batch_counts((np.mod(xs[(xs >= lo) & (xs < hi)], period)
                            for xs in _batch_rows(samples[:, :, 0],
                                                  nbatches, size)), edges)
    if counts.sum() == 0:
        raise ConfigError("no samples fell inside the bulk window")
    observed = counts.sum(axis=0) / counts.sum()
    # batch the fractions, not the raw counts: the window total fluctuates
    batches = counts[:nbatches]
    empty = np.flatnonzero(batches.sum(axis=1) == 0)
    if empty.size:
        raise ConfigError(f"batches {empty.tolist()} of {nbatches} hold no "
                          "sample inside the bulk window; run more sweeps")
    fr = batches / batches.sum(axis=1, keepdims=True)
    stderr = fr.std(axis=0, ddof=1) / math.sqrt(nbatches)
    # wrapped Gaussian mass of each phase bin, weighted by occupation
    predicted = np.zeros(PHASE_BINS)
    reach = int(math.ceil(6.0 / period)) + 1
    for r in range(params.p):
        for j in range(-reach, reach + 1):
            cdf = _erf(edges - (r * params.gamma + j * period))
            predicted += bulk_occ[r] * 0.5 * (cdf[1:] - cdf[:-1])
    predicted /= predicted.sum()
    return PhaseProfile(edges=edges, observed=observed, stderr=stderr,
                        predicted=predicted, window=(lo, hi))


def exact_excess_zero(amp, xbar: float) -> float:
    """P(K = 0) at the cut from the exact amplitude table.

    Conditioned on an occupation configuration, the y-marginal makes
    the particle x's independent Gaussians at the occupied centers, so
    the count left of the cut is a sum of independent Bernoullis.
    """
    k = _cut_index(xbar, amp.p * amp.gamma)
    if k > amp.N:
        return 0.0
    probs = 0.5 * (1.0 + _erf(xbar - amp.table.configs * amp.gamma))
    # the law of the count left of the cut, one row per configuration
    dist = np.zeros((len(probs), amp.N + 1))
    dist[:, 0] = 1.0
    for q in probs.T:
        dist[:, 1:] = dist[:, 1:] * (1 - q[:, None]) + dist[:, :-1] * q[:, None]
        dist[:, 0] *= 1 - q
    return float(amp.weights @ dist[:, k]) / amp.norm_sq()


def count_zscore(count: int, total: int, prob: float) -> float:
    """The normal-equivalent z of ``count`` events in ``total`` independent
    trials of probability ``prob``: the |z| whose two-sided normal tail
    is twice the smaller binomial tail, P(X <= count) or P(X >= count),
    and 0 where that tail is 1/2 or more.  Unlike a z in batch-means
    errors it stays finite for an event never or always seen.
    """
    from scipy.special import bdtr, bdtrc, ndtri
    tail = min(bdtr(count, total, prob), bdtrc(count - 1, total, prob))
    return float(abs(ndtri(min(1.0, 2.0 * tail) / 2.0)))
