"""Finite-N and infinite-volume correlation functions.

Diagonal observables factorize over rods: conditioned on the renewal
structure, the expectation of a product of occupation numbers is the
product of single-rod expectations nu_n(s).  Finite-N expectations are
exact sums over the amplitude table; infinite-volume expectations
combine the rod expectations with the stationary renewal measure,

    <n_k> = mu^{-1} sum_n p_n sum_{j=0}^{n-1} nu_n(k mod p + p j),

which is p-periodic and sums to one particle per period by construction.
Pair correlations split into a same-rod part and a two-rod part bridged
by the renewal function; the truncation of rod sizes at the model's Nmax
is converted into a reported error estimate via the long-interval bound.
One enumeration of the rods covering a site serves the finite occupations
from renewal bridges and the bound on their gap to the bulk; the bulk
occupations keep their own loop, summed in the order that fixes
``corr``'s bytes, and one pass builds a whole row of pair correlations
from site k, each separation summed in the order it has on its own.

Finite-N occupations, the rod profiles and the rod pair moments are
read from the moment tables (see :mod:`laughlin.moments`): per
Gaussian exponent e, the sums of c^2 / prod n_k! times occ (all rows
and the irreducible rows) and occ occ^T (the irreducible rows),
weighted by x^e, x = exp(-gamma^2), and divided by C_N or alpha_n.
The quasi-state decomposition needs single rows and reads the
amplitude table in one pass: the squared and the largest amplitude per
rod partition, with the meets of the live partitions, give its weights
and residual, with no vector or matrix over the configurations.

Conventions: orbitals are indexed 0..p(N-1) for a finite table; the
occupation basis is ordered by increasing orbital, and fermionic signs
follow from filling orbitals in increasing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from laughlin.expansion import AmplitudeTable, CoefficientTable
from laughlin.lattice import ConfigError, enumerate_partitions
from laughlin.moments import MomentTable, as_moments, derive
from laughlin.renewal import RenewalModel, long_interval_bound

#: Largest deviation between shifted bulk correlations that
#: :func:`period_test` counts as equal.
PERIOD_TOLERANCE = 1e-8


# -- finite N ----------------------------------------------------------------

def occupation_finite(amp: AmplitudeTable | MomentTable,
                      gamma: float | None = None) -> np.ndarray:
    """<n_k> for k = 0..p(N-1), normalized by C_N; sums to N.

    Read from a moment table at ``gamma``, or from the moments of the
    table and gamma of an amplitude table, which takes no other gamma.
    """
    if isinstance(amp, AmplitudeTable):
        if gamma is not None:
            raise ConfigError(f"an amplitude table carries its own gamma "
                              f"{amp.gamma}; got another, {gamma}")
        amp, gamma = derive(amp.table), amp.gamma
    elif gamma is None:
        raise ConfigError("occupations of a moment table need a gamma")
    return amp.occupation(gamma)


# -- quasi-state decomposition ------------------------------------------------

@dataclass(frozen=True)
class QuasiStateDecomposition:
    """The rod-partition decomposition of the normalized projector, in
    factored form.

    ``weights[X]`` is the probability p_N(X) = ||u_X||^2 / C_N of each
    rod partition X (keyed by its tuple of rod lengths, in the order of
    :func:`enumerate_partitions`), zero where its configuration class is
    empty; ``residual`` is the largest entry of
    sum_X p_N(X) omega_X - |Psi><Psi| / C_N.
    """

    weights: dict[tuple[int, ...], float]
    residual: float


def quasi_state(amp: AmplitudeTable) -> QuasiStateDecomposition:
    """Decompose |Psi><Psi|/C_N over rod partitions, in factored form.

    Every ordered pair (Y, Z) of partitions contributes |u_Y><u_Z| to
    the block of the partition X with R(X) = R(Y) n R(Z); scaling by
    ||u_X||^{-2} makes each block a state on diagonal observables, and
    the weights p_N(X) = ||u_X||^2 / C_N rebuild the projector but for
    the pairs whose meet class is empty.  Each row has one renewal set,
    so the u_X have disjoint supports and each entry of the difference
    belongs to one pair: the residual is the largest
    ||u_Y||_inf ||u_Z||_inf / C_N over live pairs with an empty meet, 0
    where there is none.  O(rows + L^2) for L live partitions.
    """
    N = amp.N
    amps = amp.occ
    C = float(amps @ amps)

    # A partition is the set of its interior renewal points, a bit mask
    # over rod coordinates 1..N-1, and R(Y) n R(Z) is the bitwise and.
    bits = 1 << np.arange(N - 1)
    labels = amp.table.renewal[:, 1:N] @ bits
    norms = np.bincount(labels, weights=amps * amps, minlength=1 << (N - 1))
    peaks = np.zeros(norms.size)
    np.maximum.at(peaks, labels, np.abs(amps))
    live = np.flatnonzero(norms)
    empty_meet = norms[live[:, None] & live[None, :]] == 0.0
    residual = np.max(np.outer(peaks[live], peaks[live]), initial=0.0,
                      where=empty_meet) / C
    parts = enumerate_partitions(N)
    masks = [bits[np.cumsum(X)[:-1] - 1].sum() for X in parts]
    return QuasiStateDecomposition(
        weights={X: float(norms[m]) / C for X, m in zip(parts, masks)},
        residual=float(residual))


# -- rod expectations and the infinite volume ---------------------------------

@dataclass
class RodExpectations:
    """Occupation profile of the normalized irreducible rod states.

    ``nu[n-1][s]`` is the expectation of n_s (s = 0..pn-1) inside a rod
    of n particles; ``pair[n-1]`` the (pn, pn) symmetric array of the
    diagonal pair moments <n_s n_t>, both at ``gamma``.  Rod classes that
    are empty (alpha_n = 0, e.g. every n >= 2 at p = 1) carry zero
    profiles.
    """

    p: int
    gamma: float
    nmax: int
    nu: tuple[np.ndarray, ...]
    pair: tuple[np.ndarray, ...]

    def nu_at(self, n: int, s: int) -> float:
        if 0 <= s < self.p * n:
            return self.nu[n - 1][s]
        return 0.0


def rod_expectations(tables: list[CoefficientTable] | list[MomentTable],
                     gamma: float) -> RodExpectations:
    """nu_n profiles and in-rod pair moments from the irreducible classes.

    The moment table of each n holds, per Gaussian exponent, the sums
    of c^2 / prod n_k! times occ and occ occ^T over the irreducible
    rows; weighted by x^e they give the profile and the pair moments,
    both over alpha_n.
    """
    nu = []
    pair = []
    for moments in as_moments(tables):
        alpha, profile, pairs = moments.rod(gamma)
        alpha = alpha or 1.0  # an empty class keeps zero profiles
        nu.append(profile / alpha)
        pair.append(pairs / alpha)
    return RodExpectations(p=tables[0].p, gamma=gamma, nmax=len(tables),
                           nu=tuple(nu), pair=tuple(pair))


def _check_rods(model: RenewalModel, rods: RodExpectations) -> None:
    """The rods must be those of the model: the same p and gamma, and a
    profile for every rod size up to the model's Nmax."""
    if (rods.p, rods.gamma) != (model.p, model.gamma):
        raise ConfigError(f"rod expectations of p={rods.p} at gamma="
                          f"{rods.gamma} and a model of p={model.p} at "
                          f"gamma={model.gamma}")
    if rods.nmax < model.Nmax:
        raise ConfigError(f"rod expectations up to n={rods.nmax} and a "
                          f"model up to Nmax={model.Nmax}")


def occupation_infinite(model: RenewalModel, rods: RodExpectations
                        ) -> np.ndarray:
    """Bulk occupations <n_0..n_{p-1}>; exactly p-periodic, summing to 1.

    Refuses rods that are not the model's.  An unconverged model is
    read as it is; its tail mass is the caller's to judge.
    """
    _check_rods(model, rods)
    p = model.p
    total = [0.0] * p
    for n, pn in enumerate(model.pn, 1):
        if pn == 0.0:
            continue
        pn, nu = float(pn), rods.nu[n - 1].tolist()
        for k in range(p):
            # the sites k, k + p, ..., k + p (n - 1) of a rod of n, added
            # left to right (sum() of floats compensates on Python 3.12+)
            total[k] += pn * reduce(add, nu[k::p])
    return np.array(total) / model.mu


@dataclass(frozen=True)
class PairCorrelation:
    """One row l = 0..lmax of <n_k n_{k+l}>: ``value`` and ``truncated``
    per separation, and the truncation error estimate of the row."""

    value: np.ndarray
    truncated: np.ndarray
    error_estimate: float


def pair_infinite(model: RenewalModel, rods: RodExpectations, k: int,
                  lmax: int) -> PairCorrelation:
    """<n_k n_{k+l}> in the bulk for l = 0..lmax, with the truncated
    correlations.

    Same-rod part: both sites inside one rod, using in-rod pair moments.
    Split part: the left rod ends at or before the second site, a
    renewal bridge u_c crosses the gap, and an independent rod covers
    the second site.  Each term is added to the slice of separations it
    reaches, in the (rod, site, bridge) order of a single separation, so
    every entry is that separation's sum.  Rod sizes beyond Nmax are out
    of reach of the exact tables; their weight is estimated by the
    long-interval bound and reported as the error.  The truncation
    subtracts the bulk occupations of :func:`occupation_infinite`, which
    also refuses rods that are not the model's.
    """
    occ = occupation_infinite(model, rods)
    p = model.p
    k = k % p
    if lmax < 0:
        raise ConfigError("site separation must be >= 0")
    size = lmax + 1
    same, split = np.zeros(size), np.zeros(size)
    # psi[s] = sum_n p_n nu_n(s): weight that a rod started s sites back
    # covers s; only rods of more than s // p particles reach site s
    psi = np.zeros(size)
    live = [(n, pn) for n, pn in enumerate(model.pn, 1) if pn != 0.0]
    for n, pn in live:
        psi[:p * n] += pn * rods.nu[n - 1][:size]
        for j in range(n):
            s = k + p * j
            same[:p * n - s] += pn * rods.pair[n - 1][s, s:s + size]

    u = model.renewal_sequence(lmax // p + 1)
    for n1, pn1 in live:
        for j in range(n1):
            s1 = k + p * j  # inside rod1, as k < p
            reach = p * n1 - s1  # distance from site k to rod1's end
            left = pn1 * rods.nu[n1 - 1][s1]
            if left == 0.0:
                continue
            for c in range((lmax - reach) // p + 1):
                start = reach + p * c
                split[start:] += left * u[c] * psi[:size - start]

    value = same / model.mu + split / model.mu
    truncated = value - occ[k] * occ[(k + np.arange(size)) % p]
    err = 2.0 * long_interval_bound(model, model.Nmax + 1)
    return PairCorrelation(value=value, truncated=truncated,
                           error_estimate=err)


def _covering_rods(model: RenewalModel, rods: RodExpectations, N: int,
                   sites: range | list[int]):
    """(k, w, p_n, nu_n(k - pa)) per site k in ``sites`` and covering rod
    (start a, size n <= Nmax), offset j = k // p - a outer and n inner;
    w = u_a u_{N-a-n} / u_N is the bridge weight, 0 off [0, N)."""
    _check_rods(model, rods)
    if N > model.Nmax:
        raise ConfigError(f"N={N} exceeds Nmax={model.Nmax}")
    u = model.renewal_sequence(N)
    for k in sites:
        for j in range(model.Nmax):
            a, s = k // model.p - j, k % model.p + model.p * j
            for n in range(j + 1, model.Nmax + 1):
                w = u[a] * u[N - a - n] / u[N] if 0 <= a <= N - n else 0.0
                yield k, w, model.pn[n - 1], rods.nu_at(n, s)


def occupation_finite_via_renewal(model: RenewalModel, rods: RodExpectations,
                                  N: int) -> np.ndarray:
    """Finite-N occupations reassembled from the renewal description.

    <n_k>_N = sum over the covering rod (start a, size n) of
    u_a p_n u_{N-a-n} / u_N * nu_n(k - pa).  Must reproduce
    occupation_finite exactly; exercises the amplitude factorization,
    the rod profiles, and the renewal bridge in one identity.
    """
    occ = np.zeros(model.p * (N - 1) + 1)
    for k, w, pn, nu in _covering_rods(model, rods, N, range(occ.size)):
        occ[k] += w * pn * nu
    return occ


def bulk_epsilon(model: RenewalModel, rods: RodExpectations, N: int, k: int
                 ) -> float:
    """Bound on |<n_k>_N - <n_{k mod p}>_inf| from bridge-weight defects.

    Both occupations weight the same rod profiles; the finite system
    weights a covering rod (start a, size n) by u_a p_n u_{N-a-n} / u_N,
    the infinite one by p_n / mu (with rods allowed to start at any
    a, including outside [0, N-n]).  Summing |weight difference| times
    nu over the full index set bounds the gap by the triangle
    inequality, up to rod sizes beyond Nmax.
    """
    total = 0.0
    for _, w, pn, nu in _covering_rods(model, rods, N, [k]):
        total += abs(w - 1.0 / model.mu) * pn * nu
    return total


# -- continuum density ---------------------------------------------------------

def density_profile(occ: np.ndarray, gamma: float, xs: np.ndarray
                    ) -> np.ndarray:
    """One-particle density per unit area on the cylinder axis grid.

    ``occ[k]`` is the occupation of orbital k; the density is
    rho(x) = (2 pi R)^{-1} pi^{-1/2} sum_k <n_k> exp(-(x - k gamma)^2).
    """
    xs = np.asarray(xs, dtype=float)
    ks = np.arange(len(occ)) * gamma
    gauss = np.exp(-(xs[:, None] - ks[None, :]) ** 2)
    return gamma / (2.0 * math.pi ** 1.5) * (gauss @ np.asarray(occ))


# -- periodicity ---------------------------------------------------------------

@dataclass(frozen=True)
class PeriodReport:
    period: int
    margin: float
    used: str
    tolerance: float
    deviations: tuple[float, ...]


def period_test(model: RenewalModel, rods: RodExpectations) -> PeriodReport:
    """Smallest lattice shift fixing the bulk correlations, up to
    :data:`PERIOD_TOLERANCE`.

    Shifts d = 1..p are compared on the occupation p-vector of
    :func:`occupation_infinite`; if the occupations alone would declare
    a period smaller than p, the pair rows of :func:`pair_infinite` up
    to separation 2p are consulted as well, so flat first moments
    cannot fake a short period.
    """
    p, tol = model.p, PERIOD_TOLERANCE
    occ = occupation_infinite(model, rods)
    devs = []
    for d in range(1, p + 1):
        devs.append(max(abs(occ[k] - occ[(k + d) % p]) for k in range(p)))
    if any(dev <= tol for dev in devs[:-1]):
        rows = np.array([pair_infinite(model, rods, k, 2 * p).value[1:]
                         for k in range(p)])
        for d in range(1, p + 1):
            pair_dev = np.abs(rows - np.roll(rows, -d, axis=0)).max()
            devs[d - 1] = max(devs[d - 1], pair_dev)
        used = "occupations+pair_moments"
    else:
        used = "occupations"
    period = next(d for d in range(1, p + 1) if devs[d - 1] <= tol)
    rejected = [devs[d - 1] for d in range(1, period)]
    margin = min(rejected) if rejected else math.inf
    return PeriodReport(period=period, margin=margin, used=used,
                        tolerance=tol, deviations=tuple(devs))
