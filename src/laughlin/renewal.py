"""Renewal-process description of the cylinder state.

The squared amplitudes factorise over rods (maximal stretches between
renewal points), so the exact norms C_N organise into a renewal process:

* irreducible weights ``alpha_n``: squared occupation amplitudes summed
  over configurations whose only renewal points are the endpoints;
* activity ``r``: the root in (0, 1] of sum_n alpha_n r^n = 1, turning
  ``p_n = alpha_n r^n`` into a waiting-time distribution with mean
  ``mu = sum_n n p_n``;
* renewal function ``u_N = C_N r^N``, equal to the convolution
  ``u_N = sum_k p_k u_{N-k}`` and converging to 1/mu.

Both are read from the moment tables of :mod:`laughlin.moments`: C_N
and alpha_n are polynomials in x = exp(-gamma^2) whose coefficients,
the sums of c^2 / prod n_k! per Gaussian exponent over all rows and
over the irreducible rows, are exact integers over a common
denominator.  Evaluating them costs one exponential per exponent, and
the renewal identity between them is checked in integers.

Everything is built from a finite Nmax, so r carries a truncation bias.
The model reports the root shift between Nmax and Nmax-1 and a geometric
estimate of the waiting-time mass beyond Nmax; by construction the
truncated p_n sum to one exactly, so the literal missing mass is not
observable and the estimate extrapolates the decay of the last two
weights instead; one weight (Nmax = 1) gives no estimate, an infinite
tail.  A model whose estimated tail exceeds 1% is ``unconverged``: it
still feeds every infinite-volume quantity, and the command line
records the tail as a failed ``tail-converged`` check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from laughlin.expansion import CoefficientTable
from laughlin.lattice import ConfigError
from laughlin.moments import MomentTable, as_moments

TAIL_THRESHOLD = 0.01
_ACTIVITY_TOL = 1e-12  # relative width at which the bisection stops


def norms_from_tables(tables: list[CoefficientTable] | list[MomentTable],
                      gamma: float) -> np.ndarray:
    """Squared norms C_0..C_Nmax; C_0 = 1 is the empty-product convention."""
    return np.array([1.0] + [m.norm_sq(gamma) for m in as_moments(tables)])


def alpha_residual(moments: list[MomentTable], gamma: float) -> float:
    """Defect of the renewal identity C_n = sum_{k=1}^n alpha_k C_{n-k}.

    With C_N and alpha_N the polynomials in x = exp(-gamma^2) of
    integer numerators F_N and I_N over the denominator D_N of the
    moment tables, the identity reads
    F_n = sum_k (D_n / (D_k D_{n-k})) I_k F_{n-k} (F_0 = D_0 = 1), and
    is compared exponent by exponent in integers.  A correct expansion
    leaves no defect, so the result is 0.0 identically; otherwise the
    worst defect at gamma relative to max(C_n, 1).  (A floating-point
    recursion would be limited by cancellation to ~1e-15 absolute, far
    too coarse for the smallest alpha_n.)
    """
    # (denominator, exponents, norm and alpha numerators); C_0 = 1 first
    polys = [(1, [0], (1,), ())] + [
        (m.denominator, m.exponents.tolist(), m.norm, m.alpha)
        for m in moments]
    residual = 0.0
    for n in range(1, len(polys)):
        den, expo, norm, _ = polys[n]
        defect = dict(zip(expo, norm))
        for k in range(1, n + 1):
            den_k, expo_k, _, alpha_k = polys[k]
            den_r, expo_r, norm_r, _ = polys[n - k]
            factor, rem = divmod(den, den_k * den_r)
            if rem:
                raise AssertionError(f"denominators of N={k}, {n - k} do "
                                     f"not divide that of N={n}")
            for ea, ca in zip(expo_k, alpha_k):
                if ca:
                    ca *= factor
                    for eb, cb in zip(expo_r, norm_r):
                        defect[ea + eb] = defect.get(ea + eb, 0) - ca * cb
        defect = {e: c for e, c in defect.items() if c}
        if defect:
            g2 = gamma * gamma
            value = math.fsum(c / den * math.exp(-g2 * e)
                              for e, c in defect.items())
            scale = max(moments[n - 1].norm_sq(gamma), 1.0)
            residual = max(residual, abs(value) / scale)
    return residual


def irreducible_weights(tables: list[CoefficientTable] | list[MomentTable],
                        gamma: float) -> tuple[np.ndarray, float]:
    """Weights alpha_1..alpha_Nmax plus the recursion cross-check residual.

    Direct route: sum A_n(m)^2 over configurations m whose renewal set
    is just {0, pn}, read from the moment tables.  Cross-check:
    alpha_N = C_N - sum_{k<N} alpha_k C_{N-k}, compared exactly by
    :func:`alpha_residual`, which couples the expansion, the renewal
    detection and the norms with no numerical slack.
    """
    moments = as_moments(tables)
    direct = np.array([m.irreducible_weight(gamma) for m in moments])
    return direct, alpha_residual(moments, gamma)


def solve_activity(alpha: np.ndarray) -> float:
    """Root r in (0, 1] of sum_n alpha_n r^n = 1.

    The left side is strictly increasing in r with value 0 at r = 0, and
    alpha_1 = 1 guarantees a value >= 1 at r = 1, so the root exists and
    is unique.  Bisection to a relative width of 1e-12, then a few
    Newton steps to polish to machine precision.  The arithmetic is
    that of the input's dtype, at least double: a long-double ``alpha``
    solves in long double, a round-off check at large gamma, where the
    alpha_n span many orders of magnitude.
    """
    alpha = np.asarray(alpha)
    alpha = alpha.astype(np.promote_types(alpha.dtype, np.float64))
    one = alpha.dtype.type(1.0)
    if len(alpha) == 0 or not alpha[0] > 0:
        raise ConfigError("alpha_1 must be positive to solve for the activity")

    def f(r):
        total = alpha.dtype.type(0.0)
        for a in alpha[::-1]:
            total = (total + a) * r
        return total - one

    def df(r):
        total = alpha.dtype.type(0.0)
        for n in range(len(alpha), 0, -1):
            total = total * r + n * alpha[n - 1]
        return total

    if f(one) < 0:
        raise ConfigError(
            "truncated weights sum below 1 at r=1; tail-dominated model")
    lo, hi = alpha.dtype.type(0.0), one
    while hi - lo > _ACTIVITY_TOL * hi:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    r = (lo + hi) / 2
    for _ in range(3):
        slope = df(r)
        if slope <= 0:
            break
        r = min(r - f(r) / slope, one)
    return float(r)


@dataclass(frozen=True)
class RenewalModel:
    """Waiting-time description extracted from exact norms at fixed gamma.

    ``C[n]``, ``alpha[n-1]``, ``pn[n-1]`` follow the index conventions of
    the module docstring; ``c_sub`` is the empirical constant
    max C_{N+M} / (C_N C_M) over computed pairs.
    """

    p: int
    gamma: float
    Nmax: int
    C: tuple[float, ...]
    alpha: tuple[float, ...]
    alpha_residual: float
    r: float
    pn: tuple[float, ...]
    mu: float
    tail_mass: float
    root_shift: float
    c_sub: float

    @property
    def unconverged(self) -> bool:
        return self.tail_mass > TAIL_THRESHOLD

    def renewal_sequence(self, kmax: int) -> np.ndarray:
        """u_0..u_kmax by the convolution recursion."""
        u = np.zeros(kmax + 1)
        u[0] = 1.0
        for k in range(1, kmax + 1):
            u[k] = sum(self.pn[n - 1] * u[k - n]
                       for n in range(1, min(k, self.Nmax) + 1))
        return u


def _tail_ratio(pn: np.ndarray) -> float:
    """Ratio q <= 0.99 of the geometric tail p_k ~ p_Nmax q^(k-Nmax)
    beyond Nmax; 0, no tail, where the last two weights give none."""
    if len(pn) < 2 or pn[-1] <= 0 or pn[-2] <= 0:
        return 0.0
    return min(pn[-1] / pn[-2], 0.99)


def _tail_estimate(pn: np.ndarray) -> float:
    """Geometric extrapolation of the waiting-time mass beyond Nmax; inf,
    a tail that cannot be estimated, from fewer than two weights."""
    if len(pn) < 2:
        return math.inf
    q = _tail_ratio(pn)
    return float(pn[-1] * q / (1.0 - q))


def build_model(p: int, Nmax: int, gamma: float,
                tables: list[CoefficientTable] | list[MomentTable]
                ) -> RenewalModel:
    """Assemble the renewal model from exact tables up to Nmax, given as
    coefficient tables or their moment tables."""
    tables = as_moments(tables[:Nmax])
    if len(tables) < Nmax:
        raise ConfigError(f"need tables up to N={Nmax}, got {len(tables)}")
    alpha, residual = irreducible_weights(tables, gamma)
    C = norms_from_tables(tables, gamma)
    r = solve_activity(alpha)
    pn = alpha * r ** np.arange(1, Nmax + 1)
    mu = float(np.arange(1, Nmax + 1) @ pn)
    root_shift = abs(r - solve_activity(alpha[:-1])) if Nmax >= 2 else 0.0
    csub = 1.0
    for n in range(1, Nmax):
        for m in range(1, Nmax - n + 1):
            csub = max(csub, C[n + m] / (C[n] * C[m]))
    return RenewalModel(p=p, gamma=gamma, Nmax=Nmax, C=tuple(C),
                        alpha=tuple(alpha), alpha_residual=residual, r=r,
                        pn=tuple(pn), mu=mu, tail_mass=_tail_estimate(pn),
                        root_shift=root_shift, c_sub=csub)


def partition_probability(model: RenewalModel, lengths) -> float:
    """Probability p_N(X) = prod alpha_{n_i} / C_N of a rod partition X,
    given by its rod lengths, which sum to N."""
    lengths = tuple(int(n) for n in lengths)
    if not lengths or any(n < 1 for n in lengths):
        raise ConfigError(f"rod lengths must be positive, got {lengths}")
    total = sum(lengths)
    if total > model.Nmax:
        raise ConfigError(f"partition of {total} exceeds Nmax={model.Nmax}")
    num = 1.0
    for n in lengths:
        num *= model.alpha[n - 1]
    return num / model.C[total]


def long_interval_bound(model: RenewalModel, d: int) -> float:
    """Bound c_sub * sum_{k>=d} k p_k on the no-renewal probability of a
    window of d rods; the waiting-time mass beyond Nmax enters through
    the same geometric extrapolation the model uses for its tail."""
    if d < 1:
        raise ConfigError(f"window length must be >= 1, got {d}")
    pn = np.asarray(model.pn)
    k = np.arange(1, model.Nmax + 1)
    total = float((k[d - 1:] @ pn[d - 1:]) if d <= model.Nmax else 0.0)
    # sum_{k>Nmax} k p_k with p_k ~ p_Nmax q^(k-Nmax)
    q = _tail_ratio(pn)
    start = max(d, model.Nmax + 1)
    head = pn[-1] * q ** (start - model.Nmax)
    total += float(head * (start + q / (1 - q)) / (1 - q))
    return model.c_sub * total
