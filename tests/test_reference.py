"""Per-configuration reference for the column reductions.

The library reads every per-configuration quantity from the columns of
a coefficient table.  Here each one is recomputed the direct way, one
configuration of ``coeffs`` at a time, with the scalar lattice helpers,
and the library's reductions must agree with it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from pytest import approx
from scipy.special import erf

from laughlin import plasma
from laughlin.correlations import occupation_finite, rod_expectations
from laughlin.expansion import amplitudes, expand_all
from laughlin.lattice import config_to_occupation, renewal_points
from laughlin.renewal import (_squared_amplitude_polys, irreducible_weights,
                              norms_from_tables)


@pytest.fixture(scope="module", params=(2, 3))
def tables(request):
    return expand_all(request.param, 6)


def exponent(m, p):
    return p * p * sum(j * j for j in range(len(m))) - sum(v * v for v in m)


def factorial(m):
    return math.prod(math.factorial(m.count(v)) for v in set(m))


def irreducible(m, p):
    return len(renewal_points(m, p)) == 2


def weights(table, gamma):
    """{m: A_N(n)^2}, one configuration at a time."""
    out = {}
    for m, c in table.coeffs.items():
        a = float(c) * math.exp(-0.5 * gamma * gamma * exponent(m, table.p))
        out[m] = a * a / factorial(m)
    return out


@pytest.mark.parametrize("gamma", (0.7, 1.5, 3.3))
def test_amplitudes_bit_identical(tables, gamma):
    for table in tables:
        expect = [float(c) * math.exp(0.5 * gamma * gamma
                                      * -exponent(m, table.p))
                  for m, c in table.coeffs.items()]
        got = amplitudes(table, gamma).amp
        assert np.array_equal(got.view(np.uint64),
                              np.array(expect).view(np.uint64))


def test_exact_polynomials(tables):
    for table in tables:
        irr: dict[int, Fraction] = {}
        full: dict[int, Fraction] = {}
        for m, c in table.coeffs.items():
            e = exponent(m, table.p)
            term = Fraction(c * c, factorial(m))
            full[e] = full.get(e, 0) + term
            if irreducible(m, table.p):
                irr[e] = irr.get(e, 0) + term
        assert _squared_amplitude_polys(table) == (irr, full)


@pytest.mark.parametrize("gamma", (0.7, 1.5))
def test_norms_and_irreducible_weights(tables, gamma):
    p = tables[0].p
    C = [1.0] + [sum(weights(t, gamma).values()) for t in tables]
    alpha = [sum(w for m, w in weights(t, gamma).items() if irreducible(m, p))
             for t in tables]
    assert norms_from_tables(tables, gamma) == approx(C, rel=1e-13)
    got, residual = irreducible_weights(tables, gamma)
    assert got == approx(alpha, rel=1e-13)
    assert residual == 0.0


@pytest.mark.parametrize("gamma", (0.7, 1.5))
def test_rod_expectations(tables, gamma):
    p = tables[0].p
    rods = rod_expectations(tables, gamma)
    for table in tables:
        n, sites = table.N, p * table.N
        nu = np.zeros(sites)
        pair = np.zeros((sites, sites))
        alpha = 0.0
        for m, w in weights(table, gamma).items():
            if not irreducible(m, p):
                continue
            occ = np.array(config_to_occupation(m, sites), dtype=float)
            alpha += w
            nu += w * occ
            pair += w * np.outer(occ, occ)
        assert rods.empty[n - 1] == (alpha == 0.0)
        if alpha:
            assert rods.nu[n - 1] == approx(nu / alpha, abs=1e-13)
            assert rods.pair[n - 1] == approx(pair / alpha, abs=1e-13)


@pytest.mark.parametrize("gamma", (0.7, 1.5))
def test_occupation_finite(tables, gamma):
    for table in tables:
        sites = table.p * (table.N - 1) + 1
        occ = np.zeros(sites)
        w = weights(table, gamma)
        for m, wm in w.items():
            occ += wm * np.array(config_to_occupation(m, sites))
        got = occupation_finite(amplitudes(table, gamma))
        assert got == approx(occ / sum(w.values()), abs=1e-13)


@pytest.mark.parametrize("gamma", (0.7, 1.5))
def test_exact_excess_zero(tables, gamma):
    for table in tables[1:]:
        p, N = table.p, table.N
        amp = amplitudes(table, gamma)
        w = weights(table, gamma)
        for k in range(1, N + 1):
            xbar = (k - 0.5) * p * gamma
            total = 0.0
            for m, wm in w.items():
                dist = np.zeros(N + 1)
                dist[0] = 1.0
                for v in m:
                    q = 0.5 * (1.0 + erf(xbar - v * gamma))
                    dist[1:] = dist[1:] * (1 - q) + dist[:-1] * q
                    dist[0] *= 1 - q
                total += wm * dist[k]
            expect = total / sum(w.values())
            got = plasma.exact_excess_zero(amp, xbar)
            assert got == approx(expect, abs=1e-13)
