"""Tests for finite- and infinite-volume correlation functions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.integrate import quad

from conftest import traced_peak_mb
from laughlin.correlations import (
    bulk_epsilon,
    density_profile,
    occupation_finite,
    occupation_finite_via_renewal,
    occupation_infinite,
    pair_infinite,
    period_test,
    quasi_state,
    rod_expectations,
)
from laughlin.expansion import amplitudes, expand_all
from laughlin.lattice import ConfigError, config_tuples
from laughlin.moments import derive
from laughlin.renewal import build_model, partition_probability
from test_reference import (diagonal_value, domain_weighted, moments_finite,
                            num_orbitals, omega, reference_quasi_state)


@pytest.fixture(scope="module")
def rods_p3(tables_p3):
    return rod_expectations(tables_p3, 1.0)


@pytest.fixture(scope="module")
def amp_p3_n2(tables_p3):
    return amplitudes(tables_p3[1], 1.0)


@pytest.fixture(scope="module")
def amp_p3_n4(tables_p3):
    return amplitudes(tables_p3[3], 1.0)


# -- finite-volume moments -----------------------------------------------------


def test_occupation_two_particles(amp_p3_n2):
    # Configurations (0,3) and (1,2) with squared weights 1 and 9e^{-4}.
    w = 9.0 * math.exp(-4.0)
    occ = occupation_finite(amp_p3_n2)
    assert occ == approx([1 / (1 + w), w / (1 + w), w / (1 + w), 1 / (1 + w)],
                         rel=1e-13)


def test_occupation_sums_to_n(tables_p3, tables_p2):
    for tables, N in ((tables_p3, 5), (tables_p2, 6)):
        occ = occupation_finite(amplitudes(tables[N - 1], 0.9))
        assert occ.sum() == approx(N, abs=1e-10)


def test_occupation_reflection(amp_p3_n4):
    occ = occupation_finite(amp_p3_n4)
    assert occ == approx(occ[::-1], rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(gamma=st.floats(min_value=0.3, max_value=2.5))
def test_occupation_invariants_any_gamma(tables_p3, gamma):
    occ = occupation_finite(amplitudes(tables_p3[3], gamma))
    assert occ.sum() == approx(4.0, abs=1e-9)
    assert occ == approx(occ[::-1], rel=1e-9)
    assert np.all(occ > 0)


def test_pair_moment_idempotent_for_fermions(amp_p3_n4):
    # n_k^2 = n_k + c*_k c*_k c_k c_k, and the second term vanishes for
    # fermions, so n_k^2 = n_k when occupation numbers are 0/1.
    occ = occupation_finite(amp_p3_n4)
    for k in range(num_orbitals(amp_p3_n4)):
        assert moments_finite(amp_p3_n4, (k,), (k,)) == approx(occ[k],
                                                               abs=1e-14)
        assert moments_finite(amp_p3_n4, (k, k), (k, k)) == 0.0


def test_moments_match_pair_moments(amp_p3_n4):
    # <c*_k c*_l c_l c_k> = <n_k n_l> for k != l, counted on the
    # configurations directly.
    weights = {}
    for m, c in amp_p3_n4.table.coeffs.items():
        expo = 9 * sum(j * j for j in range(4)) - sum(v * v for v in m)
        weights[m] = (c * math.exp(-0.5 * expo)) ** 2
    norm = sum(weights.values())
    for k, l in ((0, 3), (1, 5), (2, 7)):
        direct = sum(w for m, w in weights.items() if k in m and l in m)
        ordered = moments_finite(amp_p3_n4, (k, l), (l, k))
        assert ordered == approx(direct / norm, abs=1e-14)


def test_four_point_hop(amp_p3_n2):
    # <c*_1 c*_2 c_3 c_0> connects the two basis configurations; all the
    # Jordan-Wigner signs are +1 on this route.
    w = 9.0 * math.exp(-4.0)
    val = moments_finite(amp_p3_n2, (1, 2), (3, 0))
    assert val == approx(-3.0 * math.exp(-2.0) / (1 + w), rel=1e-13)


def test_moments_momentum_mismatch_vanishes(amp_p3_n2):
    assert moments_finite(amp_p3_n2, (0,), (1,)) == 0.0
    assert moments_finite(amp_p3_n2, (0, 3), (1, 3)) == 0.0


def test_moments_validation(amp_p3_n2):
    with pytest.raises(ConfigError):
        moments_finite(amp_p3_n2, (0, 1), (2,))
    with pytest.raises(ConfigError):
        moments_finite(amp_p3_n2, (0,), (99,))


def test_bosonic_moment_uses_sqrt_factors(tables_p2):
    # p=2, N=2: configurations (0,2) and (1,1) with amplitudes 1 and
    # -2e^{-g^2}; <c*_1 c*_1 c_2 c_0> picks up sqrt(2)*sqrt(2) from the
    # doubly occupied site.
    amp = amplitudes(tables_p2[1], 1.0)
    w = 2.0 * math.exp(-2.0)  # squared amplitude of (1,1) incl. 1/sqrt(2!)
    val = moments_finite(amp, (1, 1), (2, 0))
    assert val == approx(-2.0 * math.exp(-1.0) / (1 + w), rel=1e-13)


# -- quasi-state decomposition --------------------------------------------------


def test_quasi_state_two_particles(amp_p3_n2):
    dec = quasi_state(amp_p3_n2)
    w = 9.0 * math.exp(-4.0)
    assert dec.weights[(1, 1)] == approx(1 / (1 + w), rel=1e-13)
    assert dec.weights[(2,)] == approx(w / (1 + w), rel=1e-13)
    basis = config_tuples(amp_p3_n2.table.configs)
    i = basis.index((0, 3))
    j = basis.index((1, 2))
    ref = reference_quasi_state(amp_p3_n2)
    off = omega(ref, (2,))[i, j]
    assert off == approx(-math.exp(2.0) / 3.0, rel=1e-12)
    assert omega(ref, (2,))[j, i] == approx(off, rel=1e-14)


def test_quasi_state_rebuilds_projector(tables_p1, tables_p2, tables_p3):
    # The two quasi-state verdicts of verify-all, at N = 2..4.
    for tables in (tables_p1, tables_p2, tables_p3, expand_all(4, 4)):
        model = build_model(tables[0].p, 4, 1.0, tables=tables)
        for N in (2, 3, 4):
            dec = quasi_state(amplitudes(tables[N - 1], 1.0))
            assert dec.residual < 1e-12
            assert sum(dec.weights.values()) == approx(1.0, abs=1e-13)
            for X, weight in dec.weights.items():
                assert weight == approx(partition_probability(model, X),
                                        abs=1e-12)


def test_quasi_state_blocks_sum_to_reconstruction(amp_p3_n4):
    # the blocks are the terms of the reconstruction, grouped by meet
    dec = quasi_state(amp_p3_n4)
    ref = reference_quasi_state(amp_p3_n4)
    total = sum(dec.weights[X] * omega(ref, X) for X in ref.live)
    assert len(ref.live) == 8
    assert np.max(np.abs(total - ref.reconstruction())) < 1e-15


def test_quasi_state_memory_has_no_configuration_matrix(tables_p3):
    """At (3, 6), 247 rows and 32 partitions, the factored decomposition
    peaks at about 0.03 MB; the dense reconstruction, one 247 x 247
    array and its terms, took 0.61 MB."""
    amp = amplitudes(tables_p3[5], 1.0)
    assert traced_peak_mb(quasi_state, amp) < 0.1


def test_quasi_state_at_ten_particles(tables_p1):
    # 2^9 = 512 partitions, all but the staircase's one dead at p=1
    dec = quasi_state(amplitudes(tables_p1[9], 1.0))
    assert len(dec.weights) == 512
    assert dec.weights[(1,) * 10] == 1.0
    assert dec.residual == 0.0


def test_quasi_state_locality(tables_p3, rods_p3):
    # On diagonal observables each block only sees its own rods, with
    # the profile of the corresponding irreducible class.
    amp = amplitudes(tables_p3[3], 1.0)
    dec = quasi_state(amp)
    ref = reference_quasi_state(amp)
    for X, weight in dec.weights.items():
        if weight == 0.0:
            continue
        bounds = (0, *itertools.accumulate(3 * n for n in X))
        for site in range(amp.N * amp.p):
            r = next(i for i in range(len(X))
                     if bounds[i] <= site < bounds[i + 1])
            expect = rods_p3.nu_at(X[r], site - bounds[r])
            assert diagonal_value(ref, X, site) == approx(expect, abs=1e-12)


def test_quasi_state_skips_dead_partitions(tables_p1):
    # p=1 has no irreducible class beyond single rods, so every
    # partition with a longer rod carries zero weight.
    amp = amplitudes(tables_p1[2], 1.0)
    dec = quasi_state(amp)
    assert dec.weights[(1, 1, 1)] == approx(1.0, abs=1e-14)
    assert all(w == 0.0 for X, w in dec.weights.items() if X != (1, 1, 1))
    assert dec.residual == 0.0
    ref = reference_quasi_state(amp)
    assert ref.live == [(1, 1, 1)]
    assert len(ref.vectors) == 1
    with pytest.raises(ValueError):
        omega(ref, (3,))


# -- rod profiles ---------------------------------------------------------------


def test_rod_profiles_small(rods_p3):
    assert rods_p3.nu[0] == approx((1.0, 0.0, 0.0), abs=0)
    # Single irreducible two-rod configuration (1,2).
    assert rods_p3.nu[1] == approx((0, 1, 1, 0, 0, 0), abs=0)


def test_rod_profile_normalization_and_reflection(rods_p3, tables_p2):
    rods_p2 = rod_expectations(tables_p2, 0.8)
    for rods, p in ((rods_p3, 3), (rods_p2, 2)):
        for n in range(1, rods.nmax + 1):
            if not rods.nu[n - 1].any():  # an empty rod class
                continue
            total = sum(rods.nu_at(n, s) for s in range(p * n))
            assert total == approx(n, abs=1e-10)
            for s in range(p * n):
                assert rods.nu_at(n, s) == approx(
                    rods.nu_at(n, p * (n - 1) - s), abs=1e-12)


def test_rod_interior_sites_empty(rods_p3):
    # Irreducible rods with n >= 2 never occupy their first site, nor
    # any site past p(n-1).
    for n in range(2, rods_p3.nmax + 1):
        assert rods_p3.nu_at(n, 0) == 0.0
        for s in range(3 * (n - 1) + 1, 3 * n):
            assert rods_p3.nu_at(n, s) == 0.0


def test_rod_profiles_p1_degenerate(tables_p1):
    rods = rod_expectations(tables_p1, 1.0)
    assert [nu.any() for nu in rods.nu] == [True] + [False] * (rods.nmax - 1)
    assert rods.nu[0] == approx((1.0,), abs=0)


# -- infinite volume -------------------------------------------------------------


def test_occupation_infinite_normalized(model_p3_g1, rods_p3):
    occ = occupation_infinite(model_p3_g1, rods_p3)
    assert occ.sum() == approx(1.0, abs=1e-12)
    assert occ[1] == approx(occ[2], rel=1e-12)
    assert occ[0] > occ[1]


def test_occupation_infinite_p1(tables_p1):
    model = build_model(1, 8, 1.0, tables=tables_p1[:8])
    rods = rod_expectations(tables_p1[:8], 1.0)
    occ = occupation_infinite(model, rods)
    assert occ == approx([1.0], abs=1e-14)


def test_finite_occupation_via_renewal_is_exact(model_p3_g1, rods_p3,
                                                tables_p3):
    for N in (4, 6, 8):
        direct = occupation_finite(amplitudes(tables_p3[N - 1], 1.0))
        bridged = occupation_finite_via_renewal(model_p3_g1, rods_p3, N)
        assert bridged == approx(direct, abs=1e-12)


def test_bulk_matches_infinite_within_epsilon(model_p3_g1, rods_p3,
                                              tables_p3):
    occ8 = occupation_finite(amplitudes(tables_p3[7], 1.0))
    occ_inf = occupation_infinite(model_p3_g1, rods_p3)
    for k in (9, 10, 11):
        eps = bulk_epsilon(model_p3_g1, rods_p3, 8, k)
        assert abs(occ8[k] - occ_inf[k % 3]) <= eps
        assert eps < 5e-4


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("Nmax", [4, 8])
def test_finite_occupations_lie_within_epsilon_of_the_bulk(request, p, gamma,
                                                           Nmax):
    """At every site of every N <= Nmax the finite occupation rebuilt
    from renewal bridges lies on the bulk one within bulk_epsilon: both
    sum over the same covering rods.  The allowance 2^-50 is float64
    rounding; where one rod dominates the bound, the gap can exceed it
    by about one ulp of the occupations (1.1e-16 at most over this
    grid)."""
    tables = request.getfixturevalue(f"tables_p{p}")[:Nmax]
    model = build_model(p, Nmax, gamma, tables=tables)
    rods = rod_expectations(tables, gamma)
    bulk = occupation_infinite(model, rods)
    for N in range(1, Nmax + 1):
        finite = occupation_finite_via_renewal(model, rods, N)
        for k, occ in enumerate(finite):
            assert abs(occ - bulk[k % p]) <= \
                bulk_epsilon(model, rods, N, k) + 2.0 ** -50


def test_pair_infinite_decay(model_p3_g1, rods_p3):
    occ = occupation_infinite(model_p3_g1, rods_p3)
    pc = pair_infinite(model_p3_g1, rods_p3, 0, 15)
    assert pc.error_estimate >= 0.0
    trunc = []
    for l in range(1, 16):
        assert pc.truncated[l] == approx(pc.value[l] - occ[0] * occ[l % 3],
                                         abs=1e-13)
        trunc.append(abs(pc.truncated[l]))
    envelope = np.maximum.accumulate(trunc[::-1])[::-1]
    assert np.all(np.diff(envelope) <= 0)
    assert trunc[2] > 1e-2       # structure at one rod spacing
    assert envelope[14] < 1e-3   # decayed by five rod spacings


BULK_CALLS = {
    "occupation_infinite": lambda m, r: tuple(occupation_infinite(m, r)),
    "pair_infinite": lambda m, r: pair_infinite(m, r, 0, 2).truncated.tolist(),
    "occupation_finite_via_renewal":
        lambda m, r: tuple(occupation_finite_via_renewal(m, r, 6)),
    "bulk_epsilon": lambda m, r: bulk_epsilon(m, r, 6, 7),
    "period_test": lambda m, r: period_test(m, r),
}


@pytest.mark.parametrize("rods_of", ("p2", "four_sizes", "other_gamma"))
@pytest.mark.parametrize("name", sorted(BULK_CALLS))
def test_bulk_functions_check_their_rods(name, rods_of, tables_p3,
                                         tables_p2):
    """A p=3 model of six rod sizes at gamma 1 refuses rods of p=2, of
    four sizes, or at gamma 0.6."""
    model = build_model(3, 6, 1.0, tables=tables_p3)
    tables, gamma = {"p2": (tables_p2[:6], 1.0),
                     "four_sizes": (tables_p3[:4], 1.0),
                     "other_gamma": (tables_p3[:6], 0.6)}[rods_of]
    rods = rod_expectations(tables, gamma)
    match = ("p=3 at gamma=0.6 and a model of p=3 at gamma=1.0"
             if rods_of == "other_gamma" else "rod expectations")
    with pytest.raises(ConfigError, match=match):
        BULK_CALLS[name](model, rods)
    # rods of more sizes than the model has are read up to its Nmax
    assert BULK_CALLS[name](model, rod_expectations(tables_p3, 1.0)) == \
        BULK_CALLS[name](model, rod_expectations(tables_p3[:6], 1.0))


def test_occupation_finite_refuses_a_missing_or_second_gamma(tables_p3):
    with pytest.raises(ConfigError, match="need a gamma"):
        occupation_finite(derive(tables_p3[2]))
    with pytest.raises(ConfigError, match="its own gamma 1.0; got another"):
        occupation_finite(amplitudes(tables_p3[2], 1.0), 2.0)


def test_pair_infinite_p1_truncated_vanishes(tables_p1):
    model = build_model(1, 8, 1.0, tables=tables_p1[:8])
    rods = rod_expectations(tables_p1[:8], 1.0)
    pc = pair_infinite(model, rods, 0, 5)
    assert pc.value[1:] == approx(1.0, abs=1e-12)
    assert pc.truncated[1:] == approx(0.0, abs=1e-12)


# -- continuum density -----------------------------------------------------------


def test_density_integrates_to_n(amp_p3_n4):
    occ = occupation_finite(amp_p3_n4)
    val, _ = quad(lambda x: density_profile(occ, 1.0, np.array([x]))[0],
                  -8.0, 17.0, limit=200)
    assert 2 * math.pi * val == approx(4.0, rel=1e-9)


# -- finite domains ---------------------------------------------------------------


def test_domain_full_cylinder_reduces(amp_p3_n4):
    rep = domain_weighted(amp_p3_n4, -1e9, 1e9)
    assert rep.weights == approx(np.ones(num_orbitals(amp_p3_n4)), abs=1e-15)
    assert rep.occupations == approx(occupation_finite(amp_p3_n4), abs=1e-13)
    assert rep.norm == approx(amp_p3_n4.norm_sq(), rel=1e-13)


def test_domain_half_weight(amp_p3_n4):
    # Cutting at an orbital center halves that orbital's weight.
    rep = domain_weighted(amp_p3_n4, 2.0, 1e9)
    assert rep.weights[2] == approx(0.5, abs=1e-15)
    assert rep.weights[0] < 0.5 < rep.weights[4]


def test_domain_insensitivity_center(tables_p3):
    # At gamma=1.5 the three standard domains agree in the middle of
    # the N=6 system far better than the 1e-3 scale.
    g = 1.5
    amp = amplitudes(tables_p3[5], g)
    reports = [domain_weighted(amp, -1e9, 1e9),
               domain_weighted(amp, 0.0, 18 * g - 3 * g),
               domain_weighted(amp, 0.0, 1e9)]
    center = range(6, 9)
    for i in range(3):
        for j in range(i + 1, 3):
            dev = max(abs(reports[i].occupations[k] - reports[j].occupations[k])
                      for k in center)
            assert dev < 1e-3


def test_domain_validation(amp_p3_n4):
    with pytest.raises(ConfigError):
        domain_weighted(amp_p3_n4, 1.0, 1.0)
    with pytest.raises(ConfigError):
        domain_weighted(amp_p3_n4, 1e6, 1e6 + 1.0)


# -- periodicity ------------------------------------------------------------------


def test_period_three(model_p3_g1, rods_p3):
    rep = period_test(model_p3_g1, rods_p3)
    assert rep.period == 3
    assert rep.used == "occupations"
    assert rep.margin > 10 * rep.tolerance
    assert rep.margin > 0.1


def test_period_two_weak_coupling(tables_p2):
    model = build_model(2, 8, 0.5, tables=tables_p2)
    rods = rod_expectations(tables_p2, 0.5)
    rep = period_test(model, rods)
    assert rep.period == 2
    assert rep.margin > 10 * rep.tolerance


def test_period_one_filled(tables_p1):
    model = build_model(1, 8, 1.0, tables=tables_p1[:8])
    rods = rod_expectations(tables_p1[:8], 1.0)
    rep = period_test(model, rods)
    assert rep.period == 1
    assert rep.margin == math.inf
