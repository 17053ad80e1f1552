"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test ends with a single printed pass line carrying the measured
numbers (visible with ``pytest -v -rA`` or on failure), so a run of
this file reads as a checklist.  Stochastic checks use pinned seeds.
"""

import math
import time

import numpy as np
import pytest

from laughlin import plasma
from laughlin.expansion import (
    amplitudes,
    evaluate_oracle,
    expand_all,
    verify_product_rule,
)
from laughlin.correlations import (
    bulk_epsilon,
    domain_weighted,
    occupation_finite,
    occupation_infinite,
    pair_infinite,
    period_test,
    quasi_state,
    rod_expectations,
)
from laughlin.hamiltonian import (
    KERNEL_COUNT,
    build_H,
    build_monomer_dimer,
    exact_vector,
    ground_check,
    perturbation_series,
    repulsion,
    residual,
    sector_basis,
    spectrum,
)
from laughlin.lattice import ModelParams, total_momentum
from laughlin.renewal import build_model


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:02d}: PASS ({detail})")


@pytest.fixture(scope="module")
def rods_p3(tables_p3):
    return rod_expectations(tables_p3, 1.0)


@pytest.fixture(scope="module")
def run_n4(tables_p3):
    params = ModelParams(3, 4, 1.0)
    mc = plasma.McConfig(sweeps=40000, burn_in=1000, thinning=4,
                         seed=13, chains=2)
    return plasma.metropolis_run(params, mc)


def test_criterion_01_two_particle_exactness(tables_p3):
    table = tables_p3[1]
    assert table.coeffs == {(0, 3): 1, (1, 2): -3}
    gamma = 1.0
    amp = amplitudes(table, gamma)
    a = dict(zip(table.coeffs, amp.amp))
    assert a[(0, 3)] == pytest.approx(1.0, rel=1e-12)
    assert a[(1, 2)] == pytest.approx(-3.0 * math.exp(-2.0 * gamma**2),
                                      rel=1e-12)
    dec = quasi_state(amp)
    w = 9.0 * math.exp(-4.0 * gamma**2)
    assert dec.weights[(1, 1)] == pytest.approx(1.0 / (1.0 + w), rel=1e-12)
    i, j = dec.basis.index((0, 3)), dec.basis.index((1, 2))
    off = dec.omega[(2,)][i, j]
    assert off == pytest.approx(-math.exp(2.0 * gamma**2) / 3.0, rel=1e-12)
    report(1, f"coeffs exact, p_2(staircase) = {dec.weights[(1, 1)]:.12g}, "
              f"off-diagonal {off:.12g}")


def test_criterion_02_filled_level(tables_p1):
    gamma = 1.0
    model = build_model(1, 10, gamma, tables=tables_p1)
    assert max(abs(c - 1.0) for c in model.C) <= 1e-12
    occ = occupation_finite(amplitudes(tables_p1[9], gamma))
    assert np.max(np.abs(occ - 1.0)) <= 1e-12
    rods = rod_expectations(tables_p1, gamma)
    period = period_test(model, rods)
    assert period.period == 1
    worst = max(abs(pair_infinite(model, rods, 0, l).truncated)
                for l in range(11))
    assert worst <= 1e-12
    report(2, f"C_N = 1, occupations 1, period 1, "
              f"max |truncated| = {worst:.2e}")


def test_criterion_03_product_rule(tables_p2, tables_p3):
    checked = 0
    for p, tables in ((2, tables_p2), (3, tables_p3)):
        rep = verify_product_rule(p, 8, tables=tables)
        assert rep.ok, f"p={p}: {len(rep.failures)} failures"
        checked += rep.checked
    report(3, f"exact integer identity at {checked} factorizable "
              "configurations, p in {2,3}, N <= 8")


def test_criterion_04_polynomial_oracle(tables_p1, tables_p2, tables_p3):
    worst = 0.0
    for tables in (tables_p1, tables_p2, tables_p3):
        for table in tables[1:8]:
            worst = max(worst, evaluate_oracle(table, npoints=20))
    assert worst == 0.0
    report(4, "20 random points mod 2^31-1 per table, N <= 8, share of "
              f"failing points {worst}")


def test_criterion_05_ground_states(tables_p2, tables_p3):
    worst_residual = 0.0
    worst_build = 0.0
    for p, tables in ((2, tables_p2), (3, tables_p3)):
        for N in range(2, 5):
            params = ModelParams(p, N, 1.0)
            basis = sector_basis(params, momentum=total_momentum(p, N))
            build = build_H(params, basis=basis)
            worst_build = max(worst_build, build.deviation)
            amp = amplitudes(tables[N - 1], 1.0)
            rep = ground_check(build.H, exact_vector(basis, amp), spectrum(
                build.H, count=min(KERNEL_COUNT, basis.dim)))
            assert rep.residual < 1e-8, f"p={p} N={N}"
            assert rep.kernel_dim == 1, f"p={p} N={N}"
            worst_residual = max(worst_residual, rep.residual)
    worst_md = 0.0
    for N in range(2, 7):
        md = build_monomer_dimer(ModelParams(3, N, 1.0))
        res = residual(md.H, md.psi)
        assert res < 1e-10, f"N={N}"
        worst_md = max(worst_md, res)
        worst_build = max(worst_build, md.deviation)
    assert worst_build <= 1e-12
    report(5, f"exact-state residual <= {worst_residual:.2e}, kernel dim 1; "
              f"tiling-state residual <= {worst_md:.2e}; "
              f"builds agree to {worst_build:.2e}")


def test_criterion_06_renewal_consistency(model_p3_g1):
    model = model_p3_g1
    assert model.alpha_residual <= 1e-10
    u = model.renewal_sequence(8)
    u_direct = np.asarray(model.C) * model.r ** np.arange(9)
    route_dev = float(np.max(np.abs(u - u_direct) / u_direct))
    assert route_dev <= 1e-10
    C = np.asarray(model.C)
    gap = min(C[n + m] - C[n] * C[m]
              for n in range(1, 8) for m in range(1, 9 - n))
    assert gap >= -1e-12
    dev = np.abs(u - 1.0 / model.mu)
    assert all(b < a for a, b in zip(dev, dev[1:]))
    report(6, f"alpha residual {model.alpha_residual:.2e}, u-routes agree "
              f"to {route_dev:.2e}, min supermultiplicative gap {gap:.3f}, "
              f"|u_N - 1/mu| strictly decreasing to {dev[-1]:.2e}")


def test_criterion_07_infinite_volume(model_p3_g1, rods_p3, tables_p3):
    occ_inf = occupation_infinite(model_p3_g1, rods_p3)
    norm_dev = abs(float(occ_inf.sum()) - 1.0)
    assert norm_dev <= 1e-8 + model_p3_g1.tail_mass
    occ8 = occupation_finite(amplitudes(tables_p3[7], 1.0))
    worst_dev, worst_eps = 0.0, 0.0
    for k in (9, 10, 11):
        eps = bulk_epsilon(model_p3_g1, rods_p3, 8, k)
        dev = abs(occ8[k] - occ_inf[k % 3])
        assert dev <= eps, f"site {k}: {dev:.2e} > bound {eps:.2e}"
        worst_dev, worst_eps = max(worst_dev, dev), max(worst_eps, eps)
    report(7, f"sum deviation {norm_dev:.2e} (tail "
              f"{model_p3_g1.tail_mass:.2e}); N=8 center within "
              f"epsilon = {worst_eps:.2e} (worst deviation {worst_dev:.2e})")


def test_criterion_08_period_three(model_p3_g1, rods_p3):
    rep = period_test(model_p3_g1, rods_p3)
    assert rep.period == 3
    assert rep.margin >= 10.0 * rep.tolerance
    report(8, f"period 3, margin {rep.margin:.3f} "
              f"(tolerance {rep.tolerance:.0e})")


def test_criterion_09_clustering(model_p3_g1, rods_p3):
    trunc = [abs(pair_infinite(model_p3_g1, rods_p3, 0, l).truncated)
             for l in range(1, 16)]
    envelope = np.maximum.accumulate(trunc[::-1])[::-1]
    assert all(b <= a for a, b in zip(envelope, envelope[1:]))
    assert envelope[-1] < 1e-3
    report(9, f"envelope decreasing, |truncated| at separation 15 = "
              f"{trunc[-1]:.2e}")


def test_criterion_10_domain_insensitivity():
    gamma = 1.5
    amp = amplitudes(expand_all(3, 6)[5], gamma)
    full = domain_weighted(amp, -math.inf, math.inf)
    box = domain_weighted(amp, 0.0, 3 * 6 * gamma - 3 * gamma)
    half = domain_weighted(amp, 0.0, math.inf)
    worst = 0.0
    for k in (7, 8):
        vals = [d.occupations[k] for d in (full, box, half)]
        worst = max(worst, max(abs(a - b) for a in vals for b in vals))
    assert worst <= 1e-3
    report(10, f"gamma {gamma}: three domains agree pairwise to "
               f"{worst:.2e} at the center sites")


def test_criterion_11_mcmc_cross_validation(run_n4, tables_p3, model_p3_g1,
                                            rods_p3):
    params = ModelParams(3, 4, 1.0)
    amp = amplitudes(tables_p3[3], 1.0)
    occ = occupation_finite(amp)
    pooled = run_n4.pooled()
    worst_z = 0.0
    for k in range(occ.size):
        a, b = k - 0.5, k + 0.5
        expect = plasma.orbital_interval_weights(occ, 1.0, a, b)
        counts = np.sum((pooled[:, :, 0] > a) & (pooled[:, :, 0] <= b),
                        axis=1)
        z = abs(counts.mean() - expect) / plasma.batch_stderr(counts)
        assert z < 3.0, f"annulus {k}: z = {z:.2f}"
        worst_z = max(worst_z, z)
    cuts = [1.5, 4.5, 7.5]
    stats = plasma.measure_excess(pooled, cuts, params)
    for c in cuts:
        exact = plasma.exact_excess_zero(amp, c)
        z = abs(stats.p_zero[c] - exact) / stats.p_zero_stderr[c]
        assert z < 3.0, f"cut {c}: z = {z:.2f}"
        worst_z = max(worst_z, z)

    params32 = ModelParams(3, 32, 1.0)
    t0 = time.perf_counter()
    run32 = plasma.metropolis_run(
        params32, plasma.McConfig(sweeps=6000, burn_in=800, thinning=4,
                                  seed=42, chains=2))
    occ_inf = occupation_infinite(model_p3_g1, rods_p3)
    prof = plasma.phase_profile(run32.pooled(), params32, occ_inf)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    assert prof.contrast > 0.5
    assert np.max(np.abs(prof.zscores)) < 5.0
    report(11, f"N=4 worst |z| = {worst_z:.2f} (< 3); N=32 in "
               f"{elapsed:.0f}s with period-3 contrast {prof.contrast:.2f}")


def test_criterion_12_perturbation_series(tables_p3):
    params = ModelParams(3, 3, 2.0)
    basis = sector_basis(params, momentum=total_momentum(3, 3))
    rep = perturbation_series(params, 4, amplitudes(tables_p3[2], 2.0),
                              basis, repulsion(params, basis))
    d = rep.distances
    assert all(b < a for a, b in zip(d, d[1:]))
    assert d[4] < 1e-6
    report(12, "distances " + ", ".join(f"{x:.3e}" for x in d)
               + " strictly decreasing; order 4 < 1e-6")
