"""Tests for the parent Hamiltonians and their exact ground states."""

import math

import numpy as np
import pytest
from pytest import approx
from scipy import sparse

from laughlin.expansion import amplitudes
from laughlin.hamiltonian import (
    FormFactor,
    build_H,
    build_HTT,
    build_monomer_dimer,
    exact_vector,
    ground_check,
    hermite_value,
    perturbation_series,
    sector_basis,
    spectrum,
    tao_thouless,
    tt_energies,
)
from laughlin.lattice import CapExceeded, ConfigError, ModelParams, total_momentum


@pytest.fixture(scope="module")
def layer_p3_n3():
    return sector_basis(ModelParams(3, 3, 1.0))


@pytest.fixture(scope="module")
def hbuild_p3_n3(layer_p3_n3):
    return build_H(ModelParams(3, 3, 1.0), basis=layer_p3_n3)


# -- form factor -----------------------------------------------------------------


def test_hermite_recurrence():
    for t in (-1.7, 0.0, 0.4, 2.2):
        assert hermite_value(0, t) == 1.0
        assert hermite_value(1, t) == approx(2 * t, abs=1e-14)
        for n in range(1, 6):
            lhs = hermite_value(n + 1, t)
            rhs = 2 * t * hermite_value(n, t) - 2 * n * hermite_value(n - 1, t)
            assert lhs == approx(rhs, rel=1e-12, abs=1e-12)


def test_form_factor_values():
    F3 = FormFactor(3)
    assert F3(0.0) == 0.0
    assert F3(2.0) == approx(4.0 / math.e, rel=1e-14)
    for g in (0.7, 1.0, 1.6):
        ratio = F3(3 * g) / F3(g)
        assert ratio == approx(3 * math.exp(-2 * g * g), rel=1e-13)
    assert FormFactor(2)(1.3) == approx(math.exp(-1.3 ** 2 / 4), rel=1e-14)


def test_form_factor_variants():
    F = FormFactor(3)
    assert F.indices == (1,)
    assert FormFactor(3, "full").indices == (0, 1, 2)
    assert FormFactor(2).indices == (0,)
    with pytest.raises(ConfigError):
        FormFactor(3, "bogus")


# -- sector bases ------------------------------------------------------------------


def test_sector_basis_layer_counts():
    assert sector_basis(ModelParams(3, 2, 1.0)).dim == 6
    assert sector_basis(ModelParams(3, 4, 1.0)).dim == math.comb(10, 4)
    # Bosons: multisets of 3 drawn from 5 sites.
    assert sector_basis(ModelParams(2, 3, 1.0)).dim == math.comb(7, 3)


def test_sector_basis_momentum_block():
    basis = sector_basis(ModelParams(3, 2, 1.0), momentum=3)
    assert basis.configs == ((0, 3), (1, 2))
    assert list(basis.configs) == sorted(basis.configs)


def test_sector_basis_guards():
    with pytest.raises(CapExceeded):
        sector_basis(ModelParams(3, 6, 1.0), cap=100)
    with pytest.raises(ConfigError):
        sector_basis(ModelParams(3, 2, 1.0), momentum=999)


def test_sector_cap_counts_the_sector():
    # The ground sector of p=3, N=8 is enumerated directly; its layer of
    # C(22, 8) = 319,770 states is over the default cap.
    params = ModelParams(3, 8, 1.0)
    ground = total_momentum(3, 8)
    with pytest.raises(CapExceeded):
        sector_basis(params)
    assert sector_basis(params, momentum=ground, cap=8512).dim == 8512
    with pytest.raises(CapExceeded):
        sector_basis(params, momentum=ground, cap=8511)


def test_occupation_keys_order_and_limit():
    # Keys are (N+1)-ary for bosons and binary for fermions: 10^17 fits in
    # int64 at p=2, N=9, while 11^19 at N=10 and 2^64 at p=3, N=22 do not.
    basis = sector_basis(ModelParams(2, 9, 1.0), momentum=total_momentum(2, 9))
    assert np.all(np.diff(basis.keys) > 0)
    assert np.array_equal(basis.find(basis.keys), np.arange(basis.dim))
    for p, N in ((2, 10), (3, 22)):
        with pytest.raises(CapExceeded):
            sector_basis(ModelParams(p, N, 1.0), momentum=total_momentum(p, N))


# -- the repulsion and its kernel ---------------------------------------------------


def test_two_particle_block_closed_form():
    g = 1.0
    params = ModelParams(3, 2, g)
    basis = sector_basis(params, momentum=total_momentum(3, 2))
    build = build_H(params, basis=basis)
    F1, F3 = FormFactor(3)(g), FormFactor(3)(3 * g)
    expect = 4 * np.array([[F3 * F3, F3 * F1], [F1 * F3, F1 * F1]])
    assert build.H.toarray() == approx(expect, abs=1e-13)
    vals = spectrum(build.H, count=2)
    assert vals == approx([0.0, 4 * (F1 ** 2 + F3 ** 2)], abs=1e-12)


def test_builds_agree_and_are_symmetric(tables_p3, tables_p2):
    for p in (2, 3):
        for N in (2, 3, 4):
            params = ModelParams(p, N, 1.0)
            build = build_H(params)
            assert build.deviation < 1e-12
            H = build.H.toarray()
            assert H == approx(H.T, abs=1e-13)


def test_variants_build_same_operator(layer_p3_n3, hbuild_p3_n3):
    full = build_H(ModelParams(3, 3, 1.0), basis=layer_p3_n3, variant="full")
    assert abs(full.H - hbuild_p3_n3.H).max() < 1e-12


def test_exact_states_span_kernel(tables_p3, tables_p2):
    for p, tables in ((3, tables_p3), (2, tables_p2)):
        for N in (2, 3, 4):
            params = ModelParams(p, N, 1.0)
            layer = sector_basis(params)
            build = build_H(params, basis=layer)
            psi = exact_vector(layer, amplitudes(tables[N - 1], 1.0))
            rep = ground_check(build.H, psi)
            assert rep.residual < 1e-12
            assert rep.kernel_dim == 1
            assert rep.min_eigenvalue > -1e-10


def test_eight_fermion_ground_sector(tables_p3):
    params = ModelParams(3, 8, 1.0)
    sec = sector_basis(params, momentum=total_momentum(3, 8))
    build = build_H(params, basis=sec)
    assert build.deviation <= 1e-12
    psi = exact_vector(sec, amplitudes(tables_p3[7], 1.0))
    assert np.linalg.norm(build.H @ psi) / np.linalg.norm(psi) < 1e-8
    # dim 8,512: the Lanczos-vector floor keeps this to about a second
    vals = spectrum(build.H, count=2)
    assert abs(vals[0]) < 1e-10
    assert vals[1] > 1.0


def test_five_boson_residual(tables_p2):
    params = ModelParams(2, 5, 1.0)
    sec = sector_basis(params, momentum=total_momentum(2, 5))
    build = build_H(params, basis=sec)
    psi = exact_vector(sec, amplitudes(tables_p2[4], 1.0))
    assert ground_check(build.H, psi).residual < 1e-12


@pytest.mark.parametrize("p, N", [(3, 6), (2, 7)])
def test_doubled_kernel_counted(p, N, tables_p3, tables_p2):
    # Two copies of the ground sector (dims 676 and 3,312): the kernel
    # is the exact state in either copy.
    tables = tables_p3 if p == 3 else tables_p2
    params = ModelParams(p, N, 1.0)
    sec = sector_basis(params, momentum=total_momentum(p, N))
    H = build_H(params, basis=sec).H
    psi = exact_vector(sec, amplitudes(tables[N - 1], 1.0))
    rep = ground_check(sparse.block_diag([H, H]),
                       np.concatenate([psi, np.zeros(sec.dim)]))
    assert rep.residual < 1e-8
    assert rep.kernel_dim == 2


def test_random_vector_is_not_ground(hbuild_p3_n3):
    rng = np.random.default_rng(5)
    v = rng.standard_normal(hbuild_p3_n3.basis.dim)
    assert ground_check(hbuild_p3_n3.H, v).residual > 0.1


def test_ground_check_rejects_zero(hbuild_p3_n3):
    with pytest.raises(ConfigError):
        ground_check(hbuild_p3_n3.H, np.zeros(hbuild_p3_n3.basis.dim))


# -- eigensolver --------------------------------------------------------------------


def test_spectrum_matches_dense(hbuild_p3_n3):
    dense = np.linalg.eigvalsh(hbuild_p3_n3.H.toarray())
    vals = spectrum(hbuild_p3_n3.H, count=5)
    assert vals == approx(dense[:5], abs=1e-9)
    again = spectrum(hbuild_p3_n3.H, count=5)
    assert vals == approx(again, abs=1e-12)
    assert vals[0] <= 1e-10


def test_spectrum_maxiter():
    params = ModelParams(3, 4, 1.0)
    build = build_H(params, basis=sector_basis(params))
    with pytest.raises(RuntimeError):
        spectrum(build.H, count=6, maxiter=3)


# -- monomer-dimer model ------------------------------------------------------------


def test_monomer_dimer_counts_and_residuals():
    fib = {2: 2, 3: 3, 4: 5, 6: 13}
    for N, count in fib.items():
        md = build_monomer_dimer(ModelParams(3, N, 1.0))
        assert md.num_terms == count
        assert md.deviation < 1e-12
        resid = np.linalg.norm(md.H @ md.psi) / np.linalg.norm(md.psi)
        assert resid < 1e-12


def test_monomer_dimer_eight_particles():
    params = ModelParams(3, 8, 1.5)
    md = build_monomer_dimer(params, basis=sector_basis(
        params, momentum=total_momentum(3, 8)))
    rep = ground_check(md.H, md.psi)
    assert rep.residual < 1e-10
    assert rep.kernel_dim == 1


def test_monomer_dimer_matches_exact_two_particles(tables_p3):
    md = build_monomer_dimer(ModelParams(3, 2, 0.8))
    psi_exact = exact_vector(md.basis, amplitudes(tables_p3[1], 0.8))
    assert md.psi == approx(psi_exact, abs=1e-15)


def test_monomer_dimer_no_distance_two_pairs():
    md = build_monomer_dimer(ModelParams(3, 4, 1.0))
    occs = np.array([np.bincount(m, minlength=md.basis.num_sites)
                     for m in md.basis.configs])
    for j in range(md.basis.num_sites - 2):
        assert np.all(occs[:, j] * occs[:, j + 2] * md.psi == 0.0)


def test_monomer_dimer_positive(tables_p3):
    md = build_monomer_dimer(ModelParams(3, 3, 1.0))
    vals = np.linalg.eigvalsh(md.H.toarray())
    assert vals[0] > -1e-10


def test_monomer_dimer_requires_p3():
    with pytest.raises(ConfigError):
        build_monomer_dimer(ModelParams(2, 3, 1.0))


# -- near-diagonal truncation and perturbation series --------------------------------


def test_tt_state_is_unique_zero_mode():
    params = ModelParams(3, 4, 1.0)
    sec = sector_basis(params, momentum=total_momentum(3, 4))
    HTT = build_HTT(params, sec)
    tt = tao_thouless(params, sec)
    assert np.linalg.norm(HTT @ tt) == 0.0
    energies = tt_energies(sec, 1.0)
    assert int(np.sum(energies < 1e-14)) == 1
    with pytest.raises(ConfigError):
        build_HTT(ModelParams(2, 3, 1.0))


def test_tt_overlap_with_exact_is_unity(tables_p3):
    params = ModelParams(3, 4, 1.0)
    sec = sector_basis(params, momentum=total_momentum(3, 4))
    tt = tao_thouless(params, sec)
    psi = exact_vector(sec, amplitudes(tables_p3[3], 1.0))
    assert float(tt @ psi) == 1.0


def test_perturbation_order_zero_distance(tables_p3):
    params = ModelParams(3, 3, 2.0)
    amp = amplitudes(tables_p3[2], 2.0)
    rep = perturbation_series(params, 0, amp=amp)
    exact = exact_vector(rep.basis, amp)
    tt = tao_thouless(params, rep.basis)
    assert rep.distances[0] == approx(float(np.linalg.norm(exact - tt)),
                                      rel=1e-14)


def test_perturbation_converges(tables_p3):
    params = ModelParams(3, 3, 1.5)
    rep = perturbation_series(params, 5, amp=amplitudes(tables_p3[2], 1.5))
    assert rep.decreasing
    assert rep.distances[4] < 1e-12


def test_perturbation_strong_coupling(tables_p3):
    rep = perturbation_series(ModelParams(3, 3, 2.0), 4,
                              amp=amplitudes(tables_p3[2], 2.0))
    d = rep.distances
    assert all(d[i + 1] < d[i] for i in range(4))
    assert d[4] < 1e-6


def test_perturbation_divergence_reported(tables_p3):
    rep = perturbation_series(ModelParams(3, 3, 0.3), 5,
                              amp=amplitudes(tables_p3[2], 0.3))
    assert rep.distances[-1] > rep.distances[0]
    assert all(math.isfinite(d) for d in rep.distances)


def test_perturbation_guards(tables_p2):
    with pytest.raises(ConfigError):
        perturbation_series(ModelParams(2, 3, 1.0), 2)
    with pytest.raises(ConfigError):
        perturbation_series(ModelParams(3, 3, 1.0), -1)
    params = ModelParams(3, 3, 1.0)
    layer = build_H(params, basis=sector_basis(params))
    with pytest.raises(ConfigError):
        perturbation_series(params, 2, build=layer)