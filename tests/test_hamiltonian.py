"""Tests for the parent Hamiltonians and their exact ground states."""

import math

import numpy as np
import pytest
from pytest import approx
from scipy import sparse

from laughlin import hamiltonian
from laughlin.expansion import amplitudes, expand_all
from laughlin.hamiltonian import (
    KERNEL_COUNT,
    _bond_annihilators,
    _components,
    _gram_build,
    build_H,
    build_monomer_dimer,
    exact_vector,
    ground_check,
    perturbation_series,
    repulsion,
    residual,
    sector_basis,
    spectrum,
    tao_thouless,
    tt_energies,
)
from laughlin.lattice import (CapExceeded, ConfigError, ConfigIndex,
                              ModelParams, config_tuples, find_keys,
                              occupation_rows, total_momentum)


@pytest.fixture(scope="module")
def layer_p3_n3():
    return sector_basis(ModelParams(3, 3, 1.0))


@pytest.fixture(scope="module")
def hbuild_p3_n3(layer_p3_n3):
    return build_H(ModelParams(3, 3, 1.0), basis=layer_p3_n3)


def kernel_values(H):
    """The lowest eigenvalues that ground_check examines."""
    return spectrum(H, count=min(KERNEL_COUNT, H.shape[0]), seed=1234)


# -- form factor -----------------------------------------------------------------


def form_factor(p: int, gamma: float) -> dict[int, float]:
    """F(d gamma) = sum_n f_n(d gamma) for the distances d = -3..3."""
    return {d: sum(f) for d, f in
            _components(ModelParams(p, 2, gamma), 4).items()}


def test_form_factor_values():
    assert form_factor(3, 1.0)[0] == 0.0
    assert form_factor(3, 2.0)[1] == approx(4.0 / math.e, rel=1e-14)
    for g in (0.7, 1.0, 1.6):
        F3 = form_factor(3, g)
        ratio = F3[3] / F3[1]
        assert ratio == approx(3 * math.exp(-2 * g * g), rel=1e-13)
    assert form_factor(2, 1.3)[1] == approx(math.exp(-1.3 ** 2 / 4),
                                            rel=1e-14)


def test_form_factor_variants():
    # the components n < p of p's parity: H_1 at p=3, H_0 at p=2
    t, damp = 0.9, math.exp(-0.9 ** 2 / 4)
    assert _components(ModelParams(3, 2, t), 2)[1] == \
        approx((2 * t * damp,), rel=1e-15)
    assert _components(ModelParams(2, 2, t), 2)[1] == approx((damp,),
                                                             rel=1e-15)


# -- sector bases ------------------------------------------------------------------


def test_sector_basis_layer_counts():
    assert sector_basis(ModelParams(3, 2, 1.0)).dim == 6
    assert sector_basis(ModelParams(3, 4, 1.0)).dim == math.comb(10, 4)
    # Bosons: multisets of 3 drawn from 5 sites.
    assert sector_basis(ModelParams(2, 3, 1.0)).dim == math.comb(7, 3)


def test_sector_basis_momentum_block():
    basis = sector_basis(ModelParams(3, 2, 1.0), momentum=3)
    rows = config_tuples(basis.configs)
    assert rows == [(0, 3), (1, 2)]
    assert rows == sorted(rows)


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
    # Keys are mixed-radix over each site's largest occupation, with no
    # digit on the two sites that particle number and momentum fix: the
    # p=6, N=5 ground sector packs into 46 bits, where base N + 1 = 6 over
    # all 25 sites would need 64.6.
    basis = sector_basis(ModelParams(2, 9, 1.0), momentum=total_momentum(2, 9))
    assert np.all(np.diff(basis.keys) > 0)
    rows = np.arange(basis.dim)
    assert np.array_equal(find_keys(basis.keys, basis.keys), rows)
    assert np.array_equal(basis.find(basis.configs), rows)
    six = sector_basis(ModelParams(6, 5, 1.0), momentum=total_momentum(6, 5))
    assert six.dim == 2649
    # One particle on one of n sites, the orbital sums all differ: only
    # the last site carries no digit, so n - 1 binary digits.
    assert ConfigIndex(np.arange(63).reshape(-1, 1), 63).keys[0] == -2 ** 61
    with pytest.raises(CapExceeded, match="occupation keys"):
        ConfigIndex(np.arange(64).reshape(-1, 1), 64)


def test_vector_rejects_configurations_outside_the_basis():
    # A lookup by key alone finds a row for both: (0, 2, 4, 5) moves the
    # root's last particle onto site 5, which carries no digit, and
    # (0, 1, 1, 1) puts three bosons on site 1, where no row has more
    # than two, so its digit carries into site 0's, as in (0, 0, 6, 6).
    basis = sector_basis(ModelParams(2, 4, 1.0), momentum=total_momentum(2, 4))
    for m in ((0, 2, 4, 5), (0, 1, 1, 1)):
        key = occupation_rows(np.array([m]), basis.num_sites) @ basis.weights
        assert find_keys(basis.keys, key)[0] >= 0
        assert basis.find([m])[0] == -1
        with pytest.raises(ConfigError, match="configuration outside the basis"):
            basis.vector([m], [1.0])
    assert basis.vector([(0, 2, 4, 6)], [1.0])[2] == 1.0


def test_images_create_within_the_index_limit():
    # The one row (0, 3) leaves sites 1 and 2 empty, so they carry no
    # room in the key: (1, 2), the image of c*_1 c*_2 c_3 c_0, packs to
    # the key of (0, 3).  The creations are refused before any lookup.
    index = ConfigIndex(np.array([[0, 3]]), 4)
    image = occupation_rows(np.array([[1, 2]]), 4) @ index.weights
    assert find_keys(index.keys, image)[0] == 0
    for fermionic in (True, False):
        col, _, _, _ = next(index.images(np.array([[1, 2]]),
                                         np.array([[3, 0]]), fermionic))
        assert col.size == 0
        col, _, key, _ = next(index.images(np.array([[0, 3]]),
                                           np.array([[3, 0]]), fermionic))
        assert col.tolist() == [0] and key.tolist() == index.keys.tolist()


def counting_passes(monkeypatch):
    """Record the strings of every pass of the operator engine, as a
    list of (creation, annihilation) tuples per pass."""
    passes = []
    images = ConfigIndex.images

    def counted(self, creation, annihilation, fermionic):
        passes.append(list(zip(map(tuple, creation.tolist()),
                               map(tuple, annihilation.tolist()))))
        return images(self, creation, annihilation, fermionic)

    monkeypatch.setattr(ConfigIndex, "images", counted)
    return passes


@pytest.mark.parametrize("p, N", ((3, 5), (2, 5)))
def test_gram_build_is_one_engine_pass(p, N, monkeypatch):
    """All bonds go through one pass, not one pass per bond, and the
    rows of A follow (bond, image key) as in a per-bond assembly."""
    params = ModelParams(p, N, 1.1)
    basis = sector_basis(params, momentum=total_momentum(p, N))
    sites = basis.num_sites
    bonds = _bond_annihilators(sites, _components(params, sites))
    assert len(bonds) > 1
    passes = counting_passes(monkeypatch)
    gram = _gram_build(basis, bonds, params.fermionic)
    assert [len(strings) for strings in passes] == [
        sum(len(bond) for bond in bonds)]
    expect = sum(_gram_build(basis, [bond], params.fermionic)
                 for bond in bonds)
    assert abs(gram - expect).max() <= 1e-13 * abs(expect).max()
    passes.clear()
    build_H(params, basis=basis)
    assert len(passes) == 2  # the quadruple sum and the bonds
    if p == 3:
        passes.clear()
        build_monomer_dimer(params, basis)
        assert len(passes) == 2  # the cut bonds, the closed form


@pytest.mark.parametrize("p, N, momentum", ((3, 5, True), (2, 5, False)))
def test_pair_route_applies_each_unordered_quadruple_once(p, N, momentum,
                                                          monkeypatch):
    """One string per (creation pair, annihilation pair) at one doubled
    center, against the four orderings of a fermion quadruple and up to
    four of a boson one."""
    from test_reference import reference_pair_terms

    params = ModelParams(p, N, 1.1)
    basis = sector_basis(params, momentum=total_momentum(p, N) if momentum
                         else None)
    sites = basis.num_sites
    expect = set()
    for S in range(2 * sites - 1):
        # Every folded component is nonzero here: 2 f_1(a-b) at p=3 for
        # a < b, and 2 f_0(a-b) or f_0(0) at p=2 for a <= b.
        pairs = [(a, S - a) for a in range(sites)
                 if a + params.fermionic <= S - a < sites]
        expect |= {(k, n[::-1]) for k in pairs for n in pairs}
    passes = counting_passes(monkeypatch)
    build = build_H(params, basis=basis)
    strings = passes[0]
    assert len(strings) == len(set(strings)) == build.pair_terms
    assert set(strings) == expect
    assert 3 * len(strings) <= len(reference_pair_terms(params, sites))


# -- the repulsion and its kernel ---------------------------------------------------


def test_two_particle_block_closed_form():
    g = 1.0
    params = ModelParams(3, 2, g)
    basis = sector_basis(params, momentum=total_momentum(3, 2))
    build = build_H(params, basis=basis)
    F = form_factor(3, g)
    F1, F3 = F[1], F[3]
    expect = 4 * np.array([[F3 * F3, F3 * F1], [F1 * F3, F1 * F1]])
    assert build.H.toarray() == approx(expect, abs=1e-13)
    vals = spectrum(build.H, count=2, seed=1234)
    assert vals == approx([0.0, 4 * (F1 ** 2 + F3 ** 2)], abs=1e-12)


def test_operator_without_terms_is_zero():
    # F(0) = 0 for odd p, so one site carries neither a pair term nor a
    # bond: both assemblies are the zero matrix of the basis dimension.
    params = ModelParams(3, 1, 1.0)
    build = build_H(params, basis=sector_basis(params))
    for H in (build.pair, build.bond):
        assert H.shape == (1, 1) and H.nnz == 0
    assert build.deviation == 0.0


def test_builds_agree_and_are_symmetric(tables_p3, tables_p2):
    for p in (2, 3):
        for N in (2, 3, 4):
            params = ModelParams(p, N, 1.0)
            build = build_H(params, basis=sector_basis(params))
            assert build.deviation < 1e-12
            H = build.H.toarray()
            assert H == approx(H.T, abs=1e-13)


def test_variants_build_same_operator(layer_p3_n3, hbuild_p3_n3,
                                      full_form_factor):
    full_form_factor()
    full = build_H(ModelParams(3, 3, 1.0), basis=layer_p3_n3)
    assert abs(full.H - hbuild_p3_n3.H).max() < 1e-12


@pytest.mark.parametrize("p, N", ((3, 5), (2, 6), (4, 4)))
def test_repulsion_is_the_bond_route(p, N):
    params = ModelParams(p, N, 1.2)
    basis = sector_basis(params, momentum=total_momentum(p, N))
    got, bond = repulsion(params, basis), build_H(params, basis).bond
    assert np.array_equal(got.indptr, bond.indptr)
    assert np.array_equal(got.indices, bond.indices)
    assert np.array_equal(got.data, bond.data)


def test_exact_states_span_kernel(tables_p3, tables_p2):
    for p, tables in ((3, tables_p3), (2, tables_p2)):
        for N in (2, 3, 4):
            params = ModelParams(p, N, 1.0)
            layer = sector_basis(params)
            build = build_H(params, basis=layer)
            psi = exact_vector(layer, amplitudes(tables[N - 1], 1.0))
            rep = ground_check(build.H, psi, kernel_values(build.H))
            assert rep.residual < 1e-12
            assert rep.kernel_dim == 1
            assert rep.min_eigenvalue > -1e-10
    # p = 4 and 5 have two form-factor components, and the kernel is one
    # state only with bonds of each component apart.  Dense eigenvalues
    # count an exactly degenerate kernel, which one Lanczos run cannot.
    for p in (4, 5):
        tables = expand_all(p, 5)
        for N in (2, 3, 4, 5):
            params = ModelParams(p, N, 1.0)
            basis = sector_basis(params, momentum=None if N <= 3
                                 else total_momentum(p, N))
            H = build_H(params, basis=basis).H
            psi = exact_vector(basis, amplitudes(tables[N - 1], 1.0))
            rep = ground_check(H, psi, np.linalg.eigvalsh(H.toarray()))
            assert rep.residual < 1e-12
            assert rep.kernel_dim == 1
            assert rep.min_eigenvalue > -1e-10


def test_p6_boson_ground_sector():
    # 2,649 states of five bosons on 25 sites, keys of 46 bits.
    params = ModelParams(6, 5, 1.0)
    sec = sector_basis(params, momentum=total_momentum(6, 5))
    build = build_H(params, basis=sec)
    assert build.deviation <= 1e-12 * abs(build.H).max()
    psi = exact_vector(sec, amplitudes(expand_all(6, 5)[-1], 1.0))
    assert np.linalg.norm(build.H @ psi) / np.linalg.norm(psi) < 1e-8


def test_eight_fermion_ground_sector(tables_p3):
    params = ModelParams(3, 8, 1.0)
    sec = sector_basis(params, momentum=total_momentum(3, 8))
    build = build_H(params, basis=sec)
    assert build.deviation <= 1e-12
    psi = exact_vector(sec, amplitudes(tables_p3[7], 1.0))
    assert np.linalg.norm(build.H @ psi) / np.linalg.norm(psi) < 1e-8
    # dim 8,512: the Lanczos-vector floor keeps this to about a second
    vals = spectrum(build.H, count=2, seed=1234)
    assert abs(vals[0]) < 1e-10
    assert vals[1] > 1.0


def test_five_boson_residual(tables_p2):
    params = ModelParams(2, 5, 1.0)
    sec = sector_basis(params, momentum=total_momentum(2, 5))
    build = build_H(params, basis=sec)
    psi = exact_vector(sec, amplitudes(tables_p2[4], 1.0))
    assert residual(build.H, psi) < 1e-12


@pytest.mark.parametrize("p, N", [(3, 6), (2, 7)])
def test_doubled_kernel_counted(p, N, tables_p3, tables_p2):
    # Two copies of the ground sector (dims 676 and 3,312): the kernel
    # is the exact state in either copy.
    tables = tables_p3 if p == 3 else tables_p2
    params = ModelParams(p, N, 1.0)
    sec = sector_basis(params, momentum=total_momentum(p, N))
    H = build_H(params, basis=sec).H
    psi = exact_vector(sec, amplitudes(tables[N - 1], 1.0))
    doubled = sparse.block_diag([H, H])
    rep = ground_check(doubled, np.concatenate([psi, np.zeros(sec.dim)]),
                       kernel_values(doubled))
    assert rep.residual < 1e-8
    assert rep.kernel_dim == 2


def test_random_vector_is_not_ground(layer_p3_n3, hbuild_p3_n3):
    rng = np.random.default_rng(5)
    v = rng.standard_normal(layer_p3_n3.dim)
    assert residual(hbuild_p3_n3.H, v) > 0.1


def test_ground_check_rejects_zero(layer_p3_n3, hbuild_p3_n3):
    H, zero = hbuild_p3_n3.H, np.zeros(layer_p3_n3.dim)
    with pytest.raises(ConfigError):
        residual(H, zero)
    with pytest.raises(ConfigError):
        ground_check(H, zero, kernel_values(H))


def test_ground_check_reads_given_eigenvalues(layer_p3_n3, hbuild_p3_n3):
    H = hbuild_p3_n3.H
    v = np.random.default_rng(5).standard_normal(layer_p3_n3.dim)
    vals = np.linalg.eigvalsh(H.toarray())  # all 35 of them
    with pytest.raises(ConfigError, match="lowest 35 eigenvalues, got 34"):
        ground_check(H, v, vals[:34])


# -- eigensolver --------------------------------------------------------------------


def test_spectrum_matches_dense(hbuild_p3_n3):
    dense = np.linalg.eigvalsh(hbuild_p3_n3.H.toarray())
    vals = spectrum(hbuild_p3_n3.H, count=5, seed=1234)
    assert vals == approx(dense[:5], abs=1e-9)
    again = spectrum(hbuild_p3_n3.H, count=5, seed=1234)
    assert vals == approx(again, abs=1e-12)
    assert vals[0] <= 1e-10


def test_spectrum_maxiter(monkeypatch):
    params = ModelParams(3, 4, 1.0)
    build = build_H(params, basis=sector_basis(params))
    monkeypatch.setattr(hamiltonian, "LANCZOS_MAXITER", 3)
    with pytest.raises(RuntimeError):
        spectrum(build.H, count=6, seed=1234)


# -- monomer-dimer model ------------------------------------------------------------


def test_monomer_dimer_counts_and_residuals():
    fib = {2: 2, 3: 3, 4: 5, 6: 13}
    for N, count in fib.items():
        md = build_monomer_dimer(ModelParams(3, N, 1.0))
        assert md.num_terms == count
        assert md.deviation < 1e-12
        assert residual(md.H, md.psi) < 1e-12


def test_monomer_dimer_eight_particles():
    params = ModelParams(3, 8, 1.5)
    md = build_monomer_dimer(params, basis=sector_basis(
        params, momentum=total_momentum(3, 8)))
    rep = ground_check(md.H, md.psi, kernel_values(md.H))
    assert rep.residual < 1e-10
    assert rep.kernel_dim == 1


def test_monomer_dimer_matches_exact_two_particles(tables_p3):
    params = ModelParams(3, 2, 0.8)
    basis = sector_basis(params)
    md = build_monomer_dimer(params, basis)
    psi_exact = exact_vector(basis, amplitudes(tables_p3[1], 0.8))
    assert md.psi == approx(psi_exact, abs=1e-15)


def test_monomer_dimer_no_distance_two_pairs():
    params = ModelParams(3, 4, 1.0)
    basis = sector_basis(params)
    md = build_monomer_dimer(params, basis)
    occs = np.array([np.bincount(m, minlength=basis.num_sites)
                     for m in basis.configs])
    for j in range(basis.num_sites - 2):
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
    energies = tt_energies(sec, 1.0)
    tt = tao_thouless(params, sec)
    assert np.linalg.norm(energies * tt) == 0.0
    assert int(np.sum(energies < 1e-14)) == 1
    with pytest.raises(ConfigError):
        tao_thouless(ModelParams(2, 3, 1.0), sec)


def test_tt_overlap_with_exact_is_unity(tables_p3):
    params = ModelParams(3, 4, 1.0)
    sec = sector_basis(params, momentum=total_momentum(3, 4))
    tt = tao_thouless(params, sec)
    psi = exact_vector(sec, amplitudes(tables_p3[3], 1.0))
    assert float(tt @ psi) == 1.0


def ground_operator(params):
    """The ground momentum sector of ``params`` and H on it."""
    basis = sector_basis(params,
                         momentum=total_momentum(params.p, params.N))
    return basis, repulsion(params, basis)


def test_perturbation_order_zero_distance(tables_p3):
    params = ModelParams(3, 3, 2.0)
    amp = amplitudes(tables_p3[2], 2.0)
    basis, H = ground_operator(params)
    rep = perturbation_series(params, 0, amp, basis, H)
    exact = exact_vector(basis, amp)
    tt = tao_thouless(params, basis)
    assert rep.distances[0] == approx(float(np.linalg.norm(exact - tt)),
                                      rel=1e-14)


def test_perturbation_converges(tables_p3):
    params = ModelParams(3, 3, 1.5)
    rep = perturbation_series(params, 5, amplitudes(tables_p3[2], 1.5),
                              *ground_operator(params))
    assert rep.decreasing
    assert rep.distances[4] < 1e-12


def test_perturbation_exact_series_reaches_the_floor(tables_p3):
    # At N=2 the first order is already the exact state: the later
    # distances are rounding, at or below the floor, and count as
    # converged; above the floor the decrease must be strict.
    params = ModelParams(3, 2, 1.5)
    rep = perturbation_series(params, 3, amplitudes(tables_p3[1], 1.5),
                              *ground_operator(params))
    d = rep.distances
    assert d[0] > 1e-2 and max(d[1:]) <= 1e-14
    assert not all(d[i + 1] < d[i] for i in range(3))
    assert rep.decreasing


def test_perturbation_strong_coupling(tables_p3):
    params = ModelParams(3, 3, 2.0)
    rep = perturbation_series(params, 4, amplitudes(tables_p3[2], 2.0),
                              *ground_operator(params))
    d = rep.distances
    assert all(d[i + 1] < d[i] for i in range(4))
    assert d[4] < 1e-6


def test_perturbation_divergence_reported(tables_p3):
    params = ModelParams(3, 3, 0.3)
    rep = perturbation_series(params, 5, amplitudes(tables_p3[2], 0.3),
                              *ground_operator(params))
    assert rep.distances[-1] > rep.distances[0] and not rep.decreasing
    assert all(math.isfinite(d) for d in rep.distances)


def test_perturbation_guards(tables_p2, tables_p3):
    bosons = ModelParams(2, 3, 1.0)
    ground = ground_operator(bosons)
    with pytest.raises(ConfigError):
        perturbation_series(bosons, 2, amplitudes(tables_p2[2], 1.0), *ground)
    amp = amplitudes(tables_p3[2], 1.0)
    params = ModelParams(3, 3, 1.0)
    basis, H = ground_operator(params)
    with pytest.raises(ConfigError):
        perturbation_series(params, -1, amp, basis, H)
    layer = sector_basis(params)
    layer_H = repulsion(params, layer)
    with pytest.raises(ConfigError):
        perturbation_series(params, 2, amp, layer, layer_H)
    with pytest.raises(ConfigError, match="is not on the"):
        perturbation_series(params, 2, amp, basis, layer_H)