"""Per-configuration reference for the column reductions.

The library reads every per-configuration quantity from the columns of
a coefficient table or a sector basis.  Here each one is recomputed the
direct way, one configuration at a time, with the scalar lattice
helpers, and the library's array passes must agree with it; the
moment-table route of the norms, weights, rod moments and finite
occupations to 1e-13, the exact polynomials exactly.  The bulk pair
correlation is checked bit for bit against one call that recomputes
all its inputs.  The level-batched squeezing pass is checked against
the recursion that visits one configuration and one unsqueeze at a
time, and the Metropolis sampler against a move loop that evaluates
both energies of every move from the positions.  Operator strings, on
sector bases and on amplitude tables alike, are checked against a walk
that applies them to one occupation row at a time.  The one configuration
search behind sector bases and admissible sets is checked against the
whole layer filtered by momentum, and by dominance.  The array-native
product-rule check must report the same checks and failures as a loop
over every configuration's renewal points.
"""

import dataclasses
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from pytest import approx
from scipy import sparse
from scipy.special import erf

from laughlin import hamiltonian, plasma
from laughlin.correlations import (moments_finite, occupation_finite,
                                   occupation_infinite, pair_infinite,
                                   rod_expectations)
from laughlin.expansion import (CoefficientTable, amplitudes, expand_all,
                                verify_product_rule)
from laughlin.lattice import (ConfigError, ModelParams, config_to_occupation,
                              config_tuples, enumerate_admissible,
                              is_admissible, occupation_to_config,
                              renewal_points, total_momentum)
from laughlin.moments import derive
from laughlin.renewal import (build_model, irreducible_weights,
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
        moments = derive(table)
        exponents = moments.exponents.tolist()
        assert {e: Fraction(c, moments.denominator)
                for e, c in zip(exponents, moments.alpha) if c} == irr
        assert {e: Fraction(c, moments.denominator)
                for e, c in zip(exponents, moments.norm)} == full


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


def reference_pair_infinite(model, rods, k, l):
    """<n_k n_{k+l}> as one call that recomputes the bulk occupations,
    the renewal sequence and every split weight itself."""
    p = model.p
    k = k % p
    nmax = min(model.Nmax, rods.nmax)

    def psi_split(s):
        total = 0.0
        for n in range(1, nmax + 1):
            if model.pn[n - 1]:
                total += model.pn[n - 1] * rods.nu_at(n, s)
        return total

    same = 0.0
    for n in range(1, nmax + 1):
        pn = model.pn[n - 1]
        if pn == 0.0:
            continue
        for j in range(n):
            s = k + p * j
            if s + l <= p * n - 1:
                same += pn * rods.pair_at(n, s, s + l)
    same /= model.mu
    split = 0.0
    if l >= 1:
        u = model.renewal_sequence(l // p + 1)
        for n1 in range(1, nmax + 1):
            pn1 = model.pn[n1 - 1]
            if pn1 == 0.0:
                continue
            for j in range(n1):
                s1 = k + p * j
                if s1 >= p * n1:
                    break
                reach = p * n1 - s1
                if reach > l:
                    continue
                left = pn1 * rods.nu_at(n1, s1)
                if left == 0.0:
                    continue
                for c in range((l - reach) // p + 1):
                    split += left * u[c] * psi_split(l - reach - p * c)
        split /= model.mu
    occ = occupation_infinite(model, rods)
    value = same + split
    return value, value - occ[k] * occ[(k + l) % p]


@pytest.mark.parametrize("gamma", (0.7, 1.5))
def test_pair_infinite_matches_reference(tables, gamma):
    p = tables[0].p
    model = build_model(p, len(tables), gamma, tables=tables)
    rods = rod_expectations(tables, gamma)
    for k in range(p):
        for l in range(16):
            got = pair_infinite(model, rods, k, l)
            assert (got.value, got.truncated) == \
                reference_pair_infinite(model, rods, k, l)


# -- coefficient recursion ----------------------------------------------------------


def reference_squeeze(p: int, N: int) -> dict[tuple[int, ...], int]:
    """Nonzero coefficients of one table by the squeezing recursion.

    Configurations are visited from the root down in Sigma m^2, so every
    configuration a squeeze leads back to already carries its final
    coefficient.  The division by the eigenvalue gap is exact.
    """
    fermionic = p % 2 == 1
    B = -p if fermionic else 1 - p
    mmax = p * (N - 1)
    configs = enumerate_admissible(p, N, cap=N)  # the caller checks the cap

    def two_d(m):
        # 2 Sigma m_k^2 + B Sigma_{i<j} (m_j - m_i), m sorted ascending
        return sum(2 * v * v + B * (2 * k - N + 1) * v
                   for k, v in enumerate(m))

    order = sorted(configs, key=lambda m: sum(v * v for v in m), reverse=True)
    root = order[0]
    top = two_d(root)
    coeffs = {root: 1}
    for nu in order[1:]:
        total = 0
        for i in range(N - 1):
            vi = nu[i]
            for j in range(i + 1, N):
                vj = nu[j]
                s = vi + vj
                rest = nu[:i] + nu[i + 1:j] + nu[j + 1:]
                if fermionic:
                    w0 = 2 * (vi - vj)
                    parity = j - i
                # Unsqueeze (vi, vj) to (b, s - b) with b < vi <= vj < s - b.
                for b in range(max(0, s - mmax), vi):
                    a = s - b
                    pb = bisect_left(rest, b)
                    pa = bisect_left(rest, a, pb)
                    c = coeffs.get(rest[:pb] + (b,) + rest[pb:pa] + (a,)
                                   + rest[pa:])
                    if c is None:
                        continue
                    if fermionic:
                        # e holds a in slot i and b in slot j; sorting it
                        # takes pa - pb + j - i transpositions, mod 2.
                        total += -w0 * c if (pa - pb + parity) & 1 else w0 * c
                    else:
                        total += 2 * (a - b) * c
        c, rem = divmod(B * total, top - two_d(nu))
        if rem:
            raise AssertionError(f"non-integer coefficient at {nu}")
        if c:
            coeffs[nu] = c
    # lexicographic order, the order load_cache reads a table back in
    return {m: coeffs[m] for m in configs if m in coeffs}


@pytest.mark.parametrize("p, n_max", ((1, 11), (2, 8), (3, 8), (4, 6), (5, 5)))
def test_squeeze_matches_reference(p, n_max):
    for table in expand_all(p, n_max, cap=n_max):
        expect = reference_squeeze(p, table.N)
        assert list(table.coeffs.items()) == list(expect.items())


def reference_product_rule(p, tables):
    """(checked, failures) of the product rule over the tables' mappings,
    one configuration and one interior renewal point at a time."""
    checked, failures = 0, []
    for table in tables:
        n = table.N
        for m, c in table.coeffs.items():
            for point in renewal_points(m, p)[1:-1]:
                k = point // p
                left = tables[k - 1].coeffs.get(m[:k], 0)
                right = tables[n - k - 1].coeffs.get(
                    tuple(v - point for v in m[k:]), 0)
                checked += 1
                if c != left * right:
                    failures.append((m, c - left * right))
    return checked, failures


def corrupt_every(table, step):
    """The table with every step-th row but the root off by its index."""
    values = table.values.copy()
    rows = np.arange(step, len(values), step)
    rows = rows[(table.configs[rows] != table.root_config).any(axis=1)]
    values[rows] += np.where(rows % 2, -rows, rows)
    return CoefficientTable(table.p, table.N, configs=table.configs,
                            values=values)


@pytest.mark.parametrize("p", (1, 2, 3))
def test_product_rule_matches_reference(p, tables_p1, tables_p2, tables_p3):
    tables = {1: tables_p1, 2: tables_p2, 3: tables_p3}[p][:8]
    for N in range(1, 9):
        report = verify_product_rule(p, N, tables=tables[:N])
        assert (report.checked, report.failures) == \
            reference_product_rule(p, tables[:N])
    # wrong rows in every table: wrong parts and wrong products alike
    bad = [corrupt_every(t, 5) for t in tables]
    report = verify_product_rule(p, 8, tables=bad)
    assert (report.checked, report.failures) == \
        reference_product_rule(p, bad)
    assert report.failures or p == 1


# -- operator strings ---------------------------------------------------------------


def apply_string(n: list[int], creation, annihilation, fermionic: bool
                 ) -> tuple[tuple[int, ...], float] | None:
    """Apply c*_{creation} ... c_{annihilation} to the occupation config.

    Both tuples are in left-to-right operator order, so the rightmost
    operator acts first.  Returns (resulting config, matrix factor) or
    None if the string annihilates the state.  Fermionic signs count the
    occupied orbitals below the acted site.
    """
    factor = 1.0
    for site in reversed(tuple(annihilation)):
        if n[site] == 0:
            return None
        if fermionic:
            factor *= (-1) ** sum(n[:site])
            n[site] = 0
        else:
            factor *= math.sqrt(n[site])
            n[site] -= 1
    for site in reversed(tuple(creation)):
        if fermionic:
            if n[site]:
                return None
            factor *= (-1) ** sum(n[:site])
            n[site] = 1
        else:
            factor *= math.sqrt(n[site] + 1)
            n[site] += 1
    return tuple(n), factor


def reference_moments(amp, creation, annihilation):
    """<c*...c*... c...c> / C_N by a walk over the table's occupation
    rows, each image looked up in a dict of the rows."""
    if sum(creation) != sum(annihilation):
        return 0.0
    rows = amp.table.occupations[:, :amp.num_orbitals].tolist()
    by_occ = dict(zip(map(tuple, rows), amp.occ.tolist()))
    total = 0.0
    for occ, A in by_occ.items():
        out = apply_string(list(occ), creation, annihilation, amp.p % 2 == 1)
        if out is not None and out[0] in by_occ:
            total += by_occ[out[0]] * out[1] * A
    return total / amp.norm_sq()


@pytest.mark.parametrize("p, N", ((3, 4), (2, 4), (4, 3)))
def test_moments_finite_matches_reference(p, N):
    # Every string of one or two creations and as many annihilations.
    # At p=2, N=4 some of them create past the largest occupation any
    # row has on a site, where a packed key would carry.
    amp = amplitudes(expand_all(p, N)[-1], 1.1)
    sites = amp.num_orbitals
    rows = amp.table.occupations[:, :sites].tolist()
    limit = amp.table.index.limit.tolist()
    past = 0
    for k in (1, 2):
        for string in product(range(sites), repeat=2 * k):
            creation, annihilation = string[:k], string[k:]
            expect = reference_moments(amp, creation, annihilation)
            got = moments_finite(amp, creation, annihilation)
            assert got == approx(expect, rel=0, abs=1e-14)
            if p == 2 and sum(creation) == sum(annihilation):
                for occ in rows:
                    out = apply_string(list(occ), creation, annihilation,
                                       False)
                    past += out is not None and any(
                        n > top for n, top in zip(out[0], limit))
    assert past > 0 or p != 2


# -- parent Hamiltonians ------------------------------------------------------------


def reference_operator(basis, terms, fermionic):
    """sum_t coeff_t c*...c*... c...c, one configuration and term at a time."""
    configs = config_tuples(basis.configs)
    index = {m: i for i, m in enumerate(configs)}
    rows, cols, vals = [], [], []
    for col, m in enumerate(configs):
        occ = config_to_occupation(m, basis.num_sites)
        for creation, annihilation, coeff in terms:
            out = apply_string(list(occ), creation, annihilation, fermionic)
            if out is None:
                continue
            target, factor = out
            row = index.get(occupation_to_config(target))
            if row is not None:
                rows.append(row)
                cols.append(col)
                vals.append(coeff * factor)
    return sparse.coo_matrix((vals, (rows, cols)),
                             shape=(basis.dim, basis.dim)).tocsr()


def reference_gram(basis, bonds, fermionic):
    """sum_s B_s* B_s, summing c_i c_j over every pair of basis states
    with a common image under B_s."""
    out = sparse.csr_matrix((basis.dim, basis.dim))
    for terms in bonds:
        images = {}
        for col, m in enumerate(config_tuples(basis.configs)):
            occ = config_to_occupation(m, basis.num_sites)
            for (a, b), coeff in terms:
                res = apply_string(list(occ), (), (a, b), fermionic)
                if res is not None:
                    images.setdefault(res[0], []).append((col, coeff * res[1]))
        rows, cols, vals = [], [], []
        for entries in images.values():
            for i, ci in entries:
                for j, cj in entries:
                    rows.append(i)
                    cols.append(j)
                    vals.append(ci * cj)
        out = out + sparse.coo_matrix((vals, (rows, cols)),
                                      shape=(basis.dim, basis.dim)).tocsr()
    return out


def reference_configs(params, momentum):
    """The layer filtered by momentum, in lexicographic order."""
    sites = params.p * (params.N - 1) + 1
    pool = (combinations if params.fermionic
            else combinations_with_replacement)(range(sites), params.N)
    return tuple(m for m in pool if momentum is None or sum(m) == momentum)


@pytest.mark.parametrize("p, N", ((1, 6), (2, 5), (3, 5), (4, 4), (5, 4)))
def test_sector_basis_matches_reference_in_every_sector(p, N):
    def labels(basis):
        assert basis.configs.dtype == np.int64
        assert basis.configs.shape == (basis.dim, basis.N)
        return tuple(config_tuples(basis.configs))

    for n in range(1, N + 1):
        params = ModelParams(p, n, 1.0)
        layer = reference_configs(params, None)
        assert labels(hamiltonian.sector_basis(params)) == layer
        sums = [sum(m) for m in layer]
        for momentum in range(min(sums), max(sums) + 1):
            basis = hamiltonian.sector_basis(params, momentum=momentum)
            assert labels(basis) == tuple(
                m for m, s in zip(layer, sums) if s == momentum)
        for momentum in (min(sums) - 1, max(sums) + 1):
            with pytest.raises(ConfigError):
                hamiltonian.sector_basis(params, momentum=momentum)


@pytest.mark.parametrize("p, n_max", ((1, 8), (2, 8), (3, 8), (4, 6), (5, 5)))
def test_admissible_is_the_dominant_ground_sector(p, n_max):
    for N in range(1, n_max + 1):
        ground = reference_configs(ModelParams(p, N, 1.0),
                                   total_momentum(p, N))
        expect = [m for m in ground if is_admissible(m, p)]
        assert enumerate_admissible(p, N) == expect


def reference_vector(basis, coeffs):
    index = {m: i for i, m in enumerate(config_tuples(basis.configs))}
    v = np.zeros(basis.dim)
    for m, c in coeffs.items():
        v[index[tuple(sorted(m))]] = c
    return v


@pytest.fixture()
def reference_assembly(monkeypatch):
    """Swap the per-configuration loops in for the array assembly."""
    def use():
        monkeypatch.setattr(hamiltonian, "_operator_from_terms",
                            reference_operator)
        monkeypatch.setattr(hamiltonian, "_gram_build", reference_gram)
    return use


def assert_same_operator(got, expect):
    """Same sparsity pattern, entries within 1e-13 of the largest."""
    got, expect = got.tocsr(), expect.tocsr()
    got.sort_indices()
    expect.sort_indices()
    assert np.array_equal(got.indptr, expect.indptr)
    assert np.array_equal(got.indices, expect.indices)
    scale = abs(expect).max()
    assert np.abs(got.data - expect.data).max() <= 1e-13 * scale


# (p, largest N of the whole layer, largest N of the ground sector); the
# reference loop takes 69 s on the p=4, N=5 layer of 20,349 states.
HAM_CASES = ((2, 5, 5), (3, 4, 5), (4, 3, 5))


@pytest.mark.parametrize("variant", ("parity", "full"))
@pytest.mark.parametrize("p,n_layer,n_sector", HAM_CASES)
def test_build_H_matches_reference(p, n_layer, n_sector, variant,
                                   reference_assembly, full_form_factor):
    if variant == "full":
        full_form_factor()
    bases = []
    for N in range(2, n_sector + 1):
        params = ModelParams(p, N, 1.3)
        for momentum in (None, total_momentum(p, N)):
            if momentum is None and N > n_layer:
                continue
            basis = hamiltonian.sector_basis(params, momentum=momentum)
            assert tuple(config_tuples(basis.configs)) == \
                reference_configs(params, momentum)
            bases.append((params, basis))
    got = [hamiltonian.build_H(params, basis=basis) for params, basis in bases]
    reference_assembly()
    for (params, basis), build in zip(bases, got):
        expect = hamiltonian.build_H(params, basis=basis)
        assert_same_operator(build.pair, expect.pair)
        assert_same_operator(build.bond, expect.bond)
        assert build.deviation <= 1e-12 * abs(expect.bond).max()


def test_monomer_dimer_matches_reference(reference_assembly):
    cases = []
    for N in range(2, 6):
        params = ModelParams(3, N, 0.9)
        for momentum in (None, total_momentum(3, N)):
            basis = hamiltonian.sector_basis(params, momentum=momentum)
            cases.append((params, basis,
                          hamiltonian.build_monomer_dimer(params, basis)))
    reference_assembly()
    for params, basis, md in cases:
        expect = hamiltonian.build_monomer_dimer(params, basis)
        assert_same_operator(md.H, expect.H)
        assert md.deviation <= 1e-13 * abs(expect.H).max()
        assert np.array_equal(md.psi, expect.psi)


def test_tt_energies_and_vectors(tables_p3, tables_p2):
    for p, tables in ((3, tables_p3), (2, tables_p2)):
        for N in (3, 5):
            params = ModelParams(p, N, 1.2)
            for momentum in (None, total_momentum(p, N)):
                basis = hamiltonian.sector_basis(params, momentum=momentum)
                energies = []
                for m in basis.configs:
                    occ = config_to_occupation(m, basis.num_sites + 2)
                    near = sum(a * b for a, b in zip(occ, occ[1:]))
                    next_near = sum(a * b for a, b in zip(occ, occ[2:]))
                    energies.append(math.exp(-0.5 * 1.2 ** 2) * near
                                    + 4 * math.exp(-2 * 1.2 ** 2) * next_near)
                assert np.array_equal(hamiltonian.tt_energies(basis, 1.2),
                                      energies)
                amp = amplitudes(tables[N - 1], 1.2)
                expect = reference_vector(
                    basis, dict(zip(amp.table.coeffs, amp.occ)))
                assert np.array_equal(hamiltonian.exact_vector(basis, amp),
                                      expect)


# -- plasma sampler -----------------------------------------------------------------


def reference_particle_energy(coords, i, params):
    """Log-weight terms involving particle i, recomputed from the positions."""
    g = params.gamma
    mask = np.arange(coords.shape[0]) != i
    xi, yi = coords[i]
    xs, ys = coords[mask, 0], coords[mask, 1]
    dx = np.abs(xi - xs)
    top = 0.5 * (xi + xs + dx)
    ea = np.exp(-g * dx)
    mod = np.expm1(-g * dx) ** 2 + 4.0 * ea * np.sin(0.5 * g * (yi - ys)) ** 2
    with np.errstate(divide="ignore"):
        logs = np.log(mod)
    return -xi * xi + 2.0 * params.p * float(np.sum(g * top + 0.5 * logs))


def reference_chain(params, mc, rng, sigma, n_keep):
    """Metropolis with both energies of every move evaluated afresh."""
    circ = 2.0 * math.pi / params.gamma
    coords = np.empty((params.N, 2))
    coords[:, 0] = params.p * params.gamma * np.arange(params.N) \
        + 0.05 * rng.standard_normal(params.N)
    coords[:, 1] = rng.uniform(0.0, circ, params.N)
    sx, sy = sigma
    accepted = proposed = 0
    kept = []
    for sweep in range(mc.burn_in + n_keep * mc.thinning):
        for i in range(params.N):
            old = coords[i].copy()
            e_old = reference_particle_energy(coords, i, params)
            coords[i, 0] = old[0] + sx * rng.standard_normal()
            coords[i, 1] = (old[1] + sy * rng.uniform(-1.0, 1.0)) % circ
            e_new = reference_particle_energy(coords, i, params)
            proposed += 1
            if math.log(1.0 - rng.uniform()) < e_new - e_old:
                accepted += 1
            else:
                coords[i] = old
        if sweep >= mc.burn_in and (sweep - mc.burn_in) % mc.thinning == 0:
            kept.append(coords.copy())
    return np.array(kept), accepted / proposed


def reference_run(params, mc, tune):
    """(samples, sigma, chain acceptances) with the library's seeding and,
    if ``tune``, its pilot schedule: eight pilots of 50 + 150 sweeps at
    most."""
    n_keep = mc.sweeps // mc.thinning
    seeds = np.random.SeedSequence(mc.seed).spawn(mc.chains + 1)
    sx, sy = mc.sigma_x, mc.sigma_y
    if tune:
        rng = np.random.default_rng(seeds[-1])
        pilot = dataclasses.replace(mc, burn_in=50, thinning=1)
        for _ in range(8):
            _, acc = reference_chain(params, pilot, rng, (sx, sy), 150)
            if acc < 0.30:
                sx, sy = sx * 0.7, sy * 0.7
            elif acc > 0.60:
                sx, sy = sx * 1.4, sy * 1.4
            else:
                break
    chains = [reference_chain(params, mc, np.random.default_rng(seeds[c]),
                              (sx, sy), n_keep) for c in range(mc.chains)]
    return (np.array([k for k, _ in chains]), (sx, sy),
            tuple(a for _, a in chains))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("chains", (1, 2, 3))
@pytest.mark.parametrize("tune", (True, False))
@pytest.mark.parametrize("N", (1, 2, 4, 9))
@pytest.mark.parametrize("p", (2, 3))
def test_metropolis_matches_reference(p, N, tune, chains, fixed_widths):
    params = ModelParams(p, N, 0.9)
    mc = plasma.McConfig(sweeps=60, burn_in=20, thinning=2, sigma_x=0.3,
                         sigma_y=0.8, seed=17 * p + N, chains=chains)
    if not tune:
        fixed_widths()
    run = plasma.metropolis_run(params, mc)
    samples, sigma, accs = reference_run(params, mc, tune)
    assert same_bits(run.samples, samples)
    assert same_bits(run.sigma, sigma)
    assert same_bits(run.chain_acceptance, accs)
    assert same_bits(run.rhat,
                     plasma._split_rhat(samples[:, :, :, 0].sum(axis=2)))
