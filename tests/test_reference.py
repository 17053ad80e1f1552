"""Per-configuration reference for the column reductions.

The library reads every per-configuration quantity from the columns of
a coefficient table or a sector basis.  Here each one is recomputed the
direct way, one configuration at a time, with the scalar lattice
helpers of this module, and the library's array passes must agree with
it; the moment-table route of the norms, weights, rod moments and
finite occupations to 1e-13, the exact polynomials exactly.  The bulk pair
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
over every configuration's renewal points.  The factored quasi-state
decomposition is checked against the dense one: a vector per rod
partition, the sum of its blocks and the projector as matrices.

The quantities that only the tests compute live here too, and the
other test files import them, ``moments_finite`` (a client of the
operator engine) among them.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import (accumulate, combinations, combinations_with_replacement,
                       product)

import numpy as np
import pytest
from pytest import approx
from scipy import sparse
from scipy.special import erf, eval_hermite

from laughlin import correlations, hamiltonian, plasma
from laughlin.correlations import (occupation_finite, occupation_infinite,
                                   pair_infinite, rod_expectations)
from laughlin.expansion import (AmplitudeTable, CoefficientTable, amplitudes,
                                expand_all, verify_product_rule)
from laughlin.lattice import (ConfigError, ModelParams, config_tuples,
                              enumerate_admissible, enumerate_partitions,
                              find_keys, renewal_points, staircase,
                              total_momentum)
from laughlin.moments import derive
from laughlin.renewal import (RenewalModel, build_model, irreducible_weights,
                              norms_from_tables, partition_probability)


@pytest.fixture(scope="module", params=(2, 3))
def tables(request):
    return expand_all(request.param, 6)


def config_to_occupation(m, num_sites):
    """Occupation numbers of one configuration, as a tuple."""
    n = [0] * num_sites
    for mj in m:
        if not 0 <= mj < num_sites:
            raise ValueError(f"orbital {mj} outside {num_sites} sites")
        n[mj] += 1
    return tuple(n)


def occupation_to_config(n):
    """The sorted configuration of one occupation tuple."""
    return tuple(site for site, nk in enumerate(n) for _ in range(nk))


def is_admissible(m, p):
    """Dominance test of one weakly increasing configuration: every
    partial sum on or above the staircase, the full sum on it."""
    if m and m[0] < 0:
        return False
    s = 0
    for k, mk in enumerate(m, start=1):
        s += mk
        if s < staircase(p, k):
            return False
    return s == staircase(p, len(m))


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
        assert (not rods.nu[n - 1].any()) == (alpha == 0.0)
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
                same += pn * rods.pair[n - 1][s, s + l]
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
    """Every entry of a row equals its separation's own sum."""
    p = tables[0].p
    model = build_model(p, len(tables), gamma, tables=tables)
    rods = rod_expectations(tables, gamma)
    for k, lmax in product(range(p), (0, 1, 15, 40)):
        got = pair_infinite(model, rods, k, lmax)
        assert got.value.shape == got.truncated.shape == (lmax + 1,)
        assert list(zip(got.value, got.truncated)) == \
            [reference_pair_infinite(model, rods, k, l)
             for l in range(lmax + 1)]


@pytest.mark.parametrize("gamma", (0.7, 1.5))
def test_period_test_pair_moments(tables, gamma, monkeypatch):
    """With a tolerance the occupations pass at every shift, the
    deviations also take the pair moments of separations 1..2p."""
    p = tables[0].p
    model = build_model(p, len(tables), gamma, tables=tables)
    rods = rod_expectations(tables, gamma)
    occ = occupation_infinite(model, rods)
    occ_devs = [max(abs(occ[k] - occ[(k + d) % p]) for k in range(p))
                for d in range(1, p + 1)]
    monkeypatch.setattr(correlations, "PERIOD_TOLERANCE",
                        2.0 * max(occ_devs))
    pairs = {(k, l): reference_pair_infinite(model, rods, k, l)[0]
             for k in range(p) for l in range(1, 2 * p + 1)}
    expect = [max(occ_devs[d - 1],
                  max(abs(pairs[(k, l)] - pairs[((k + d) % p, l)])
                      for k in range(p) for l in range(1, 2 * p + 1)))
              for d in range(1, p + 1)]
    rep = correlations.period_test(model, rods)
    assert rep.used == "occupations+pair_moments"
    assert list(rep.deviations) == expect


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


def moments_finite(amp, creation, annihilation) -> float:
    """Normalized expectation of a Wick-ordered monomial.

    ``creation`` and ``annihilation`` list the orbital indices of the
    c* and c factors in left-to-right operator order.  Index sums must
    match for a nonzero value (momentum around the cylinder).
    """
    creation = tuple(creation)
    annihilation = tuple(annihilation)
    if len(creation) != len(annihilation):
        raise ConfigError("unbalanced operator string")
    sites = num_orbitals(amp)
    if any(not 0 <= s < sites for s in creation + annihilation):
        raise ConfigError("operator site out of range")
    if sum(creation) != sum(annihilation):
        return 0.0
    if not creation:
        return 1.0
    index = amp.table.index
    total = 0.0
    for col, _, key, factor in index.images(
            np.array([creation], dtype=np.intp),
            np.array([annihilation], dtype=np.intp), amp.p % 2 == 1):
        row = find_keys(index.keys, key)
        hit = row >= 0
        total += float(amp.occ[row[hit]] @ (factor[hit] * amp.occ[col[hit]]))
    return total / amp.norm_sq()


def reference_moments(amp, creation, annihilation):
    """<c*...c*... c...c> / C_N by a walk over the table's occupation
    rows, each image looked up in a dict of the rows."""
    if sum(creation) != sum(annihilation):
        return 0.0
    rows = amp.table.occupations[:, :num_orbitals(amp)].tolist()
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
    sites = num_orbitals(amp)
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


def reference_pair_terms(params, sites):
    """The quadruple sum term by term: every ordered (k1, k2, n1, n2)
    with k1 + k2 = n1 + n2 as the string c*_{k1} c*_{k2} c_{n2} c_{n1}
    with coefficient sum_j f_j((k1-k2)g) f_j((n1-n2)g), each unordered
    quadruple in all four of its orderings."""
    f = hamiltonian._components(params, sites)
    terms = []
    for S in range(2 * sites - 1):
        modes = [(a, S - a) for a in range(max(0, S - sites + 1),
                                           min(S, sites - 1) + 1)]
        for k1, k2 in modes:
            fk = f[k1 - k2]
            if not any(fk):
                continue
            for n1, n2 in modes:
                fn = f[n1 - n2]
                if any(fn):
                    terms.append(((k1, k2), (n2, n1),
                                  sum(a * b for a, b in zip(fk, fn))))
    return terms


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


def reference_components(p, t, indices=None):
    """The form-factor components f_n(t) = H_n(t) e^{-t^2/4} at one t, for
    each n of ``indices``, by default the n < p of p's parity."""
    if indices is None:
        indices = [n for n in range(p) if n % 2 == p % 2]
    damp = math.exp(-0.25 * t * t)
    return tuple(float(eval_hermite(n, t)) * damp for n in indices)


@pytest.mark.parametrize("p", range(1, 7))
def test_components_match_reference(p):
    # bit for bit, at every distance of a 9-site lattice
    for gamma in (0.3, 0.7, 1.0, 1.3, 2.2, 3.5):
        got = hamiltonian._components(ModelParams(p, 2, gamma), 9)
        assert got == {d: reference_components(p, d * gamma)
                       for d in range(-8, 9)}


def test_hermite_matches_scipy():
    # bit for bit for j < 8 at every distance d of a sector up to p = 6,
    # N = 9 (49 orbitals), at the gammas of the tests and the benchmark
    # and at a seeded random grid
    rng = np.random.default_rng(34)
    gammas = [0.3, 0.35, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.3, 1.5, 1.6,
              2.0, 2.2, 2.5, 3.0, 3.5, 4.5, *rng.uniform(0.05, 5.0, 40)]
    ts = [d * gamma for gamma in gammas for d in range(-48, 49)]
    ts += list(rng.uniform(-60.0, 60.0, 2000))
    for j in range(8):
        assert same_bits([hamiltonian._hermite(j, t) for t in ts],
                         eval_hermite(j, ts)), j


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


def ham_bases(p, n_layer, n_sector):
    """(params, basis) of the whole layer for N <= n_layer and of the
    ground sector for N <= n_sector, from N = 2, at gamma 1.3."""
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
    return bases


@pytest.mark.parametrize("variant", ("parity", "full"))
@pytest.mark.parametrize("p,n_layer,n_sector", HAM_CASES)
def test_build_H_matches_reference(p, n_layer, n_sector, variant,
                                   reference_assembly, full_form_factor):
    if variant == "full":
        full_form_factor()
    bases = ham_bases(p, n_layer, n_sector)
    got = [hamiltonian.build_H(params, basis=basis) for params, basis in bases]
    reference_assembly()
    for (params, basis), build in zip(bases, got):
        expect = hamiltonian.build_H(params, basis=basis)
        assert_same_operator(build.pair, expect.pair)
        assert_same_operator(build.bond, expect.bond)
        assert build.deviation <= 1e-12 * abs(expect.bond).max()


@pytest.mark.parametrize("variant", ("parity", "full"))
@pytest.mark.parametrize("p,n_layer,n_sector", HAM_CASES)
def test_pair_route_matches_ordered_quadruples(p, n_layer, n_sector, variant,
                                               full_form_factor):
    """Applying each unordered quadruple once, its orderings folded by
    the exchange sign, gives the operator of all ordered quadruples."""
    if variant == "full":
        full_form_factor()
    for params, basis in ham_bases(p, n_layer, n_sector):
        expect = reference_operator(
            basis, reference_pair_terms(params, basis.num_sites),
            params.fermionic)
        assert_same_operator(hamiltonian.build_H(params, basis).pair, expect)


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


def test_monomer_dimer_is_the_cut_repulsion():
    """The monomer-dimer operator is the repulsion's bond squares with
    only the pair distances <= 3 kept, over 16 g^2 e^{-g^2/2}; its
    deviation from the closed form is rounding."""
    for N in range(2, 8):
        params = ModelParams(3, N, 1.0)
        basis = hamiltonian.sector_basis(params,
                                         momentum=total_momentum(3, N))
        sites = basis.num_sites
        for g in (0.2, 0.9, 2.0, 5.0):
            bonds = []
            for S in range(2 * sites - 1):
                terms = [((a, S - a), reference_components(3, d * g)[0])
                         for a in range(sites) if 0 <= S - a < sites
                         and 0 < abs(d := S - 2 * a) <= 3]
                if terms:
                    bonds.append(terms)
            expect = reference_gram(basis, bonds, True) / (
                16 * g * g * math.exp(-0.5 * g * g))
            md = hamiltonian.build_monomer_dimer(ModelParams(3, N, g), basis)
            scale = abs(expect).max()
            assert abs(md.H - expect).max() <= 1e-13 * scale
            assert md.deviation <= 1e-13 * scale


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
    """Metropolis with both energies of every move evaluated afresh, and
    the widths adapted after each whole window of 50 burn-in sweeps:
    times 0.7 below an acceptance of 0.30 in the window, times 1.4 above
    0.60.  Returns (kept samples, acceptance, final widths)."""
    circ = 2.0 * math.pi / params.gamma
    coords = np.empty((params.N, 2))
    coords[:, 0] = params.p * params.gamma * np.arange(params.N) \
        + 0.05 * rng.standard_normal(params.N)
    coords[:, 1] = rng.uniform(0.0, circ, params.N)
    sx, sy = sigma
    accepted = proposed = in_window = 0
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
                in_window += 1
            else:
                coords[i] = old
        if sweep + 1 <= mc.burn_in and (sweep + 1) % 50 == 0:
            rate = in_window / (50 * params.N)
            if rate < 0.30:
                sx, sy = sx * 0.7, sy * 0.7
            elif rate > 0.60:
                sx, sy = sx * 1.4, sy * 1.4
            in_window = 0
        if sweep >= mc.burn_in and (sweep - mc.burn_in) % mc.thinning == 0:
            kept.append(coords.copy())
    return np.array(kept), accepted / proposed, (sx, sy)


def library_rngs(mc):
    """The library's seeding: chain c draws from child c of the seed's
    SeedSequence."""
    return [np.random.default_rng(seed)
            for seed in np.random.SeedSequence(mc.seed).spawn(mc.chains)]


def reference_run(params, mc, sigma):
    """(samples, widths, chain acceptances) of reference chains started
    from the widths sigma, seeded as the library seeds its chains."""
    n_keep = mc.sweeps // mc.thinning
    chains = [reference_chain(params, mc, rng, sigma, n_keep)
              for rng in library_rngs(mc)]
    return (np.array([k for k, _, _ in chains]),
            tuple(w for _, _, w in chains), tuple(a for _, a, _ in chains))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def check_against_reference(params, mc, sigma):
    """The chains started from the widths sigma: their samples, final
    widths and acceptances are the reference's to the bit; returns the
    final widths."""
    kept, accs, _, widths = plasma._run_chain(
        params, mc, library_rngs(mc), sigma, mc.sweeps // mc.thinning)
    samples, ref_widths, ref_accs = reference_run(params, mc, sigma)
    assert same_bits(kept, samples)
    assert same_bits(widths, ref_widths)
    assert same_bits(accs, ref_accs)
    return tuple(widths)


@pytest.mark.parametrize("chains", (1, 3))
def test_metropolis_run_matches_reference(chains):
    """A run starts every chain from the library's widths; its samples,
    widths, chain acceptances and R-hat are the reference's to the bit."""
    params = ModelParams(3, 4, 0.9)
    mc = plasma.McConfig(sweeps=60, burn_in=120, thinning=2, seed=chains,
                         chains=chains)
    run = plasma.metropolis_run(params, mc)
    samples, sigma, accs = reference_run(params, mc, plasma.START_WIDTHS)
    assert same_bits(run.samples, samples)
    assert same_bits(run.sigma, sigma)
    assert same_bits(run.chain_acceptance, accs)
    assert same_bits(run.rhat,
                     plasma._split_rhat(samples[:, :, :, 0].sum(axis=2)))


@pytest.mark.parametrize("chains", (1, 2, 3))
@pytest.mark.parametrize("tune", (True, False))
@pytest.mark.parametrize("N", (1, 2, 4, 9))
@pytest.mark.parametrize("p", (2, 3))
def test_metropolis_matches_reference(p, N, tune, chains):
    """``tune`` runs a burn-in of two whole adaptation windows and a part
    of a third; without it the burn-in is shorter than one window and
    every chain keeps the configured widths."""
    params = ModelParams(p, N, 0.9)
    mc = plasma.McConfig(sweeps=60, burn_in=120 if tune else 20, thinning=2,
                         seed=17 * p + N, chains=chains)
    sigma = check_against_reference(params, mc, (0.3, 0.8))
    assert (sigma == ((0.3, 0.8),) * chains) != tune


@pytest.mark.parametrize("burn_in", (50, 99, 260))
@pytest.mark.parametrize("N", (2, 9))
def test_metropolis_adapts_like_reference(N, burn_in):
    """One whole adaptation window (with a burn-in that ends one sweep
    before the second window would), and five, with three chains whose
    widths start too wide for any of them to stay."""
    params = ModelParams(3, N, 0.9)
    mc = plasma.McConfig(sweeps=60, burn_in=burn_in, thinning=2,
                         seed=5 * N + burn_in, chains=3)
    sigma = check_against_reference(params, mc, (6.0, 6.0))
    assert all(sx == sy < 6.0 for sx, sy in sigma)


# -- quantities no subcommand computes ------------------------------------------------


@dataclass(frozen=True)
class DomainReport:
    a: float
    b: float
    weights: np.ndarray
    norm: float
    occupations: np.ndarray


def domain_weighted(amp, a: float, b: float) -> DomainReport:
    """Occupations and norm with the x-integration restricted to [a, b].

    Per-orbital weights w_k = (1/sqrt(pi)) int_a^b exp(-(x-kg)^2) dx;
    the restricted norm is C_N^L = sum A^2 prod_k w_k^{n_k} and the
    occupations weight every particle except the counted one:
    <n_k>^L = sum A^2 n_k prod w^{n - delta_k} / C_N^L.
    """
    if not a < b:
        raise ConfigError(f"empty domain [{a}, {b}]")
    ks = np.arange(num_orbitals(amp)) * amp.gamma
    w = 0.5 * (erf(b - ks) - erf(a - ks))
    configs = amp.table.configs
    wm = w[configs]
    # The product over every particle but slot j, from prefix and suffix
    # products; no division, since w_k may vanish on remote domains.
    ones = np.ones((len(wm), 1))
    before = np.hstack([ones, np.cumprod(wm[:, :-1], axis=1)])
    after = np.hstack([np.cumprod(wm[:, :0:-1], axis=1)[:, ::-1], ones])
    A2 = amp.weights
    norm = float(A2 @ wm.prod(axis=1))
    occ = np.bincount(configs.ravel(),
                      weights=(A2[:, None] * before * after).ravel(),
                      minlength=num_orbitals(amp))
    if norm <= 0:
        raise ConfigError("domain carries no weight")
    return DomainReport(a=a, b=b, weights=w, norm=norm, occupations=occ / norm)


def log_weight(coords, params: ModelParams) -> float:
    """log |Psi|^2 up to a state-independent constant; -inf at coincidences.

    ``coords`` is an (N, 2) array of particle positions (x, y).
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (params.N, 2):
        raise ConfigError(f"expected coordinate shape {(params.N, 2)}")
    pairs = plasma._pair_matrix(coords, params.gamma)  # each pair twice
    return -float(np.sum(coords[:, 0] ** 2)) + params.p * float(np.sum(pairs))


def orbital_interval_weights(occ: np.ndarray, gamma: float, a: float, b: float
                             ) -> float:
    """Expected particle count with x in [a, b] from exact occupations.

    After integrating out y, cross terms between occupation
    configurations vanish, so each orbital contributes its occupation
    times the Gaussian mass of [a, b] around its center.
    """
    k = np.arange(occ.size)
    w = 0.5 * (erf(b - k * gamma) - erf(a - k * gamma))
    return float(occ @ w)


# Window events are in rod coordinates: rod coordinate a means lattice
# position p*a.


@dataclass(frozen=True)
class WindowEvent:
    """A pinned renewal at rod coordinate ``start`` followed by rods of
    the given ``lengths`` (possibly none)."""

    start: int
    lengths: tuple[int, ...] = ()

    @property
    def end(self) -> int:
        return self.start + sum(self.lengths)


def stationary_event_probability(model: RenewalModel,
                                 events: WindowEvent | list[WindowEvent]
                                 ) -> float:
    """Stationary probability of one or two pinned window events.

    A single window costs mu^{-1} prod p_{n_i}; a second window is tied
    to the first by the renewal bridge u_gap, which is what makes the
    process clustering.
    """
    if isinstance(events, WindowEvent):
        events = [events]
    if not 1 <= len(events) <= 2:
        raise ConfigError("expected one or two window events")
    for ev in events:
        if any(n < 1 for n in ev.lengths):
            raise ConfigError(f"rod lengths must be positive: {ev}")
        if any(n > model.Nmax for n in ev.lengths):
            raise ConfigError(f"rod length beyond Nmax={model.Nmax}: {ev}")
    prob = 1.0 / model.mu
    for n in events[0].lengths:
        prob *= model.pn[n - 1]
    if len(events) == 2:
        first, second = events
        gap = second.start - first.end
        if gap < 0:
            raise ConfigError("windows overlap or are out of order")
        prob *= model.renewal_sequence(gap)[gap]
        for n in second.lengths:
            prob *= model.pn[n - 1]
    return prob


def finite_window_probability(model: RenewalModel, N: int,
                              events: WindowEvent | list[WindowEvent]
                              ) -> float:
    """Probability of pinned window events under the length-N state.

    Bridges u_a (before), u_gap (between) and u_{N-end} (after), divided
    by u_N; reduces to p_N(X) when the windows exhaust the system.
    """
    if isinstance(events, WindowEvent):
        events = [events]
    if not 1 <= len(events) <= 2:
        raise ConfigError("expected one or two window events")
    if N > model.Nmax:
        raise ConfigError(f"N={N} exceeds Nmax={model.Nmax}")
    u = model.renewal_sequence(N)
    prev_end = 0
    prob = 1.0
    for ev in events:
        gap = ev.start - prev_end
        if gap < 0 or ev.end > N:
            raise ConfigError("windows overlap, disordered, or exceed N")
        prob *= u[gap]
        for n in ev.lengths:
            if n > model.Nmax:
                raise ConfigError(f"rod length beyond Nmax={model.Nmax}")
            prob *= model.pn[n - 1]
        prev_end = ev.end
    return prob * u[N - prev_end] / u[N]


def no_renewal_probability(model: RenewalModel, N: int, positions) -> float:
    """Exact probability that none of the rod coordinates in ``positions``
    is a renewal point of a length-N system.

    Enumerates all 2^(N-1) partitions, so meant for small N.
    """
    if N > model.Nmax:
        raise ConfigError(f"N={N} exceeds Nmax={model.Nmax}")
    banned = set(int(a) for a in positions)
    total = 0.0
    for lengths in enumerate_partitions(N):
        boundary = {0}
        s = 0
        for n in lengths:
            s += n
            boundary.add(s)
        if boundary & banned:
            continue
        total += partition_probability(model, lengths)
    return total


def num_orbitals(amp) -> int:
    """Number of sites of the lattice {0, ..., p(N-1)} of a table."""
    return amp.p * (amp.N - 1) + 1


@dataclass(frozen=True)
class DenseQuasiState:
    """The quasi-state decomposition in dense form, the oracle of the
    factored ``correlations.quasi_state``.

    ``live`` lists the rod partitions of nonzero weight in the order of
    ``enumerate_partitions``; row i of ``vectors`` is u_i, the occupation
    amplitudes of the rows whose renewal points are those of the i-th,
    and ``meet[i, j]`` the index of the partition whose renewal points
    the i-th and j-th share, -1 where that class is empty.
    """

    amp: AmplitudeTable
    live: list[tuple[int, ...]]
    vectors: np.ndarray
    meet: np.ndarray

    @property
    def norm_sq(self) -> float:
        return float(self.amp.occ @ self.amp.occ)

    def reconstruction(self, rows=slice(None)) -> np.ndarray:
        """Rows ``rows`` of sum_X p_N(X) omega_X: U^T S U, where
        S[Y, Z] = p_N(X) / ||u_X||^2 = 1 / C_N for X the meet of Y and Z,
        and 0 where that class is empty."""
        S = (self.meet >= 0) / self.norm_sq
        return self.vectors[:, rows].T @ (S @ self.vectors)

    def projector(self, rows=slice(None)) -> np.ndarray:
        """Rows ``rows`` of |Psi><Psi| / C_N."""
        return np.outer(self.amp.occ[rows], self.amp.occ) / self.norm_sq

    def residual(self) -> float:
        """The largest entry of reconstruction - projector, compared 512
        rows at a time."""
        return max(float(np.max(np.abs(self.reconstruction(rows)
                                       - self.projector(rows))))
                   for rows in (slice(i, i + 512)
                                for i in range(0, len(self.amp.occ), 512)))


def reference_quasi_state(amp: AmplitudeTable) -> DenseQuasiState:
    """One vector per rod partition, selected by comparing each row's
    set of interior renewal points with the partition's."""
    N, amps = amp.N, amp.occ
    points = [frozenset((np.flatnonzero(row[1:N]) + 1).tolist())
              for row in amp.table.renewal]
    live, sets, vectors = [], [], []
    for X in enumerate_partitions(N):
        cuts = frozenset(accumulate(X[:-1]))
        u = np.array([a if cut == cuts else 0.0
                      for a, cut in zip(amps.tolist(), points)])
        if u @ u != 0.0:
            live.append(X)
            sets.append(cuts)
            vectors.append(u)
    meet = np.array([[sets.index(a & b) if a & b in sets else -1
                      for b in sets] for a in sets], dtype=np.intp)
    return DenseQuasiState(amp, live, np.array(vectors), meet)


def omega(ref: DenseQuasiState, X) -> np.ndarray:
    """The quasi-state block of X: sum of |u_Y><u_Z| / ||u_X||^2 over the
    pairs (Y, Z) whose meet is X, a partition of nonzero weight."""
    U, x = ref.vectors, ref.live.index(X)
    return U.T @ ((ref.meet == x) @ U) / (U[x] @ U[x])


def diagonal_value(ref: DenseQuasiState, X, site: int) -> float:
    """omega_X(n_site) evaluated as a state on the diagonal algebra."""
    # Only the diagonal of the block survives, and the classes are
    # disjoint, so only the pair (X, X) reaches it: u_X^2 / ||u_X||^2.
    u = ref.vectors[ref.live.index(X)]
    return float((u * u) @ ref.amp.table.occupations[:, site] / (u @ u))


@pytest.mark.parametrize("p", (1, 2, 3, 4))
def test_quasi_state_matches_dense(p):
    """The factored residual is the dense largest entry of
    reconstruction - projector, and each weight is ||u_X||^2 / C_N."""
    tables = expand_all(p, 6)
    for table, gamma in product(tables, (0.5, 1.0, 3.0)):
        amp = amplitudes(table, gamma)
        dec = correlations.quasi_state(amp)
        ref = reference_quasi_state(amp)
        assert dec.residual == approx(ref.residual(), abs=1e-15)
        norms = dict(zip(ref.live, (u @ u for u in ref.vectors)))
        assert list(dec.weights) == enumerate_partitions(table.N)
        for X, weight in dec.weights.items():
            assert weight == approx(norms.get(X, 0.0) / ref.norm_sq,
                                    abs=1e-15)


def test_quasi_state_empty_meet_matches_dense(tables_p3):
    """Zeroing the irreducible rows of N = 4 empties the one-rod class,
    the meet of every pair of partitions with no renewal point in
    common; those pairs leave entries of reconstruction - projector,
    and both forms find the same largest."""
    amp = amplitudes(tables_p3[3], 1.0)
    cut = AmplitudeTable(amp.table, amp.gamma,
                         np.where(amp.table.irreducible, 0.0, amp.amp))
    dec = correlations.quasi_state(cut)
    ref = reference_quasi_state(cut)
    assert dec.weights[(4,)] == 0.0 and (4,) not in ref.live
    assert dec.residual > 0.0
    assert dec.residual == approx(ref.residual(), rel=1e-15)
