"""Parent Hamiltonians on the orbital lattice.

The two-body repulsion is fixed by form-factor components
f_n(t) = H_n(t) e^{-t^2/4}, with H_n the Hermite polynomials, tabulated
once per lattice distance for both assemblies.  :func:`repulsion`
assembles it as a sum of bond operators B_{s,n}*B_{s,n} over components
n and half-integer bond centers s (iterated as integer doubled
centers); :func:`build_H` assembles it a second time, as a sum over
momentum-conserving quadruples, and reports how far the two routes
differ.  The quadruple sum applies each unordered quadruple once: the
two orderings of a pair are folded by the exchange sign eps (c*_b c*_a =
eps c*_a c*_b, -1 for fermions, +1 for bosons) into one component
g_n = f_n(a-b) + eps f_n(b-a).  As f_n(-t) = (-1)^n f_n(t) holds bit for
bit, this is exactly 2 f_n(a-b) for the components kept, n = p mod 2,
and exactly 0 for a component of the other parity.

A momentum sector is enumerated directly, by the array search of
:func:`~laughlin.lattice.configurations` that also lists the admissible
configurations of the expansion, so its cap counts the sector and not
the whole layer: the ground sector of p=3, N=8 has 8,512 states in a
layer of 319,770.  A sector basis is the
:class:`~laughlin.lattice.ConfigIndex` of its configurations, labelled
with p, N and the momentum, with the squeezing pass's mixed-radix keys
(56 bits for the bosonic ground sector of p=4, N=7).  Every operator
here is assembled by the index's operator engine,
:meth:`~laughlin.lattice.ConfigIndex.images`: each operator of a string
acts on every row at once (an occupied/empty mask or a site's largest
occupation, a fermionic sign from the parity of a prefix count, bosonic
square-root factors), and the images are found by their packed keys.
The quadruple sum, one string per unordered quadruple, and the
monomer-dimer closed form are one engine pass each; the bond form is
A^T A, with one row of A per image of a bond, from one engine pass over
the terms of every bond.

Every builder and check takes the sector basis, and every check the
eigenvalues, that its caller enumerated or solved, and no result hands
the basis back; only :func:`build_monomer_dimer` still enumerates the
whole layer when it is given no basis.  Spectra, and so the kernel of
the ground-state check at every dimension, come from :func:`spectrum`,
ARPACK's implicitly restarted Lanczos from a seeded vector.

SciPy loads on the first assembly or solve: ``scipy.sparse`` is
imported inside the functions that use it, so importing this module,
and running a subcommand that never assembles an operator, does not pay
for it.  The form factor's Hermite polynomials come from
:func:`_hermite`, so this module never loads ``scipy.special``.

The module also has two p = 3 truncations with exactly known ground
states: the monomer-dimer Hamiltonian, the repulsion's bonds cut at
distance 3 with the paper's closed form as its oracle, and the diagonal
nearest/next-nearest repulsion (:func:`tt_energies`), whose kernel is
the one-particle-every-three-sites state that seeds the perturbation
series.

Operator convention: a basis label m is a row of ascending orbitals,
and |m> carries the creation operators in ascending orbital order.  In
operator strings the rightmost factor acts first; fermionic signs
count occupied orbitals below the acted site.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .expansion import AmplitudeTable
from .lattice import (CapExceeded, ConfigError, ConfigIndex, ModelParams,
                      configurations, find_keys, total_momentum)

DEFAULT_SECTOR_CAP = 200_000


# -- sector bases ----------------------------------------------------------------

class SectorBasis(ConfigIndex):
    """Deterministically ordered N-particle configurations on a lattice,
    optionally one total-momentum sector ``momentum``: the
    :class:`~laughlin.lattice.ConfigIndex` of the labels ``configs``,
    rows of ascending orbitals in lexicographic order, (D, N) int64,
    labelled with p, N and the momentum.
    """

    def __init__(self, p: int, N: int, momentum: int | None,
                 configs: np.ndarray, num_sites: int):
        super().__init__(configs, num_sites)
        self.p, self.N, self.momentum = p, N, momentum

    @property
    def dim(self) -> int:
        return len(self.configs)


def sector_basis(params: ModelParams, momentum: int | None = None,
                 cap: int = DEFAULT_SECTOR_CAP) -> SectorBasis:
    """Enumerate the N-particle layer on {0..p(N-1)}, or one momentum sector.

    A momentum sector is enumerated directly, and the cap applies to its
    own dimension; the whole layer is capped before it is enumerated, as
    every momentum sector in turn, then sorted lexicographically.
    """
    p, N, fermionic = params.p, params.N, params.fermionic
    sites = p * (N - 1) + 1
    if momentum is not None:
        configs = configurations(N, sites, momentum, fermionic, limit=cap)
    else:
        count = math.comb(sites if fermionic else sites + N - 1, N)
        if count > cap:
            raise CapExceeded(f"layer dimension {count} exceeds cap {cap}")
        low = N * (N - 1) // 2 if fermionic else 0  # least orbital sum
        configs = np.concatenate([
            configurations(N, sites, total, fermionic)
            for total in range(low, N * (sites - 1) - low + 1)])
        configs = configs[np.lexsort(configs.T[::-1])]
    if not len(configs):
        raise ConfigError("empty sector")
    return SectorBasis(p, N, momentum, configs, sites)


# -- sparse assembly --------------------------------------------------------------

def _operator_from_terms(basis: SectorBasis, terms, fermionic: bool
                         ) -> sparse.csr_matrix:
    """Assemble sum_t coeff_t c*...c*... c...c from (creation, annihilation, coeff)."""
    from scipy import sparse

    if not terms:
        return sparse.csr_matrix((basis.dim, basis.dim))
    creation, annihilation, coeff = zip(*terms)
    coeff = np.array(coeff)
    rows, cols, vals = [], [], []
    for col, term, key, factor in basis.images(
            np.array(creation, dtype=np.intp),
            np.array(annihilation, dtype=np.intp), fermionic):
        row = find_keys(basis.keys, key)
        keep = row >= 0
        rows.append(row[keep].astype(np.int32))
        cols.append(col[keep].astype(np.int32))
        vals.append(coeff[term[keep]] * factor[keep])
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim))
    return mat.tocsr()


def _hermite(n: int, t: float) -> float:
    """The physicists' Hermite polynomial H_n(t), bit for bit as SciPy's
    ``eval_hermite`` computes it: the downward recurrence of the
    probabilists' He_n at x = sqrt(2) t, scaled by 2^{n/2}."""
    if n == 0:
        return 1.0
    x = math.sqrt(2.0) * t
    y3, y2 = 0.0, 1.0
    for k in range(n, 1, -1):
        y3, y2 = y2, x * y2 - k * y3
    return (x * y2 - y3) * math.pow(2.0, n / 2.0)


def _components(params: ModelParams, sites: int
                ) -> dict[int, tuple[float, ...]]:
    """f[d] = the form-factor components f_j(t) = H_j(t) e^{-t^2/4} at
    t = d*gamma, for every distance d between two of the ``sites``
    orbitals.  Only the j < p with j = p mod 2 are kept: the others
    vanish when contracted with (anti)symmetric pairs, so every j < p
    gives the same pair operators."""
    f = {}
    for d in range(1 - sites, sites):
        t = d * params.gamma
        damp = math.exp(-0.25 * t * t)
        f[d] = tuple(_hermite(j, t) * damp
                     for j in range(params.p % 2, params.p, 2))
    return f


def _bond_annihilators(sites: int, f: dict[int, tuple[float, ...]]):
    """For each doubled bond center 2s and each form-factor component j,
    the terms of B_{s,j} = sum_k f_j(2k*gamma) c_{s-k} c_{s+k}, given
    f[d][j] = f_j(d*gamma).

    The offset k runs over both signs (and zero for bosons), so the
    adjoint pairs B_{s,j}* B_{s,j} reproduce the quadruple sum exactly.
    A pair whose distance d is not a key of f is left out, so a table
    cut to the short distances gives the bonds of the cut repulsion.
    """
    bonds = []
    for S in range(2 * sites - 1):
        pairs = [(a, S - a) for a in range(max(0, S - sites + 1),
                                           min(S, sites - 1) + 1)
                 if S - 2 * a in f]
        for j in range(len(f[0])):
            terms = [((a, b), f[b - a][j]) for a, b in pairs
                     if f[b - a][j] != 0.0]
            if terms:
                bonds.append(terms)
    return bonds


def _gram_build(basis: SectorBasis, bonds, fermionic: bool
                ) -> sparse.csr_matrix:
    """Assemble sum_s B_s* B_s over the bonds s as A^T A.

    Row (s, n) of A holds <n|B_s|m> over the basis states m, one row per
    distinct image n of a bond s; the rows are numbered by (s, key of
    n).  One pass of the engine applies the terms of every bond.
    """
    from scipy import sparse

    if not bonds:
        return sparse.csr_matrix((basis.dim, basis.dim))
    terms = [term for bond in bonds for term in bond]
    pairs = np.array([pair for pair, _ in terms], dtype=np.intp)
    coeff = np.array([c for _, c in terms])
    bond_of = np.repeat(np.arange(len(bonds), dtype=np.int32),
                        [len(bond) for bond in bonds])
    col, bond, key, vals = (np.concatenate(parts) for parts in zip(*(
        (col.astype(np.int32), bond_of[term], key, coeff[term] * factor)
        for col, term, key, factor in basis.images(
            np.zeros((len(pairs), 0), dtype=np.intp), pairs, fermionic))))
    row, count = _number_pairs(bond, key)
    A = sparse.csr_matrix((vals, (row, col)), shape=(count, basis.dim))
    return (A.T @ A).tocsr()


def _number_pairs(bond, key):
    """Number the distinct (bond, key) pairs in increasing order: the
    number of each entry's pair, and the count of pairs."""
    order = np.lexsort((key, bond))
    bond, key = bond[order], key[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (bond[1:] != bond[:-1]) | (key[1:] != key[:-1])
    number = np.empty(order.size, dtype=np.intp)
    number[order] = np.cumsum(first) - 1
    return number, int(first.sum())


@dataclass
class HBuild:
    """Both assemblies of the repulsion, with their entrywise deviation."""

    pair: sparse.csr_matrix
    bond: sparse.csr_matrix
    deviation: float
    seconds: dict[str, float]  # wall time of the "pair" and "bond" routes
    pair_terms: int  # quadruple strings the pair route applied

    @property
    def H(self) -> sparse.csr_matrix:
        return self.bond


def repulsion(params: ModelParams, basis: SectorBasis) -> sparse.csr_matrix:
    """The repulsion on ``basis`` as bond squares: sum_{s,j} B_{s,j}* B_{s,j}
    over doubled bond centers s and form-factor components j, positive
    semidefinite by construction."""
    sites = basis.num_sites
    return _gram_build(basis, _bond_annihilators(
        sites, _components(params, sites)), params.fermionic)


def build_H(params: ModelParams, basis: SectorBasis) -> HBuild:
    """Assemble the repulsion twice: quadruple sum and bond squares.

    Quadruple route: the sum over ordered (k1, k2, n1, n2) with
    k1 + k2 = n1 + n2 of sum_j f_j((k1-k2)g) f_j((n1-n2)g)
    c*_{k1} c*_{k2} c_{n2} c_{n1}, over the form-factor components j,
    applied once per unordered quadruple: one string c*_a c*_b c_d c_c
    per a <= b and c <= d, with coefficient sum_j g_j(a, b) g_j(c, d).
    The folded component g_j(a, b) = f_j(a-b) + eps f_j(b-a) holds both
    orderings of the pair (eps = -1 for fermions, +1 for bosons), and
    g_j(a, a) = f_j(0), which only bosons keep.  It is exactly
    2 f_j(a-b) for j = p mod 2 and exactly 0 for a component of the
    other parity, since f_j(-t) = (-1)^j f_j(t) bit for bit.
    Bond route: :func:`repulsion`.  The two agree entrywise up to
    rounding; the bond form is returned as ``H`` because its positivity
    is manifest.
    """
    sites = basis.num_sites
    eps = -1.0 if params.fermionic else 1.0

    t0 = time.perf_counter()
    f = _components(params, sites)
    terms = []
    for S in range(2 * sites - 1):
        pairs = []
        for a in range(max(0, S - sites + 1), S // 2 + 1):
            b = S - a
            if a < b:
                g = tuple(x + eps * y for x, y in zip(f[a - b], f[b - a]))
            elif params.fermionic:
                continue
            else:
                g = f[0]
            if any(g):
                pairs.append(((a, b), g))
        terms += [(creation, (d, c), sum(x * y for x, y in zip(g, h)))
                  for creation, g in pairs for (c, d), h in pairs]
    pair = _operator_from_terms(basis, terms, params.fermionic)
    t1 = time.perf_counter()
    bond = repulsion(params, basis)
    t2 = time.perf_counter()
    dev = abs(pair - bond).max() if basis.dim else 0.0
    return HBuild(pair=pair, bond=bond, deviation=float(dev),
                  seconds={"pair": t1 - t0, "bond": t2 - t1},
                  pair_terms=len(terms))


# -- spectra and ground-state checks ----------------------------------------------

# Least number of ARPACK's Lanczos vectors: with its default of 20, two
# eigenvalues of the p=3, N=8 ground sector do not converge in 600
# restarts; with 41 they take 0.9 s.
_NCV = 41
_LANCZOS_TOL = 1e-11  # ARPACK's relative accuracy of the Ritz values
LANCZOS_MAXITER = 600  # ARPACK's limit on restarts
KERNEL_COUNT = 40  # lowest eigenvalues ground_check examines
_KERNEL_CUT = 1e-10  # its kernel cut at unit scale


def spectrum(H, count: int, seed: int) -> np.ndarray:
    """Lowest eigenvalues of a symmetric operator, ascending.

    ARPACK's implicitly restarted Lanczos (``eigsh``) to a relative
    accuracy of 1e-11 in the Ritz values, within
    :data:`LANCZOS_MAXITER` restarts; the start vector comes from a
    generator seeded by ``seed``, so repeated runs agree far below the
    tolerance.  Raises
    :class:`~laughlin.lattice.CapExceeded` (a ``RuntimeError``) if
    ARPACK fails or the requested values have not converged.  Where
    ARPACK cannot run (count >= dim - 1) the dense eigensolver takes
    over.
    """
    from scipy import sparse
    from scipy.sparse.linalg import ArpackError, eigsh

    H = sparse.csr_matrix(H)
    dim = H.shape[0]
    if dim == 0 or count < 1:
        raise ConfigError("spectrum needs a nonempty operator and count >= 1")
    count = min(count, dim)
    if count >= dim - 1:
        return np.linalg.eigvalsh(H.toarray())[:count]
    v0 = np.random.default_rng(seed).standard_normal(dim)
    try:
        vals = eigsh(H, k=count, which="SA", v0=v0, maxiter=LANCZOS_MAXITER,
                     tol=_LANCZOS_TOL,
                     ncv=min(dim, max(2 * count + 1, _NCV)),
                     return_eigenvectors=False)
    except ArpackError as exc:
        raise CapExceeded(f"Lanczos did not converge the lowest {count} "
                          f"eigenvalues within maxiter={LANCZOS_MAXITER} "
                          f"restarts: {exc}") from exc
    return np.sort(vals)


@dataclass(frozen=True)
class GroundReport:
    residual: float
    kernel_dim: int
    min_eigenvalue: float


def residual(H, psi: np.ndarray) -> float:
    """Relative residual |H psi| / |psi| of a claimed zero mode."""
    psi = np.asarray(psi, dtype=float)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ConfigError("zero vector has no residual")
    return float(np.linalg.norm(H @ psi) / norm)


def ground_check(H, psi: np.ndarray, eigenvalues: np.ndarray) -> GroundReport:
    """:func:`residual` of psi and the kernel dimension: how many of the
    lowest 40 eigenvalues, passed ascending as ``eigenvalues`` (from
    :func:`spectrum`), lie within max(1e-10, 1e-12 scale) of zero, scale
    the largest of their magnitudes and 1."""
    res = residual(H, psi)
    count = min(KERNEL_COUNT, H.shape[0])
    if len(eigenvalues) < count:
        raise ConfigError(f"the kernel check needs the lowest {count} "
                          f"eigenvalues, got {len(eigenvalues)}")
    vals = np.asarray(eigenvalues)[:count]
    scale = max(abs(vals[0]), abs(vals[-1]), 1.0)
    cut = max(_KERNEL_CUT, 1e-12 * scale)
    kernel = int(np.sum(np.abs(vals) <= cut))
    return GroundReport(residual=res, kernel_dim=kernel,
                        min_eigenvalue=float(vals[0]))


def exact_vector(basis: SectorBasis, amp: AmplitudeTable) -> np.ndarray:
    """Amplitude table as a dense vector on the normalized Fock basis."""
    if amp.p != basis.p or amp.N != basis.N:
        raise ConfigError("amplitude table and basis disagree")
    return basis.vector(amp.table.configs, amp.occ)


# -- monomer-dimer model (p = 3) ---------------------------------------------------

def require_p3(params: ModelParams) -> None:
    """Refuse a model other than filling 1/3, the only one the
    monomer-dimer model, the thin-torus truncation and the perturbation
    series are defined at."""
    if params.p != 3:
        raise ConfigError("defined at filling 1/3 only")


@dataclass
class MonomerDimer:
    H: sparse.csr_matrix
    deviation: float
    psi: np.ndarray
    num_terms: int


def build_monomer_dimer(params: ModelParams,
                        basis: SectorBasis | None = None) -> MonomerDimer:
    """Truncated-range Hamiltonian and its monomer-dimer ground state.

    The operator is the repulsion's bond squares with only the pair
    distances <= 3 kept, divided by 16 gamma^2 e^{-gamma^2/2}: one bond
    assembly.  ``deviation`` checks it against the closed form of
    Nakamura, Wang and Bergholtz, per-site terms 4 e^{-3g^2/2}
    n_j n_{j+2} plus the expanded square of
    M_j = c_{j+2} c_{j+1} + 3 e^{-2g^2} c_{j+3} c_j.  The ground state
    sums over monomer-dimer tilings of the rods: a monomer places one
    particle at 3k, a dimer places the pair (3k+1, 3k+2) with
    coefficient -3 e^{-2g^2}.
    """
    require_p3(params)
    if basis is None:
        basis = sector_basis(params)
    g2 = params.gamma ** 2
    hop = 3.0 * math.exp(-2.0 * g2)
    sites = basis.num_sites

    cut = {d: f for d, f in _components(params, sites).items()
           if abs(d) <= 3}
    H = _gram_build(basis, _bond_annihilators(sites, cut), True) / (
        16.0 * g2 * math.exp(-0.5 * g2))

    closed = [((k, k + 2), (k + 2, k), 4.0 * math.exp(-1.5 * g2))
              for k in range(sites - 2)]
    closed += [((k, k + 1), (k + 1, k), 1.0) for k in range(sites - 1)]
    for k in range(sites - 3):
        closed += [((k, k + 3), (k + 3, k), hop * hop),
                   ((k + 1, k + 2), (k + 3, k), hop),
                   ((k, k + 3), (k + 2, k + 1), hop)]
    dev = float(abs(H - _operator_from_terms(basis, closed, True)).max())

    coeffs: dict[tuple[int, ...], float] = {}

    def tile(k: int, sites_acc: tuple[int, ...], coeff: float):
        if k == params.N:
            coeffs[sites_acc] = coeff
            return
        tile(k + 1, sites_acc + (3 * k,), coeff)
        if k + 1 < params.N:
            tile(k + 2, sites_acc + (3 * k + 1, 3 * k + 2), -coeff * hop)

    tile(0, (), 1.0)
    psi = basis.vector(list(coeffs), list(coeffs.values()))
    return MonomerDimer(H=H, deviation=dev, psi=psi, num_terms=len(coeffs))


# -- nearest/next-nearest truncation and the perturbation series -------------------

def tt_energies(basis: SectorBasis, gamma: float) -> np.ndarray:
    """Diagonal of the nearest/next-nearest repulsion on the basis."""
    e1 = math.exp(-0.5 * gamma * gamma)
    e2 = 4.0 * math.exp(-2.0 * gamma * gamma)
    occ = basis.occupations.astype(np.int64)
    near = (occ[:, :-1] * occ[:, 1:]).sum(axis=1)
    next_near = (occ[:, :-2] * occ[:, 2:]).sum(axis=1)
    return e1 * near + e2 * next_near


def tao_thouless(params: ModelParams, basis: SectorBasis) -> np.ndarray:
    """The one-particle-every-three-sites occupation state as a vector."""
    require_p3(params)
    return basis.vector([params.root_config], [1.0])


@dataclass(frozen=True)
class PerturbationReport:
    distances: tuple[float, ...]
    decreasing: bool  # each distance below the one before, or rounding


def perturbation_series(params: ModelParams, order: int,
                        amp: AmplitudeTable, basis: SectorBasis, H
                        ) -> PerturbationReport:
    """Partial sums of the zero-energy perturbation series around the
    one-particle-per-rod state, with per-order distances to the exact
    ground state.

    The perturbation is V = H/(16 g^2) - H_nn, the repulsion beyond the
    nearest/next-nearest truncation; each order applies -(QD^{-1}Q)V to
    the previous term, where D is the truncated diagonal and Q projects
    off the seed.  Distances are Euclidean against the exact amplitude
    vector of ``amp``, the amplitudes of (p, N) at gamma, in the gauge
    where both have unit seed coefficient; the series counts as
    decreasing while each distance falls, or has reached the rounding
    floor 1e-14 |exact|.

    ``H`` is the repulsion on ``basis``, the ground momentum sector of
    ``params``, such as :func:`repulsion` assembles.
    """
    from scipy import sparse

    require_p3(params)
    if order < 0:
        raise ConfigError("order must be nonnegative")
    ground = total_momentum(params.p, params.N)
    if (basis.p, basis.N, basis.momentum) != (params.p, params.N, ground):
        raise ConfigError("perturbation series needs the ground momentum "
                          f"sector {ground} of p={params.p}, N={params.N}")
    if H.shape != (basis.dim, basis.dim):
        raise ConfigError(f"operator of shape {H.shape} is not on the "
                          f"{basis.dim}-state sector")
    exact = exact_vector(basis, amp)

    seed = tao_thouless(params, basis)
    i_seed = int(np.argmax(seed))
    energies = tt_energies(basis, params.gamma)
    others = np.ones(basis.dim, dtype=bool)
    others[i_seed] = False
    if np.any(energies[others] <= 1e-14):
        raise ConfigError("degenerate truncated diagonal; series undefined")

    Hfull = H / (16.0 * params.gamma ** 2)
    V = Hfull - sparse.diags(energies).tocsr()

    term = seed.copy()
    partial = seed.copy()
    distances = [float(np.linalg.norm(partial - exact))]
    for _ in range(order):
        term = V @ term
        term[i_seed] = 0.0
        term[others] /= -energies[others]
        partial = partial + term
        distances.append(float(np.linalg.norm(partial - exact)))
    floor = 1e-14 * float(np.linalg.norm(exact))  # entries round to ulps
    return PerturbationReport(distances=tuple(distances), decreasing=all(
        b < a or b <= floor for a, b in zip(distances, distances[1:])))
