"""Parent Hamiltonians on the orbital lattice.

The two-body repulsion is fixed by a form factor F built from Hermite
polynomials; the full interaction is assembled both as a sum over
momentum-conserving quadruples and as a sum of bond operators B_s*B_s
over half-integer bond centers (iterated as integer doubled centers).

A momentum sector is enumerated directly, by the array search of
:func:`~laughlin.lattice.configurations` that also lists the admissible
configurations of the expansion, so its cap counts the sector and not
the whole layer: the ground sector of p=3, N=8 has 8,512 states in a
layer of 319,770.  Both assemblies are array passes over the sector's
occupation column: each operator of a string acts on every basis row
at once (an occupied/empty mask, a fermionic sign from the parity of a
prefix count, bosonic square-root factors), and the images are found
in the basis by their packed occupation keys.  The bond form is A^T A,
with one row of A per image of a bond.

Spectra, and the kernel of the ground-state check at every dimension,
come from ARPACK's implicitly restarted Lanczos from a seeded vector.

The module also builds two truncations with exactly known ground
states, the monomer-dimer Hamiltonian and the nearest/next-nearest
repulsion whose kernel is the one-particle-every-three-sites state,
plus the ground-state perturbation series seeded by the latter.

Operator convention: a basis label is the sorted orbital tuple m, and
|m> carries the creation operators in ascending orbital order.  In
operator strings the rightmost factor acts first; fermionic signs
count occupied orbitals below the acted site.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement

import numpy as np
from scipy import sparse
from scipy.special import eval_hermite

from .expansion import AmplitudeTable, amplitudes, expand
from .lattice import (CapExceeded, ConfigError, ModelParams, config_tuples,
                      configurations, find_keys, occupation_rows,
                      total_momentum)

DEFAULT_SECTOR_CAP = 200_000


# -- form factor ---------------------------------------------------------------

def hermite_value(n: int, t: float) -> float:
    """Physicists' Hermite polynomial H_n(t)."""
    if n < 0:
        raise ConfigError("Hermite index must be nonnegative")
    return float(eval_hermite(n, t))


@dataclass(frozen=True)
class FormFactor:
    """Gaussian-damped pair form factor F(t) = sum_n H_n(t) e^{-t^2/4}.

    The ``parity`` variant keeps only n < p with n = p mod 2; the
    ``full`` variant keeps every n < p.  Both give the same pair
    operators: the wrong-parity terms cancel when contracted with
    (anti)symmetric pairs.
    """

    p: int
    variant: str = "parity"

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError("p must be positive")
        if self.variant not in ("parity", "full"):
            raise ConfigError(f"unknown form factor variant {self.variant!r}")

    @property
    def indices(self) -> tuple[int, ...]:
        if self.variant == "full":
            return tuple(range(self.p))
        return tuple(n for n in range(self.p) if n % 2 == self.p % 2)

    def __call__(self, t: float) -> float:
        damp = math.exp(-0.25 * t * t)
        return sum(hermite_value(n, t) for n in self.indices) * damp


# -- sector bases ----------------------------------------------------------------

def _key_base(p: int, N: int, num_sites: int) -> int:
    """Radix of the packed occupation keys: one more than the largest
    occupation number.  Raises before the packing could overflow int64."""
    base = 2 if p % 2 == 1 else N + 1
    if base ** num_sites > np.iinfo(np.int64).max:
        raise CapExceeded(f"occupation keys of {num_sites} sites in base "
                          f"{base} overflow 64 bits")
    return base


@dataclass(frozen=True)
class SectorBasis:
    """Deterministically ordered N-particle configurations on a lattice.

    Labels are sorted orbital tuples in lexicographic order, optionally
    restricted to one total-momentum sector.  Like the columns of a
    coefficient table, the arrays are computed on first use, row i for
    the i-th label:

    * ``occupations``: the occupation numbers of every site, (D, sites) int8;
    * ``keys``: each occupation row packed into one int64, the negated
      number whose base-b digits (b = 2 for fermions, N + 1 for bosons)
      are the occupations, site 0 the most significant.  Of two labels,
      the lexicographically smaller has more particles on the first site
      where they differ, so keys increase strictly along the basis; and
      an operator string shifts the key of every row it acts on by the
      same amount.
    """

    p: int
    N: int
    num_sites: int
    momentum: int | None
    configs: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.configs)

    @cached_property
    def digits(self) -> np.ndarray:
        """Key weight of one particle on each site."""
        base = _key_base(self.p, self.N, self.num_sites)
        return -(base ** np.arange(self.num_sites - 1, -1, -1,
                                   dtype=np.int64))

    @cached_property
    def occupations(self) -> np.ndarray:
        configs = np.array(self.configs, dtype=np.int64)
        return occupation_rows(configs, self.num_sites)

    @cached_property
    def keys(self) -> np.ndarray:
        return self.occupations @ self.digits

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Basis index of each packed occupation row, -1 where it is not a
        basis state."""
        return find_keys(self.keys, keys)

    def vector(self, configs, values) -> np.ndarray:
        """Dense vector with values[i] on the label configs[i]."""
        configs = np.asarray(configs, dtype=np.int64).reshape(-1, self.N)
        rows = self.find(self.digits[configs].sum(axis=1))
        if np.any(rows < 0):
            raise ConfigError("configuration outside the basis")
        v = np.zeros(self.dim)
        v[rows] = values
        return v


def sector_basis(params: ModelParams, momentum: int | None = None,
                 cap: int = DEFAULT_SECTOR_CAP) -> SectorBasis:
    """Enumerate the N-particle layer on {0..p(N-1)}, or one momentum sector.

    A momentum sector is enumerated directly, and the cap applies to its
    own dimension; the whole layer is capped before it is enumerated.
    """
    p, N = params.p, params.N
    sites = p * (N - 1) + 1
    _key_base(p, N, sites)  # refuse a basis its keys cannot pack
    if momentum is not None:
        configs = config_tuples(configurations(N, sites, momentum,
                                               params.fermionic, limit=cap))
    else:
        if params.fermionic:
            count = math.comb(sites, N)
            pool = combinations(range(sites), N)
        else:
            count = math.comb(sites + N - 1, N)
            pool = combinations_with_replacement(range(sites), N)
        if count > cap:
            raise CapExceeded(f"layer dimension {count} exceeds cap {cap}")
        configs = list(pool)
    if not configs:
        raise ConfigError("empty sector")
    return SectorBasis(p=p, N=N, num_sites=sites, momentum=momentum,
                       configs=tuple(configs))


# -- sparse assembly --------------------------------------------------------------

# Basis rows times operator strings handled per batch in _images: about
# 1 MB per int64 array of the batch.
_BATCH = 1 << 17


def _images(basis: SectorBasis, creation, annihilation, fermionic: bool):
    """Apply each string c*_{creation} ... c_{annihilation} to every basis row.

    ``creation`` and ``annihilation`` are (T, k) site arrays in
    left-to-right operator order, so the rightmost operator acts first.
    Yields, batch by batch, the (row, string) pairs the strings do not
    annihilate as flat arrays: ``col`` the basis row acted on, ``term``
    the string, ``key`` the packed occupation row of the image and
    ``factor`` the matrix element.
    Fermionic signs count the occupied orbitals below the acted site;
    bosonic factors are sqrt(n) and sqrt(n + 1).
    """
    ops = [(annihilation[:, j], -1)
           for j in reversed(range(annihilation.shape[1]))]
    ops += [(creation[:, j], 1) for j in reversed(range(creation.shape[1]))]
    # Occupation changes the earlier operators of a string made at, and
    # below, the site of each operator.
    same, lower = [], []
    for i, (site, _) in enumerate(ops):
        same.append(sum((s * (prev == site) for prev, s in ops[:i]),
                        np.zeros(len(site), dtype=np.int64)))
        lower.append(sum((s * (prev < site) for prev, s in ops[:i]),
                         np.zeros(len(site), dtype=np.int64)))
    shift = sum((s * basis.digits[site] for site, s in ops),
                np.zeros(len(annihilation), dtype=np.int64))

    def allowed(n, step):
        return n > 0 if step < 0 else n == 0 if fermionic else n >= 0

    occ = basis.occupations
    below = (occ.cumsum(axis=1) - occ).ravel()
    flat = occ.ravel()
    sites = basis.num_sites
    batch = max(1, _BATCH // basis.dim)
    for lo in range(0, len(annihilation), batch):
        # The first operator sees the basis rows unchanged: pick the rows
        # it keeps from one dense block, then follow only those.
        site0, step0 = ops[0]
        col, term = np.nonzero(allowed(occ[:, site0[lo:lo + batch]], step0))
        term += lo
        acc = np.zeros(col.size, dtype=np.int64) if fermionic else \
            np.ones(col.size, dtype=np.int64)
        for i, ((site, step), dsame, dlower) in enumerate(
                zip(ops, same, lower)):
            at = col * sites + site[term]
            n = flat[at] + dsame[term]
            if i:
                keep = allowed(n, step)
                col, term, acc, at, n = (col[keep], term[keep], acc[keep],
                                         at[keep], n[keep])
            if fermionic:
                acc += below[at] + dlower[term]
            else:
                acc *= n if step < 0 else n + 1
        factor = 1.0 - 2.0 * (acc & 1) if fermionic else np.sqrt(acc)
        yield col, term, basis.keys[col] + shift[term], factor


def _operator_from_terms(basis: SectorBasis, terms, fermionic: bool
                         ) -> sparse.csr_matrix:
    """Assemble sum_t coeff_t c*...c*... c...c from (creation, annihilation, coeff)."""
    creation, annihilation, coeff = zip(*terms)
    coeff = np.array(coeff)
    rows, cols, vals = [], [], []
    for col, term, key, factor in _images(
            basis, np.array(creation, dtype=np.intp),
            np.array(annihilation, dtype=np.intp), fermionic):
        row = basis.find(key)
        keep = row >= 0
        rows.append(row[keep].astype(np.int32))
        cols.append(col[keep].astype(np.int32))
        vals.append(coeff[term[keep]] * factor[keep])
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim))
    return mat.tocsr()


def _bond_annihilators(basis: SectorBasis, F: FormFactor, gamma: float):
    """For each doubled bond center 2s, the terms of B_s = sum_k F(2k*gamma) c_{s-k} c_{s+k}.

    The offset k runs over both signs (and zero for bosons), so the
    adjoint pairs B_s* B_s reproduce the quadruple sum exactly.
    """
    sites = basis.num_sites
    bonds = []
    for S in range(2 * sites - 1):
        terms = []
        for a in range(max(0, S - sites + 1), min(S, sites - 1) + 1):
            b = S - a
            coeff = F((b - a) * gamma)
            if coeff != 0.0:
                terms.append(((a, b), coeff))
        if terms:
            bonds.append(terms)
    return bonds


def _gram_build(basis: SectorBasis, bonds, fermionic: bool
                ) -> sparse.csr_matrix:
    """Assemble sum_s B_s* B_s as A^T A.

    Row (s, n) of A holds <n|B_s|m> over the basis states m, one row per
    distinct image n of a bond s.
    """
    rows, cols, vals = [], [], []
    count = 0
    for terms in bonds:
        pairs = np.array([pair for pair, _ in terms], dtype=np.intp)
        coeff = np.array([c for _, c in terms])
        col, term, key, factor = (np.concatenate(parts) for parts in zip(
            *_images(basis, np.zeros((len(pairs), 0), dtype=np.intp), pairs,
                     fermionic)))
        images, row = np.unique(key, return_inverse=True)
        rows.append(row + count)
        cols.append(col)
        vals.append(coeff[term] * factor)
        count += images.size
    A = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                  np.concatenate(cols))),
                          shape=(count, basis.dim))
    return (A.T @ A).tocsr()


@dataclass
class HBuild:
    """Both assemblies of the repulsion, with their entrywise deviation."""

    basis: SectorBasis
    pair: sparse.csr_matrix
    bond: sparse.csr_matrix
    deviation: float
    seconds: dict[str, float]  # wall time of the "pair" and "bond" routes

    @property
    def H(self) -> sparse.csr_matrix:
        return self.bond


def build_H(params: ModelParams, basis: SectorBasis | None = None,
            variant: str = "parity", cap: int = DEFAULT_SECTOR_CAP) -> HBuild:
    """Assemble the repulsion twice: quadruple sum and bond squares.

    Quadruple route: sum over ordered (k1, k2, n1, n2) with
    k1 + k2 = n1 + n2 of F((k1-k2)g) F((n1-n2)g) c*_{k1} c*_{k2} c_{n2} c_{n1}.
    Bond route: sum_s B_s* B_s over doubled centers.  The two agree
    entrywise up to rounding; the bond form is returned as ``H``
    because its positivity is manifest.
    """
    if basis is None:
        basis = sector_basis(params, cap=cap)
    F = FormFactor(params.p, variant)
    g = params.gamma
    fermionic = params.fermionic
    sites = basis.num_sites

    t0 = time.perf_counter()
    f = {d: F(d * g) for d in range(1 - sites, sites)}
    terms = []
    for S in range(2 * sites - 1):
        modes = [(a, S - a) for a in range(max(0, S - sites + 1),
                                           min(S, sites - 1) + 1)]
        for k1, k2 in modes:
            fk = f[k1 - k2]
            if fk == 0.0:
                continue
            for n1, n2 in modes:
                fn = f[n1 - n2]
                if fn != 0.0:
                    terms.append(((k1, k2), (n2, n1), fk * fn))
    pair = _operator_from_terms(basis, terms, fermionic)
    t1 = time.perf_counter()
    bond = _gram_build(basis, _bond_annihilators(basis, F, g), fermionic)
    t2 = time.perf_counter()
    dev = abs(pair - bond).max() if basis.dim else 0.0
    return HBuild(basis=basis, pair=pair, bond=bond, deviation=float(dev),
                  seconds={"pair": t1 - t0, "bond": t2 - t1})


# -- spectra and ground-state checks ----------------------------------------------

# Least number of ARPACK's Lanczos vectors: with its default of 20, two
# eigenvalues of the p=3, N=8 ground sector do not converge in 600
# restarts; with 41 they take 0.9 s.
_NCV = 41
_KERNEL_COUNT = 40  # lowest eigenvalues ground_check examines
_KERNEL_CUT = 1e-10  # its kernel cut at unit scale


def spectrum(H, count: int = 6, maxiter: int = 600, tol: float = 1e-11,
             seed: int = 1234) -> np.ndarray:
    """Lowest eigenvalues of a symmetric operator, ascending.

    ARPACK's implicitly restarted Lanczos (``eigsh``) with ``tol`` its
    relative accuracy of the Ritz values and ``maxiter`` its limit on
    restarts; the start vector comes from a fixed-seed generator, so
    repeated runs agree far below the tolerance.  Raises
    ``ArpackNoConvergence`` (a ``RuntimeError``) if the requested values
    have not converged.  Where ARPACK cannot run (count >= dim - 1) the
    dense eigensolver takes over.
    """
    from scipy.sparse.linalg import eigsh  # 0.08 s: import only to solve

    H = sparse.csr_matrix(H)
    dim = H.shape[0]
    if dim == 0 or count < 1:
        raise ConfigError("spectrum needs a nonempty operator and count >= 1")
    count = min(count, dim)
    if count >= dim - 1:
        return np.linalg.eigvalsh(H.toarray())[:count]
    v0 = np.random.default_rng(seed).standard_normal(dim)
    vals = eigsh(H, k=count, which="SA", v0=v0, maxiter=maxiter, tol=tol,
                 ncv=min(dim, max(2 * count + 1, _NCV)),
                 return_eigenvectors=False)
    return np.sort(vals)


@dataclass(frozen=True)
class GroundReport:
    residual: float
    kernel_dim: int
    min_eigenvalue: float


def ground_check(H, psi: np.ndarray) -> GroundReport:
    """Relative residual |H psi| / |psi| and the kernel dimension: how
    many of the lowest 40 eigenvalues lie within max(1e-10, 1e-12 scale)
    of zero, scale the largest of their magnitudes and 1."""
    H = sparse.csr_matrix(H)
    psi = np.asarray(psi, dtype=float)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ConfigError("zero vector has no residual")
    residual = float(np.linalg.norm(H @ psi) / norm)
    vals = spectrum(H, count=_KERNEL_COUNT)
    scale = max(abs(vals[0]), abs(vals[-1]), 1.0)
    cut = max(_KERNEL_CUT, 1e-12 * scale)
    kernel = int(np.sum(np.abs(vals) <= cut))
    return GroundReport(residual=residual, kernel_dim=kernel,
                        min_eigenvalue=float(vals[0]))


def exact_vector(basis: SectorBasis, amp: AmplitudeTable) -> np.ndarray:
    """Amplitude table as a dense vector on the normalized Fock basis."""
    if amp.p != basis.p or amp.N != basis.N:
        raise ConfigError("amplitude table and basis disagree")
    return basis.vector(amp.table.configs, amp.occ)


# -- monomer-dimer model (p = 3) ---------------------------------------------------

def _require_p3(params: ModelParams):
    if params.p != 3:
        raise ConfigError("defined at filling 1/3 only")


@dataclass
class MonomerDimer:
    basis: SectorBasis
    H: sparse.csr_matrix
    deviation: float
    psi: np.ndarray
    num_terms: int


def build_monomer_dimer(params: ModelParams,
                        basis: SectorBasis | None = None) -> MonomerDimer:
    """Truncated-range Hamiltonian and its monomer-dimer ground state.

    Keeping only pair distances <= 3 in the repulsion (and dividing out
    the overall 16 gamma^2 e^{-gamma^2/2}) leaves per-site terms
    4 e^{-3g^2/2} n_j n_{j+2} plus the square of
    M_j = c_{j+2} c_{j+1} + 3 e^{-2g^2} c_{j+3} c_j.  The ground state
    sums over monomer-dimer tilings of the rods: a monomer places one
    particle at 3k, a dimer places the pair (3k+1, 3k+2) with
    coefficient -3 e^{-2g^2}.
    """
    _require_p3(params)
    if basis is None:
        basis = sector_basis(params)
    g2 = params.gamma ** 2
    hop = 3.0 * math.exp(-2.0 * g2)
    nnn = 4.0 * math.exp(-1.5 * g2)
    sites = basis.num_sites

    diag_terms = [((k, k + 2), (k + 2, k), nnn)
                  for k in range(sites - 2)]
    H = _operator_from_terms(basis, diag_terms, True)
    bonds = []
    for j in range(-1, sites - 2):
        terms = []
        if 0 <= j + 1 and j + 2 < sites:
            terms.append(((j + 2, j + 1), 1.0))
        if 0 <= j and j + 3 < sites:
            terms.append(((j + 3, j), hop))
        if terms:
            bonds.append(terms)
    H = H + _gram_build(basis, bonds, True)

    expanded = list(diag_terms)
    for k in range(sites - 1):
        expanded.append(((k, k + 1), (k + 1, k), 1.0))
    for k in range(sites - 3):
        expanded.append(((k, k + 3), (k + 3, k), hop * hop))
        expanded.append(((k + 1, k + 2), (k + 3, k), hop))
        expanded.append(((k, k + 3), (k + 2, k + 1), hop))
    direct = _operator_from_terms(basis, expanded, True)
    dev = float(abs(H - direct).max())

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
    return MonomerDimer(basis=basis, H=H, deviation=dev, psi=psi,
                        num_terms=len(coeffs))


# -- nearest/next-nearest truncation and the perturbation series -------------------

def tt_energies(basis: SectorBasis, gamma: float) -> np.ndarray:
    """Diagonal of the nearest/next-nearest repulsion on the basis."""
    e1 = math.exp(-0.5 * gamma * gamma)
    e2 = 4.0 * math.exp(-2.0 * gamma * gamma)
    occ = basis.occupations.astype(np.int64)
    near = (occ[:, :-1] * occ[:, 1:]).sum(axis=1)
    next_near = (occ[:, :-2] * occ[:, 2:]).sum(axis=1)
    return e1 * near + e2 * next_near


def build_HTT(params: ModelParams, basis: SectorBasis | None = None
              ) -> sparse.csr_matrix:
    """Diagonal nearest/next-nearest repulsion (p = 3 truncation)."""
    _require_p3(params)
    if basis is None:
        basis = sector_basis(params)
    return sparse.diags(tt_energies(basis, params.gamma)).tocsr()


def tao_thouless(params: ModelParams, basis: SectorBasis) -> np.ndarray:
    """The one-particle-every-three-sites occupation state as a vector."""
    _require_p3(params)
    root = tuple(3 * k for k in range(params.N))
    return basis.vector([root], [1.0])


@dataclass(frozen=True)
class PerturbationReport:
    distances: tuple[float, ...]
    vector: np.ndarray
    basis: SectorBasis

    @property
    def decreasing(self) -> bool:
        d = self.distances
        return all(d[i + 1] < d[i] for i in range(len(d) - 1))


def perturbation_series(params: ModelParams, order: int,
                        amp: AmplitudeTable | None = None,
                        cache_dir=None, build: HBuild | None = None
                        ) -> PerturbationReport:
    """Partial sums of the zero-energy perturbation series around the
    one-particle-per-rod state, with per-order distances to the exact
    ground state.

    The perturbation is V = H/(16 g^2) - H_nn, the repulsion beyond the
    nearest/next-nearest truncation; each order applies -(QD^{-1}Q)V to
    the previous term, where D is the truncated diagonal and Q projects
    off the seed.  Distances are Euclidean against the exact amplitude
    vector in the gauge where both have unit seed coefficient.

    ``build`` is a ready assembly of H in the ground momentum sector of
    ``params``; without it the sector and H are built here.
    """
    _require_p3(params)
    if order < 0:
        raise ConfigError("order must be nonnegative")
    ground = total_momentum(params.p, params.N)
    if build is None:
        basis = sector_basis(params, momentum=ground)
    else:
        basis = build.basis
    if (basis.p, basis.N, basis.momentum) != (params.p, params.N, ground):
        raise ConfigError("perturbation series needs the ground momentum "
                          f"sector {ground} of p={params.p}, N={params.N}")
    if amp is None:
        amp = amplitudes(expand(params.p, params.N, cache_dir=cache_dir),
                         params.gamma)
    exact = exact_vector(basis, amp)

    seed = tao_thouless(params, basis)
    i_seed = int(np.argmax(seed))
    energies = tt_energies(basis, params.gamma)
    others = np.ones(basis.dim, dtype=bool)
    others[i_seed] = False
    if np.any(energies[others] <= 1e-14):
        raise ConfigError("degenerate truncated diagonal; series undefined")

    if build is None:
        build = build_H(params, basis=basis)
    Hfull = build.H / (16.0 * params.gamma ** 2)
    V = Hfull - sparse.diags(energies).tocsr()

    term = seed.copy()
    partial = seed.copy()
    distances = [float(np.linalg.norm(partial - exact))]
    for _ in range(order):
        w = V @ term
        w[i_seed] = 0.0
        w[others] /= energies[others]
        w = -w
        w[i_seed] = 0.0
        term = w
        partial = partial + term
        distances.append(float(np.linalg.norm(partial - exact)))
    return PerturbationReport(distances=tuple(distances), vector=partial,
                              basis=basis)
