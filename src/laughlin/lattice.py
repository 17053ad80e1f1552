"""Orbital-lattice bookkeeping for Laughlin states on a cylinder.

A filling-1/p Laughlin state of N particles lives on the one-particle
orbital lattice {0, ..., pN-p}.  Everything in this module is integer
combinatorics on that lattice: orbital configurations (the rows of a
(D, N) array of orbital indices), their occupation rows (per-site
particle counts, :func:`occupation_rows`), the dominance condition that
makes a configuration admissible, renewal points of one configuration,
and the compositions of N that split the site block {0, ..., pN-1} into
rods of length p*n.

One search, :func:`configurations`, lists the configurations
of a fixed orbital sum in lexicographic order: a momentum sector of the
parent Hamiltonian or, under the dominance floor, the admissible set.
One index, :class:`ConfigIndex`, finds a configuration among the rows
of such an array by its packed occupation key; the squeezing pass, the
product rule and sector bases all look rows up through it.  The index
is also the one operator engine: :meth:`ConfigIndex.images` applies
strings of creation and annihilation operators to all of its rows at
once, for the parent Hamiltonians and the finite-N correlations alike.

Conventions
-----------
* An orbital configuration is stored canonically as a weakly increasing
  row ``m = (m_1, ..., m_N)``, or as such a tuple where one configuration
  is handled alone.  For fermions (p odd) nonzero amplitudes are
  strictly increasing, but the canonical form does not enforce that.
* A configuration is admissible when every partial sum
  ``m_1 + ... + m_k`` sits on or above the staircase p*k*(k-1)/2, with
  equality for the full sum; nonzero expansion coefficients occur only
  there.  :func:`configurations` lists the admissible set under the
  floor p.
* A renewal point of ``m`` is a value pk, 0 <= k <= N, with
  ``m_1 + ... + m_k == p*k*(k-1)/2``; k = 0 and k = N always qualify.
* A rod partition splits {0, ..., pN-1} into consecutive intervals of
  lengths ``p*n_i``; it is encoded by the composition (n_1, ..., n_D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Raised for parameter values outside the model's domain."""


class CapExceeded(RuntimeError):
    """Raised when a requested computation exceeds the configured size cap."""


#: Default particle-number caps for exact enumeration, keyed by p.
#: Anything above these is refused unless the caller raises the cap
#: explicitly; coefficient growth and configuration counts blow up fast.
DEFAULT_N_CAP = {1: 10, 2: 10, 3: 10}
_PARTITION_CAP = 20  # largest N whose compositions are listed


def check_cap(p: int, N: int, cap: int | None = None) -> None:
    """Raise :class:`CapExceeded` if N is beyond the enumeration cap.

    ``cap=None`` takes the default for p from :data:`DEFAULT_N_CAP`.
    """
    if cap is None:
        cap = DEFAULT_N_CAP.get(p, 8)
    if N > cap:
        raise CapExceeded(f"N={N} exceeds the cap {cap} for p={p}; "
                          "pass a larger cap explicitly to override")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: exponent p, inverse radius gamma, particle number N.

    Lengths are in units of the magnetic length, so gamma = 1/R fixes the
    cylinder circumference 2*pi/gamma.  p odd means fermions, p even bosons.
    """

    p: int
    N: int
    gamma: float

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ConfigError(f"p must be an integer >= 1, got {self.p!r}")
        if not isinstance(self.N, int) or self.N < 1:
            raise ConfigError(f"N must be an integer >= 1, got {self.N!r}")
        if not (isinstance(self.gamma, (int, float)) and math.isfinite(self.gamma)
                and self.gamma > 0):
            raise ConfigError(f"gamma must be a finite float > 0, got {self.gamma!r}")

    @property
    def fermionic(self) -> bool:
        return self.p % 2 == 1

    @property
    def root_config(self) -> tuple[int, ...]:
        """The maximally spread configuration (0, p, 2p, ...)."""
        return tuple(self.p * j for j in range(self.N))

def staircase(p: int, k: int) -> int:
    """Minimal admissible partial sum p*k*(k-1)/2 of the first k orbitals."""
    return p * k * (k - 1) // 2


def total_momentum(p: int, N: int) -> int:
    """Sum of orbital indices common to every nonzero configuration."""
    return staircase(p, N)


def is_canonical(m: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(m, m[1:]))


def renewal_points(m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Lattice positions pk where the partial sums of ``m`` hit the staircase.

    Includes the trivial points 0 and pN.  The configuration must be
    canonical (weakly increasing); admissibility is not required, but for
    inadmissible configurations the result is not meaningful.
    """
    if not is_canonical(m):
        raise ConfigError(f"configuration {m} is not sorted")
    points = [0]
    s = 0
    for k, mk in enumerate(m, start=1):
        s += mk
        if s == staircase(p, k):
            points.append(p * k)
    return tuple(points)


def enumerate_partitions(N: int) -> list[tuple[int, ...]]:
    """All 2**(N-1) compositions of N, in lexicographic order; at most
    N = 20."""
    if N > _PARTITION_CAP:
        raise CapExceeded(f"2**{N - 1} compositions exceed the cap "
                          f"(N={N} > {_PARTITION_CAP})")

    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for first in range(1, remaining + 1):
            rec(prefix + [first], remaining - first)

    rec([], N)
    return out


def configurations(N: int, sites: int, total: int, fermionic: bool,
                   floor: int = 0, limit: int | None = None) -> np.ndarray:
    """The N-particle configurations on orbitals 0..sites-1 with orbital
    sum ``total``, in lexicographic order, as the rows of a (D, N) int64
    array.

    Rows increase strictly for fermions and weakly for bosons, and their
    first k entries sum to at least staircase(floor, k) for every k:
    ``floor=p`` is the dominance condition of the admissible set,
    ``floor=0`` leaves a whole momentum sector.  The search extends all
    prefixes of one length at once, giving each prefix the values of its
    next entry, in increasing order, from which the particles still to
    place can reach ``total``; so the rows come out in lexicographic
    order.  Without a floor every prefix completes, so the search raises
    :class:`CapExceeded` as soon as more than ``limit`` prefixes of one
    length exist, before it builds the sector.
    """
    step = 1 if fermionic else 0
    s = lo = np.zeros(1, dtype=np.int64)  # partial sum, least next entry
    values, parents = [], []
    for k in range(1, N + 1):              # place the k-th entry v
        r = N - k
        # The r entries after v lie in v + step .. sites - 1, strictly
        # apart for fermions; v must leave them a sum they can reach.
        first = np.maximum(
            np.maximum(lo, staircase(floor, k) - s),
            total - s - r * (sites - 1) + step * r * (r - 1) // 2)
        last = np.minimum(sites - 1,
                          (total - s - step * r * (r + 1) // 2) // (r + 1))
        span = np.maximum(last - first + 1, 0)
        parent = np.repeat(np.arange(span.size), span)
        v = first[parent] + (np.arange(parent.size)
                             - (np.cumsum(span) - span)[parent])
        if limit is not None and v.size > limit and (floor == 0 or r == 0):
            raise CapExceeded(f"more than {limit} configurations of {N} "
                              f"particles with orbital sum {total}")
        values.append(v)
        parents.append(parent)
        s, lo = s[parent] + v, v + step
    out = np.empty((values[-1].size, N), dtype=np.int64)
    row = np.arange(values[-1].size)
    for k in range(N - 1, -1, -1):
        out[:, k] = values[k][row]
        row = parents[k][row]
    return out


def enumerate_admissible(p: int, N: int, cap: int | None = None
                         ) -> list[tuple[int, ...]]:
    """All admissible canonical configurations, lexicographically ordered:
    the ground momentum sector under the dominance floor, for N within
    the cap of :func:`check_cap`."""
    check_cap(p, N, cap)
    return config_tuples(configurations(N, p * (N - 1) + 1, staircase(p, N),
                                        p % 2 == 1, floor=p))


def config_tuples(configs: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a (D, N) configuration array as tuples."""
    return list(zip(*configs.T.tolist()))


def occupation_rows(configs: np.ndarray, num_sites: int) -> np.ndarray:
    """Occupation numbers of sites 0..num_sites-1 for each row of a (D, N)
    array of orbital configurations, as a (D, num_sites) int8 array.

    One pass per particle column adds 1 at each row's site of that
    column in place; within a pass every row differs, so no index
    repeats, and a site several particles share adds up over passes."""
    count = len(configs)
    occ = np.zeros(count * num_sites, dtype=np.int8)
    start = np.arange(0, count * num_sites, num_sites)
    for column in configs.T:
        occ[start + column] += 1
    return occ.reshape(count, num_sites)


def find_keys(keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of each target in the increasing array ``keys``, -1 where it
    is absent: the lookup of configurations by packed occupation keys."""
    pos = np.minimum(np.searchsorted(keys, targets), len(keys) - 1)
    return np.where(keys[pos] == targets, pos, -1)


#: Exclusive bound on int64 magnitudes: the packed keys, and every sum
#: and product of the exact integer passes, stay below it.
INT64_LIMIT = 2 ** 63

# Rows times operator strings handled per batch in ConfigIndex.images:
# about 1 MB per int64 array of the batch.
_BATCH = 1 << 17


class ConfigIndex:
    """The rows of a nonempty (D, N) configuration array on sites
    0..num_sites-1, in strictly increasing lexicographic order, found
    by packed occupation keys.

    ``occupations`` holds the int8 occupation rows and ``limit`` each
    site's largest occupation.  A key is the negated mixed-radix number
    of a row's occupations, site 0 the most significant, each site's
    radix one more than its limit; ``weights`` holds the key of one
    particle on each site.  Particle number fixes the last site from
    the others, and an orbital sum that every row shares fixes the site
    before it, so those carry no digit.  The ``keys`` of the rows
    increase strictly.  A string of operators that keeps particle
    number and orbital sum, and creates nowhere past ``limit``, shifts
    a row's key by its sites' weights, and :func:`find_keys` finds the
    image; :meth:`images` applies such strings.  Raises
    :class:`CapExceeded` when the radix product reaches 2^63.
    """

    def __init__(self, configs: np.ndarray, num_sites: int):
        occ = occupation_rows(configs, num_sites)
        limit = occ.max(axis=0)
        sums = configs.sum(axis=1)
        fixed = 2 if num_sites > 1 and (sums == sums[0]).all() else 1
        radix = (limit[:num_sites - fixed] + 1).tolist()
        if (size := math.prod(radix)) >= INT64_LIMIT:
            raise CapExceeded(f"occupation keys of {configs.shape[1]} "
                              f"particles on {num_sites} sites need "
                              f"{math.log2(size):.1f} bits, past int64")
        weights = np.zeros(num_sites, dtype=np.int64)
        weights[:len(radix)] = [-math.prod(radix[s + 1:])
                                for s in range(len(radix))]
        self.configs, self.num_sites = configs, num_sites
        self.occupations, self.limit, self.weights = occ, limit, weights
        self.keys = occ @ weights

    def find(self, configs) -> np.ndarray:
        """Row of each configuration, -1 where it is none of the rows:
        off the lattice, past a site's limit, or on the key of a row
        that differs on the sites with no digit."""
        configs = np.asarray(configs, dtype=np.int64).reshape(
            -1, self.configs.shape[1])
        inside = ((configs >= 0) & (configs < self.num_sites)).all(axis=1)
        occ = occupation_rows(configs * inside[:, None], self.num_sites)
        rows = find_keys(self.keys, occ @ self.weights)
        same = (self.occupations[rows] == occ).all(axis=1)
        return np.where(inside & same, rows, -1)

    def vector(self, configs, values) -> np.ndarray:
        """Dense vector with values[i] on the row of configs[i]."""
        rows = self.find(configs)
        if np.any(rows < 0):
            raise ConfigError("configuration outside the basis")
        v = np.zeros(len(self.configs))
        v[rows] = values
        return v

    def images(self, creation, annihilation, fermionic: bool):
        """Apply each string c*_{creation} ... c_{annihilation} to every
        row.

        ``creation`` and ``annihilation`` are (T, k) site arrays in
        left-to-right operator order, so the rightmost operator acts
        first.  Yields, batch by batch of strings, the (row, string)
        pairs the strings do not annihilate as flat arrays: ``col`` the
        row acted on, ``term`` the string, ``key`` the packed occupation
        row of the image and ``factor`` the matrix element.  A creation
        is allowed while its site stays within ``limit`` (for fermions
        the Pauli rule): past it the image is none of the rows, and its
        key would carry.  Fermionic signs count the occupied orbitals
        below the acted site; bosonic factors are sqrt(n) and
        sqrt(n + 1).  :func:`find_keys` on ``keys`` finds each image.
        """
        ops = [(annihilation[:, j], -1)
               for j in reversed(range(annihilation.shape[1]))]
        ops += [(creation[:, j], 1)
                for j in reversed(range(creation.shape[1]))]
        # Occupation changes the earlier operators of a string made at,
        # and below, the site of each operator.
        same, lower = [], []
        for i, (site, _) in enumerate(ops):
            same.append(sum((s * (prev == site) for prev, s in ops[:i]),
                            np.zeros(len(site), dtype=np.int64)))
            lower.append(sum((s * (prev < site) for prev, s in ops[:i]),
                             np.zeros(len(site), dtype=np.int64)))
        shift = sum((s * self.weights[site] for site, s in ops),
                    np.zeros(len(annihilation), dtype=np.int64))

        def allowed(n, step, site):
            return n > 0 if step < 0 else n < self.limit[site]

        occ = self.occupations
        if fermionic:
            below = (occ.cumsum(axis=1) - occ).ravel()
        flat = occ.ravel()
        batch = max(1, _BATCH // len(occ))
        for lo in range(0, len(annihilation), batch):
            # The first operator sees the rows unchanged: pick the rows
            # it keeps from one dense block, then follow only those.
            site0, step0 = ops[0][0][lo:lo + batch], ops[0][1]
            col, term = np.nonzero(allowed(occ[:, site0], step0, site0))
            term += lo
            acc = np.zeros(col.size, dtype=np.int64) if fermionic else \
                np.ones(col.size, dtype=np.int64)
            for i, ((site, step), dsame, dlower) in enumerate(
                    zip(ops, same, lower)):
                at = col * self.num_sites + site[term]
                n = flat[at] + dsame[term]
                if i:
                    keep = allowed(n, step, site[term])
                    col, term, acc, at, n = (col[keep], term[keep],
                                             acc[keep], at[keep], n[keep])
                if fermionic:
                    acc += below[at] + dlower[term]
                else:
                    acc *= n if step < 0 else n + 1
            factor = 1.0 - 2.0 * (acc & 1) if fermionic else np.sqrt(acc)
            yield col, term, self.keys[col] + shift[term], factor

