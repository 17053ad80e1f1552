"""Orbital-lattice bookkeeping for Laughlin states on a cylinder.

A filling-1/p Laughlin state of N particles lives on the one-particle
orbital lattice {0, ..., pN-p}.  Everything in this module is integer
combinatorics on that lattice: orbital configurations (sorted tuples of
orbital indices), occupation configurations (per-site particle counts),
the dominance/admissibility condition, renewal points of a configuration,
and partitions of the site block {0, ..., pN-1} into rods of length p*n.

One depth-first search, :func:`configurations`, lists the configurations
of a fixed orbital sum in lexicographic order: a momentum sector of the
parent Hamiltonian or, under the dominance floor, the admissible set.

Conventions
-----------
* An orbital configuration is stored canonically as a weakly increasing
  tuple ``m = (m_1, ..., m_N)``.  For fermions (p odd) nonzero amplitudes
  are strictly increasing, but the canonical form does not enforce that.
* A renewal point of ``m`` is a value pk, 0 <= k <= N, with
  ``m_1 + ... + m_k == p*k*(k-1)/2``; k = 0 and k = N always qualify.
* Rod partitions split {0, ..., pN-1} into consecutive intervals of
  lengths ``p*n_i``; they are encoded by the composition (n_1, ..., n_D).
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
DEFAULT_N_CAP = {1: 10, 2: 10, 3: 8}


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
    def num_orbitals(self) -> int:
        """Number of sites of the one-particle lattice {0, ..., pN-p}."""
        return self.p * (self.N - 1) + 1

    @property
    def orbitals(self) -> range:
        return range(self.num_orbitals)

    @property
    def root_config(self) -> tuple[int, ...]:
        """The maximally spread configuration (0, p, 2p, ...)."""
        return tuple(self.p * j for j in range(self.N))

    @property
    def radius(self) -> float:
        return 1.0 / self.gamma

    @property
    def circumference(self) -> float:
        return 2.0 * math.pi / self.gamma


def staircase(p: int, k: int) -> int:
    """Minimal admissible partial sum p*k*(k-1)/2 of the first k orbitals."""
    return p * k * (k - 1) // 2


def total_momentum(p: int, N: int) -> int:
    """Sum of orbital indices common to every nonzero configuration."""
    return staircase(p, N)


def is_canonical(m: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(m, m[1:]))


def is_admissible(m: tuple[int, ...], p: int) -> bool:
    """Dominance test for a canonical configuration.

    Every partial sum of the weakly increasing tuple ``m`` must sit on or
    above the staircase p*k*(k-1)/2, with equality for the full sum.
    Nonzero expansion coefficients occur only on admissible configurations.
    """
    if not is_canonical(m):
        raise ConfigError(f"configuration {m} is not sorted")
    if m and m[0] < 0:
        return False
    s = 0
    for k, mk in enumerate(m, start=1):
        s += mk
        if s < staircase(p, k):
            return False
    return s == staircase(p, len(m))


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


@dataclass(frozen=True)
class RodPartition:
    """Partition of the site block {0, ..., pN-1} into consecutive rods.

    ``lengths`` is the composition (n_1, ..., n_D) of N; rod i covers the
    p*n_i sites starting right after rod i-1.
    """

    p: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths or any(n < 1 for n in self.lengths):
            raise ConfigError(f"invalid rod lengths {self.lengths}")

    @property
    def N(self) -> int:
        return sum(self.lengths)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Renewal points 0 = b_0 < b_1 < ... < b_D = pN delimiting the rods."""
        out = [0]
        for n in self.lengths:
            out.append(out[-1] + self.p * n)
        return tuple(out)


def partition_of(m: tuple[int, ...], p: int) -> RodPartition:
    """Rod partition generated by the renewal points of ``m``."""
    pts = renewal_points(m, p)
    lengths = tuple((b - a) // p for a, b in zip(pts, pts[1:]))
    return RodPartition(p, lengths)


def enumerate_partitions(N: int, cap: int = 20) -> list[tuple[int, ...]]:
    """All 2**(N-1) compositions of N, in lexicographic order."""
    if N > cap:
        raise CapExceeded(f"2**{N - 1} compositions exceed the cap (N={N} > {cap})")

    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for first in range(1, remaining + 1):
            rec(prefix + [first], remaining - first)

    rec([], N)
    return out


def translate_config(m: tuple[int, ...], p: int, shift: int) -> tuple[int, ...]:
    """Shift a configuration by ``shift`` rod units (p orbitals each)."""
    return tuple(mj + p * shift for mj in m)


def configurations(N: int, sites: int, total: int, fermionic: bool,
                   floor: int = 0, limit: int | None = None
                   ) -> list[tuple[int, ...]]:
    """The N-particle configurations on orbitals 0..sites-1 with orbital
    sum ``total``, in lexicographic order.

    Tuples increase strictly for fermions and weakly for bosons, and
    their first k entries sum to at least staircase(floor, k) for every
    k: ``floor=p`` is the dominance condition of :func:`is_admissible`,
    ``floor=0`` leaves a whole momentum sector.  A depth-first search
    that gives each entry only the values from which the particles
    still to place can reach ``total``.  Raises :class:`CapExceeded` as
    soon as it finds more than ``limit`` configurations.
    """
    step = 1 if fermionic else 0
    out: list[tuple[int, ...]] = []

    def place(prefix: tuple[int, ...], lo: int, s: int):
        k = len(prefix) + 1        # the entry v placed here is the k-th
        r = N - k
        # The r entries after v lie in v + step .. sites - 1, strictly
        # apart for fermions; v must leave them a sum they can reach.
        first = max(lo, staircase(floor, k) - s,
                    total - s - r * (sites - 1) + step * r * (r - 1) // 2)
        last = min(sites - 1, (total - s - step * r * (r + 1) // 2) // (r + 1))
        for v in range(first, last + 1):
            if r:
                place(prefix + (v,), v + step, s + v)
                continue
            out.append(prefix + (v,))
            if limit is not None and len(out) > limit:
                raise CapExceeded(f"more than {limit} configurations of {N} "
                                  f"particles with orbital sum {total}")

    place((), 0, 0)
    return out


def enumerate_admissible(p: int, N: int, cap: int | None = None
                         ) -> list[tuple[int, ...]]:
    """All admissible canonical configurations, lexicographically ordered:
    the ground momentum sector under the dominance floor, for N within
    the cap of :func:`check_cap`."""
    check_cap(p, N, cap)
    return configurations(N, p * (N - 1) + 1, staircase(p, N), p % 2 == 1,
                          floor=p)


def occupation_rows(configs: np.ndarray, num_sites: int) -> np.ndarray:
    """Occupation numbers of sites 0..num_sites-1 for each row of a (D, N)
    array of orbital configurations, as a (D, num_sites) int8 array."""
    count = len(configs)
    flat = np.arange(count)[:, None] * num_sites + configs
    counts = np.bincount(flat.ravel(), minlength=count * num_sites)
    return counts.astype(np.int8).reshape(count, num_sites)


def find_keys(keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of each target in the increasing array ``keys``, -1 where it
    is absent: the lookup of configurations by packed occupation keys."""
    pos = np.minimum(np.searchsorted(keys, targets), len(keys) - 1)
    return np.where(keys[pos] == targets, pos, -1)


def config_to_occupation(m: tuple[int, ...], num_sites: int) -> tuple[int, ...]:
    n = [0] * num_sites
    for mj in m:
        if not 0 <= mj < num_sites:
            raise ConfigError(f"orbital {mj} outside lattice of {num_sites} sites")
        n[mj] += 1
    return tuple(n)


def occupation_to_config(n: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for site, nk in enumerate(n):
        out.extend([site] * nk)
    return tuple(out)
