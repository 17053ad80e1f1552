"""Gamma-free moment tables: per-exponent sums over a coefficient table.

Every input of the renewal model and of the bulk correlations is a sum
over the rows of a coefficient table of

    (c^2 / prod n_k!) x^e g(n),    x = exp(-gamma^2),

with c the row's coefficient, e its ``exponents`` entry and n its
occupation row: the norm C_N takes g = 1 over all rows, the
irreducible weight alpha_N g = 1 over the ``irreducible`` rows, the
finite occupations g = n over all rows, and the rod profile and rod
pair moments g = n and g = n n^T over the irreducible rows.  Neither c
nor e depends on gamma, so a :class:`MomentTable` sums the rows once per
distinct exponent (146 exponents for the 5,294 rows at p=3, N=8), and
evaluating it at a gamma costs one ``math.exp(-gamma^2 e)`` per exponent
and a product with these sums.

The g = 1 sums are exact: integer numerators over one common
denominator, N! for bosons (N!/prod n_k! is a multinomial coefficient)
and 1 for fermions, so the renewal identity between the alpha_n and the
C_N can be checked without rounding.  The other sums are float64.

A moment file ``moments_p<p>_N<N>.bin`` sits in the cache beside the
coefficient file ``coeff_p<p>_N<N>.txt`` it was derived from.  It holds
four text lines (header, exponents, the two exact numerator lists), the
float64 sums as little-endian bytes, and a trailing
``checksum=<sha256>`` line over everything before it.  The header
records the SHA-256 of the coefficient file, so a moment file that no
longer matches its coefficient file is rejected as stale; the digest
lives in the file only, so a table read from the cache and one derived
in memory are the same value.  Files are written atomically and their
bytes depend only on the table and its coefficient file.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from laughlin.expansion import (CacheError, CoefficientTable, cache_path,
                                write_atomic)


@dataclass(eq=False)
class MomentTable:
    """Per-exponent sums of one coefficient table, independent of gamma.

    Row k of every array belongs to ``exponents[k]`` (increasing):

    * ``norm`` and ``alpha``: exact numerators over ``denominator`` of
      sum c^2 / prod n_k! over all rows and over the irreducible rows;
    * ``occupations``: sum c^2 / prod n_k! n over all rows, (E, pN);
    * ``rod_profile``: the same over the irreducible rows, (E, pN);
    * ``rod_pairs``: sum c^2 / prod n_k! n_s n_t over the irreducible
      rows, the upper triangle s <= t in ``np.triu_indices`` order.
    """

    p: int
    N: int
    denominator: int
    exponents: np.ndarray
    norm: tuple[int, ...]
    alpha: tuple[int, ...]
    occupations: np.ndarray
    rod_profile: np.ndarray
    rod_pairs: np.ndarray

    @cached_property
    def _norm_sums(self) -> np.ndarray:
        return np.array([n / self.denominator for n in self.norm])

    @cached_property
    def _alpha_sums(self) -> np.ndarray:
        return np.array([n / self.denominator for n in self.alpha])

    def gauss(self, gamma: float) -> np.ndarray:
        """x^e = exp(-gamma^2 e) per exponent, one ``math.exp`` each (a
        power of x would multiply the rounding of x by e)."""
        g2 = gamma * gamma
        return np.array([math.exp(-g2 * e) for e in self.exponents.tolist()])

    def norm_sq(self, gamma: float) -> float:
        """C_N = sum_n A_N(n)^2."""
        return float(self.gauss(gamma) @ self._norm_sums)

    def irreducible_weight(self, gamma: float) -> float:
        """alpha_N, the squared amplitudes of the irreducible rows."""
        return float(self.gauss(gamma) @ self._alpha_sums)

    def occupation(self, gamma: float) -> np.ndarray:
        """<n_k> for k = 0..p(N-1), normalized by C_N."""
        x = self.gauss(gamma)
        orbitals = self.p * (self.N - 1) + 1
        return x @ self.occupations[:, :orbitals] / float(x @ self._norm_sums)

    def rod(self, gamma: float) -> tuple[float, np.ndarray, np.ndarray]:
        """alpha_N and the unnormalised rod profile and (pN, pN) pair
        moments of the irreducible rows."""
        x = self.gauss(gamma)
        upper = x @ self.rod_pairs
        sites = self.p * self.N
        pair = np.zeros((sites, sites))
        I, J = np.triu_indices(sites)
        pair[I, J] = upper
        pair[J, I] = upper
        return float(x @ self._alpha_sums), x @ self.rod_profile, pair


def derive(table: CoefficientTable) -> MomentTable:
    """The moment table of a coefficient table, one pass over its rows."""
    p, N = table.p, table.N
    distinct, inverse = np.unique(table.exponents, return_inverse=True)
    denominator = 1 if p % 2 else math.factorial(N)
    scale = (denominator // table.factorials).tolist()
    norm = [0] * len(distinct)
    alpha = [0] * len(distinct)
    squares = [c * c for c in table.values.tolist()]  # exact Python ints
    for c2, k, s, irreducible in zip(squares, inverse.tolist(), scale,
                                     table.irreducible.tolist()):
        term = c2 * s
        norm[k] += term
        if irreducible:
            alpha[k] += term

    weight = np.array(squares, dtype=float) / table.factorials
    sites = p * N
    occupations = np.zeros((len(distinct), sites))
    rod_profile = np.zeros((len(distinct), sites))
    rod_pairs = np.zeros((len(distinct), sites * (sites + 1) // 2))
    I, J = np.triu_indices(sites)
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(len(distinct) + 1))
    for k in range(len(distinct)):
        rows = order[bounds[k]:bounds[k + 1]]
        w, occ = weight[rows], table.occupations[rows].astype(float)
        occupations[k] = w @ occ
        keep = table.irreducible[rows]
        w, occ = w[keep], occ[keep]
        rod_profile[k] = w @ occ
        rod_pairs[k] = w @ (occ[:, I] * occ[:, J])
    return MomentTable(p=p, N=N, denominator=denominator, exponents=distinct,
                       norm=tuple(norm), alpha=tuple(alpha),
                       occupations=occupations, rod_profile=rod_profile,
                       rod_pairs=rod_pairs)


def as_moments(tables) -> list[MomentTable]:
    """Moment tables of a list of coefficient tables, moment tables, or
    both; coefficient tables are reduced in memory."""
    return [t if isinstance(t, MomentTable) else derive(t) for t in tables]


# -- disk cache --------------------------------------------------------------

_MAGIC = "LAUGHLIN-MOMENTS v1"
_TRAILER = len("checksum=") + 64 + 1


def moment_path(cache_dir: str, p: int, N: int) -> str:
    return os.path.join(cache_dir, f"moments_p{p}_N{N}.bin")


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def save_moments(moments: MomentTable, path: str, source_sha256: str) -> None:
    """Write a moment table in the cache format (see the module docstring),
    its header naming ``source_sha256``, the digest of its coefficient
    file."""
    if not source_sha256:
        raise ValueError("a moment file needs the digest of its source")
    lines = [f"{_MAGIC} p={moments.p} N={moments.N} "
             f"exponents={len(moments.exponents)} "
             f"denominator={moments.denominator} "
             f"source={source_sha256}",
             ",".join(map(str, moments.exponents.tolist())),
             ",".join(map(str, moments.norm)),
             ",".join(map(str, moments.alpha))]
    arrays = moments.occupations, moments.rod_profile, moments.rod_pairs
    body = ("\n".join(lines) + "\n").encode() + b"".join(
        a.astype("<f8").tobytes() for a in arrays)
    write_atomic(path, body + f"checksum={hashlib.sha256(body).hexdigest()}\n"
                 .encode())


def load_moments(path: str, source: str, expected_p: int,
                 expected_N: int) -> MomentTable:
    """Read and validate a moment file derived from the coefficient file
    ``source``; any fault, including a digest that does not match the
    coefficient file, raises :class:`CacheError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_MAGIC.encode() + b" "):
        raise CacheError(f"{path}: bad magic {data[:40]!r}")
    body, trailer = data[:-_TRAILER], data[-_TRAILER:]
    if not trailer.startswith(b"checksum="):
        raise CacheError(f"{path}: missing checksum line")
    if trailer[9:-1] != hashlib.sha256(body).hexdigest().encode():
        raise CacheError(f"{path}: checksum mismatch")
    try:
        head, expo, norm, alpha, payload = body.split(b"\n", 4)
        fields = dict(part.split("=") for part in head.decode().split()[2:])
        p, N = int(fields["p"]), int(fields["N"])
        count = int(fields["exponents"])
        denominator = int(fields["denominator"])
        digest = fields["source"]
        exponents = np.array(list(map(int, expo.split(b","))), dtype=np.int64)
        norm = tuple(map(int, norm.split(b",")))
        alpha = tuple(map(int, alpha.split(b",")))
    except (KeyError, ValueError, OverflowError) as exc:
        raise CacheError(f"{path}: malformed header") from exc
    if (p, N) != (expected_p, expected_N):
        raise CacheError(f"{path}: header p={p} N={N}, expected "
                         f"p={expected_p} N={expected_N}")
    sites = p * N
    widths = (sites, sites, sites * (sites + 1) // 2)
    if (denominator != (1 if p % 2 else math.factorial(N))
            or not len(exponents) == len(norm) == len(alpha) == count
            or len(payload) != 8 * count * sum(widths)):
        raise CacheError(f"{path}: sizes disagree with the header")
    # The root row (exponent 0, coefficient 1) and nonnegative sums.
    if (exponents[0] != 0 or norm[0] != denominator
            or (np.diff(exponents) <= 0).any()
            or min(norm) <= 0 or min(alpha) < 0):
        raise CacheError(f"{path}: invalid exponents or exact sums")
    flat = np.frombuffer(payload, dtype="<f8").astype(float)
    if not (np.isfinite(flat).all() and (flat >= 0).all()):
        raise CacheError(f"{path}: invalid float sums")
    arrays = np.split(flat, np.cumsum([count * w for w in widths])[:-1])
    if not os.path.exists(source):
        raise CacheError(f"{path}: its coefficient file {source} is missing")
    if file_sha256(source) != digest:
        raise CacheError(f"{path}: stale, derived from another {source}")
    occupations, rod_profile, rod_pairs = (
        a.reshape(count, w) for a, w in zip(arrays, widths))
    return MomentTable(p=p, N=N, denominator=denominator, exponents=exponents,
                       norm=norm, alpha=alpha, occupations=occupations,
                       rod_profile=rod_profile, rod_pairs=rod_pairs)


def store(table: CoefficientTable, cache_dir: str) -> MomentTable:
    """Derive the moment table of a cached coefficient table and write it
    beside the coefficient file."""
    source = cache_path(cache_dir, table.p, table.N)
    moments = derive(table)
    save_moments(moments, moment_path(cache_dir, table.p, table.N),
                 file_sha256(source))
    return moments


def read(cache_dir: str, p: int, N: int) -> MomentTable:
    """The cached moment table of (p, N), checked against its coefficient
    file."""
    return load_moments(moment_path(cache_dir, p, N),
                        cache_path(cache_dir, p, N), p, N)
