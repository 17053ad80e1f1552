"""Exact orbital expansion of the cylinder Laughlin state.

The N-particle state is a Gaussian-weighted sum over orbital
configurations m = (m_1 <= ... <= m_N) on {0, ..., pN-p}:

* integer coefficients ``c_N(m)`` of the monomial basis of
  prod_{j<k} (Z_k - Z_j)^p  (Slater basis for odd p, monomial-symmetric
  basis for even p), computed exactly over the integers;
* amplitudes ``a_N(m) = c_N(m) * exp((gamma^2/2) (sum m_j^2 - p^2 S_N))``
  with S_N = sum_{j<N} j^2; the exponent is <= 0, with equality exactly at
  the root configuration (0, p, ..., pN-p), whose coefficient is +1;
* occupation amplitudes ``A_N(n) = a_N(m) / sqrt(prod_k n_k!)`` (the
  factorial correction only matters for bosons).

A :class:`CoefficientTable` computes each per-configuration quantity
once, as a column aligned with its keys, and an :class:`AmplitudeTable`
holds one amplitude array aligned with the same rows; the consumers
downstream are reductions over these columns.

Each table is computed on its own by the squeezing recursion of
Bernevig & Haldane, PRL 100, 246802 (2008), with the fermionic case of
Bernevig & Regnault, PRL 103, 206801 (2009).  The polynomial is an
eigenfunction of a Calogero-Sutherland-type operator whose off-diagonal
part only squeezes a pair of orbitals towards each other.  Visiting the
admissible configurations in decreasing sum m_j^2, starting from the
root with coefficient 1, every coefficient follows from those of the
configurations it squeezes out of:

    c(nu) = B T(nu) / (2D(root) - 2D(nu)),
    2D(nu) = 2 sum_k nu_k^2 + B sum_{i<j} (nu_j - nu_i),

with B = 1 - p for bosons and B = -p for fermions, and T(nu) the sum
over pairs i < j and 0 <= b < nu_i of w c(e), where e is nu with the
pair (nu_i, nu_j) unsqueezed to (nu_i + nu_j - b, b), sorted.  The
weight is w = 2(nu_i + nu_j - 2b) for bosons and 2(nu_i - nu_j) times
the sign of the sorting permutation for fermions.  The division is
exact; all arithmetic stays in Python integers, since the entries
overflow 64 bits already for moderate N.  Reducible configurations are
computed like all others, not filled in from the product rule, so
:func:`verify_product_rule` stays an independent check.  It and
:func:`evaluate_oracle` read ``coeffs`` directly, not the columns.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from laughlin.lattice import (ConfigError, check_cap, enumerate_admissible,
                              is_admissible, renewal_points, translate_config)


class CacheError(ValueError):
    """Raised when an on-disk coefficient table fails validation."""


@dataclass
class CoefficientTable:
    """Exact integer expansion coefficients for given (p, N).

    ``coeffs`` maps canonical configurations to nonzero integers; the
    table is independent of gamma.  The columns are computed on first
    use, row i for the i-th key, and go stale if keys change after that:

    * ``configs``: the configurations as a (D, N) integer array;
    * ``occupations``: the occupation numbers of sites 0..pN-1, (D, pN);
    * ``exponents``: e = p^2 S_N - sum m_j^2 >= 0, so a_N(m) carries
      exp(-gamma^2 e / 2) and A_N(n)^2 carries x^e, x = exp(-gamma^2);
    * ``factorials``: prod_k n_k!;
    * ``renewal``: (D, N+1) booleans, column k marking the renewal
      point pk, and ``irreducible``: the rows with no interior one.
    """

    p: int
    N: int
    coeffs: dict[tuple[int, ...], int]

    def __post_init__(self):
        root = tuple(self.p * j for j in range(self.N))
        if self.coeffs.get(root) != 1:
            raise ConfigError(
                f"root configuration {root} must carry coefficient +1")

    @property
    def root_config(self) -> tuple[int, ...]:
        return tuple(self.p * j for j in range(self.N))

    def __len__(self) -> int:
        return len(self.coeffs)

    @cached_property
    def configs(self) -> np.ndarray:
        return np.array(list(self.coeffs), dtype=np.int64)

    @cached_property
    def occupations(self) -> np.ndarray:
        sites = self.p * self.N
        flat = np.arange(len(self))[:, None] * sites + self.configs
        counts = np.bincount(flat.ravel(), minlength=len(self) * sites)
        return counts.astype(np.int8).reshape(len(self), sites)

    @cached_property
    def exponents(self) -> np.ndarray:
        base = self.p * self.p * sum(j * j for j in range(self.N))
        expo = base - (self.configs ** 2).sum(axis=1)
        if expo.min() < 0:
            m = list(self.coeffs)[int(expo.argmin())]
            raise AssertionError(f"positive Gaussian exponent at {m}")
        return expo

    @cached_property
    def factorials(self) -> np.ndarray:
        fact = np.array([math.factorial(n) for n in range(self.N + 1)])
        return fact[self.occupations].prod(axis=1)

    @cached_property
    def renewal(self) -> np.ndarray:
        k = np.arange(1, self.N + 1)
        hits = self.configs.cumsum(axis=1) == self.p * k * (k - 1) // 2
        return np.hstack([np.ones((len(self), 1), dtype=bool), hits])

    @cached_property
    def irreducible(self) -> np.ndarray:
        return ~self.renewal[:, 1:-1].any(axis=1)


@dataclass(eq=False)
class AmplitudeTable:
    """Gaussian-weighted amplitudes of a coefficient table at fixed gamma.

    ``amp[i]`` is a_N(m) for row i of ``table``; ``occ`` divides by
    sqrt(prod n_k!) to give the occupation amplitudes A_N(n), and
    ``weights`` squares them.  Amplitudes whose Gaussian factor
    underflows to zero are kept (as 0.0) so the rows match the integer
    table.
    """

    table: CoefficientTable
    gamma: float
    amp: np.ndarray

    @property
    def p(self) -> int:
        return self.table.p

    @property
    def N(self) -> int:
        return self.table.N

    @property
    def num_orbitals(self) -> int:
        return self.p * (self.N - 1) + 1

    @cached_property
    def occ(self) -> np.ndarray:
        return self.amp / np.sqrt(self.table.factorials)

    @cached_property
    def weights(self) -> np.ndarray:
        return self.occ * self.occ

    def norm_sq(self) -> float:
        """Squared norm C_N = sum_n A_N(n)^2."""
        return float(self.weights.sum())


def _squeeze(p: int, N: int) -> dict[tuple[int, ...], int]:
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


def expand_all(p: int, N: int, cap: int | None = None) -> list[CoefficientTable]:
    """Coefficient tables for 1..N particles, each in lexicographic order."""
    check_cap(p, N, cap)
    return [CoefficientTable(p, n, _squeeze(p, n))
            for n in range(1, N + 1)]


def expand(p: int, N: int, cache_dir: str | None = None,
           cap: int | None = None) -> CoefficientTable:
    """Exact integer coefficient table for (p, N), with optional disk cache."""
    if cache_dir is not None:
        path = cache_path(cache_dir, p, N)
        if os.path.exists(path):
            return load_cache(path, expected_p=p, expected_N=N)
    check_cap(p, N, cap)
    table = CoefficientTable(p, N, _squeeze(p, N))
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_cache(table, cache_path(cache_dir, p, N))
    return table


def amplitudes(table: CoefficientTable, gamma: float) -> AmplitudeTable:
    """Gaussian-weighted amplitudes a_N(m) at the given gamma."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ConfigError(f"gamma must be finite and > 0, got {gamma!r}")
    # One math.exp per distinct exponent: np.exp rounds differently on a
    # few per cent of the entries, and the amplitudes stay exactly
    # float(c) * math.exp(-gamma^2 e / 2).
    distinct, inverse = np.unique(table.exponents, return_inverse=True)
    half = 0.5 * gamma * gamma
    gauss = np.array([math.exp(half * -e) for e in distinct.tolist()])
    coeffs = np.fromiter(map(float, table.coeffs.values()), dtype=float,
                         count=len(table))
    return AmplitudeTable(table, gamma, coeffs * gauss[inverse])


# -- verification ------------------------------------------------------------

@dataclass
class ProductRuleReport:
    p: int
    N: int
    checked: int
    failures: list[tuple[tuple[int, ...], int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_product_rule(p: int, N: int, tables: list[CoefficientTable] | None
                        = None, cap: int | None = None) -> ProductRuleReport:
    """Check the exact factorisation across interior renewal points.

    For every key m of every table up to N and every interior renewal
    point pk of m, the integer identity
    ``c_N(m) = c_k(m_1..m_k) * c_{N-k}(m_{k+1}-pk, ..., m_N-pk)``
    must hold exactly.
    """
    if tables is None:
        tables = expand_all(p, N, cap=cap)
    report = ProductRuleReport(p, N, 0)
    for table in tables:
        n = table.N
        for m, c in table.coeffs.items():
            for point in renewal_points(m, p)[1:-1]:
                k = point // p
                left = tables[k - 1].coeffs.get(m[:k], 0)
                right = tables[n - k - 1].coeffs.get(
                    translate_config(m[k:], p, -k), 0)
                report.checked += 1
                if c != left * right:
                    report.failures.append((m, c - left * right))
    return report


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _ryser_permanent(mat: list[list[int]]) -> int:
    """Exact permanent of an integer matrix by Ryser's inclusion-exclusion."""
    n = len(mat)
    total = 0
    for mask in range(1, 1 << n):
        sums = [0] * n
        for j in range(n):
            if mask >> j & 1:
                for i in range(n):
                    sums[i] += mat[i][j]
        prod = 1
        for s in sums:
            prod *= s
        total += prod if (n - bin(mask).count("1")) % 2 == 0 else -prod
    return total


def evaluate_oracle(table: CoefficientTable, npoints: int = 20,
                    seed: int = 7) -> float:
    """Worst relative deviation of the table against direct evaluation.

    Draws distinct random integer points, sums the stored coefficients
    times exactly evaluated (anti)symmetrised monomials in big-integer
    arithmetic, and compares with the directly multiplied product
    prod_{j<k} (Z_k - Z_j)^p.  Everything is exact, so a correct table
    reports 0.0; any mismatch at any point reports its relative size.
    This checks the expansion end to end, independent of how the table
    was produced.

    For bosons the permanent identity carries the occupation factorials:
    perm(Z_j^{m_k}) sums over all alignments, counting each distinct
    monomial prod n_k! times.
    """
    p, N = table.p, table.N
    rng = np.random.default_rng(seed)
    fermionic = p % 2 == 1
    pool = [v for v in range(-60, 61) if v != 0]
    worst = 0.0
    for _ in range(npoints):
        Z = [int(v) for v in rng.permutation(pool)[:N]]
        direct = 1
        for j in range(N):
            for k in range(j + 1, N):
                direct *= (Z[k] - Z[j]) ** p
        total = 0
        for m, c in table.coeffs.items():
            mat = [[z ** mk for mk in m] for z in Z]
            if fermionic:
                term = _bareiss_det(mat)
            else:
                fact = math.prod(math.factorial(m.count(v)) for v in set(m))
                term, rem = divmod(_ryser_permanent(mat), fact)
                if rem:
                    raise AssertionError(f"permanent not divisible at {m}")
            total += c * term
        diff = abs(total - direct)
        if diff:
            worst = max(worst, float(Fraction(diff, max(abs(direct), 1))))
    return worst


# -- disk cache --------------------------------------------------------------

_CACHE_MAGIC = "LAUGHLIN-COEFF v1"


def cache_path(cache_dir: str, p: int, N: int) -> str:
    return os.path.join(cache_dir, f"coeff_p{p}_N{N}.txt")


def save_cache(table: CoefficientTable, path: str) -> None:
    """Write a table in the line-oriented cache format.

    Header ``LAUGHLIN-COEFF v1 p=<p> N=<N> count=<k>``, one
    ``m_1,...,m_N:<integer>`` line per key in lexicographic order, and a
    trailing ``checksum=<hex>`` over all preceding bytes.
    """
    digest = hashlib.sha256()
    lines = [f"{_CACHE_MAGIC} p={table.p} N={table.N} count={len(table.coeffs)}\n"]
    for m in sorted(table.coeffs):
        lines.append(",".join(str(v) for v in m) + f":{table.coeffs[m]}\n")
    for line in lines:
        digest.update(line.encode())
    lines.append(f"checksum={digest.hexdigest()}\n")
    # A private temporary file per writer, renamed into place, so that
    # concurrent writers of one table never share a partial file.
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
        os.chmod(tmp, 0o644)  # mkstemp creates 0600; the cache is shared
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_cache(path: str, expected_p: int | None = None,
               expected_N: int | None = None) -> CoefficientTable:
    """Read and fully validate a cache file written by :func:`save_cache`."""
    with open(path) as fh:
        lines = fh.readlines()
    if len(lines) < 2:
        raise CacheError(f"{path}: truncated cache file")
    header = lines[0].split()
    if " ".join(header[:2]) != _CACHE_MAGIC:
        raise CacheError(f"{path}: bad magic {lines[0]!r}")
    try:
        fields = dict(part.split("=") for part in header[2:])
        p, N, count = int(fields["p"]), int(fields["N"]), int(fields["count"])
    except (KeyError, ValueError) as exc:
        raise CacheError(f"{path}: malformed header") from exc
    if expected_p is not None and p != expected_p:
        raise CacheError(f"{path}: header p={p}, expected {expected_p}")
    if expected_N is not None and N != expected_N:
        raise CacheError(f"{path}: header N={N}, expected {expected_N}")
    if not lines[-1].startswith("checksum="):
        raise CacheError(f"{path}: missing checksum line")
    digest = hashlib.sha256()
    for line in lines[:-1]:
        digest.update(line.encode())
    stated = lines[-1].strip().split("=", 1)[1]
    if stated != digest.hexdigest():
        raise CacheError(f"{path}: checksum mismatch")
    body = lines[1:-1]
    if len(body) != count:
        raise CacheError(f"{path}: header count {count} != {len(body)} lines")
    coeffs: dict[tuple[int, ...], int] = {}
    for line in body:
        try:
            key_part, val_part = line.strip().split(":")
            m = tuple(int(v) for v in key_part.split(","))
            value = int(val_part)
        except ValueError as exc:
            raise CacheError(f"{path}: malformed line {line!r}") from exc
        if len(m) != N or not is_admissible(m, p):
            raise CacheError(f"{path}: inadmissible key {m}")
        if m in coeffs:
            raise CacheError(f"{path}: duplicate key {m}")
        if value == 0:
            raise CacheError(f"{path}: explicit zero coefficient at {m}")
        coeffs[m] = value
    return CoefficientTable(p, N, coeffs)
