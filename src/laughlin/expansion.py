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

A table is computed from the tables of fewer particles and the
squeezing recursion of Bernevig & Haldane, PRL 100, 246802 (2008),
with the fermionic case of Bernevig & Regnault, PRL 103, 206801 (2009).
A reducible configuration, one whose partial sums hit the staircase at
some interior point pk, factorises exactly there (Thomale et al.,
arXiv:1010.4837):

    c_N(m) = c_k(m_1..m_k) * c_{N-k}(m_{k+1}-pk, ..., m_N-pk),

so every reducible coefficient is filled in from the smaller tables
first, and only the irreducible configurations go through the
recursion.  The polynomial is an
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
the sign of the sorting permutation for fermions.  The configurations
of one Sigma m^2 level depend only on higher levels, so each level is
computed at once, as array passes over all its unsqueezes, which are
looked up by packed integer keys.  The arithmetic is int64 and exact:
a bound on T(nu) is checked per level (the largest coefficient has 21
bits at p=3, N=8, 26 at N=9 and 30 at N=10), and a table whose keys,
sums or products could leave the int64 range raises
:class:`~laughlin.lattice.CapExceeded` instead of wrapping.  The
division is exact.

A table built this way agrees with the product rule by construction.
The checks independent of it are the loop ``reference_squeeze`` of the
tests, which squeezes every configuration and must match every table
entry for entry, and :func:`evaluate_oracle`, which ``verify-all`` and
the benchmark run on the finished tables.  :func:`verify_product_rule`
checks that tables stored apart, such as the files of one cache, are
consistent with each other.  It and :func:`evaluate_oracle` read
``coeffs`` directly, not the columns.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from laughlin.lattice import (CapExceeded, ConfigError, check_cap,
                              config_tuples, configurations, find_keys,
                              occupation_rows, renewal_points, staircase,
                              translate_config)


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
        return occupation_rows(self.configs, self.p * self.N)

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


#: Exclusive bound on the packed keys and every sum of the squeezing
#: pass, which are int64.
_INT64_LIMIT = 2 ** 63


def _products(p: int, N: int, configs: np.ndarray,
              smaller: list[CoefficientTable], coeffs: np.ndarray
              ) -> np.ndarray:
    """Fill every reducible row of ``configs`` by the product rule over
    its first interior renewal point pk,
    c_N(m) = c_k(m_1..m_k) * c_{N-k}(m_{k+1}-pk, ..., m_N-pk), from the
    tables ``smaller`` of 1..N-1 particles; return the reducible mask.

    A part absent from its table has coefficient 0.  The tables'
    largest coefficients bound every product, and a bound past int64
    raises :class:`~laughlin.lattice.CapExceeded`.
    """
    hits = configs[:, :-1].cumsum(axis=1) == staircase(p, np.arange(1, N))
    reducible = hits.any(axis=1)
    first = hits.argmax(axis=1) + 1
    biggest = [max(map(abs, t.coeffs.values())) for t in smaller]
    for k in np.unique(first[reducible]).tolist():
        bound = biggest[k - 1] * biggest[N - k - 1]
        if bound >= _INT64_LIMIT:
            raise CapExceeded(f"product-rule coefficients of p={p}, N={N} "
                              f"could reach {bound}, past the int64 range")
        rows = np.flatnonzero(reducible & (first == k))
        left = _lookup(smaller[k - 1], configs[rows, :k])
        right = _lookup(smaller[N - k - 1], configs[rows, k:] - p * k)
        coeffs[rows] = left * right
    return reducible


def _lookup(table: CoefficientTable, parts: np.ndarray) -> np.ndarray:
    """The int64 coefficient of each row of ``parts`` in ``table``, 0
    where the table has no such key."""
    keys = table.configs
    _, first, inverse = np.unique(np.vstack([keys, parts]), axis=0,
                                  return_index=True, return_inverse=True)
    pos = first[inverse.ravel()[len(keys):]]
    values = np.fromiter(table.coeffs.values(), dtype=np.int64,
                         count=len(table))
    found = pos < len(keys)
    return np.where(found, values[np.where(found, pos, 0)], 0)


def _squeeze(p: int, N: int, *, smaller: list[CoefficientTable] | None = None,
             sizes: dict | None = None) -> dict[tuple[int, ...], int]:
    """Nonzero coefficients of one table by the squeezing recursion.

    The admissible configurations come from the lattice search under
    the dominance floor; the caller checks the cap on N.  Given the
    tables ``smaller`` of 1..N-1 particles, every reducible row takes
    its coefficient from the product rule first (see :func:`_products`),
    and only the irreducible rows are squeezed; without them every row
    is.  Every configuration of one Sigma m^2 level squeezes out of
    higher levels only, so the levels are visited from the root down
    and each is one array pass over all its unsqueezes.  A configuration
    is found by its packed key: the negated mixed-radix number of its
    occupations, site 0 most significant, each site's radix one more
    than its largest occupation among the admissible configurations
    (the last two sites carry no digit).  Keys increase along the
    lexicographic order and add up over particles, so an unsqueeze
    shifts a key by four site weights.  Every sum stays below
    ``_INT64_LIMIT`` by a bound checked per level, and the division by
    the eigenvalue gap is exact.  ``sizes``, if given, receives the
    number of ``levels``, of ``candidates`` looked up and of reducible
    rows ``filled`` by the product rule.
    """
    fermionic = p % 2 == 1
    B = -p if fermionic else 1 - p
    mmax = p * (N - 1)
    sites = mmax + 1
    configs = configurations(N, sites, staircase(p, N), fermionic, floor=p)
    count = len(configs)
    coeffs = np.zeros(count, dtype=np.int64)
    filled = np.zeros(count, dtype=bool)
    if smaller:
        if [(t.p, t.N) for t in smaller] != [(p, n) for n in range(1, N)]:
            raise ConfigError(f"the smaller tables of p={p}, N={N} must "
                              f"be those of 1..{N - 1} particles")
        filled = _products(p, N, configs, smaller, coeffs)
    occ = occupation_rows(configs, sites)
    limit = occ.max(axis=0)
    # Particle number and total momentum, common to every configuration,
    # fix the occupations of the last two sites from the others, so
    # those sites carry no digit.
    radix = (limit[:-2] + 1).tolist()
    if math.prod(radix) >= _INT64_LIMIT:
        raise CapExceeded(f"occupation keys of p={p}, N={N} overflow int64")
    weight = np.zeros(sites, dtype=np.int64)
    weight[:len(radix)] = [math.prod(radix[s + 1:]) for s in range(len(radix))]
    keys = -(occ @ weight)
    below = np.hstack([np.zeros((count, 1), dtype=np.int8),
                       occ.cumsum(axis=1, dtype=np.int8)]) if fermionic else None

    squares = (configs ** 2).sum(axis=1)
    # 2D(nu) = 2 Sigma nu_k^2 + B Sigma_{i<j} (nu_j - nu_i), nu sorted
    two_d = 2 * squares + B * (configs @ (2 * np.arange(N) - N + 1))
    order = np.argsort(-squares, kind="stable")
    levels = np.split(order, np.flatnonzero(np.diff(squares[order])) + 1)
    root = levels[0][0]
    coeffs[root] = 1
    I, J = np.triu_indices(N, 1)
    looked_up = 0
    for rows in levels[1:]:
        rows = rows[~filled[rows]]
        if not rows.size:
            continue
        # Unsqueeze each pair (vi, vj) to (b, s - b), b < vi <= vj < s - b.
        vi, vj = configs[rows][:, I].ravel(), configs[rows][:, J].ravel()
        s = vi + vj
        lo = np.maximum(s - mmax, 0)
        span = vi - lo
        pair = np.repeat(np.arange(span.size), span)
        b = lo[pair] + np.arange(pair.size) - (np.cumsum(span) - span)[pair]
        a = s[pair] - b
        row = rows[pair // len(I)]
        # A site already at its largest occupation would carry into the
        # next digit and alias another configuration.
        keep = (occ[row, a] < limit[a]) & (occ[row, b] < limit[b])
        pair, a, b, row = pair[keep], a[keep], b[keep], row[keep]
        looked_up += pair.size
        target = (keys[row] + weight[vi[pair]] + weight[vj[pair]]
                  - weight[a] - weight[b])
        pos = find_keys(keys, target)
        hit = pos >= 0
        pair, a, b, row, pos = pair[hit], a[hit], b[hit], row[hit], pos[hit]
        if fermionic:
            # e holds a in slot i and b in slot j; sorting it takes
            # pa - pb + j - i transpositions, mod 2, pa - pb being the
            # particles of nu on sites b..a-1 less the two of the pair.
            parity = (below[row, a] - below[row, b]
                      + (J - I)[pair % len(I)]) & 1
            w = 2 * (vi[pair] - vj[pair]) * (1 - 2 * parity)
        else:
            w = 2 * (a - b)
        local = pair // len(I)
        if pos.size:
            bound = (int(np.abs(coeffs[pos]).max()) * int(np.abs(w).max())
                     * int(np.bincount(local).max()) * abs(B))
            if bound >= _INT64_LIMIT:
                raise CapExceeded(f"squeezing sums of p={p}, N={N} could "
                                  f"reach {bound}, past the int64 range")
        total = np.zeros(len(rows), dtype=np.int64)
        np.add.at(total, local, w * coeffs[pos])
        c, rem = np.divmod(B * total, two_d[root] - two_d[rows])
        if rem.any():
            nu = tuple(configs[rows[np.flatnonzero(rem)[0]]].tolist())
            raise AssertionError(f"non-integer coefficient at {nu}")
        coeffs[rows] = c
    if sizes is not None:
        sizes.update(levels=len(levels), candidates=looked_up,
                     filled=int(filled.sum()))
    nonzero = np.flatnonzero(coeffs)
    # lexicographic order, the order load_cache reads a table back in
    return dict(zip(config_tuples(configs[nonzero]), coeffs[nonzero].tolist()))


def expand_all(p: int, N: int, cap: int | None = None) -> list[CoefficientTable]:
    """Coefficient tables for 1..N particles, each in lexicographic order."""
    check_cap(p, N, cap)
    tables: list[CoefficientTable] = []
    for n in range(1, N + 1):
        tables.append(CoefficientTable(p, n, _squeeze(p, n, smaller=tables)))
    return tables


def expand(p: int, N: int, cache_dir: str | None = None,
           cap: int | None = None, sizes: dict | None = None,
           smaller: list[CoefficientTable] | None = None) -> CoefficientTable:
    """Exact integer coefficient table for (p, N), with optional disk cache.

    A table that is computed takes its reducible rows from the tables
    of 1..N-1 particles: ``smaller`` where the caller holds them, else
    the cached ones where the cache has them all; with neither, every
    row is squeezed.  ``sizes``, if given, receives the sizes of the
    squeezing pass when the table is computed rather than read from
    the cache.
    """
    if cache_dir is not None:
        path = cache_path(cache_dir, p, N)
        if os.path.exists(path):
            return load_cache(path, expected_p=p, expected_N=N)
    check_cap(p, N, cap)
    if smaller is None and cache_dir is not None:
        paths = [cache_path(cache_dir, p, n) for n in range(1, N)]
        if all(map(os.path.exists, paths)):
            smaller = [load_cache(path, expected_p=p, expected_N=n)
                       for n, path in enumerate(paths, start=1)]
    table = CoefficientTable(p, N, _squeeze(p, N, smaller=smaller,
                                            sizes=sizes))
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
    row = ",".join(["%d"] * table.N) + ":%d\n"
    coeffs = table.coeffs
    data = (f"{_CACHE_MAGIC} p={table.p} N={table.N} count={len(table)}\n"
            + "".join([row % (*m, coeffs[m]) for m in sorted(coeffs)])
            ).encode()
    write_atomic(path, data + b"checksum=%s\n"
                 % hashlib.sha256(data).hexdigest().encode())


def write_atomic(path: str, data: bytes) -> None:
    """Write a cache file through a private temporary file per writer,
    renamed into place, so that concurrent writers of one file never
    share a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)  # mkstemp creates 0600; the cache is shared
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_cache(path: str, expected_p: int | None = None,
               expected_N: int | None = None) -> CoefficientTable:
    """Read and fully validate a cache file written by :func:`save_cache`;
    any fault in its contents raises :class:`CacheError`."""
    with open(path, errors="replace") as fh:  # bad bytes fail the checks
        lines = fh.readlines()
    if len(lines) < 2:
        raise CacheError(f"{path}: truncated cache file")
    header = lines[0].split()
    if " ".join(header[:2]) != _CACHE_MAGIC:
        raise CacheError(f"{path}: bad magic {lines[0]!r}")
    try:
        fields = dict(part.split("=") for part in header[2:])
        p, N, count = int(fields["p"]), int(fields["N"]), int(fields["count"])
        if p < 1 or N < 1:
            raise ValueError("p and N must be positive")
    except (KeyError, ValueError) as exc:
        raise CacheError(f"{path}: malformed header") from exc
    if expected_p is not None and p != expected_p:
        raise CacheError(f"{path}: header p={p}, expected {expected_p}")
    if expected_N is not None and N != expected_N:
        raise CacheError(f"{path}: header N={N}, expected {expected_N}")
    if not lines[-1].startswith("checksum="):
        raise CacheError(f"{path}: missing checksum line")
    digest = hashlib.sha256("".join(lines[:-1]).encode())
    stated = lines[-1].strip().split("=", 1)[1]
    if stated != digest.hexdigest():
        raise CacheError(f"{path}: checksum mismatch")
    body = lines[1:-1]
    if len(body) != count:
        raise CacheError(f"{path}: header count {count} != {len(body)} lines")
    rows, values = [], []
    for line in body:
        try:
            key, value = line.split(":")
            rows.append(tuple(map(int, key.split(","))))
            values.append(int(value))
        except ValueError as exc:
            raise CacheError(f"{path}: malformed line {line!r}") from exc
    misfit = next((m for m in rows if len(m) != N), None)
    if misfit is not None:
        raise CacheError(f"{path}: inadmissible key {misfit}")
    try:
        keys = np.array(rows, dtype=np.int64).reshape(count, N)
    except OverflowError as exc:  # far off any lattice
        raise CacheError(f"{path}: inadmissible key beyond int64") from exc
    unsorted = (keys[:, 1:] < keys[:, :-1]).any(axis=1)
    if unsorted.any():
        line = body[int(np.argmax(unsorted))]
        raise CacheError(f"{path}: malformed line {line!r}")
    # m_1 >= 0 is the first partial sum.  In a sorted row the first sum
    # to overflow int64 turns negative, below the staircase.
    partial = keys.cumsum(axis=1)
    inadmissible = ((partial < staircase(p, np.arange(1, N + 1))).any(axis=1)
                    | (partial[:, -1] != staircase(p, N)))
    if inadmissible.any():
        m = rows[int(np.argmax(inadmissible))]
        raise CacheError(f"{path}: inadmissible key {m}")
    coeffs = dict(zip(rows, values))
    if len(coeffs) != count:
        m = next(m for m, seen in Counter(rows).items() if seen > 1)
        raise CacheError(f"{path}: duplicate key {m}")
    if 0 in values:
        m = rows[values.index(0)]
        raise CacheError(f"{path}: explicit zero coefficient at {m}")
    try:
        return CoefficientTable(p, N, coeffs)
    except ConfigError as exc:
        raise CacheError(f"{path}: {exc}") from exc
