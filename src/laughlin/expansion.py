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

A :class:`CoefficientTable` is two int64 arrays, configurations and
coefficients, and columns aligned with them; an :class:`AmplitudeTable`
holds one amplitude array aligned with the same rows.  The consumers
downstream are reductions over these columns.

One function, :func:`expand`, computes a table, from the tables of
fewer particles and the squeezing recursion of Bernevig & Haldane,
PRL 100, 246802 (2008), with the fermionic case of Bernevig & Regnault,
PRL 103, 206801 (2009); :func:`expand_all` runs it for 1..N.  Neither
reads nor writes the disk cache, and no other function of the library
computes or reads a table for its caller: which tables are read from
the cache and which are computed is decided by the command line alone.
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
looked up by their packed occupation keys in the
:class:`~laughlin.lattice.ConfigIndex` of the admissible
configurations.  The arithmetic is int64 and exact:
a bound on T(nu) is checked per level (the largest coefficient has 21
bits at p=3, N=8, 26 at N=9 and 30 at N=10), and a table whose keys,
sums or products could leave the int64 range raises
:class:`~laughlin.lattice.CapExceeded` instead of wrapping.  The
division is exact.

A table built this way agrees with the product rule by construction.
The checks independent of it are the reference loop of the tests
(``tests/test_reference.py``), which squeezes every configuration and
must match every table entry for entry, and :func:`evaluate_oracle`,
which ``verify-all`` and the benchmark run on the finished tables: it
evaluates every row modulo a prime at random points, in batched
determinants and permanents.  :func:`verify_product_rule` checks that
tables stored apart, such as the files of one cache, are consistent
with each other, through the same product-rule kernel as the builder,
:func:`_split_products`.  Every function here reads a table's arrays;
the mapping ``coeffs`` it derives from them is for the tests and the
benchmark.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, reduce
from types import MappingProxyType

import numpy as np

from laughlin import lattice
from laughlin.lattice import (CapExceeded, ConfigError, ConfigIndex,
                              check_cap, configurations, find_keys,
                              occupation_rows, staircase)


class CacheError(ValueError):
    """Raised when an on-disk coefficient table fails validation."""


class CoefficientTable:
    """Exact integer expansion coefficients for given (p, N).

    Two read-only int64 arrays, independent of gamma: ``configs``, the
    (D, N) configurations in strictly increasing lexicographic order, and
    ``values``, their nonzero coefficients (a mapping is sorted into them).
    The other columns are computed on first use, row i for row i of both:

    * ``occupations``: the occupation numbers of sites 0..pN-1, (D, pN);
    * ``exponents``: e = p^2 S_N - sum m_j^2 >= 0, so a_N(m) carries
      exp(-gamma^2 e / 2) and A_N(n)^2 carries x^e, x = exp(-gamma^2);
    * ``factorials``: prod_k n_k!;
    * ``renewal``: (D, N+1) booleans, column k marking the renewal
      point pk, and ``irreducible``: the rows with no interior one;
    * ``index``: the :class:`~laughlin.lattice.ConfigIndex` of the rows
      on the pN-p+1 sites of the lattice;
    * ``coeffs``: a read-only mapping of configuration tuples to ints,
      which no library code reads.
    """

    def __init__(self, p: int, N: int, coeffs: Mapping | None = None, *,
                 configs: np.ndarray | None = None,
                 values: np.ndarray | None = None):
        if coeffs is not None:
            keys = sorted(coeffs)
            configs = np.array(keys, dtype=np.int64).reshape(len(keys), N)
            values = np.array([coeffs[m] for m in keys], dtype=np.int64)
        configs.flags.writeable = values.flags.writeable = False
        self.p, self.N, self.configs, self.values = p, N, configs, values
        if not (values[(configs == self.root_config).all(axis=1)] == 1).any():
            raise ConfigError(f"root configuration {self.root_config} "
                              "must carry coefficient +1")

    @property
    def root_config(self) -> tuple[int, ...]:
        return tuple(self.p * j for j in range(self.N))

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def coeffs(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(dict(zip(map(tuple, self.configs.tolist()),
                                         self.values.tolist())))

    @cached_property
    def occupations(self) -> np.ndarray:
        return occupation_rows(self.configs, self.p * self.N)

    @cached_property
    def index(self) -> ConfigIndex:
        return ConfigIndex(self.configs, self.p * (self.N - 1) + 1)

    @cached_property
    def exponents(self) -> np.ndarray:
        base = self.p * self.p * sum(j * j for j in range(self.N))
        expo = base - (self.configs ** 2).sum(axis=1)
        if expo.min() < 0:
            m = tuple(self.configs[expo.argmin()].tolist())
            raise AssertionError(f"positive Gaussian exponent at {m}")
        return expo

    @cached_property
    def factorials(self) -> np.ndarray:
        fact = np.array([math.factorial(n) for n in range(self.N + 1)])
        # site by site, with no (D, pN) temporary
        return math.prod(fact[site] for site in self.occupations.T)

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

    @cached_property
    def occ(self) -> np.ndarray:
        return self.amp / np.sqrt(self.table.factorials)

    @cached_property
    def weights(self) -> np.ndarray:
        return self.occ * self.occ

    def norm_sq(self) -> float:
        """Squared norm C_N = sum_n A_N(n)^2."""
        return float(self.weights.sum())


def _split_products(p: int, configs: np.ndarray, splits: np.ndarray,
                    smaller: list[CoefficientTable]
                    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The product rule's right-hand side
    c_k(m_1..m_k) * c_{N-k}(m_{k+1}-pk, ..., m_N-pk), from the tables
    ``smaller`` of 1..N-1 particles, for the rows of ``configs`` that
    the (D, N-1) mask ``splits`` marks in column k-1: one
    (k, rows, products) for each interior point pk marked anywhere.

    A part is looked up in its table's index, and one absent from it
    has coefficient 0.  The tables' largest coefficients bound every
    product, and a bound past int64 raises
    :class:`~laughlin.lattice.CapExceeded` before any lookup.
    """
    N = configs.shape[1]
    ks = (np.flatnonzero(splits.any(axis=0)) + 1).tolist()
    biggest = [int(np.abs(t.values).max()) for t in smaller]
    bound = max((biggest[k - 1] * biggest[N - k - 1] for k in ks), default=0)
    if bound >= lattice.INT64_LIMIT:
        raise CapExceeded(f"product-rule coefficients of p={p}, N={N} "
                          f"could reach {bound}, past the int64 range")
    out = []
    for k in ks:
        rows = np.flatnonzero(splits[:, k - 1])
        left, right = smaller[k - 1], smaller[N - k - 1]
        i = left.index.find(configs[rows, :k])
        j = right.index.find(configs[rows, k:] - p * k)
        out.append((k, rows, np.where((i >= 0) & (j >= 0),
                                      left.values[i] * right.values[j], 0)))
    return out


def expand(p: int, N: int, smaller: list[CoefficientTable], *,
           sizes: dict | None = None) -> CoefficientTable:
    """The table of (p, N) by the squeezing recursion: the one function
    that computes a coefficient table.

    ``smaller`` are the tables of 1..N-1 particles (``[]`` at N=1);
    every reducible row takes its coefficient from the product rule over
    them (see :func:`_split_products`), and only the irreducible rows are
    squeezed.  The admissible configurations come from the lattice
    search under the dominance floor; the caller checks the cap on N
    and decides where the tables come from and whether to cache them.
    Every configuration of one Sigma m^2 level squeezes out of
    higher levels only, so the levels are visited from the root down
    and each is one array pass over all its unsqueezes.  A configuration
    is found by its packed key in the
    :class:`~laughlin.lattice.ConfigIndex` of the admissible
    configurations, which share particle number and orbital sum, so
    their last two sites carry no digit.  Keys add up over particles,
    so an unsqueeze shifts a key by four site weights; one that would
    put more particles on a site than any admissible configuration has
    there is dropped before the lookup, since its key would carry into
    the next digit.  Every sum stays below ``INT64_LIMIT`` by a bound
    checked per level, and the division by the eigenvalue gap is
    exact.  ``sizes``, if given, receives the
    number of ``levels``, of ``candidates`` looked up and of reducible
    rows ``filled`` by the product rule.
    """
    if [(t.p, t.N) for t in smaller] != [(p, n) for n in range(1, N)]:
        raise ConfigError(f"the smaller tables of p={p}, N={N} must "
                          f"be those of 1..{N - 1} particles")
    fermionic = p % 2 == 1
    B = -p if fermionic else 1 - p
    mmax = p * (N - 1)
    sites = mmax + 1
    configs = configurations(N, sites, staircase(p, N), fermionic, floor=p)
    count = len(configs)
    values = np.zeros(count, dtype=np.int64)
    # A reducible row takes the product rule at its first interior
    # renewal point.
    hits = configs[:, :-1].cumsum(axis=1) == staircase(p, np.arange(1, N))
    first = hits & (hits.cumsum(axis=1) == 1)
    for _, rows, products in _split_products(p, configs, first, smaller):
        values[rows] = products
    filled = hits.any(axis=1)
    index = ConfigIndex(configs, sites)
    occ, limit, weight, keys = (index.occupations, index.limit,
                                index.weights, index.keys)
    below = np.hstack([np.zeros((count, 1), dtype=np.int8),
                       occ.cumsum(axis=1, dtype=np.int8)]) if fermionic else None

    squares = (configs ** 2).sum(axis=1)
    # 2D(nu) = 2 Sigma nu_k^2 + B Sigma_{i<j} (nu_j - nu_i), nu sorted
    two_d = 2 * squares + B * (configs @ (2 * np.arange(N) - N + 1))
    order = np.argsort(-squares, kind="stable")
    levels = np.split(order, np.flatnonzero(np.diff(squares[order])) + 1)
    root = levels[0][0]
    values[root] = 1
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
        keep = (occ[row, a] < limit[a]) & (occ[row, b] < limit[b])
        pair, a, b, row = pair[keep], a[keep], b[keep], row[keep]
        looked_up += pair.size
        target = (keys[row] - weight[vi[pair]] - weight[vj[pair]]
                  + weight[a] + weight[b])
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
            bound = (int(np.abs(values[pos]).max()) * int(np.abs(w).max())
                     * int(np.bincount(local).max()) * abs(B))
            if bound >= lattice.INT64_LIMIT:
                raise CapExceeded(f"squeezing sums of p={p}, N={N} could "
                                  f"reach {bound}, past the int64 range")
        total = np.zeros(len(rows), dtype=np.int64)
        np.add.at(total, local, w * values[pos])
        c, rem = np.divmod(B * total, two_d[root] - two_d[rows])
        if rem.any():
            nu = tuple(configs[rows[np.flatnonzero(rem)[0]]].tolist())
            raise AssertionError(f"non-integer coefficient at {nu}")
        values[rows] = c
    if sizes is not None:
        sizes.update(levels=len(levels), candidates=looked_up,
                     filled=int(filled.sum()))
    keep = values != 0
    return CoefficientTable(p, N, configs=configs[keep], values=values[keep])


def expand_all(p: int, N: int, cap: int | None = None) -> list[CoefficientTable]:
    """Coefficient tables for 1..N particles, each computed by
    :func:`expand` from the ones before it."""
    check_cap(p, N, cap)
    tables: list[CoefficientTable] = []
    for n in range(1, N + 1):
        tables.append(expand(p, n, tables))
    return tables


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
    return AmplitudeTable(table, gamma, table.values * gauss[inverse])


# -- verification ------------------------------------------------------------

@dataclass
class ProductRuleReport:
    checked: int
    failures: list[tuple[tuple[int, ...], int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_product_rule(p: int, N: int, tables: list[CoefficientTable]
                        ) -> ProductRuleReport:
    """Check c_n(m) = c_k(m_1..m_k) * c_{n-k}(m_{k+1}-pk, ..., m_n-pk)
    exactly, for every row m of each of the ``tables`` of 1..N particles
    and every interior renewal point pk of m (``table.renewal[:, k]``),
    by the builder's kernel :func:`_split_products`.  ``failures`` lists
    each (m, difference) by table, row and renewal point."""
    if [(t.p, t.N) for t in tables] != [(p, n) for n in range(1, N + 1)]:
        raise ConfigError(f"the tables checked at p={p}, N={N} must be "
                          f"those of 1..{N} particles")
    report = ProductRuleReport(0)
    for table in tables:
        c, bad = table.values, []
        for k, rows, products in _split_products(
                p, table.configs, table.renewal[:, 1:-1], tables[:table.N - 1]):
            report.checked += rows.size
            wrong = c[rows] != products
            bad += [(r, k, int(c[r]) - q) for r, q in
                    zip(rows[wrong].tolist(), products[wrong].tolist())]
        report.failures += [(tuple(table.configs[r].tolist()), diff)
                            for r, _, diff in sorted(bad)]
    return report


_PRIME = 2 ** 31 - 1  # the oracle's modulus: residues multiply below 2^62
_BLOCK = 1 << 18  # matrix entries per block of the oracle


def _inverse(x: np.ndarray) -> np.ndarray:
    """x^(P-2) mod P elementwise: each nonzero residue's inverse; 0 for 0."""
    out, e = np.ones_like(x), _PRIME - 2
    while e:
        out = out * x % _PRIME if e & 1 else out
        x, e = x * x % _PRIME, e >> 1
    return out


def _det_mod(a: np.ndarray) -> np.ndarray:
    """Determinants mod P of a (B, n, n) stack of residues by Gaussian
    elimination, exchanging a zero pivot for the first nonzero entry
    below it.  Where there is none, the pivot 0 makes the determinant 0
    and the elimination factors 0."""
    a, at = a.copy(), np.arange(len(a))
    det = np.ones(len(a), dtype=np.int64)
    for c in range(a.shape[1]):
        r = c + (a[:, c:, c] != 0).argmax(axis=1)
        a[at, r], a[:, c] = a[:, c].copy(), a[at, r]
        det = np.where(r == c, det, _PRIME - det) * a[:, c, c] % _PRIME
        f = a[:, c + 1:, c] * _inverse(a[:, c, c])[:, None] % _PRIME
        a[:, c + 1:] = (a[:, c + 1:]
                        - f[:, :, None] * a[:, None, c] % _PRIME) % _PRIME
    return det


def _perm_mod(a: np.ndarray) -> np.ndarray:
    """Permanents mod P of a (B, n, n) stack of residues by Ryser's
    formula, perm A = sum_S (-1)^(n-|S|) prod_i sum_{j in S} a_ij over
    the nonempty column sets S, in Gray-code order: each step adds or
    removes one column."""
    n = a.shape[1]
    cols = np.ascontiguousarray(a.transpose(2, 1, 0))  # [j, i, matrix]
    sums, total = np.zeros(cols.shape[1:], dtype=np.int64), 0
    for step in range(1, 1 << n):
        j = (step & -step).bit_length() - 1
        added = (step ^ step >> 1) >> j & 1
        sums = (sums + cols[j] if added else sums - cols[j]) % _PRIME
        prod = reduce(lambda x, y: x * y % _PRIME, sums)
        total += prod if (n - step) % 2 == 0 else _PRIME - prod
    return total % _PRIME


def evaluate_oracle(table: CoefficientTable, npoints: int = 20,
                    seed: int = 7) -> float:
    """Share of random points at which the table misses its polynomial.

    A point is N distinct nonzero residues z mod the prime P = 2^31 - 1.
    Every row is evaluated there mod P, in blocks: det(z_a^{m_b}) for
    fermions; perm(z_a^{m_b}) / prod n_k! for bosons, as the permanent
    counts each monomial prod n_k! times.  The coefficient-weighted sum
    must equal prod_{j<k} (z_k - z_j)^p mod P, so a correct table gives
    0.0.  A wrong one differs by a nonzero polynomial of degree
    pN(N-1)/2, which vanishes at a random point with probability at
    most pN(N-1)/2P (Schwartz-Zippel).  The check is independent of how
    the table was produced.
    """
    p, N = table.p, table.N
    rng = np.random.default_rng(seed)
    kernel = _det_mod if p % 2 else _perm_mod
    coeffs = table.values % _PRIME
    if p % 2 == 0:
        coeffs = coeffs * _inverse(table.factorials % _PRIME) % _PRIME
    size = _BLOCK // (N * N) + 1
    blocks = [(table.configs[lo:lo + size], coeffs[lo:lo + size])
              for lo in range(0, len(table), size)]
    misses = 0
    for _ in range(npoints):
        z = (rng.choice(_PRIME - 1, size=N, replace=False) + 1).tolist()
        powers = np.array([[pow(v, e, _PRIME) for e in range(p * N - p + 1)]
                           for v in z])  # [a, e] = z_a^e
        total = sum(int((c * kernel(powers[:, m].transpose(1, 0, 2))
                         % _PRIME).sum()) for m, c in blocks)
        direct = math.prod(z[k] - z[j] for j in range(N)
                           for k in range(j + 1, N))
        misses += (total - pow(direct, p, _PRIME)) % _PRIME != 0
    return misses / npoints


# -- disk cache --------------------------------------------------------------

_CACHE_MAGIC = "LAUGHLIN-COEFF v1"


def cache_path(cache_dir: str, p: int, N: int) -> str:
    return os.path.join(cache_dir, f"coeff_p{p}_N{N}.txt")


def save_cache(table: CoefficientTable, path: str) -> None:
    """Write a table in the line-oriented cache format.

    Header ``LAUGHLIN-COEFF v1 p=<p> N=<N> count=<k>``, one
    ``m_1,...,m_N:<integer>`` line per row, in the table's lexicographic
    order, and a trailing ``checksum=<hex>`` over all preceding bytes.
    """
    row = ",".join(["%d"] * table.N) + ":%d\n"
    rows = zip(*table.configs.T.tolist(), table.values.tolist())
    data = (f"{_CACHE_MAGIC} p={table.p} N={table.N} count={len(table)}\n"
            + "".join([row % r for r in rows])).encode()
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


def load_cache(path: str, expected_p: int, expected_N: int
               ) -> CoefficientTable:
    """Read and fully validate a cache file written by :func:`save_cache`,
    whose header must name ``expected_p`` and ``expected_N``; any fault in
    its contents raises :class:`CacheError`."""
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
    if p != expected_p:
        raise CacheError(f"{path}: header p={p}, expected {expected_p}")
    if N != expected_N:
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
    keys, values = [], []
    for line in body:
        try:
            key, value = line.split(":")
            keys.append(tuple(map(int, key.split(","))))
            values.append(int(value))
        except ValueError as exc:
            raise CacheError(f"{path}: malformed line {line!r}") from exc
    misfit = next((m for m in keys if len(m) != N), None)
    if misfit is not None:
        raise CacheError(f"{path}: inadmissible key {misfit}")
    big = [m for m, c in zip(keys, values) if abs(c) >= lattice.INT64_LIMIT]
    if big:
        raise CacheError(f"{path}: coefficient beyond int64 at {big[0]}")
    try:
        keys = np.array(keys, dtype=np.int64).reshape(count, N)
    except OverflowError as exc:  # far off any lattice
        raise CacheError(f"{path}: inadmissible key beyond int64") from exc
    values = np.array(values, dtype=np.int64)
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
        m = tuple(keys[np.argmax(inadmissible)].tolist())
        raise CacheError(f"{path}: inadmissible key {m}")
    # The rows strictly increase: no key twice, and sorted.
    order = np.lexsort(keys.T[::-1])
    twice = (np.diff(keys[order], axis=0) == 0).all(axis=1)
    if twice.any():
        m = tuple(keys[order[np.argmax(twice)]].tolist())
        raise CacheError(f"{path}: duplicate key {m}")
    moved = order != np.arange(count)
    if moved.any():
        m = tuple(keys[np.argmax(moved)].tolist())
        raise CacheError(f"{path}: row out of lexicographic order at {m}")
    if not values.all():
        m = tuple(keys[np.argmin(values != 0)].tolist())
        raise CacheError(f"{path}: explicit zero coefficient at {m}")
    try:
        return CoefficientTable(p, N, configs=keys, values=values)
    except ConfigError as exc:
        raise CacheError(f"{path}: {exc}") from exc

