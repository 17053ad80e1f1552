import hashlib
import itertools
import math
import os
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laughlin import expansion, lattice
from laughlin.expansion import (CacheError, CoefficientTable, amplitudes,
                                cache_path, evaluate_oracle, expand,
                                expand_all, load_cache, save_cache,
                                verify_product_rule)
from laughlin.lattice import (CapExceeded, ConfigError, check_cap,
                              config_tuples, enumerate_admissible,
                              renewal_points)
from test_reference import config_to_occupation, is_admissible


def test_two_particle_tables_by_hand():
    # (Z2 - Z1)^3 = Z2^3 - 3 Z1 Z2^2 + 3 Z1^2 Z2 - Z1^3: Slater keys
    # (0,3) and (1,2) with coefficients +1 and -3.
    assert expand_all(3, 2)[-1].coeffs == {(0, 3): 1, (1, 2): -3}
    # (Z2 - Z1)^2 = Z2^2 - 2 Z1 Z2 + Z1^2: monomial keys (0,2) and (1,1).
    assert expand_all(2, 2)[-1].coeffs == {(0, 2): 1, (1, 1): -2}
    assert expand_all(1, 2)[-1].coeffs == {(0, 1): 1}


def test_vandermonde_reduces_to_root():
    for N in range(2, 9):
        assert expand_all(1, N, cap=10)[-1].coeffs == {tuple(range(N)): 1}
    assert expand_all(1, 11, cap=11)[-1].coeffs == {tuple(range(11)): 1}


def test_keys_admissible_and_root_positive():
    for p in (2, 3):
        for table in expand_all(p, 6):
            for m in table.coeffs:
                assert is_admissible(m, p)
            assert table.coeffs[table.root_config] == 1


def test_oracle_exact():
    cases = [(p, N) for p in (1, 2, 3) for N in (2, 3, 4, 5)]
    for p, N in cases + [(4, 5), (5, 4)]:
        table = expand_all(p, N)[-1]
        assert evaluate_oracle(table, npoints=4) == 0.0


def corrupted(table, row, delta=1):
    values = table.values.copy()
    values[row] += delta
    return CoefficientTable(table.p, table.N, configs=table.configs,
                            values=values)


def test_oracle_detects_corruption():
    table = expand_all(3, 3)[-1]
    bad = dict(table.coeffs)
    bad[(1, 3, 5)] += 1
    corrupt = CoefficientTable(3, 3, bad)
    assert evaluate_oracle(corrupt, npoints=2) > 0.0
    # bosonic tables, one coefficient off by one in either direction
    for p, N in ((2, 4), (2, 6), (4, 4)):
        table = expand_all(p, N)[-1]
        for row, delta in ((len(table) // 2, 1), (len(table) - 1, -1)):
            assert evaluate_oracle(corrupted(table, row, delta),
                                   npoints=2) == 1.0


def test_oracle_deterministic_for_a_seed(monkeypatch):
    # Modulo a small prime a wrong table passes at some points, so the
    # share of failing points depends on the points drawn; and zero
    # pivots, which need a row exchange, are frequent.
    monkeypatch.setattr(expansion, "_PRIME", 31)
    for p, N in ((3, 4), (2, 4)):
        table = expand_all(p, N)[-1]
        assert evaluate_oracle(table, npoints=30, seed=5) == 0.0
        bad = corrupted(table, len(table) // 2)
        share = evaluate_oracle(bad, npoints=30, seed=5)
        assert 0.0 < share < 1.0
        assert evaluate_oracle(bad, npoints=30, seed=5) == share


def leibniz(mat, sign):
    """The determinant (sign=True) or the permanent of an integer matrix,
    summed over all permutations."""
    n, total = len(mat), 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        total += ((-1) ** inversions if sign else 1) * math.prod(
            mat[i][perm[i]] for i in range(n))
    return total


def test_modular_det_and_permanent_match_exact_values():
    P = expansion._PRIME
    rng = np.random.default_rng(0)
    mats = [[[0, 1], [1, 0]],                    # exchange at the first pivot
            [[1, 2, 3], [2, 4, 7], [1, 5, 2]],   # exchange at the second
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],   # singular
            [[0, 0], [3, 4]],                    # zero column
            [[-5, 2**40], [7, -(2**35)]]]
    mats += [rng.integers(-10**6, 10**6, (n, n)).tolist() for n in (1, 2, 4)]
    for mat in mats:
        a = np.array(mat, dtype=np.int64)[None] % P
        assert expansion._det_mod(a).tolist() == [leibniz(mat, True) % P]
        assert expansion._perm_mod(a).tolist() == [leibniz(mat, False) % P]
    # a stack of the same size at once, each matrix on its own
    stack = rng.integers(0, P, (6, 3, 3))
    assert expansion._det_mod(stack).tolist() == [
        leibniz(m.tolist(), True) % P for m in stack]
    assert expansion._perm_mod(stack).tolist() == [
        leibniz(m.tolist(), False) % P for m in stack]


def test_product_rule_small():
    for p in (1, 2, 3):
        report = verify_product_rule(p, 5, tables=expand_all(p, 5))
        assert report.ok
        assert report.checked > 0


def test_product_rule_takes_the_tables_of_1_to_N():
    tables = expand_all(3, 5)
    for p, N, given in ((3, 4, tables), (3, 5, tables[1:]),
                        (2, 5, tables), (3, 6, tables)):
        with pytest.raises(ConfigError, match="1.."):
            verify_product_rule(p, N, tables=given)


def test_columns_worked_example():
    # (Z2 - Z1)^2: keys (0,2) and (1,1) on the sites 0..3.
    table = expand_all(2, 2)[-1]
    assert table.configs.tolist() == [[0, 2], [1, 1]]
    assert table.occupations.tolist() == [[1, 0, 1, 0], [0, 2, 0, 0]]
    assert table.exponents.tolist() == [0, 2]
    assert table.factorials.tolist() == [1, 2]
    assert table.renewal.tolist() == [[True, True, True],
                                      [True, False, True]]
    assert table.irreducible.tolist() == [False, True]
    amp = amplitudes(table, 1.0)
    assert np.array_equal(amp.occ, amp.amp / np.sqrt([1.0, 2.0]))


@pytest.mark.parametrize("p, N", ((1, 8), (2, 7), (3, 6), (4, 5)))
def test_factorials_match_the_row_products(p, N):
    """The site-by-site column holds prod_k n_k! of each row, as int64."""
    for table in expand_all(p, N):
        fact = np.array([math.factorial(n) for n in range(N + 1)])
        expect = fact[table.occupations].prod(axis=1)
        assert table.factorials.dtype == np.int64
        assert np.array_equal(table.factorials, expect)


def test_coeffs_is_a_read_only_view_of_the_arrays():
    table = expand_all(3, 6)[-1]
    with pytest.raises(TypeError):
        table.coeffs[table.root_config] = 2
    with pytest.raises(ValueError):
        table.values[0] = 2
    assert table.coeffs == dict(zip(config_tuples(table.configs),
                                    table.values.tolist()))
    # a hand-built table sorts its keys into the same arrays
    items = list(table.coeffs.items())
    random.Random(5).shuffle(items)
    rebuilt = CoefficientTable(3, 6, dict(items))
    assert rebuilt.configs.dtype == rebuilt.values.dtype == np.int64
    assert np.array_equal(rebuilt.configs, table.configs)
    assert np.array_equal(rebuilt.values, table.values)


def test_amplitudes_worked_example():
    gamma = 1.0
    amp = amplitudes(expand_all(3, 2)[-1], gamma)
    a = dict(zip(amp.table.coeffs, amp.amp))
    assert a[(0, 3)] == pytest.approx(1.0, abs=0.0)
    assert a[(1, 2)] == pytest.approx(-3.0 * math.exp(-2 * gamma ** 2),
                                      rel=1e-15)
    assert amp.norm_sq() == pytest.approx(1 + 9 * math.exp(-4 * gamma ** 2),
                                          rel=1e-15)

    bamp = amplitudes(expand_all(2, 2)[-1], gamma)
    # Occupation amplitude of the doubly occupied key carries 1/sqrt(2!).
    assert dict(zip(bamp.table.coeffs, bamp.occ))[(1, 1)] == pytest.approx(
        -math.sqrt(2.0) * math.exp(-gamma ** 2), rel=1e-15)
    assert bamp.norm_sq() == pytest.approx(1 + 2 * math.exp(-2 * gamma ** 2),
                                           rel=1e-15)


def test_root_dominates_amplitudes():
    for p, N in [(3, 5), (2, 5)]:
        amp = amplitudes(expand_all(p, N)[-1], 0.8)
        root = tuple(p * j for j in range(N))
        a_of = dict(zip(amp.table.coeffs, amp.amp))
        assert a_of[root] == 1.0
        assert all(abs(a) <= len(a_of) * 10 for a in a_of.values())
        # The Gaussian exponent is strictly negative off the root.
        for m, a in a_of.items():
            if m != root:
                assert abs(a) < abs(amp.p * amp.N * 100)


def test_amplitudes_bad_gamma():
    table = expand_all(3, 2)[-1]
    with pytest.raises(ConfigError):
        amplitudes(table, 0.0)
    with pytest.raises(ConfigError):
        amplitudes(table, float("nan"))


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        expand_all(3, 11)
    with pytest.raises(CapExceeded):
        expand_all(2, 11)
    with pytest.raises(CapExceeded):
        check_cap(3, 11)
    check_cap(3, 11, cap=12)


def test_expand_computes_one_table(monkeypatch):
    # Given the tables of 1..5 particles, expand computes the table of 6
    # alone, filling its reducible rows from them, and reads no file.
    tables = expand_all(3, 6)
    searched = []
    search = expansion.configurations

    def counting(N, *args, **kwargs):
        searched.append(N)
        return search(N, *args, **kwargs)

    def refuse(path, **kwargs):
        raise AssertionError(f"expand read {path}")

    monkeypatch.setattr(expansion, "configurations", counting)
    monkeypatch.setattr(expansion, "load_cache", refuse)
    sizes = {}
    table = expand(3, 6, tables[:5], sizes=sizes)
    assert searched == [6]
    assert sizes["filled"] > 0
    assert table.coeffs == tables[5].coeffs


@pytest.mark.parametrize("limit, what", ((2 ** 12, "occupation keys"),
                                         (2 ** 20, "squeezing sums")))
def test_int64_bound_raises_cap(monkeypatch, limit, what):
    # At p=3 the keys need 11 bits at N=5 and 14 at N=6, and the
    # squeezing sums of N=6 over 20.
    smaller = expand_all(3, 5)
    monkeypatch.setattr(lattice, "INT64_LIMIT", limit)
    where = {"occupation keys": "6 particles on 16 sites",
             "squeezing sums": "p=3, N=6"}[what]
    with pytest.raises(CapExceeded, match=f"{what} of {where}"):
        expand(3, 6, smaller)
    with pytest.raises(CapExceeded):
        expand_all(3, 6)


def test_product_bound_raises_cap(monkeypatch):
    # At p=3, N=6 the largest coefficients of the tables of 1..5
    # particles multiply to at most 945 (10 bits), while the keys need
    # 14 bits and the squeezing sums over 20.
    smaller = expand_all(3, 5)
    monkeypatch.setattr(lattice, "INT64_LIMIT", 2 ** 9)
    with pytest.raises(CapExceeded,
                       match="product-rule coefficients of p=3, N=6"):
        expand(3, 6, smaller)
    with pytest.raises(ConfigError, match="those of 1..5 particles"):
        expand(3, 6, smaller[:4])


def test_carrying_unsqueeze_never_looked_up(monkeypatch):
    # Some unsqueezes put more bosons on a site than any admissible
    # configuration has there; packed, that site's digit would carry and
    # the key would name a different configuration.  Exactly the other
    # unsqueezes of every irreducible configuration are looked up, each
    # by the key of the configuration it makes; the reducible ones take
    # their coefficients from the product rule and unsqueeze nothing.
    # (At p=2, N=5 the irreducible rows have no carrying unsqueeze.)
    p, N = 4, 5
    configs = enumerate_admissible(p, N)
    sites = p * (N - 1) + 1
    limit = [max(col) for col in
             zip(*(config_to_occupation(m, sites) for m in configs))]
    radix = [n + 1 for n in limit[:-2]]
    weight = [math.prod(radix[s + 1:]) for s in range(len(radix))] + [0, 0]
    expected, carrying, reducible = Counter(), 0, 0
    for m in configs:
        irreducible = len(renewal_points(m, p)) == 2
        for i in range(N):
            for j in range(i + 1, N):
                s = m[i] + m[j]
                rest = m[:i] + m[i + 1:j] + m[j + 1:]
                for b in range(max(0, s - p * (N - 1)), m[i]):
                    occ = config_to_occupation(rest + (b, s - b), sites)
                    if not irreducible:
                        reducible += 1
                    elif any(n > cap for n, cap in zip(occ, limit)):
                        carrying += 1
                    else:
                        expected[-sum(map(math.prod, zip(occ, weight)))] += 1
    assert carrying > 0 and reducible > 0
    tables = expand_all(p, N)
    looked_up = Counter()
    find = expansion.find_keys

    def spy(keys, targets):
        looked_up.update(targets.tolist())
        return find(keys, targets)

    monkeypatch.setattr(expansion, "find_keys", spy)
    assert expand(p, N, tables[:-1]).coeffs == tables[-1].coeffs
    assert looked_up == expected


def write_body(path, p, N, body):
    """A cache file around the given body lines, with a valid checksum."""
    lines = [f"LAUGHLIN-COEFF v1 p={p} N={N} count={len(body)}\n", *body]
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    with open(path, "w") as fh:
        fh.writelines(lines + [f"checksum={digest}\n"])


@pytest.mark.parametrize("body, message", (
    (["0,3,6:1\n", "0,4,5\n"], "malformed line"),
    (["0,3,6:1\n", "0,4,5:2:3\n"], "malformed line"),
    (["0,3,6:1\n", "0,x,5:-3\n"], "malformed line"),
    (["0,3,6:1\n", "0,4,5:y\n"], "malformed line"),
    (["0,3,6:1\n", "0,5,4:-3\n"], "malformed line"),
    (["0,3,6:1\n", "0,9:-3\n"], r"inadmissible key \(0, 9\)"),
    (["0,3,6:1\n", "1,1,7:-3\n"], r"inadmissible key \(1, 1, 7\)"),
    (["-1,4,6:1\n", "0,3,6:1\n"], r"inadmissible key \(-1, 4, 6\)"),
    (["0,3,6:1\n", "0,4,6:-3\n"], r"inadmissible key \(0, 4, 6\)"),
    # a sum past int64 that would wrap around to the staircase total
    (["0,3,6:1\n", f"11,{2 ** 63 - 1},{2 ** 63 - 1}:-3\n"],
     r"inadmissible key \(11, "),
    (["0,3,6:1\n", f"0,4,{2 ** 64}:-3\n"], "inadmissible key beyond int64"),
    (["0,3,6:1\n", "0,4,5:-3\n", "0,3,6:1\n"],
     r"duplicate key \(0, 3, 6\)"),
    (["0,3,6:1\n", "0,4,5:0\n"], r"explicit zero coefficient at \(0, 4, 5\)"),
    (["0,4,5:-3\n"], "must carry coefficient"),
    # rows in reverse order: the root is not the first row
    (["0,4,5:-3\n", "0,3,6:1\n"],
     r"row out of lexicographic order at \(0, 4, 5\)"),
    (["0,3,6:1\n", f"0,4,5:{2 ** 63}\n"],
     r"coefficient beyond int64 at \(0, 4, 5\)"),
    # int64 holds -2^63, but not its absolute value
    (["0,3,6:1\n", f"0,4,5:{-2 ** 63}\n"],
     r"coefficient beyond int64 at \(0, 4, 5\)"),
))
def test_cache_rejects_corrupt_body(tmp_path, body, message):
    path = str(tmp_path / "table.txt")
    write_body(path, 3, 3, body)
    with pytest.raises(CacheError, match=message):
        load_cache(path, 3, 3)


@pytest.mark.parametrize("p, N, digest", (
    (3, 7, "7526b5cba98122d23d8da9964dffb529df6bf0f616649aee2e68fbb2370ef4f6"),
    (2, 7, "fb78fabf6936c2469d1d22bab237f1193e8931eab0b340505b252eb19bf6e460"),
    (4, 5, "d53ed596f9a3350b385f7b62d0d4dc9be875c402475579f87d5ab395cf22f7b9"),
))
def test_cache_file_bytes_pinned(tmp_path, p, N, digest):
    # The files are integer text, so their digests hold on any host.
    path = cache_path(str(tmp_path), p, N)
    save_cache(expand_all(p, N)[-1], path)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_cache_round_trip(tmp_path):
    table = expand_all(3, 4)[-1]
    path = cache_path(str(tmp_path), 3, 4)
    save_cache(table, path)
    loaded = load_cache(path, expected_p=3, expected_N=4)
    assert loaded.coeffs == table.coeffs


def test_cache_write_ignores_stale_temp_name(tmp_path):
    table = expand_all(3, 3)[-1]
    path = cache_path(str(tmp_path), 3, 3)
    os.mkdir(path + ".tmp")
    save_cache(table, path)
    assert load_cache(path, expected_p=3, expected_N=3).coeffs == table.coeffs
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(path),
                                            os.path.basename(path) + ".tmp"]
    # A failed rename leaves no temporary file behind.
    blocked = str(tmp_path / "blocked")
    os.mkdir(blocked)
    with pytest.raises(OSError):
        save_cache(table, blocked)
    assert len(os.listdir(tmp_path)) == 3


def test_cache_rejects_tampering(tmp_path):
    table = expand_all(3, 3)[-1]
    path = cache_path(str(tmp_path), 3, 3)
    save_cache(table, path)
    with open(path) as fh:
        lines = fh.readlines()
    lines[1] = lines[1].replace(":", ":-")
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(CacheError):
        load_cache(path, 3, 3)


def test_cache_rejects_wrong_header(tmp_path):
    table = expand_all(3, 3)[-1]
    path = cache_path(str(tmp_path), 3, 3)
    save_cache(table, path)
    with pytest.raises(CacheError):
        load_cache(path, expected_p=2, expected_N=3)
    with open(path, "w") as fh:
        fh.write("NOT-A-CACHE\n")
    with pytest.raises(CacheError):
        load_cache(path, 3, 3)


def test_cache_rejects_unsorted_key_under_valid_checksum(tmp_path):
    table = expand_all(3, 3)[-1]
    path = cache_path(str(tmp_path), 3, 3)
    save_cache(table, path)
    with open(path) as fh:
        lines = fh.readlines()
    key, value = lines[1].split(":")
    lines[1] = ",".join(reversed(key.split(","))) + ":" + value
    body = lines[:-1]
    digest = hashlib.sha256("".join(body).encode()).hexdigest()
    with open(path, "w") as fh:
        fh.writelines(body + [f"checksum={digest}\n"])
    with pytest.raises(CacheError, match="malformed line"):
        load_cache(path, 3, 3)


def test_cache_rejects_binary_file(tmp_path):
    path = cache_path(str(tmp_path), 3, 3)
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe\x00garbage\n\x80\n")
    with pytest.raises(CacheError):
        load_cache(path, 3, 3)


def test_root_coefficient_enforced():
    with pytest.raises(ConfigError):
        CoefficientTable(3, 2, {(0, 3): 2, (1, 2): -3})


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=5))
def test_norm_decreases_with_gamma(p, N):
    # C_N -> 1 monotonically from above as gamma grows: every non-root
    # amplitude is damped by a strictly negative exponent.
    table = expand_all(p, N)[-1]
    norms = [amplitudes(table, g).norm_sq() for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] >= 1.0
    assert norms[-1] == pytest.approx(1.0, abs=1e-4)
