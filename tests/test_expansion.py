import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laughlin import expansion
from laughlin.expansion import (CacheError, CoefficientTable, amplitudes,
                                cache_path, evaluate_oracle, expand,
                                expand_all, load_cache, save_cache,
                                verify_product_rule)
from laughlin.lattice import (CapExceeded, ConfigError, check_cap,
                              is_admissible)


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


def test_oracle_detects_corruption():
    table = expand_all(3, 3)[-1]
    bad = dict(table.coeffs)
    bad[(1, 3, 5)] += 1
    corrupt = CoefficientTable(3, 3, bad)
    assert evaluate_oracle(corrupt, npoints=2) > 0.0


def test_product_rule_small():
    for p in (1, 2, 3):
        report = verify_product_rule(p, 5)
        assert report.ok
        assert report.checked > 0


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
        expand_all(3, 9)
    with pytest.raises(CapExceeded):
        expand(2, 11)
    with pytest.raises(CapExceeded):
        check_cap(3, 9)
    check_cap(3, 9, cap=12)


def test_expand_computes_one_table(monkeypatch):
    calls = []
    squeeze = expansion._squeeze

    def counting(p, N):
        calls.append(N)
        return squeeze(p, N)

    monkeypatch.setattr(expansion, "_squeeze", counting)
    table = expand(3, 6)
    assert calls == [6]
    assert table.coeffs == expand_all(3, 6)[-1].coeffs


def test_cache_round_trip(tmp_path):
    table = expand_all(3, 4)[-1]
    path = cache_path(str(tmp_path), 3, 4)
    save_cache(table, path)
    loaded = load_cache(path, expected_p=3, expected_N=4)
    assert loaded.coeffs == table.coeffs
    # expand() must hit the cache and agree.
    again = expand(3, 4, cache_dir=str(tmp_path))
    assert again.coeffs == table.coeffs


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
        load_cache(path)


def test_cache_rejects_wrong_header(tmp_path):
    table = expand_all(3, 3)[-1]
    path = cache_path(str(tmp_path), 3, 3)
    save_cache(table, path)
    with pytest.raises(CacheError):
        load_cache(path, expected_p=2)
    with open(path, "w") as fh:
        fh.write("NOT-A-CACHE\n")
    with pytest.raises(CacheError):
        load_cache(path)


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
        load_cache(path)


def test_cache_rejects_binary_file(tmp_path):
    path = cache_path(str(tmp_path), 3, 3)
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe\x00garbage\n\x80\n")
    with pytest.raises(CacheError):
        load_cache(path)


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
