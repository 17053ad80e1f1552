"""Moment tables: derivation, the cache file format and its validation."""

import hashlib
import math
import os
import sys
import threading

import numpy as np
import pytest

from laughlin import moments
from laughlin.expansion import (CacheError, CoefficientTable, amplitudes,
                                cache_path, expand_all, load_cache,
                                save_cache)
from laughlin.moments import derive, load_moments, moment_path


def cache_table(cache: str, p: int, N: int) -> CoefficientTable:
    """Compute the coefficient table of (p, N) and write it to ``cache``."""
    table = expand_all(p, N)[-1]
    os.makedirs(cache, exist_ok=True)
    save_cache(table, cache_path(cache, p, N))
    return table


@pytest.fixture(params=[(3, 5), (2, 5)])
def cached(request, tmp_path):
    """A cache holding the coefficient table and moment file of (p, N)."""
    p, N = request.param
    cache = str(tmp_path / "cache")
    table = cache_table(cache, p, N)
    moments.store(table, cache)
    return cache, table


def resign(path, edit):
    """Apply ``edit`` to the bytes before the checksum line and re-sign."""
    with open(path, "rb") as fh:
        body = fh.read()[:-moments._TRAILER]
    body = edit(body)
    with open(path, "wb") as fh:
        fh.write(body + b"checksum=" + hashlib.sha256(body).hexdigest()
                 .encode() + b"\n")


def test_worked_example():
    # p=3, N=2: c(0,3) = 1 and c(1,2) = -3, exponents 0 and 4; the root
    # has a renewal point at 3, (1,2) is irreducible.
    m = derive(expand_all(3, 2)[-1])
    assert m.denominator == 1
    assert m.exponents.tolist() == [0, 4]
    assert m.norm == (1, 9) and m.alpha == (0, 9)
    assert m.occupations.tolist() == [[1, 0, 0, 1, 0, 0], [0, 9, 9, 0, 0, 0]]
    assert m.norm_sq(1.0) == 1.0 + 9.0 * math.exp(-4.0)
    # bosons p=2, N=2: (0,2) and (1,1) with prod n_k! = 2 over N! = 2
    m = derive(expand_all(2, 2)[-1])
    assert m.denominator == 2
    assert m.exponents.tolist() == [0, 2]
    assert [c / m.denominator for c in m.norm] == [1.0, 2.0]


def test_round_trip(cached):
    cache, table = cached
    stored = moments.read(cache, table.p, table.N)
    fresh = derive(table)
    source = moments.file_sha256(cache_path(cache, table.p, table.N))
    with open(moment_path(cache, table.p, table.N), "rb") as fh:
        assert f"source={source}" in fh.readline().decode().split()
    assert (stored.p, stored.N, stored.denominator) == \
        (fresh.p, fresh.N, fresh.denominator)
    assert stored.norm == fresh.norm and stored.alpha == fresh.alpha
    for name in ("exponents", "occupations", "rod_profile", "rod_pairs"):
        assert np.array_equal(getattr(stored, name), getattr(fresh, name))


def test_rederived_file_is_byte_identical(cached, tmp_path):
    cache, table = cached
    path = moment_path(cache, table.p, table.N)
    with open(path, "rb") as fh:
        first = fh.read()
    os.remove(path)
    reloaded = load_cache(cache_path(cache, table.p, table.N),
                          expected_p=table.p, expected_N=table.N)
    moments.store(reloaded, cache)
    with open(path, "rb") as fh:
        assert fh.read() == first


def test_concurrent_derivations_leave_one_valid_file(tmp_path):
    cache = str(tmp_path / "cache")
    table = cache_table(cache, 3, 6)
    writers = 4   # more than the cores of a small host
    start = threading.Barrier(writers)
    errors = []

    def derive_and_store():
        try:
            start.wait(timeout=60)
            moments.store(table, cache)
        except Exception as exc:  # reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=derive_and_store)
                   for _ in range(writers)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    assert not errors
    assert sorted(os.listdir(cache)) == ["coeff_p3_N6.txt",
                                         "moments_p3_N6.bin"]
    assert moments.read(cache, 3, 6).norm == derive(table).norm


@pytest.mark.parametrize("edit, message", [
    (lambda b: b"LAUGHLIN-MOMENTX" + b[16:], "bad magic"),
    (lambda b: b.replace(b" N=", b" M=", 1), "malformed header"),
    (lambda b: b.replace(b"exponents=", b"exponents=1", 1),
     "sizes disagree"),
    (lambda b: b[:-8], "sizes disagree"),
    (lambda b: b[:-8] + np.array([np.nan]).tobytes(), "invalid float sums"),
    (lambda b: b.replace(b"source=", b"source=0", 1), "stale"),
])
def test_corrupt_moment_file_raises(cached, edit, message):
    cache, table = cached
    resign(moment_path(cache, table.p, table.N), edit)
    with pytest.raises(CacheError, match=message):
        moments.read(cache, table.p, table.N)


def test_checksum_mismatch_raises(cached):
    cache, table = cached
    path = moment_path(cache, table.p, table.N)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-moments._TRAILER - 3] ^= 1   # one bit of the float sums
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(CacheError, match="checksum mismatch"):
        moments.read(cache, table.p, table.N)


def test_stale_after_coefficient_file_changes(cached):
    cache, table = cached
    coeffs = dict(table.coeffs)
    m = next(m for m in coeffs if m != table.root_config)
    coeffs[m] += 1
    save_cache(CoefficientTable(table.p, table.N, coeffs),
               cache_path(cache, table.p, table.N))
    with pytest.raises(CacheError, match="stale"):
        moments.read(cache, table.p, table.N)
    os.remove(cache_path(cache, table.p, table.N))
    with pytest.raises(CacheError, match="missing"):
        moments.read(cache, table.p, table.N)


def test_wrong_table_size_raises(cached):
    cache, table = cached
    path = moment_path(cache, table.p, table.N)
    with pytest.raises(CacheError, match="expected"):
        load_moments(path, cache_path(cache, table.p, table.N), table.p,
                     table.N + 1)


def test_save_needs_source_digest():
    with pytest.raises(ValueError):
        moments.save_moments(derive(expand_all(3, 2)[-1]), "unused", "")


@pytest.mark.parametrize("gamma", (0.5, 1.0, 2.0))
def test_evaluation_matches_amplitudes(gamma):
    for table in expand_all(3, 6) + expand_all(2, 6):
        m = derive(table)
        w = amplitudes(table, gamma).weights
        assert m.norm_sq(gamma) == pytest.approx(w.sum(), rel=1e-14)
        keep = table.irreducible
        assert m.irreducible_weight(gamma) == pytest.approx(w[keep].sum(),
                                                            rel=1e-14)
        occ = table.occupations.astype(float)
        alpha, profile, pair = m.rod(gamma)
        assert profile == pytest.approx(w[keep] @ occ[keep], rel=1e-13,
                                        abs=1e-300)
        assert pair == pytest.approx((occ[keep].T * w[keep]) @ occ[keep],
                                     rel=1e-13, abs=1e-300)
