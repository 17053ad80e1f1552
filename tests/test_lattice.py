import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak_mb
from laughlin.lattice import (CapExceeded, ConfigError, ConfigIndex,
                              ModelParams, configurations,
                              enumerate_admissible, enumerate_partitions,
                              is_canonical, occupation_rows, renewal_points,
                              staircase, total_momentum)
from test_reference import is_admissible


def round_trip(m, num_sites):
    """One configuration through its occupation row and back."""
    occ = occupation_rows(np.array([m]), num_sites)[0]
    return tuple(np.repeat(np.arange(num_sites), occ).tolist())


def test_staircase_values():
    assert [staircase(3, k) for k in range(5)] == [0, 0, 3, 9, 18]
    assert [staircase(2, k) for k in range(5)] == [0, 0, 2, 6, 12]
    assert staircase(1, 6) == 15


def test_model_params_basic():
    mp = ModelParams(p=3, N=4, gamma=1.0)
    assert mp.fermionic
    assert mp.root_config == (0, 3, 6, 9)
    assert not ModelParams(p=2, N=2, gamma=0.5).fermionic


def test_model_params_validation():
    with pytest.raises(ConfigError):
        ModelParams(p=0, N=2, gamma=1.0)
    with pytest.raises(ConfigError):
        ModelParams(p=3, N=0, gamma=1.0)
    with pytest.raises(ConfigError):
        ModelParams(p=3, N=2, gamma=-1.0)


def test_admissible_p3_n3_by_hand():
    # All weakly increasing m on {0..6} with partial sums >= (0, 3, 9)
    # and total exactly 9, written out by hand.
    expected = [(0, 3, 6), (0, 4, 5), (1, 2, 6), (1, 3, 5), (2, 3, 4)]
    assert enumerate_admissible(3, 3) == expected


def test_configurations_limit_raises_before_building_the_sector():
    # Without a floor every prefix completes, so the search stops at the
    # first length with more than `limit` prefixes instead of building
    # the 81,805 rows (5.2 MB) of this bosonic sector.
    full = configurations(8, 22, 84, False)
    assert len(full) == 81805
    assert len(configurations(8, 22, 84, False, limit=81805)) == 81805
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="more than 100 configurations"):
            configurations(8, 22, 84, False, limit=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full.nbytes / 20


def test_renewal_points_worked_examples():
    assert renewal_points((0, 3), 3) == (0, 3, 6)
    assert renewal_points((1, 2), 3) == (0, 6)
    assert renewal_points((0, 3, 6), 3) == (0, 3, 6, 9)
    assert renewal_points((2, 3, 4), 3) == (0, 9)
    # The prefix (0, 3) is minimal, so 3 and 6 are both renewal points.
    assert renewal_points((0, 3, 7, 8), 3) == (0, 3, 6, 12)


def test_renewal_points_occupation_matches():
    assert renewal_points(round_trip((1, 2), 7), 3) == (0, 6)
    assert renewal_points(round_trip((0, 3, 7, 8), 13), 3) == (0, 3, 6, 12)


def test_enumerate_partitions():
    parts = enumerate_partitions(4)
    # Compositions of 4: 2^3 of them.
    assert len(parts) == 8
    assert all(sum(q) == 4 for q in parts)
    assert len(set(parts)) == 8
    with pytest.raises(CapExceeded):
        enumerate_partitions(25)


def test_occupation_round_trip():
    m = (0, 3, 3, 7)
    assert occupation_rows(np.array([m]), 9).tolist() == [
        [1, 0, 0, 2, 0, 0, 0, 1, 0]]
    assert round_trip(m, 9) == m


def bincount_occupations(configs, num_sites):
    """Occupation rows by one bincount over the flat (D * sites) range."""
    count = len(configs)
    flat = np.arange(count)[:, None] * num_sites + configs
    counts = np.bincount(flat.ravel(), minlength=count * num_sites)
    return counts.astype(np.int8).reshape(count, num_sites)


def test_occupation_rows_match_one_bincount(tables_p3, tables_p2):
    """Fermionic rows, bosonic rows with multiple occupancy, and the
    zeroed rows ConfigIndex.find gives configurations off the lattice."""
    for configs, sites in ((tables_p3[-1].configs, 24),
                           (tables_p2[-1].configs, 16),
                           (configurations(4, 7, 9, False), 7)):
        got = occupation_rows(configs, sites)
        assert got.dtype == np.int8 and got.shape == (len(configs), sites)
        assert np.array_equal(got, bincount_occupations(configs, sites))
    assert occupation_rows(tables_p2[-1].configs, 16).max() > 1
    configs = np.array([[0, 3, 6], [-1, 3, 6], [0, 3, 9], [2, 2, 5]])
    index = ConfigIndex(configurations(3, 7, 9, True), 7)
    inside = ((configs >= 0) & (configs < 7)).all(axis=1, keepdims=True)
    zeroed = configs * inside
    assert occupation_rows(zeroed, 7)[1].tolist() == [3, 0, 0, 0, 0, 0, 0]
    assert np.array_equal(occupation_rows(zeroed, 7),
                          bincount_occupations(zeroed, 7))
    assert (index.find(configs) >= 0).tolist() == [True, False, False, False]


def test_occupation_rows_build_no_wider_table(tables_p3):
    """Peak memory stays within three times the int8 result: an int64
    count per site would be eight."""
    configs = tables_p3[-1].configs
    result = len(configs) * 24
    assert traced_peak_mb(occupation_rows, configs, 24) * 1e6 < 3 * result


def admissible_pool():
    pool = []
    for p in (1, 2, 3):
        for N in (2, 3, 4, 5):
            pool.extend((p, m) for m in enumerate_admissible(p, N))
    return pool


_POOL = admissible_pool()


@given(st.sampled_from(_POOL))
def test_renewal_criteria_agree(case):
    # Renewal points survive the round trip through occupation numbers.
    p, m = case
    pts = renewal_points(m, p)
    assert renewal_points(round_trip(m, p * (len(m) - 1) + 1), p) == pts
    assert pts[0] == 0 and pts[-1] == p * len(m)
    assert total_momentum(p, len(m)) == sum(m)
    assert is_canonical(m)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5))
def test_enumeration_is_sound_and_canonical(p, N):
    configs = enumerate_admissible(p, N)
    assert len(set(configs)) == len(configs)
    assert configs == sorted(configs)
    fermionic = p % 2 == 1
    for m in configs:
        assert is_admissible(m, p)
        assert is_canonical(m)
        if fermionic:
            assert len(set(m)) == len(m)
