import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laughlin.lattice import (CapExceeded, ConfigError, ModelParams,
                              config_to_occupation, configurations,
                              enumerate_admissible, enumerate_partitions,
                              is_admissible, is_canonical,
                              occupation_to_config, renewal_points,
                              staircase, translate_config, total_momentum)


def test_staircase_values():
    assert [staircase(3, k) for k in range(5)] == [0, 0, 3, 9, 18]
    assert [staircase(2, k) for k in range(5)] == [0, 0, 2, 6, 12]
    assert staircase(1, 6) == 15


def test_model_params_basic():
    mp = ModelParams(p=3, N=4, gamma=1.0)
    assert mp.fermionic
    assert mp.num_orbitals == 10
    assert mp.root_config == (0, 3, 6, 9)
    assert mp.radius == pytest.approx(1.0)
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
    for m in expected:
        assert is_admissible(m, 3)
    assert not is_admissible((0, 2, 7), 3)   # second partial sum too small
    assert not is_admissible((0, 4, 6), 3)   # wrong total
    assert not is_admissible((-1, 4, 6), 3)  # negative orbital


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


def test_is_admissible_requires_sorted():
    with pytest.raises(ConfigError):
        is_admissible((3, 0), 3)


def test_renewal_points_worked_examples():
    assert renewal_points((0, 3), 3) == (0, 3, 6)
    assert renewal_points((1, 2), 3) == (0, 6)
    assert renewal_points((0, 3, 6), 3) == (0, 3, 6, 9)
    assert renewal_points((2, 3, 4), 3) == (0, 9)
    # The prefix (0, 3) is minimal, so 3 and 6 are both renewal points.
    assert renewal_points((0, 3, 7, 8), 3) == (0, 3, 6, 12)


def test_renewal_points_occupation_matches():
    n = config_to_occupation((1, 2), 7)
    assert renewal_points(occupation_to_config(n), 3) == (0, 6)
    n = config_to_occupation((0, 3, 7, 8), 13)
    assert renewal_points(occupation_to_config(n), 3) == (0, 3, 6, 12)


def test_enumerate_partitions():
    parts = enumerate_partitions(4)
    # Compositions of 4: 2^3 of them.
    assert len(parts) == 8
    assert all(sum(q) == 4 for q in parts)
    assert len(set(parts)) == 8
    with pytest.raises(CapExceeded):
        enumerate_partitions(25)


def test_translate_config():
    assert translate_config((0, 3), 3, 2) == (6, 9)
    assert translate_config((6, 9), 3, -2) == (0, 3)


def test_occupation_round_trip():
    m = (0, 3, 3, 7)
    n = config_to_occupation(m, 9)
    assert n == (1, 0, 0, 2, 0, 0, 0, 1, 0)
    assert occupation_to_config(n) == m


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
    n = config_to_occupation(m, p * (len(m) - 1) + 1)
    assert renewal_points(occupation_to_config(n), p) == pts
    assert pts[0] == 0 and pts[-1] == p * len(m)
    assert total_momentum(p, len(m)) == sum(m)
    assert is_canonical(m)


@given(st.sampled_from(_POOL), st.integers(min_value=0, max_value=5))
def test_translate_preserves_structure(case, shift):
    p, m = case
    shifted = translate_config(m, p, shift)
    assert is_admissible(m, p)
    base = renewal_points(m, p)
    # Translation moves every renewal point rigidly.
    assert renewal_points(tuple(v - p * shift for v in shifted), p) == base


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
