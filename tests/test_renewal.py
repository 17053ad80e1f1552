import math

import numpy as np
import pytest

from laughlin.lattice import ConfigError, enumerate_partitions
from laughlin.renewal import (RenewalModel, build_model, irreducible_weights,
                              long_interval_bound, partition_probability,
                              solve_activity)
from test_reference import (WindowEvent, finite_window_probability,
                            no_renewal_probability,
                            stationary_event_probability)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_activity_toy_quadratic():
    # alpha = (1, 1): r + r^2 = 1, the inverse golden ratio.
    r = solve_activity(np.array([1.0, 1.0]))
    assert r == pytest.approx(GOLDEN, abs=5e-16)
    mu = r + 2 * r * r
    assert mu == pytest.approx(1.3819660112501051, abs=1e-14)


def test_activity_trivial_and_errors():
    assert solve_activity(np.array([1.0])) == 1.0
    with pytest.raises(ConfigError):
        solve_activity(np.array([0.0, 1.0]))
    with pytest.raises(ConfigError):
        solve_activity(np.array([]))


def test_activity_extended_precision_agrees():
    alpha = np.array([1.0, 0.3, 0.04, 0.002])
    assert solve_activity(alpha) == pytest.approx(
        solve_activity(alpha.astype(np.longdouble)), abs=1e-14)


def test_toy_renewal_sequence_by_hand():
    # u_1 = p_1 = r, u_2 = p_1 u_1 + p_2 = 2 r^2.
    model = RenewalModel(p=3, gamma=1.0, Nmax=2, C=(1.0, 1.0, 2.0),
                         alpha=(1.0, 1.0), alpha_residual=0.0, r=GOLDEN,
                         pn=(GOLDEN, GOLDEN ** 2), mu=GOLDEN + 2 * GOLDEN ** 2,
                         tail_mass=0.0, root_shift=0.0, c_sub=1.0)
    u = model.renewal_sequence(2)
    assert u[0] == 1.0
    assert u[1] == pytest.approx(GOLDEN, abs=1e-15)
    assert u[2] == pytest.approx(2 * GOLDEN ** 2, abs=1e-15)
    assert u[2] == pytest.approx(0.7639320225002103, abs=1e-14)


def test_filled_level_model(tables_p1):
    model = build_model(1, 10, 1.0, tables=tables_p1)
    assert model.r == 1.0
    assert model.mu == pytest.approx(1.0, abs=1e-15)
    assert model.alpha[0] == 1.0
    assert all(a == 0.0 for a in model.alpha[1:])
    assert np.allclose(model.renewal_sequence(20), 1.0, atol=1e-14)


def test_irreducible_weights_worked_example(tables_p3):
    for gamma in (0.8, 1.0, 1.3):
        alpha, residual = irreducible_weights(tables_p3[:4], gamma)
        assert alpha[0] == 1.0
        assert alpha[1] == pytest.approx(9 * math.exp(-4 * gamma ** 2),
                                         rel=1e-13)
        assert residual == 0.0


def test_exact_recursion_residual(tables_p3, tables_p2):
    # The direct and recursive alpha routes are compared term by term in
    # rational arithmetic; a correct expansion leaves no defect at all.
    for tables in (tables_p3, tables_p2):
        _, residual = irreducible_weights(tables[:6], 1.0)
        assert residual == 0.0


def test_recursion_residual_detects_bad_weights(tables_p3):
    # Corrupting one table must produce a visible defect.  At the
    # corrupted order itself the direct and recursive routes shift
    # together (the bad key is irreducible, so it enters C_3 and alpha_3
    # identically); the recursions above it see the corruption through
    # products and cannot cancel.
    from laughlin.expansion import CoefficientTable
    coeffs = dict(tables_p3[2].coeffs)
    coeffs[(1, 3, 5)] += 1
    bad = tables_p3[:5]
    bad[2] = CoefficientTable(3, 3, coeffs)
    _, residual = irreducible_weights(bad[:3], 1.0)
    assert residual == 0.0
    _, residual = irreducible_weights(bad, 1.0)
    assert residual > 1e-6


def test_model_invariants(model_p3_g1):
    m = model_p3_g1
    assert 0 < m.r <= 1
    assert m.mu >= 1
    assert m.alpha[0] == 1.0
    assert all(a >= 0 for a in m.alpha)
    assert abs(sum(m.pn) - 1.0) < 1e-12
    assert m.c_sub >= 1.0
    assert m.tail_mass >= 0.0
    assert not m.unconverged


def test_supermultiplicativity(model_p3_g1, model_p2_g1):
    for m in (model_p3_g1, model_p2_g1):
        C = m.C
        for n in range(1, m.Nmax):
            for k in range(1, m.Nmax - n + 1):
                assert C[n + k] >= C[n] * C[k] * (1 - 1e-13)


def test_renewal_function_two_routes(model_p3_g1):
    m = model_p3_g1
    u = m.renewal_sequence(32)
    # The convolution against the closed form u_N = C_N r^N, N <= Nmax.
    closed = np.array(m.C) * m.r ** np.arange(m.Nmax + 1)
    assert np.max(np.abs(u[:m.Nmax + 1] - closed) / closed) < 1e-12
    # u_N converges to 1/mu, deviations decreasing over the whole range.
    dev = np.abs(u - 1.0 / m.mu)
    assert all(a > b for a, b in zip(dev[1:16], dev[2:17]))
    sup_dev = np.maximum.accumulate(dev[::-1])[::-1]
    assert sup_dev[10] < 1e-5
    assert all(a >= b for a, b in zip(sup_dev, sup_dev[1:]))


def test_partition_probabilities(model_p3_g1):
    m = model_p3_g1
    gamma = m.gamma
    w = 9 * math.exp(-4 * gamma ** 2)
    assert partition_probability(m, (1, 1)) == pytest.approx(1 / (1 + w),
                                                             rel=1e-13)
    assert partition_probability(m, (2,)) == pytest.approx(w / (1 + w),
                                                           rel=1e-13)
    for N in range(1, 9):
        total = sum(partition_probability(m, q)
                    for q in enumerate_partitions(N))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_partition_probability_two_forms(model_p3_g1):
    # prod alpha_{n_i} / C_N == prod p_{n_i} / u_N.
    m = model_p3_g1
    u = m.renewal_sequence(8)
    for lengths in [(1, 2, 1), (3, 1), (2, 2, 2), (4,)]:
        N = sum(lengths)
        via_pn = 1.0
        for n in lengths:
            via_pn *= m.pn[n - 1]
        via_pn /= u[N]
        assert partition_probability(m, lengths) == pytest.approx(
            via_pn, rel=1e-12)


def test_partition_probability_errors(model_p3_g1):
    with pytest.raises(ConfigError):
        partition_probability(model_p3_g1, (0, 2))
    with pytest.raises(ConfigError):
        partition_probability(model_p3_g1, (9,))


def test_stationary_events(model_p3_g1):
    m = model_p3_g1
    assert stationary_event_probability(m, WindowEvent(0)) == \
        pytest.approx(1 / m.mu, rel=1e-14)
    assert stationary_event_probability(m, WindowEvent(0, (1,))) == \
        pytest.approx(m.pn[0] / m.mu, rel=1e-14)
    # Adjacent windows with zero gap: u_0 = 1 bridges trivially.
    joint = stationary_event_probability(
        m, [WindowEvent(0, (1,)), WindowEvent(1, (2,))])
    assert joint == pytest.approx(m.pn[0] * m.pn[1] / m.mu, rel=1e-14)


def test_stationary_events_cluster(model_p3_g1):
    # Distant windows decouple: mu^-1 p_2 u_gap p_1 -> mu^-2 p_2 p_1
    # because u_gap -> 1/mu.
    m = model_p3_g1
    a = stationary_event_probability(m, WindowEvent(0, (2,)))
    b = stationary_event_probability(m, WindowEvent(0, (1,)))
    joint = stationary_event_probability(
        m, [WindowEvent(0, (2,)), WindowEvent(30, (1,))])
    assert joint == pytest.approx(a * b, rel=1e-9)


def test_stationary_event_errors(model_p3_g1):
    with pytest.raises(ConfigError):
        stationary_event_probability(model_p3_g1, WindowEvent(0, (0,)))
    with pytest.raises(ConfigError):
        stationary_event_probability(
            model_p3_g1, [WindowEvent(0, (3,)), WindowEvent(1, (1,))])
    with pytest.raises(ConfigError):
        stationary_event_probability(model_p3_g1, [])


def test_unconverged_gate(tables_p3):
    model = build_model(3, 6, 0.4, tables=tables_p3)
    assert model.unconverged
    assert stationary_event_probability(model, WindowEvent(0)) > 0


def test_finite_window_probability(model_p3_g1):
    m = model_p3_g1
    # Exhausting the system reduces to the partition probability.
    assert finite_window_probability(m, 5, WindowEvent(0, (2, 3))) == \
        pytest.approx(partition_probability(m, (2, 3)), rel=1e-12)
    # Probabilities of the rod-length marginal at fixed N sum to one.
    total = sum(finite_window_probability(m, 6, WindowEvent(0, (n,)))
                for n in range(1, 7))
    assert total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        finite_window_probability(m, 4, WindowEvent(0, (5,)))


def test_long_interval_bound_dominates(model_p3_g1):
    m = model_p3_g1
    for d in (1, 2, 3):
        exact = no_renewal_probability(m, 6, range(2, 2 + d))
        assert exact <= long_interval_bound(m, d) + 1e-12
    # The bound itself decays fast.
    assert long_interval_bound(m, 5) < 1e-4


def test_no_renewal_probability_endpoints(model_p3_g1):
    # 0 and N always renew, so including them gives probability zero.
    assert no_renewal_probability(model_p3_g1, 4, [0]) == 0.0
    assert no_renewal_probability(model_p3_g1, 4, [4]) == 0.0
    assert no_renewal_probability(model_p3_g1, 4, []) == pytest.approx(
        1.0, abs=1e-12)


def test_root_shift_reported(model_p3_g1):
    assert model_p3_g1.root_shift >= 0.0
    assert model_p3_g1.root_shift < 1e-10


def test_build_model_gamma_trend(tables_p3):
    # Larger gamma: tighter Gaussians, shorter rods, mu closer to 1.
    mus = [build_model(3, 6, g, tables=tables_p3).mu for g in (0.8, 1.0, 1.5)]
    assert mus[0] > mus[1] > mus[2] >= 1.0
