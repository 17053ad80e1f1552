"""Tests for the Metropolis sampler and its exact cross-checks.

The log-weight identities are exact and tested tightly.  Stochastic
checks run with pinned seeds and compare against closed-form references
(the y-integrated occupation picture makes interval counts and the
excess distribution exactly computable), so failures indicate a sampler
bug rather than bad luck.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import erf

from conftest import traced_peak_mb
from laughlin.expansion import amplitudes
from laughlin.correlations import (
    occupation_finite,
    occupation_infinite,
    rod_expectations,
)
from laughlin.lattice import ConfigError, ModelParams
from laughlin import plasma
from test_reference import log_weight, orbital_interval_weights


@pytest.fixture(scope="module")
def run_p3_n2(tables_p3):
    params = ModelParams(3, 2, 1.0)
    mc = plasma.McConfig(sweeps=30000, burn_in=1000, thinning=3,
                         seed=7, chains=2)
    return plasma.metropolis_run(params, mc)


@pytest.fixture(scope="module")
def run_p3_n4(tables_p3):
    params = ModelParams(3, 4, 1.0)
    mc = plasma.McConfig(sweeps=40000, burn_in=1000, thinning=4,
                         seed=13, chains=2)
    return plasma.metropolis_run(params, mc)


# -- log weight ---------------------------------------------------------------------


def test_single_particle_weight_is_gaussian():
    params = ModelParams(3, 1, 1.0)
    for x in (-1.7, 0.0, 0.4, 2.2):
        state = np.array([[x, 0.9]])
        assert log_weight(state, params) == pytest.approx(-x * x, abs=1e-14)


def test_label_exchange_invariance():
    params = ModelParams(3, 4, 0.8)
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = np.column_stack([rng.normal(scale=3.0, size=4),
                                 rng.uniform(0, 2 * math.pi / 0.8, size=4)])
        base = log_weight(state, params)
        perm = rng.permutation(4)
        assert log_weight(state[perm], params) == pytest.approx(
            base, rel=1e-12)


def test_sorted_form_identity():
    # log w + sum_k (x_(k) - (k-1) p gamma)^2 - pair terms is the constant
    # p^2 gamma^2 sum_{k<N} k^2, independent of the configuration.
    params = ModelParams(3, 5, 0.7)
    g, p, N = params.gamma, params.p, params.N
    const = p * p * g * g * sum(k * k for k in range(N))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        state = np.column_stack([rng.normal(scale=2.5, size=N),
                                 rng.uniform(0, 2 * math.pi / g, size=N)])
        order = np.argsort(state[:, 0])
        xs, ys = state[order, 0], state[order, 1]
        pairs = 0.0
        for j in range(N):
            for k in range(j + 1, N):
                d = g * (xs[j] - xs[k])
                pairs += p * math.log(math.expm1(d) ** 2
                                      + 4 * math.exp(d)
                                      * math.sin(0.5 * g * (ys[k] - ys[j])) ** 2)
        shifted = -sum((xs[k] - k * p * g) ** 2 for k in range(N))
        direct = log_weight(state, params)
        worst = max(worst, abs(direct - (shifted + pairs + const)))
    assert worst < 1e-10


def test_coincident_points_have_zero_weight():
    params = ModelParams(3, 2, 1.0)
    state = np.array([[0.3, 1.1], [0.3, 1.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_weight(state, params) == -math.inf


class OntoNeighbourRng:
    """Draws that start two particles at x = 0 and x = p gamma with y = 1
    and then propose each move onto the other particle's position."""

    def __init__(self, step):
        self.steps = itertools.cycle((step, -step))

    def standard_normal(self, size=None):
        return next(self.steps) if size is None else np.zeros(size)

    def random(self):
        return 0.5

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + 0.5 * (high - low) if size is None else np.ones(size)


def test_proposal_onto_occupied_point_rejected(monkeypatch):
    params = ModelParams(3, 2, 1.0)
    mc = plasma.McConfig(sweeps=40, burn_in=5, thinning=1, seed=0,
                         chains=2)
    entered = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate",
                        lambda **kw: entered.append(kw) or errstate(**kw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept, accs, moves, widths = plasma._run_chain(
            params, mc, [OntoNeighbourRng(3.0)], (1.0, 1.0), 40)
    assert moves == 90 and accs == [0.0] and widths == [(1.0, 1.0)]
    assert np.array_equal(kept,
                          np.tile([[0.0, 1.0], [3.0, 1.0]], (1, 40, 1, 1)))
    # a few entries per chain, none per move
    assert len(entered) <= 3


@pytest.mark.parametrize("N", (2, 9))
def test_lockstep_chains_match_single_chains(N):
    """One call over C generators gives the bits of C one-generator calls,
    also when one chain proposes onto an occupied point and the others
    do not."""
    params = ModelParams(3, N, 1.0)
    mc = plasma.McConfig(sweeps=30, burn_in=7, thinning=3, seed=0,
                         chains=2)

    def generators():
        middle = OntoNeighbourRng(3.0) if N == 2 \
            else np.random.default_rng(3)
        return [np.random.default_rng(1), middle, np.random.default_rng(2)]

    kept, accs, moves, widths = plasma._run_chain(params, mc, generators(),
                                                  (1.0, 0.9), 10)
    singles = [plasma._run_chain(params, mc, [rng], (1.0, 0.9), 10)
               for rng in generators()]
    expect = np.concatenate([k for k, _, _, _ in singles])
    assert kept.shape == expect.shape == (3, 10, N, 2)
    assert np.array_equal(kept.view(np.uint64), expect.view(np.uint64))
    assert accs == [a for _, (a,), _, _ in singles]
    assert moves == sum(n for _, _, n, _ in singles) == 3 * 37 * N
    assert widths == [w for _, _, _, (w,) in singles] == [(1.0, 0.9)] * 3
    if N == 2:
        assert accs[1] == 0.0 and 0.0 < accs[0] < 1.0


def row_loop_pair_matrix(xs, ys, factors):
    """The pair matrix one row at a time, below the diagonal, mirrored."""
    n = xs.size
    pairs = np.zeros((n, n))
    for i in range(1, n):
        row = plasma._pair_row(xs[i], ys[i], xs[:i], ys[:i], factors)
        pairs[i, :i] = pairs[:i, i] = row
    return pairs


def reference_chain(params, mc, rngs, sigma, n_keep):
    """The lockstep sampler one move at a time: one ``_pair_row`` call
    pairs particle i's proposals of every chain with the current points,
    and an accepted move writes its row into row and column i.  This is
    the route that blocked sweeps replace; it returns what ``_run_chain``
    returns."""
    g, n, chains = params.gamma, params.N, len(rngs)
    two_p, circ = 2.0 * params.p, 2.0 * math.pi / g
    factors = plasma._pair_factors(g)
    start = np.stack([plasma._start_coordinates(params, rng) for rng in rngs])
    xs, ys = start[:, :, 0].copy(), start[:, :, 1].copy()
    with np.errstate(divide="ignore"):
        pairs = np.stack([row_loop_pair_matrix(x, y, factors)
                          for x, y in zip(xs, ys)])
    rows = np.empty((chains, 2, n))
    x_new, y_new = np.empty((chains, 1)), np.empty((chains, 1))
    widths = [sigma] * chains
    accepted, window_start = [0] * chains, [0] * chains
    kept = []
    total_sweeps = mc.burn_in + n_keep * mc.thinning
    with np.errstate(divide="ignore"):
        for sweep in range(total_sweeps):
            for i in range(n):
                steps = []
                for c, rng in enumerate(rngs):
                    sx, sy = widths[c]
                    x = xs.item(c, i)
                    x_new[c] = x_c = x + sx * rng.standard_normal()
                    y_new[c] = (ys.item(c, i)
                                + sy * (2.0 * rng.random() - 1.0)) % circ
                    steps.append((x, x_c, math.log(1.0 - rng.random())))
                rows[:, 0] = pairs[:, i]
                rows[:, 1] = plasma._pair_row(x_new, y_new, xs, ys, factors)
                rows[:, 1, i] = 0.0
                sums = np.add.reduce(rows, axis=2).tolist()
                for c, ((x, x_c, log_u), (s_old, s_new)) in enumerate(
                        zip(steps, sums)):
                    if log_u < (-x_c * x_c + two_p * s_new) \
                            - (-x * x + two_p * s_old):
                        accepted[c] += 1
                        xs[c, i], ys[c, i] = x_c, y_new.item(c)
                        pairs[c, i] = pairs[c, :, i] = rows[c, 1]
            if sweep < mc.burn_in and (sweep + 1) % plasma.ADAPT_SWEEPS == 0:
                for c, (sx, sy) in enumerate(widths):
                    rate = (accepted[c] - window_start[c]) \
                        / (plasma.ADAPT_SWEEPS * n)
                    scale = 0.7 if rate < 0.30 else 1.4 if rate > 0.60 else 1.0
                    widths[c] = (sx * scale, sy * scale)
                window_start = accepted.copy()
            if sweep >= mc.burn_in and (sweep - mc.burn_in) % mc.thinning == 0:
                kept.append(np.stack([xs, ys], axis=-1))
    moves = total_sweeps * n
    return (np.stack(kept, axis=1), [a / moves for a in accepted],
            moves * chains, widths)


def assert_same_run(got, expect):
    (kept, accs, moves, widths), (kept0, accs0, moves0, widths0) = got, expect
    assert kept.shape == kept0.shape
    assert np.array_equal(kept.view(np.uint64), kept0.view(np.uint64))
    assert (accs, moves, widths) == (accs0, moves0, widths0)


B = plasma.BLOCK


@pytest.mark.parametrize("N, chains, p, gamma", [
    (1, 1, 3, 1.0), (2, 3, 2, 0.7), (B, 1, 3, 1.3), (B, 3, 2, 1.0),
    (B + 1, 3, 3, 0.7), (B + 1, 1, 1, 1.0), (2 * B + 5, 3, 3, 1.0),
    (2 * B + 5, 1, 2, 1.3)])
def test_blocked_sweeps_match_one_move_at_a_time(N, chains, p, gamma):
    """Blocked sweeps give the bits of the one-move-per-call route: the
    same samples, acceptances and adapted widths, also at block edges
    and with a short last block."""
    params = ModelParams(p, N, gamma)
    mc = plasma.McConfig(sweeps=12, burn_in=plasma.ADAPT_SWEEPS + 4,
                         thinning=3, seed=N, chains=2)

    def generators():
        return [np.random.default_rng(s) for s in
                np.random.SeedSequence(10 * N + p).spawn(chains)]

    got = plasma._run_chain(params, mc, generators(), (0.6, 0.8), 4)
    assert_same_run(got, reference_chain(params, mc, generators(),
                                         (0.6, 0.8), 4))
    assert 0.0 < min(got[1]) and max(got[1]) < 1.0


def test_pair_matrix_matches_row_loop():
    """One broadcast call gives the row loop's matrix bit for bit, the
    -inf of coincident points included."""
    rng = np.random.default_rng(8)
    factors = plasma._pair_factors(0.9)
    for trial in range(200):
        n = int(rng.integers(1, 12))
        coords = np.column_stack([rng.normal(scale=3.0, size=n),
                                  rng.uniform(0, 2 * math.pi / 0.9, size=n)])
        if n > 2 and trial % 4 == 0:
            coords[n - 1] = coords[0]
        with np.errstate(divide="ignore"):
            expect = row_loop_pair_matrix(coords[:, 0], coords[:, 1],
                                          factors)
        got = plasma._pair_matrix(coords, 0.9)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        assert (np.isneginf(got).any()) == (n > 2 and trial % 4 == 0)


ALMOST_ONE = float(np.nextafter(1.0, 0.0))


class ScriptedRng:
    """Starts particle j at (p gamma j, 1) and draws the given normal
    steps, zero once they run out; every uniform is just below 1, so a
    move is accepted unless its energy is -inf."""

    def __init__(self, steps):
        self.steps = iter(steps)

    def standard_normal(self, size=None):
        return next(self.steps, 0.0) if size is None else np.zeros(size)

    def random(self):
        return ALMOST_ONE

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.ones(size)


def test_proposal_onto_a_point_moved_in_the_same_sweep(monkeypatch):
    """Particle 0 moves to x = 1/2 and particle 1 then proposes onto it,
    within a block; particle BLOCK - 1 moves and particle BLOCK then
    proposes onto it, across a block edge.  Both proposals are rejected
    without a warning, and every other move is accepted."""
    params = ModelParams(3, B + 3, 1.0)
    mc = plasma.McConfig(sweeps=3, burn_in=2, thinning=1, seed=0,
                         chains=2)
    steps = [0.0] * params.N
    steps[0], steps[1] = 0.5, -2.5
    steps[B - 1], steps[B] = 0.5, -2.5
    entered = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate",
                        lambda **kw: entered.append(kw) or errstate(**kw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = plasma._run_chain(params, mc, [ScriptedRng(steps)],
                                (1.0, 0.0), 3)
    kept, accs, moves, _ = got
    assert moves == 5 * params.N and accs == [(moves - 2) / moves]
    expect = 3.0 * np.arange(params.N)
    expect[0] = 0.5
    expect[B - 1] += 0.5
    assert np.array_equal(kept[0, :, :, 0], np.tile(expect, (3, 1)))
    assert np.all(kept[0, :, :, 1] == 1.0)
    # a few entries per run, none per move or per block
    assert len(entered) <= 3
    monkeypatch.setattr(np, "errstate", errstate)
    assert_same_run(got, reference_chain(params, mc, [ScriptedRng(steps)],
                                         (1.0, 0.0), 3))


def test_one_pair_call_per_block(monkeypatch):
    """A sweep pairs its proposals block by block, not move by move."""
    calls = []
    real = plasma._pair_row
    monkeypatch.setattr(plasma, "_pair_row",
                        lambda *args: calls.append(1) or real(*args))
    params = ModelParams(3, 2 * B + 5, 1.0)
    mc = plasma.McConfig(sweeps=6, burn_in=4, thinning=2, seed=0,
                         chains=2)
    rngs = [np.random.default_rng(s) for s in (1, 2)]
    plasma._run_chain(params, mc, rngs, (0.5, 0.5), 3)
    total_sweeps = 4 + 3 * 2
    assert 0 < len(calls) <= 2 + total_sweeps * math.ceil(params.N / B)


def test_log_weight_shape_validation():
    params = ModelParams(3, 2, 1.0)
    with pytest.raises(ConfigError):
        log_weight(np.zeros((3, 2)), params)
    with pytest.raises(ConfigError):
        log_weight(np.zeros((2, 3)), params)


# -- configuration ------------------------------------------------------------------


def test_mcconfig_validation():
    schedule = dict(sweeps=100, burn_in=500, thinning=5, seed=0, chains=2)
    with pytest.raises(ConfigError):
        plasma.McConfig(**{**schedule, "sweeps": 0})
    with pytest.raises(ConfigError):
        plasma.McConfig(**{**schedule, "thinning": 0})
    with pytest.raises(ConfigError):
        plasma.McConfig(**{**schedule, "chains": 0})


def test_one_lockstep_call_makes_every_move(monkeypatch):
    calls = []
    real = plasma._run_chain

    def counted(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(plasma, "_run_chain", counted)
    mc = plasma.McConfig(sweeps=30, burn_in=70, thinning=4, seed=0,
                         chains=3)
    run = plasma.metropolis_run(ModelParams(3, 4, 1.0), mc)
    assert calls == [3]
    assert run.moves == 3 * (70 + 7 * 4) * 4
    assert len(run.sigma) == len(run.chain_acceptance) == 3


def test_sweeps_below_thinning_rejected():
    params = ModelParams(3, 2, 1.0)
    with pytest.raises(ConfigError):
        plasma.metropolis_run(params, plasma.McConfig(
            sweeps=3, burn_in=500, thinning=5, seed=0, chains=2))


def test_frozen_proposal_chain_is_constant(monkeypatch):
    # a burn-in shorter than one adaptation window keeps the zero widths
    monkeypatch.setattr(plasma, "START_WIDTHS", (0.0, 0.0))
    params = ModelParams(3, 3, 1.0)
    mc = plasma.McConfig(sweeps=200, burn_in=10, thinning=2, seed=4,
                         chains=1)
    run = plasma.metropolis_run(params, mc)
    first = run.samples[0, 0]
    assert np.all(run.samples == first[None, None, :, :])
    assert run.acceptance == 1.0
    assert run.pathological


# -- sampler statistics -------------------------------------------------------------


def test_single_particle_variance():
    # N=1 reduces to x ~ Normal(0, 1/2) with uniform y.
    run = plasma.metropolis_run(
        ModelParams(3, 1, 1.0),
        plasma.McConfig(sweeps=20000, burn_in=500, thinning=5, seed=3,
                        chains=2))
    x = run.pooled()[:, :, 0].ravel()
    assert abs(x.mean()) < 0.03
    assert abs(x.var() - 0.5) < 0.03
    assert not run.pathological


def test_tuned_acceptance_in_band(run_p3_n4):
    assert 0.2 < run_p3_n4.acceptance < 0.8
    assert not run_p3_n4.pathological
    assert len(run_p3_n4.chain_acceptance) == 2


def test_split_rhat_near_one(run_p3_n4):
    assert abs(run_p3_n4.rhat - 1.0) < 0.05


def test_y_marginal_uniform(run_p3_n4):
    pooled = run_p3_n4.pooled()
    est = plasma.density_histogram(pooled, np.linspace(-4, 13, 35),
                                   ModelParams(3, 4, 1.0))
    critical = 1.63 / math.sqrt(pooled.shape[0] * pooled.shape[1])
    assert est.y_ks < critical


def test_density_histogram_normalization(run_p3_n4):
    params = ModelParams(3, 4, 1.0)
    edges = np.linspace(-30, 40, 71)
    est = plasma.density_histogram(run_p3_n4.pooled(), edges, params)
    mass = float(np.sum(est.density * np.diff(edges)))
    assert mass == pytest.approx(params.N, abs=1e-12)
    with pytest.raises(ConfigError):
        plasma.density_histogram(run_p3_n4.pooled(), np.array([1.0]), params)


@pytest.mark.parametrize("count, batching", [
    (2, (2, 1)), (3, (2, 1)), (4, (2, 2)), (99, (49, 2)), (100, (50, 2)),
    (199, (50, 3)), (8000, (50, 160))])
def test_one_batching_rule(count, batching):
    assert plasma._batching(count) == batching


def per_sample_counts(values, edges):
    """The (S, bins) table of np.histogram over each row of values."""
    return np.stack([np.histogram(row, bins=edges)[0] for row in values])


@pytest.mark.parametrize("rows", [2, 3, 99, 100, 101, 199, 300])
def test_batch_counts_match_row_histograms(rows):
    """Binning batch by batch gives the counts of np.histogram row by row,
    summed per batch, with the rows past the last whole batch in the
    last row: values on every edge, the closed last edge, and values
    outside."""
    rng = np.random.default_rng(4)
    edges = np.arange(-4.0, 10.25, 0.5)
    values = rng.normal(3.0, 5.0, size=(rows, 7))
    values[:, 0] = rng.choice(edges, size=rows)
    values[:, 1] = np.where(values[:, 1] > 3.0, -1.0, values[:, 1])
    values[0, :3] = edges[-1], edges[0], np.nextafter(edges[-1], np.inf)
    nbatches, size = plasma._batching(rows)
    counts = plasma._batch_counts(
        plasma._batch_rows(values, nbatches, size), edges)
    per_row = per_sample_counts(values, edges)
    whole = nbatches * size
    expect = np.vstack([
        per_row[:whole].reshape(nbatches, size, -1).sum(axis=1),
        per_row[whole:].sum(axis=0)])
    assert counts.dtype == expect.dtype
    assert np.array_equal(counts, expect)


def reference_density(samples, edges):
    """Density and standard errors from the per-sample count table, one
    batch-means error per bin: 50 batches, max(2, S // 2) below 100."""
    per_sample = per_sample_counts(samples[:, :, 0], edges)
    widths = np.diff(edges)
    stderr = []
    for column in per_sample.T.astype(float):
        nb = 50 if column.size >= 100 else max(2, column.size // 2)
        size = column.size // nb
        means = column[:nb * size].reshape(nb, size).mean(axis=1)
        stderr.append(float(means.std(ddof=1) / math.sqrt(nb)))
    return per_sample.mean(axis=0) / widths, np.array(stderr) / widths


def reference_phase(samples, params, nb):
    """Observed phase fractions and their standard errors from the
    per-sample count table, over nb batches of S // nb samples."""
    lo, hi = plasma.phase_window(params)
    period = params.p * params.gamma
    edges = np.linspace(0.0, period, plasma.PHASE_BINS + 1)
    xs = samples[:, :, 0]
    phase = np.where((xs >= lo) & (xs < hi), np.mod(xs, period), -1.0)
    per_sample = per_sample_counts(phase, edges).astype(float)
    observed = per_sample.sum(axis=0) / per_sample.sum(axis=1).sum()
    cut = (len(per_sample) // nb) * nb
    batches = per_sample[:cut].reshape(nb, -1, plasma.PHASE_BINS).sum(axis=1)
    fr = batches / batches.sum(axis=1, keepdims=True)
    return observed, fr.std(axis=0, ddof=1) / math.sqrt(nb)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("count", [2, 3, 7, 60, 99, 100, 101, 1001, 8000])
def test_estimators_match_per_sample_tables(count):
    """The batch-count estimators give the per-sample estimators' bits:
    density and its errors at every S, the phase profile under the same
    batches, min(50, S) of them, from S = 100 on, and below that S // 2
    batches of two."""
    params = ModelParams(3, 6, 1.0)
    rng = np.random.default_rng(count)
    samples = np.empty((count, 6, 2))
    # four particles around the bulk window (6, 9), one over the edges
    # and one past them
    samples[:, :, 0] = rng.uniform(5.0, 10.0, size=(count, 6))
    samples[:, 4, 0] = rng.uniform(-3.0, 18.0, size=count)
    samples[:, 5, 0] = rng.uniform(-6.0, 22.0, size=count)
    samples[:, :, 1] = rng.uniform(0.0, 2.0 * math.pi, size=(count, 6))
    edges = np.arange(-4.0, 19.25, 0.5)
    samples[0, :2, 0] = edges[-1], edges[3]
    est = plasma.density_histogram(samples, edges, params)
    density, stderr = reference_density(samples, edges)
    assert np.array_equal(bits(est.density), bits(density))
    assert np.array_equal(bits(est.stderr), bits(stderr))
    if count < 4:
        return  # a batch of one can miss the bulk window
    prof = plasma.phase_profile(samples, params, np.full(3, 1 / 3))
    observed, stderr = reference_phase(
        samples, params, min(50, count) if count >= 100 else count // 2)
    assert np.array_equal(bits(prof.observed), bits(observed))
    assert np.array_equal(bits(prof.stderr), bits(stderr))


@pytest.fixture(scope="module")
def samples_p3_n12():
    """The size of the README's mcmc example: 40,000 pooled samples of 12
    particles, a 3.8 MB x column."""
    rng = np.random.default_rng(0)
    samples = np.empty((40000, 12, 2))
    samples[:, :, 0] = rng.normal(16.5, 10.0, size=(40000, 12))
    samples[:, :, 1] = rng.uniform(0.0, 2.0 * math.pi, size=(40000, 12))
    return samples


def test_density_histogram_memory_does_not_grow_with_a_sample_table(
        samples_p3_n12):
    """In 82 bins, a per-sample count table alone would be 26 MB.  The
    peak is 4.4 MB, the one sorted copy of the 3.8 MB y column and a
    slice of the Kolmogorov-Smirnov ramp; a sorted copy, its scaled copy
    and a whole ramp took 11.7 MB."""
    edges = np.arange(-4.0, 37.25, 0.5)
    assert edges.size == 83
    assert traced_peak_mb(plasma.density_histogram, samples_p3_n12, edges,
                          ModelParams(3, 12, 1.0)) < 5.0


def test_phase_profile_memory_is_one_batch(samples_p3_n12):
    """Folding and binning one batch at a time peaks at 0.12 MB; a fold
    of every sample at once takes 9.1 MB."""
    args = samples_p3_n12, ModelParams(3, 12, 1.0), np.full(3, 1 / 3)
    plasma.phase_profile(*args)  # first-call costs stay out of the trace
    assert traced_peak_mb(plasma.phase_profile, *args) < 1.0


def test_batch_stderr_scaling():
    rng = np.random.default_rng(0)
    series = rng.normal(size=5000)
    se = plasma.batch_stderr(series)
    assert 0.5 / math.sqrt(5000) < se < 2.0 / math.sqrt(5000)


@pytest.mark.parametrize("size", [0, 1])
def test_batch_stderr_refuses_fewer_than_two_samples(size):
    with pytest.raises(ConfigError, match="one kept sample gives no "
                                          "standard error"):
        plasma.batch_stderr(np.ones(size))
    assert math.isfinite(plasma.batch_stderr(np.arange(2.0)))


# -- excess statistics --------------------------------------------------------------


def test_excess_zero_on_lattice_configuration():
    # Particles frozen on the root lattice split every cut exactly.
    params = ModelParams(3, 4, 1.0)
    xs = np.array([0.0, 3.0, 6.0, 9.0])
    samples = np.zeros((10, 4, 2))
    samples[:, :, 0] = xs
    cuts = [1.5, 4.5, 7.5]
    stats = plasma.measure_excess(samples, cuts, params)
    for c in cuts:
        assert stats.p_zero[c] == 1.0
        assert stats.histogram[c] == {0: 1.0}


def test_excess_when_all_particles_left():
    params = ModelParams(3, 4, 1.0)
    samples = np.zeros((5, 4, 2))
    samples[:, :, 0] = -50.0
    stats = plasma.measure_excess(samples, [4.5], params)
    # all four particles sit left of the k=2 cut, so K = 4 - 2
    assert stats.histogram[4.5] == {2: 1.0}
    assert stats.p_zero[4.5] == 0.0


def test_excess_invalid_cut_rejected():
    params = ModelParams(3, 4, 1.0)
    samples = np.zeros((5, 4, 2))
    with pytest.raises(ConfigError):
        plasma.measure_excess(samples, [0.37], params)
    with pytest.raises(ConfigError):
        plasma.measure_excess(samples, [-1.5], params)


def test_exact_excess_zero_frozen_value(tables_p3):
    amp = amplitudes(tables_p3[1], 1.0)
    assert plasma.exact_excess_zero(amp, 1.5) == pytest.approx(
        0.9198075274580999, rel=1e-12)
    for xbar in (2.0, -1.5):
        with pytest.raises(ConfigError):
            plasma.exact_excess_zero(amp, xbar)


def test_excess_zero_quadrature_oracle(tables_p3):
    # Integrate |psi|^2 for two particles directly.  The y integral of
    # the pair factor leaves sum_k C(3,k)^2 exp(2 k gamma (min - max)),
    # so the check reduces to a two-dimensional quadrature.
    g = 1.0
    amp = amplitudes(tables_p3[1], g)
    coef = [math.comb(3, k) ** 2 for k in range(4)]

    def f(x1, x2):
        top, bot = max(x1, x2), min(x1, x2)
        a = g * (bot - top)
        ang = sum(c * math.exp(2 * k * a) for k, c in enumerate(coef))
        return math.exp(6 * g * top - x1 * x1 - x2 * x2) * ang

    lim = 9.0
    norm, _ = dblquad(f, -lim, lim, -lim, lim, epsabs=1e-11, epsrel=1e-11)
    split, _ = dblquad(lambda x2, x1: f(x1, x2), -lim, 1.5,
                       lambda x1: 1.5, lim, epsabs=1e-11, epsrel=1e-11)
    quad_p0 = 2.0 * split / norm
    assert quad_p0 == pytest.approx(plasma.exact_excess_zero(amp, 1.5),
                                    abs=5e-9)


def test_excess_sampler_matches_exact(run_p3_n2, tables_p3):
    amp = amplitudes(tables_p3[1], 1.0)
    exact = plasma.exact_excess_zero(amp, 1.5)
    stats = plasma.measure_excess(run_p3_n2.pooled(), [1.5],
                                  ModelParams(3, 2, 1.0))
    z = abs(stats.p_zero[1.5] - exact) / stats.p_zero_stderr[1.5]
    assert z < 3.0


def test_excess_never_missed_scores_by_its_count(tables_p3):
    # verify-all's sample at p=3, gamma 2: P(K=0) = 0.99998, so about
    # 0.18 misses are expected in 8,000 samples and none is seen; the
    # batch-means error is 0, and the count's tail, 0.84, scores z = 0
    params = ModelParams(3, 2, 2.0)
    run = plasma.metropolis_run(params, plasma.McConfig(
        sweeps=12000, burn_in=500, thinning=3, seed=0, chains=2))
    pooled = run.pooled()
    stats = plasma.measure_excess(pooled, [3.0], params)
    exact = plasma.exact_excess_zero(amplitudes(tables_p3[1], 2.0), 3.0)
    assert stats.p_zero[3.0] == 1.0 and stats.p_zero_stderr[3.0] == 0.0
    assert exact ** len(pooled) == pytest.approx(0.837, abs=1e-3)
    assert plasma.count_zscore(len(pooled), len(pooled), exact) == 0.0


@pytest.mark.parametrize("count, total, prob, z", [
    (100, 100, 0.9, 4.04),  # one tail 0.9^100 = 2.66e-5, as at 4.04 sigma
    (0, 100, 0.1, 4.04),  # the same tail from the other end
    (5200, 10000, 0.5, 3.99),  # four binomial sigmas above the mean
    (4800, 10000, 0.5, 3.99),  # and below
    (5000, 10000, 0.5, 0.0),  # the median
    (1, 10, 0.0, math.inf),  # an impossible count
])
def test_count_zscore(count, total, prob, z):
    assert plasma.count_zscore(count, total, prob) == \
        pytest.approx(z, abs=5e-3)


# -- interval counts against exact occupations --------------------------------------


def test_interval_weights_cover_all_particles(tables_p3):
    occ = occupation_finite(amplitudes(tables_p3[3], 1.0))
    total = orbital_interval_weights(occ, 1.0, -60.0, 60.0)
    assert total == pytest.approx(4.0, abs=1e-9)


def test_annulus_occupations_match_exact(run_p3_n4, tables_p3):
    occ = occupation_finite(amplitudes(tables_p3[3], 1.0))
    pooled = run_p3_n4.pooled()
    for k in range(occ.size):
        a, b = (k - 0.5), (k + 0.5)
        expect = orbital_interval_weights(occ, 1.0, a, b)
        counts = np.sum((pooled[:, :, 0] > a) & (pooled[:, :, 0] <= b),
                        axis=1)
        z = abs(counts.mean() - expect) / plasma.batch_stderr(counts)
        assert z < 3.0, f"annulus {k}: z = {z:.2f}"


# -- bulk phase profile -------------------------------------------------------------


def test_phase_profile_against_renewal(tables_p3, model_p3_g1):
    params = ModelParams(3, 12, 1.0)
    occ = occupation_infinite(model_p3_g1,
                              rod_expectations(tables_p3, 1.0))
    run = plasma.metropolis_run(
        params, plasma.McConfig(sweeps=6000, burn_in=600, thinning=4,
                                seed=21, chains=2))
    prof = plasma.phase_profile(run.pooled(), params, occ)
    assert prof.predicted == pytest.approx(prof.predicted.sum() * np.ones(6) / 6,
                                           abs=0.2)  # sanity: normalized shape
    assert prof.predicted.sum() == pytest.approx(1.0, abs=1e-12)
    # profile is symmetric for this lattice: centers at phases 0, 1, 2
    assert prof.predicted[1] == pytest.approx(prof.predicted[4], rel=1e-9)
    assert np.max(np.abs(prof.zscores)) < 5.0
    assert prof.contrast > 0.5


def test_standard_library_erf_matches_scipy(run_p3_n4, tables_p3,
                                            model_p3_g1, monkeypatch):
    """The predicted phase profile and the exact P(K=0), with math.erf,
    are those SciPy's erf gives to within rounding."""
    params = ModelParams(3, 4, 1.0)
    occ = occupation_infinite(model_p3_g1, rod_expectations(tables_p3, 1.0))
    amp = amplitudes(tables_p3[3], 1.0)
    cuts = (1.5, 4.5, 7.5, 10.5)

    def estimates():
        return (plasma.phase_profile(run_p3_n4.pooled(), params,
                                     occ).predicted,
                [plasma.exact_excess_zero(amp, xbar) for xbar in cuts])
    predicted, exact = estimates()
    monkeypatch.setattr(plasma, "_erf", erf)
    want_predicted, want_exact = estimates()
    assert np.max(np.abs(predicted - want_predicted)) <= 1e-15
    assert np.max(np.abs(np.subtract(exact, want_exact))) <= 1e-15
    assert 0.0 < min(exact) and max(exact) < 1.0


def test_phase_profile_validation(model_p3_g1, tables_p3):
    occ = occupation_infinite(model_p3_g1,
                              rod_expectations(tables_p3, 1.0))
    samples = np.zeros((4, 2, 2))
    with pytest.raises(ConfigError):
        plasma.phase_profile(samples, ModelParams(3, 2, 1.0), occ)
    with pytest.raises(ConfigError):
        plasma.phase_profile(samples, ModelParams(3, 12, 1.0), occ[:2])


def test_phase_window_of_one_period():
    """At (2, 8, 1.3) the window is periods 3..4.  Its float ends lie
    2.5999999999999996 apart, so comparing that length with the period
    would refuse the whole period that the integer counts show."""
    assert plasma.phase_window(ModelParams(2, 8, 1.3)) == (3 * 2.6, 4 * 2.6)


def test_phase_window_refused_exactly_without_a_whole_period():
    """Over p 1-6, N 2-64 and gamma 0.30-3.00, the window is refused
    exactly when no whole period lies between 0.3 and 0.7 of the droplet
    length, counted in exact arithmetic; an accepted window spans
    whole periods, at least one."""
    lo_w, hi_w = Fraction(3, 10), Fraction(7, 10)
    assert plasma.PHASE_WINDOW == (float(lo_w), float(hi_w))
    for p, N, step in itertools.product(range(1, 7), range(2, 65),
                                        range(30, 301, 5)):
        params = ModelParams(p, N, step / 100)
        period = p * params.gamma
        whole = math.floor(hi_w * (N - 1)) - math.ceil(lo_w * (N - 1))
        if whole < 1:
            with pytest.raises(ConfigError, match="one full period"):
                plasma.phase_window(params)
            continue
        lo, hi = plasma.phase_window(params)
        length = (N - 1) * period
        assert 0.3 * length - 1e-9 <= lo and hi <= 0.7 * length + 1e-9
        assert round((hi - lo) / period) >= 1
        assert lo / period == pytest.approx(round(lo / period), abs=1e-9)
        assert hi / period == pytest.approx(round(hi / period), abs=1e-9)


def test_phase_profile_refuses_an_empty_batch():
    # 100 samples make 50 batches of two.  Only the first sample has a
    # particle inside the window, so every later batch would divide 0 by 0.
    params = ModelParams(3, 6, 1.0)
    assert plasma.phase_window(params) == (6.0, 9.0)
    samples = np.full((100, 6, 2), 20.0)
    samples[0, 0, 0] = 7.0
    with pytest.raises(ConfigError, match=r"batches \[1, 2, .*, 49\] of 50 "
                                          "hold no sample"):
        plasma.phase_profile(samples, params, np.full(3, 1 / 3))
    with pytest.raises(ConfigError, match="one kept sample"):
        plasma.phase_profile(samples[:1], params, np.full(3, 1 / 3))
