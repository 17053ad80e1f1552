"""Correctness checks of the program's outputs, and the sampler's ESS.

Every check compares an output with an independent computation or with
a property the method must have; none compares with a stored copy.
The functions take outputs as plain values (tables, documents, arrays),
so ``selftest.py`` can feed them deliberately broken inputs.
"""

from __future__ import annotations

import math

import numpy as np

from laughlin import correlations, expansion, plasma
from laughlin.lattice import enumerate_admissible


class Checks:
    """Named pass/fail results with the measured value beside each."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok, measured="") -> None:
        self.results.append((name, bool(ok), str(measured)))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failures(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


# -- expansion ----------------------------------------------------------------

def check_tables(checks: Checks, label: str, p: int,
                 tables: list[expansion.CoefficientTable],
                 oracle_seed: int) -> None:
    """Tables 1..N of one (p, N): oracle, product rule, term counts."""
    top = tables[-1]
    dev = expansion.evaluate_oracle(top, npoints=1, seed=oracle_seed)
    checks.expect(f"{label} oracle deviation == 0", dev == 0.0, dev)
    report = expansion.verify_product_rule(p, top.N, tables=tables)
    checks.expect(f"{label} product rule", report.ok,
                  f"{len(report.failures)} failures of {report.checked}")
    for table in tables:
        limit = len(enumerate_admissible(p, table.N))
        checks.expect(f"{label} N={table.N} terms <= admissible",
                      len(table) <= limit, f"{len(table)} <= {limit}")


# -- correlations -------------------------------------------------------------

def check_corr(checks: Checks, label: str, p: int, N: int,
               occupations: list[tuple[int, float, str]], period_doc: dict,
               model, rods) -> None:
    """One ``laughlin corr`` output against the renewal model it claims.

    ``occupations`` are the (k, value, source) rows of occupations.csv;
    ``model`` and ``rods`` are rebuilt by the caller from the cached
    tables, outside the program's run.
    """
    bulk = np.array([v for k, v, src in occupations if src == "renewal"])
    exact = np.array([v for k, v, src in occupations if src == "exact"])

    ok = (period_doc["period"] == p
          and period_doc["margin"] > period_doc["tolerance"])
    checks.expect(f"{label} period == p with margin", ok,
                  f"period {period_doc['period']} margin {period_doc['margin']}")
    # The period test is blind to a shift of the whole profile, so the
    # phase is checked too: the centre period of the exact occupations
    # must sit on the bulk occupations within the a priori bound, plus
    # rounding where the bound itself underflows.
    centre = p * (N // 2)
    gaps = [abs(exact[k] - bulk[k % p])
            - correlations.bulk_epsilon(model, rods, N, k) - 1e-12
            for k in range(centre, centre + p)]
    checks.expect(f"{label} centre occupations on the bulk phase",
                  max(gaps) <= 0.0, f"worst excess over bound {max(gaps):.3g}")

    dev = abs(float(bulk.sum()) - 1.0)
    checks.expect(f"{label} bulk occupations sum to 1", dev <= 1e-8, dev)
    dev = abs(float(exact.sum()) - N)
    checks.expect(f"{label} exact occupations sum to N", dev <= 1e-10, dev)
    dev = float(np.max(np.abs(exact - exact[::-1])))
    checks.expect(f"{label} reflection symmetry", dev <= 1e-12, dev)
    via = correlations.occupation_finite_via_renewal(model, rods, N)
    dev = float(np.max(np.abs(exact - via)))
    checks.expect(f"{label} exact == renewal reassembly", dev <= 1e-10, dev)
    checks.expect(f"{label} alpha residual == 0", model.alpha_residual == 0.0,
                  model.alpha_residual)


# -- hamiltonian --------------------------------------------------------------

def check_ham(checks: Checks, label: str, doc: dict,
              sections: tuple[str, ...]) -> None:
    """One ham.json: each requested section present and showing a zero mode."""
    for section in sections:
        checks.expect(f"{label} ham.json has {section}", section in doc)
    checks.expect(f"{label} assemblies agree", doc["build_deviation"] <= 1e-12,
                  doc["build_deviation"])
    if "ground_state" in doc:
        gs = doc["ground_state"]
        checks.expect(f"{label} ground residual", gs["residual"] < 1e-8,
                      gs["residual"])
        checks.expect(f"{label} kernel dimension 1", gs["kernel_dim"] == 1,
                      gs["kernel_dim"])
    if "spectrum" in doc:
        ev = doc["spectrum"]
        checks.expect(f"{label} lowest eigenvalue 0", abs(ev[0]) <= 1e-8, ev[0])
        checks.expect(f"{label} next eigenvalue positive", ev[1] > 1e-8, ev[1])
    if "perturbation" in doc:
        d = doc["perturbation"]["distances"]
        checks.expect(f"{label} perturbation distances decrease",
                      all(b < a for a, b in zip(d, d[1:])), d)
    if "monomer_dimer" in doc:
        md = doc["monomer_dimer"]
        checks.expect(f"{label} monomer-dimer residual", md["residual"] < 1e-10,
                      md["residual"])
        checks.expect(f"{label} monomer-dimer assemblies agree",
                      md["build_deviation"] <= 1e-12, md["build_deviation"])


def check_residual(checks: Checks, label: str, H, psi: np.ndarray,
                   tol: float) -> None:
    """|H psi| / |psi| of a claimed zero mode, computed here."""
    residual = float(np.linalg.norm(H @ psi) / np.linalg.norm(psi))
    checks.expect(f"{label} recomputed residual < {tol:g}", residual < tol,
                  residual)


# -- plasma -------------------------------------------------------------------

def check_excess(checks: Checks, label: str, samples: np.ndarray, amp, cuts,
                 params) -> None:
    """Sampled P(K=0) at each cut within 3 standard errors of the exact value."""
    stats = plasma.measure_excess(samples, cuts, params)
    for cut in stats.xbars:
        exact = plasma.exact_excess_zero(amp, cut)
        se = stats.p_zero_stderr[cut]
        z = abs(stats.p_zero[cut] - exact) / se if se > 0 else math.inf
        checks.expect(f"{label} P(K=0) at {cut:g}", z < 3.0, f"z {z:.3f}")


def check_angular(checks: Checks, label: str, y_ks: float, count: int) -> None:
    """Kolmogorov-Smirnov distance of the y marginal from the uniform law."""
    crit = 1.63 / math.sqrt(count)
    checks.expect(f"{label} angular KS", y_ks < crit, f"{y_ks:.4g} < {crit:.4g}")


def check_chain(checks: Checks, label: str, run) -> None:
    checks.expect(f"{label} acceptance in [0.01, 0.99]",
                  0.01 <= run.acceptance <= 0.99, run.acceptance)
    checks.expect(f"{label} split R-hat near 1", abs(run.rhat - 1.0) < 0.1,
                  run.rhat)


def check_phase(checks: Checks, label: str, prof) -> None:
    """Bulk period-p oscillation, consistent with the renewal prediction."""
    checks.expect(f"{label} phase contrast > 0.5", prof.contrast > 0.5,
                  prof.contrast)
    z = float(np.max(np.abs(prof.zscores)))
    checks.expect(f"{label} phase profile vs renewal", z < 5.0, f"max z {z:.3f}")


# -- tracing ------------------------------------------------------------------

REMAINDER_SHARE = 0.02


def check_trace(checks: Checks, wall_s: float,
                self_times: dict[str, float]) -> None:
    """The spans of the traced passes account for their wall time.

    ``wall_s`` is the passes' time on a clock read outside their root
    spans, ``self_times`` the self times of every span.  Their sum may
    fall short of the wall time only by the tracer's own bookkeeping,
    and the self time of the root spans, ``bench.pass`` (work in a pass
    that no listed function covers), must stay a small share of it.
    """
    gap = wall_s - sum(self_times.values())
    checks.expect("self times add up to the traced wall time",
                  -1e-9 <= gap <= 1e-3, f"{gap:.3g} s")
    share = self_times.get("bench.pass", 0.0) / wall_s
    checks.expect(f"remainder under {REMAINDER_SHARE:.0%} of the traced wall time",
                  share < REMAINDER_SHARE, f"{share:.3g}")


# -- effective sample size ----------------------------------------------------

def _autocorrelation(series: np.ndarray) -> np.ndarray:
    """Normalised autocorrelation of each row, by FFT."""
    x = series - series.mean(axis=-1, keepdims=True)
    n = x.shape[-1]
    f = np.fft.rfft(x, 2 * n)
    ac = np.fft.irfft(f * np.conj(f))[..., :n]
    return ac / ac[..., :1]


def integrated_time(rho: np.ndarray, c: float = 5.0) -> float:
    """Integrated autocorrelation time with Sokal's automatic window.

    tau(M) = 1 + 2 sum_{t=1..M} rho(t); the window is the smallest M
    with M >= c tau(M) (Sokal, Monte Carlo Methods in Statistical
    Mechanics, 1996).  The bulk local densities decorrelate with tau
    near 3 sweeps; over ten seeds c = 3 and c = 5 gave ESS 2.6 % apart
    with the same spread.
    """
    tau = 1.0
    for M in range(1, rho.size):
        tau = 1.0 + 2.0 * float(rho[1:M + 1].sum())
        if M >= c * tau:
            break
    return tau


def effective_samples(series: np.ndarray) -> float:
    """ESS of observables sampled by several chains, summed over chains.

    ``series`` has shape (observables, chains, samples).  Each
    observable's autocorrelation is averaged over its chains before the
    window is chosen; the result is the mean over observables of
    chains * samples / tau.
    """
    obs, chains, n = series.shape
    ess = [chains * n / integrated_time(_autocorrelation(s).mean(axis=0))
           for s in series]
    return float(np.mean(ess))


def bulk_density_counts(samples: np.ndarray, window, width: float
                        ) -> np.ndarray:
    """Per-sample particle counts in bins of ``width`` across the bulk window.

    ``samples`` has shape (chains, samples, N, 2); the result has shape
    (bins, chains, samples).  These are the bulk local densities that
    phase_profile folds by the period.  Averaged over some sixty bins,
    their ESS varies by about 1 % between seeds, where that of the six
    folded phase fractions varied by 7 %.
    """
    lo, hi = window
    nbins = int((hi - lo) / width)
    which = np.floor((samples[..., 0] - lo) / width)
    return np.stack([(which == b).sum(axis=-1) for b in range(nbins)]
                    ).astype(float)
