"""Each correctness check of the benchmark must be able to fail.

    python3 bench/selftest.py

Feeds every check a correct output, which must pass, and the same
output with one deliberate fault, which must fail.  Takes a few seconds.
"""

import os
import sys
import time
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks as ck  # noqa: E402
from laughlin import (correlations, expansion, hamiltonian, plasma,  # noqa: E402
                      renewal)
from laughlin.lattice import (ModelParams, enumerate_admissible,  # noqa: E402
                              renewal_points, total_momentum)
from tracing import Tracer  # noqa: E402


def failed(checks: ck.Checks, word: str) -> bool:
    return any(word in name for name, _, _ in checks.failures())


class ExpansionChecks(unittest.TestCase):
    def test_changed_coefficient_fails_oracle_and_product_rule(self):
        p = 3
        tables = expansion.expand_all(p, 5)
        good = ck.Checks()
        ck.check_tables(good, "ok", p, tables, oracle_seed=1)
        self.assertTrue(good.ok, good.failures())

        top = tables[-1]
        m = next(m for m in sorted(top.coeffs) if m != top.root_config
                 and len(renewal_points(m, p)) > 2)
        coeffs = dict(top.coeffs)
        coeffs[m] += 1
        bad = ck.Checks()
        ck.check_tables(bad, "bad", p,
                        tables[:-1] + [expansion.CoefficientTable(p, 5, coeffs)],
                        oracle_seed=1)
        self.assertTrue(failed(bad, "oracle"))
        self.assertTrue(failed(bad, "product rule"))


class CorrelationChecks(unittest.TestCase):
    p, N, gamma = 3, 6, 1.0

    def outputs(self):
        tables = expansion.expand_all(self.p, self.N)
        model = renewal.build_model(self.p, self.N, self.gamma, tables=tables)
        rods = correlations.rod_expectations(tables, self.gamma)
        bulk = correlations.occupation_infinite(model, rods)
        exact = correlations.occupation_finite(
            expansion.amplitudes(tables[-1], self.gamma))
        rep = correlations.period_test(model, rods)
        period = {"period": rep.period, "margin": rep.margin,
                  "tolerance": rep.tolerance}
        return bulk, exact, period, model, rods

    def run_check(self, bulk, exact, period, model, rods):
        rows = [(k, v, "renewal") for k, v in enumerate(bulk)]
        rows += [(k, v, "exact") for k, v in enumerate(exact)]
        checks = ck.Checks()
        ck.check_corr(checks, "corr", self.p, self.N, rows, period, model, rods)
        return checks

    def test_correct_outputs_pass(self):
        checks = self.run_check(*self.outputs())
        self.assertTrue(checks.ok, checks.failures())

    def test_occupations_shifted_by_one_site_fail_the_period_check(self):
        bulk, exact, period, model, rods = self.outputs()
        checks = self.run_check(np.roll(bulk, 1), exact, period, model, rods)
        self.assertTrue(failed(checks, "bulk phase"))
        checks = self.run_check(bulk, np.roll(exact, 1), period, model, rods)
        self.assertTrue(failed(checks, "bulk phase"))


class HamiltonianChecks(unittest.TestCase):
    def test_perturbed_entry_fails_assembly_agreement(self):
        params = ModelParams(3, 4, 1.0)
        basis = hamiltonian.sector_basis(params,
                                         momentum=total_momentum(3, 4))
        build = hamiltonian.build_H(params, basis=basis)

        def doc(bond):
            return {"build_deviation": float(abs(build.pair - bond).max())}

        good = ck.Checks()
        ck.check_ham(good, "ok", doc(build.bond), ())
        self.assertTrue(good.ok, good.failures())
        bond = build.bond.tolil()
        bond[0, 0] += 1e-9
        bad = ck.Checks()
        ck.check_ham(bad, "bad", doc(bond.tocsr()), ())
        self.assertTrue(failed(bad, "assemblies agree"))

    def test_missing_section_fails(self):
        checks = ck.Checks()
        ck.check_ham(checks, "bad", {"build_deviation": 0.0},
                     ("ground_state",))
        self.assertTrue(failed(checks, "has ground_state"))


class PlasmaChecks(unittest.TestCase):
    def test_shifted_samples_fail_the_excess_check(self):
        params = ModelParams(3, 4, 1.0)
        amp = expansion.amplitudes(expansion.expand_all(3, 4)[-1], 1.0)
        run = plasma.metropolis_run(params, plasma.McConfig(
            sweeps=2000, burn_in=300, thinning=4, seed=13, chains=2))
        samples = run.pooled()
        cuts = (1.5, 4.5, 7.5)
        good = ck.Checks()
        ck.check_excess(good, "ok", samples, amp, cuts, params)
        self.assertTrue(good.ok, good.failures())
        shifted = samples.copy()
        shifted[:, :, 0] += 0.5 * params.p * params.gamma
        bad = ck.Checks()
        ck.check_excess(bad, "bad", shifted, amp, cuts, params)
        self.assertTrue(failed(bad, "P(K=0)"))


class TraceChecks(unittest.TestCase):
    def traced_pass(self, work):
        tracer = Tracer()
        tracer.install([("laughlin.expansion", "expand_all", True, None)])
        try:
            t0 = time.perf_counter()
            root = tracer.begin("bench.pass")
            work()
            tracer.end(root)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        checks = ck.Checks()
        ck.check_trace(checks, wall, tracer.self_times())
        return checks

    def test_listed_work_is_accounted_for(self):
        checks = self.traced_pass(lambda: expansion.expand_all(3, 6))
        self.assertTrue(checks.ok, checks.failures())

    def test_unlisted_slow_call_fails_the_remainder_check(self):
        def work():
            expansion.expand_all(3, 6)
            enumerate_admissible(3, 8)    # lattice has no span
        checks = self.traced_pass(work)
        self.assertTrue(failed(checks, "remainder"))


if __name__ == "__main__":
    unittest.main()
