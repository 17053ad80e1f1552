"""End-to-end tests of the command-line front end.

Each subcommand runs in-process against a temporary cache and output
directory; artifact contents are parsed back and compared against the
library calls they wrap.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from laughlin import cli, hamiltonian, lattice, moments, plasma
from laughlin.expansion import amplitudes, expand_all
from laughlin.lattice import enumerate_admissible, renewal_points
from laughlin.correlations import occupation_finite, occupation_infinite, \
    pair_infinite, period_test, rod_expectations
from laughlin.renewal import build_model


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def dirs(tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "out"
    return str(cache), str(out)


def test_expand_writes_cache_and_summary(dirs):
    cache, out = dirs
    assert run_cli("expand", "--p", "3", "--N", "4",
                   "--cache-dir", cache, "--out-dir", out) == 0
    summary = read_json(os.path.join(out, "expand_summary.json"))
    assert [t["N"] for t in summary["tables"]] == [1, 2, 3, 4]
    tables = expand_all(3, 4)
    assert [t["terms"] for t in summary["tables"]] == \
        [len(tab.coeffs) for tab in tables]
    for entry in summary["tables"]:
        path = os.path.join(cache, entry["cache_file"])
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == entry["sha256"]
    manifest = read_json(os.path.join(out, "expand_manifest.json"))
    assert "expand_summary.json" in manifest["artifacts"]
    assert manifest["inputs"]["p"] == 3
    stages = manifest["stages"]
    assert [s["name"] for s in stages] == ["squeeze"] * 4
    assert [s["N"] for s in stages] == [1, 2, 3, 4]
    for stage, table in zip(stages, tables):
        configs = enumerate_admissible(3, table.N)
        assert stage["seconds"] >= 0.0
        assert stage["terms"] == len(table)
        assert stage["levels"] == len({sum(v * v for v in m)
                                       for m in configs})
        assert (stage["candidates"] > 0) == (table.N > 1)
        # every reducible row comes from the product rule, every
        # irreducible one from the squeezing recursion
        irreducible = sum(len(renewal_points(m, 3)) == 2 for m in configs)
        assert stage["filled"] + irreducible == len(configs)
        assert stage["max_coeff_bits"] == \
            max(abs(c) for c in table.coeffs.values()).bit_length()


def test_expand_reads_warm_cache(dirs, monkeypatch):
    cache, out = dirs
    assert run_cli("expand", "--p", "3", "--N", "4",
                   "--cache-dir", cache, "--out-dir", out) == 0
    first = read_json(os.path.join(out, "expand_summary.json"))

    def refuse(*args, **kwargs):
        raise AssertionError("expand called on a warm cache")

    monkeypatch.setattr(cli.expansion, "expand", refuse)
    assert run_cli("expand", "--p", "3", "--N", "4",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert read_json(os.path.join(out, "expand_summary.json")) == first
    manifest = read_json(os.path.join(out, "expand_manifest.json"))
    assert "stages" not in manifest


def test_expand_computes_only_missing_tables(dirs, monkeypatch):
    cache, out = dirs
    assert run_cli("expand", "--p", "3", "--N", "7",
                   "--cache-dir", cache, "--out-dir", out) == 0
    calls = []
    expand = cli.expansion.expand

    def counting(p, N, smaller, **kwargs):
        calls.append(N)
        return expand(p, N, smaller, **kwargs)

    monkeypatch.setattr(cli.expansion, "expand", counting)
    assert run_cli("expand", "--p", "3", "--N", "8",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert calls == [8]
    manifest = read_json(os.path.join(out, "expand_manifest.json"))
    assert manifest["cache"] == {"hits": [1, 2, 3, 4, 5, 6, 7],
                                 "computed": [8]}
    assert [(s["name"], s["N"]) for s in manifest["stages"]] == \
        [("squeeze", 8)]
    assert manifest["stages"][0]["terms"] == 5294


def test_norms_csv_matches_library(dirs):
    cache, out = dirs
    assert run_cli("norms", "--p", "3", "--Nmax", "4", "--gamma", "1.0",
                   "--cache-dir", cache, "--out-dir", out) == 0
    rows = read_csv(os.path.join(out, "norms.csv"))
    assert [int(r["N"]) for r in rows] == [1, 2, 3, 4]
    assert float(rows[0]["C_N"]) == 1.0
    assert float(rows[1]["C_N"]) == pytest.approx(1.0 + 9.0 * math.exp(-4.0),
                                                  rel=1e-15)


def test_renewal_outputs(dirs):
    cache, out = dirs
    assert run_cli("renewal", "--p", "3", "--Nmax", "6",
                   "--cache-dir", cache, "--out-dir", out) == 0
    rows = read_csv(os.path.join(out, "renewal.csv"))
    model = build_model(3, 6, 1.0, tables=expand_all(3, 6))
    u = model.renewal_sequence(6)
    assert float(rows[0]["alpha_n"]) == 1.0
    for i, row in enumerate(rows):
        assert float(row["p_n"]) == pytest.approx(model.pn[i], rel=1e-15)
        assert float(row["u_n"]) == pytest.approx(u[i + 1], rel=1e-15)
    summary = read_json(os.path.join(out, "renewal_summary.json"))
    assert summary["r"] == pytest.approx(model.r, rel=1e-15)
    assert summary["mu"] == pytest.approx(model.mu, rel=1e-15)
    assert summary["converged"] is True


def test_corr_outputs(dirs):
    cache, out = dirs
    assert run_cli("corr", "--p", "3", "--Nmax", "6", "--N", "4",
                   "--kmax", "4", "--cache-dir", cache,
                   "--out-dir", out) == 0
    rows = read_csv(os.path.join(out, "occupations.csv"))
    renewal_rows = [r for r in rows if r["source"] == "renewal"]
    exact_rows = [r for r in rows if r["source"] == "exact"]
    assert len(renewal_rows) == 3 and len(exact_rows) == 10
    tables = expand_all(3, 6)
    model = build_model(3, 6, 1.0, tables=tables)
    rods = rod_expectations(tables, 1.0)
    occ_inf = occupation_infinite(model, rods)
    for r in renewal_rows:
        assert float(r["value"]) == pytest.approx(occ_inf[int(r["k"])],
                                                  rel=1e-14)
    occ_fin = occupation_finite(amplitudes(tables[3], 1.0))
    for r in exact_rows:
        assert float(r["value"]) == pytest.approx(occ_fin[int(r["k"])],
                                                  rel=1e-14)
        assert float(r["error_estimate"]) == 0.0
    pairs = read_csv(os.path.join(out, "pairs.csv"))
    assert [int(r["l"]) for r in pairs] == list(range(5))
    period = read_json(os.path.join(out, "period.json"))
    assert period["period"] == 3
    assert period["margin"] > 0.1
    profile = read_csv(os.path.join(out, "profile.csv"))
    assert len(profile) > 50
    assert all(float(r["rho"]) >= 0.0 for r in profile)


def test_ham_report(dirs, tmp_path):
    cache, out = dirs
    argv = ["ham", "--p", "3", "--N", "2", "--spectrum", "2",
            "--check-ground-state", "--cache-dir", cache]
    assert run_cli(*argv, "--out-dir", out) == 0
    doc = read_json(os.path.join(out, "ham.json"))
    assert doc["dim"] == 2 and doc["momentum"] == 3
    assert doc["spectrum"][0] == pytest.approx(0.0, abs=1e-12)
    assert doc["spectrum"][1] == pytest.approx(11.304186056909032, rel=1e-12)
    assert doc["ground_state"]["passed"] is True
    assert doc["ground_state"]["residual"] < 1e-12

    stages = read_json(os.path.join(out, "ham_manifest.json"))["stages"]
    # the empty cache makes ham compute tables 1 and 2
    assert [s["name"] for s in stages] == [
        "sector", "pair_assembly", "bond_assembly", "squeeze", "squeeze",
        "spectrum", "ground_check"]
    assert [s["N"] for s in stages[3:5]] == [1, 2]
    assert all(s["seconds"] >= 0.0 for s in stages)
    assert stages[0]["dim"] == 2
    assert stages[1]["nnz"] == stages[2]["nnz"] == 4

    out2 = str(tmp_path / "out2")
    assert run_cli(*argv, "--out-dir", out2) == 0
    stages = read_json(os.path.join(out2, "ham_manifest.json"))["stages"]
    assert [s["name"] for s in stages] == [
        "sector", "pair_assembly", "bond_assembly", "spectrum",
        "ground_check"]
    with open(os.path.join(out, "ham.json"), "rb") as fa, \
            open(os.path.join(out2, "ham.json"), "rb") as fb:
        assert fa.read() == fb.read()


def test_ham_one_fermion(dirs):
    # F(0) = 0 for odd p: one particle on one orbital has no pair term,
    # so H is the 1x1 zero matrix and the one state is its kernel.
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "1", "--check-ground-state",
                   "--spectrum", "1", "--cache-dir", cache,
                   "--out-dir", out) == 0
    doc = read_json(os.path.join(out, "ham.json"))
    assert doc["dim"] == 1 and doc["spectrum"] == [0.0]
    assert doc["ground_state"]["kernel_dim"] == 1
    assert doc["ground_state"]["passed"] is True


@pytest.mark.parametrize("flags, count", [
    (["--spectrum", "2", "--check-ground-state"], 40),
    (["--spectrum", "45", "--check-ground-state"], 45),
    (["--spectrum", "3"], 3),
    (["--check-ground-state"], 40),
])
def test_ham_solves_once(dirs, monkeypatch, flags, count):
    """The spectrum and the kernel check share one eigensolve of H, with
    at least the 40 values the check reads (dim 338, so ARPACK runs),
    seeded by --seed."""
    cache, out = dirs
    calls = []
    spectrum = hamiltonian.spectrum

    def counting(H, count=6, **kwargs):
        calls.append((count, kwargs.get("seed")))
        return spectrum(H, count=count, **kwargs)

    monkeypatch.setattr(hamiltonian, "spectrum", counting)
    assert run_cli("ham", "--p", "3", "--N", "6", *flags, "--seed", "3",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert calls == [(count, 3)]
    doc = read_json(os.path.join(out, "ham.json"))
    assert doc["dim"] == 338
    stages = read_json(os.path.join(out, "ham_manifest.json"))["stages"]
    solve = [s for s in stages if s["name"] == "spectrum"]
    assert [s["count"] for s in solve] == [count]
    if "--spectrum" in flags:
        assert len(doc["spectrum"]) == int(flags[1])
        assert doc["spectrum"][0] == pytest.approx(0.0, abs=1e-10)
    else:
        assert "spectrum" not in doc
    if "--check-ground-state" in flags:
        ground = doc["ground_state"]
        assert ground["kernel_dim"] == 1 and ground["passed"] is True
        if "spectrum" in doc:
            assert ground["min_eigenvalue"] == doc["spectrum"][0]
    else:
        assert "ground_state" not in doc


def test_ham_monomer_dimer_and_perturbation(dirs, monkeypatch):
    cache, out = dirs
    calls = []
    build_H = hamiltonian.build_H

    def counting(*args, **kwargs):
        calls.append(args)
        return build_H(*args, **kwargs)

    monkeypatch.setattr(hamiltonian, "build_H", counting)
    assert run_cli("ham", "--p", "3", "--N", "3", "--gamma", "1.5",
                   "--monomer-dimer", "--perturbation-order", "2",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert len(calls) == 1
    doc = read_json(os.path.join(out, "ham.json"))
    assert doc["monomer_dimer"]["passed"] is True
    assert doc["monomer_dimer"]["num_terms"] == 3
    dists = doc["perturbation"]["distances"]
    assert len(dists) == 3 and doc["perturbation"]["decreasing"] is True
    stages = read_json(os.path.join(out, "ham_manifest.json"))["stages"]
    assert [s["name"] for s in stages] == [
        "sector", "pair_assembly", "bond_assembly", "squeeze", "squeeze",
        "squeeze", "monomer_dimer", "perturbation"]
    assert stages[6]["dim"] == doc["dim"] and stages[6]["num_terms"] == 3


def test_ham_records_each_computed_table(dirs, monkeypatch):
    """A table missing from the cache is computed as a squeeze stage;
    ``ham`` reads table N alone."""
    cache, out = dirs
    argv = ["ham", "--p", "3", "--N", "5", "--check-ground-state",
            "--cache-dir", cache, "--out-dir", out]
    assert run_cli("expand", "--p", "3", "--N", "5", "--cache-dir", cache,
                   "--out-dir", out) == 0
    os.remove(cli.expansion.cache_path(cache, 3, 4))
    assert run_cli(*argv) == 0
    manifest = read_json(os.path.join(out, "ham_manifest.json"))
    assert manifest["cache"] == {"hits": [5], "computed": [4]}
    squeezed = [s for s in manifest["stages"] if s["name"] == "squeeze"]
    assert [s["N"] for s in squeezed] == [4]
    assert squeezed[0]["terms"] == len(expand_all(3, 4)[3])
    assert os.path.exists(cli.expansion.cache_path(cache, 3, 4))
    calls = []
    load_cache = cli.expansion.load_cache

    def counting(path, **kwargs):
        calls.append(kwargs["expected_N"])
        return load_cache(path, **kwargs)

    monkeypatch.setattr(cli.expansion, "load_cache", counting)
    assert run_cli(*argv) == 0
    assert calls == [5]
    manifest = read_json(os.path.join(out, "ham_manifest.json"))
    assert manifest["cache"] == {"hits": [5], "computed": []}


def test_ham_monomer_dimer_in_ground_sector(dirs):
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "6", "--gamma", "1.5",
                   "--monomer-dimer", "--cache-dir", cache,
                   "--out-dir", out) == 0
    md = read_json(os.path.join(out, "ham.json"))["monomer_dimer"]
    assert md["passed"] is True and md["kernel_dim"] == 1


def failed_checks(out, sub):
    manifest = read_json(os.path.join(out, f"{sub}_manifest.json"))
    return [c["name"] for c in manifest["checks"] if not c["passed"]]


def test_ham_failed_kernel_check_exits_one(dirs, monkeypatch):
    cache, out = dirs
    real = hamiltonian.ground_check
    monkeypatch.setattr(hamiltonian, "ground_check", lambda H, psi, vals:
                        dataclasses.replace(real(H, psi, vals), kernel_dim=2))
    assert run_cli("ham", "--p", "3", "--N", "4", "--check-ground-state",
                   "--cache-dir", cache, "--out-dir", out) == 1
    assert failed_checks(out, "ham") == ["ground-kernel"]
    ground = read_json(os.path.join(out, "ham.json"))["ground_state"]
    assert ground["kernel_dim"] == 2 and ground["passed"] is False


@pytest.mark.parametrize("target, change, failed", [
    ("ground_check", {"residual": 1e-9}, "monomer-dimer-residual"),
    ("build_monomer_dimer", {"deviation": 1e-11}, "monomer-dimer-build"),
])
def test_ham_failed_monomer_dimer_check_exits_one(dirs, monkeypatch, target,
                                                  change, failed):
    cache, out = dirs
    real = getattr(hamiltonian, target)
    monkeypatch.setattr(hamiltonian, target, lambda *args, **kwargs:
                        dataclasses.replace(real(*args, **kwargs), **change))
    assert run_cli("ham", "--p", "3", "--N", "5", "--monomer-dimer",
                   "--cache-dir", cache, "--out-dir", out) == 1
    assert failed_checks(out, "ham") == [failed]
    md = read_json(os.path.join(out, "ham.json"))["monomer_dimer"]
    assert md["passed"] is False


def test_ham_and_verify_all_share_their_verdicts(dirs, tmp_path):
    """The ground-state and monomer-dimer verdicts of ``ham`` at N=4 are
    those ``verify-all --Nmax 4`` records."""
    cache, out = dirs
    assert run_cli("verify-all", "--p", "3", "--Nmax", "4", "--seed", "5",
                   "--cache-dir", cache, "--out-dir", out) == 0
    verify = {c["name"]: c for c in
              read_json(os.path.join(out, "verify.json"))["checks"]}
    out2 = str(tmp_path / "out2")
    assert run_cli("ham", "--p", "3", "--N", "4", "--check-ground-state",
                   "--monomer-dimer", "--cache-dir", cache,
                   "--out-dir", out2) == 0
    ham = read_json(os.path.join(out2, "ham_manifest.json"))["checks"]
    assert [c["name"] for c in ham] == [
        "ground-residual", "ground-kernel", "monomer-dimer-residual",
        "monomer-dimer-build"]
    for check in ham[:3]:
        shared = verify[check["name"]]
        for key in ("tolerance", "passed", "note"):
            assert check[key] == shared[key]
        assert check["measured"] == pytest.approx(shared["measured"],
                                                  abs=1e-15)


def test_ham_enumerates_the_ground_sector_once_under_the_cap(dirs,
                                                             monkeypatch):
    """Outside the ground sector (momentum 45 at p=3, N=6, 338 states)
    the monomer-dimer state and the perturbation series share one
    ground sector, enumerated under the run's cap, and the series reads
    the bond route alone there: the quadruple sum is assembled once, on
    the requested sector."""
    cache, out = dirs
    argv = ["ham", "--p", "3", "--N", "6", "--gamma", "1.5", "--momentum",
            "60", "--cache-dir", cache, "--out-dir", out]
    assert run_cli(*argv, "--cap", "300", "--perturbation-order", "2") == 3
    calls = []
    sector_basis = hamiltonian.sector_basis

    def counting(params, momentum=None, **kwargs):
        calls.append(momentum)
        return sector_basis(params, momentum=momentum, **kwargs)

    monkeypatch.setattr(hamiltonian, "sector_basis", counting)
    builds = []
    for name in ("build_H", "repulsion"):
        def counted(params, basis, real=getattr(hamiltonian, name),
                    name=name):
            builds.append((name, basis.momentum))
            return real(params, basis)
        monkeypatch.setattr(hamiltonian, name, counted)
    assert run_cli(*argv, "--monomer-dimer", "--perturbation-order", "2") == 0
    assert calls == [60, 45]
    # build_H's own bond route, then the series' operator
    assert builds == [("build_H", 60), ("repulsion", 60), ("repulsion", 45)]
    doc = read_json(os.path.join(out, "ham.json"))
    assert doc["monomer_dimer"]["passed"] is True
    assert doc["perturbation"]["decreasing"] is True
    stages = read_json(os.path.join(out, "ham_manifest.json"))["stages"]
    ground = [s for s in stages if s["name"] == "ground_sector"]
    assert [s["dim"] for s in ground] == [338]


def counting_chains(monkeypatch):
    """Count every chain's moves, tuning pilots included, from its arguments."""
    moves = []
    real = plasma._run_chain

    def counted(params, mc, rngs, sigma, n_keep):
        moves.extend([(mc.burn_in + n_keep * mc.thinning) * params.N]
                     * len(rngs))
        return real(params, mc, rngs, sigma, n_keep)

    monkeypatch.setattr(plasma, "_run_chain", counted)
    return moves


def test_mcmc_outputs_and_reruns_identical(dirs, tmp_path, monkeypatch):
    cache, out = dirs
    out2 = str(tmp_path / "out2")
    argv = ["mcmc", "--p", "3", "--N", "3", "--sweeps", "3000",
            "--burn-in", "300", "--seed", "11", "--cache-dir", cache]
    moves = counting_chains(monkeypatch)
    assert run_cli(*argv, "--out-dir", out) == 0
    # two chains of 300 + 3000 sweeps after at least one 200-sweep pilot
    assert len(moves) >= 3 and moves[-2:] == [3 * 3300, 3 * 3300]
    stages = read_json(os.path.join(out, "mcmc_manifest.json"))["stages"]
    assert [s["name"] for s in stages] == ["sample", "density", "excess"]
    assert all(s["seconds"] >= 0.0 for s in stages)
    assert stages[0]["chains"] == 2
    assert stages[0]["moves"] == sum(moves)
    # every pilot before the two chains makes 50 + 150 sweeps
    assert stages[0]["pilot_moves"] == sum(moves[:-2]) \
        == 3 * 200 * (len(moves) - 2)
    assert run_cli(*argv, "--out-dir", out2) == 0
    for name in ("density.csv", "excess.csv"):
        with open(os.path.join(out, name), "rb") as fa, \
             open(os.path.join(out2, name), "rb") as fb:
            assert fa.read() == fb.read()
    # excess histogram sums to one at each cut
    rows = read_csv(os.path.join(out, "excess.csv"))
    sums: dict[str, float] = {}
    for r in rows:
        sums[r["xbar"]] = sums.get(r["xbar"], 0.0) + float(r["probability"])
    assert sums and all(abs(s - 1.0) < 1e-12 for s in sums.values())
    # density integrates back to the particle number
    dens = read_csv(os.path.join(out, "density.csv"))
    widths = 0.5
    mass = sum(float(r["density"]) for r in dens) * widths
    assert mass == pytest.approx(3.0, abs=1e-9)
    manifest = read_json(os.path.join(out, "mcmc_manifest.json"))
    assert manifest["run"]["rhat"] == pytest.approx(1.0, abs=0.1)
    assert 0.0 < manifest["run"]["acceptance"] < 1.0
    assert manifest["run"]["passed"] is True


@pytest.mark.parametrize("change", [{"rhat": math.nan}, {"rhat": 1.25},
                                    {"acceptance": 0.001}])
def test_mcmc_degenerate_run_exits_one(dirs, monkeypatch, change):
    cache, out = dirs
    real = plasma.metropolis_run
    monkeypatch.setattr(plasma, "metropolis_run", lambda params, mc:
                        dataclasses.replace(real(params, mc), **change))
    assert run_cli("mcmc", "--p", "3", "--N", "2", "--sweeps", "500",
                   "--burn-in", "100", "--seed", "3", "--cache-dir", cache,
                   "--out-dir", out) == 1
    run = read_json(os.path.join(out, "mcmc_manifest.json"))["run"]
    assert run["passed"] is False
    assert run["rhat_tolerance"] == 0.1
    assert run["acceptance_band"] == [0.01, 0.99]
    assert failed_checks(out, "mcmc") == ["mcmc-chain"]
    assert os.path.exists(os.path.join(out, "density.csv"))


@pytest.mark.parametrize("observable", ["density", "excess"])
def test_mcmc_one_kept_sample_exits_two(dirs, capsys, observable):
    """One kept sample per chain has no batch-means standard error; the
    run refuses it instead of writing NaN standard errors."""
    cache, out = dirs
    assert run_cli("mcmc", "--p", "3", "--N", "6", "--sweeps", "5",
                   "--thinning", "5", "--burn-in", "1", "--chains", "1",
                   "--observables", observable, "--cache-dir", cache,
                   "--out-dir", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: one kept sample gives no standard error; run more sweeps"]
    assert not os.path.exists(out)


def test_failed_runs_leave_no_output_directory(dirs):
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "4", "--momentum", "1000",
                   "--spectrum", "2", "--cache-dir", cache,
                   "--out-dir", out) == 2
    assert run_cli("mcmc", "--p", "3", "--N", "6", "--sweeps", "5",
                   "--thinning", "5", "--burn-in", "1", "--chains", "1",
                   "--observables", "density", "--cache-dir", cache,
                   "--out-dir", out) == 2
    assert not os.path.exists(out)


def test_mcmc_phase_observable(dirs, monkeypatch):
    cache, out = dirs
    moves = counting_chains(monkeypatch)
    assert run_cli("mcmc", "--p", "3", "--N", "12", "--sweeps", "2500",
                   "--burn-in", "300", "--seed", "11",
                   "--observables", "phase", "--Nmax", "6",
                   "--cache-dir", cache, "--out-dir", out) == 0
    stages = read_json(os.path.join(out, "mcmc_manifest.json"))["stages"]
    # the empty cache makes the phase prediction compute tables 1..6
    assert [s["name"] for s in stages] == \
        ["sample"] + ["squeeze"] * 6 + ["moments", "model", "phase"]
    assert stages[0]["moves"] == sum(moves)
    model = build_model(3, 6, 1.0, tables=expand_all(3, 6))
    assert stages[8]["alpha_residual"] == 0.0
    assert stages[8]["tail_mass"] == model.tail_mass
    assert stages[8]["root_shift"] == model.root_shift
    rows = read_csv(os.path.join(out, "phase.csv"))
    assert len(rows) == 6
    pred = [float(r["predicted"]) for r in rows]
    assert sum(pred) == pytest.approx(1.0, abs=1e-12)
    assert max(pred) > 2 * min(pred)


def test_corr_manifest_records_cache_hits(dirs):
    cache, out = dirs
    argv = ["corr", "--p", "3", "--Nmax", "4", "--N", "4", "--kmax", "2",
            "--cache-dir", cache, "--out-dir", out]
    assert run_cli(*argv) == 0
    cold = read_json(os.path.join(out, "corr_manifest.json"))["cache"]
    assert cold == {"hits": [], "computed": [1, 2, 3, 4],
                    "moments_read": [], "moments_derived": [1, 2, 3, 4]}
    assert run_cli(*argv, "--no-compute") == 0
    warm = read_json(os.path.join(out, "corr_manifest.json"))["cache"]
    assert warm == {"hits": [], "computed": [],
                    "moments_read": [1, 2, 3, 4], "moments_derived": []}


def test_exit_code_cap(dirs):
    cache, out = dirs
    assert run_cli("expand", "--p", "3", "--N", "40",
                   "--cache-dir", cache, "--out-dir", out) == 3


@pytest.mark.parametrize("limit", (2 ** 12, 2 ** 20))
def test_exit_code_cap_writes_no_table(dirs, monkeypatch, limit):
    # At p=3, N=6 the occupation keys need 14 bits and the squeezing sums
    # over 20 (those of N=5 fit): the table that would leave the range
    # exits 3 and leaves no file in the cache.
    cache, out = dirs
    os.makedirs(cache)
    for smaller in expand_all(3, 5):
        cli.expansion.save_cache(
            smaller, cli.expansion.cache_path(cache, 3, smaller.N))
    monkeypatch.setattr(lattice, "INT64_LIMIT", limit)
    assert run_cli("expand", "--p", "3", "--N", "6",
                   "--cache-dir", cache, "--out-dir", out) == 3
    assert sorted(os.listdir(cache)) == \
        [f"coeff_p3_N{n}.txt" for n in range(1, 6)]


def test_exit_code_unconverged_eigensolve(dirs, capsys, monkeypatch):
    # A Lanczos solve that runs out of restarts is a resource limit: one
    # error line and exit 3, not an ARPACK traceback.
    cache, out = dirs
    spectrum = hamiltonian.spectrum
    monkeypatch.setattr(hamiltonian, "spectrum", lambda H, **kwargs:
                        spectrum(H, **kwargs, maxiter=1))
    assert run_cli("ham", "--p", "3", "--N", "6", "--spectrum", "6",
                   "--cache-dir", cache, "--out-dir", out) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: Lanczos did not converge the lowest 6 "
                             "eigenvalues within maxiter=1 restarts")


def test_exit_code_invalid_config(dirs):
    cache, out = dirs
    assert run_cli("norms", "--p", "0", "--Nmax", "3",
                   "--cache-dir", cache, "--out-dir", out) == 2
    assert run_cli("corr", "--gamma", "-1", "--Nmax", "3",
                   "--cache-dir", cache, "--out-dir", out) == 2
    assert run_cli("mcmc", "--p", "3", "--N", "2", "--sweeps", "500",
                   "--observables", "bogus",
                   "--cache-dir", cache, "--out-dir", out) == 2
    assert run_cli("ham", "--p", "3", "--N", "3", "--spectrum", "-1",
                   "--cache-dir", cache, "--out-dir", out) == 2


@pytest.mark.parametrize("argv, message", [
    (["corr", "--Nmax", "3", "--kmax", "-1"], "kmax must be >= 0, got -1"),
    (["ham", "--p", "3", "--N", "3", "--spectrum", "0"],
     "spectrum must be >= 1, got 0"),
    (["verify-all", "--Nmax", "1"], "verify-all needs Nmax >= 2, got 1"),
    (["ham", "--p", "3", "--N", "3", "--perturbation-order", "-1"],
     "perturbation_order must be >= 0, got -1"),
    (["ham", "--p", "2", "--N", "5", "--perturbation-order", "2"],
     "defined at filling 1/3 only"),
    (["ham", "--p", "2", "--N", "3", "--monomer-dimer"],
     "defined at filling 1/3 only"),
    (["mcmc", "--p", "3", "--N", "3", "--sweeps", "200",
      "--observables", "density,excess,phase"],
     "window too narrow to hold one full period"),
    (["mcmc", "--p", "3", "--N", "2", "--sweeps", "200",
      "--observables", "density,bogus"], "unknown observables: ['bogus']"),
    (["ham", "--p", "3", "--N", "4", "--momentum", "17",
      "--check-ground-state"],
     "--check-ground-state needs the ground sector (momentum 18), where the "
     "Laughlin state lies; got 17"),
])
def test_exit_code_count_that_asks_for_nothing(dirs, capsys, argv, message):
    # A negative kmax would write a header-only pairs.csv, and a zero
    # spectrum a report without its spectrum section; the ham and mcmc
    # refusals come before any table is computed or any sample drawn.
    cache, out = dirs
    assert run_cli(*argv, "--cache-dir", cache, "--out-dir", out) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not os.path.exists(out)
    assert not os.path.exists(cache)


def _rewrite_cache_line(path, line, resign):
    """Replace one body line of a cache file, re-signing it when asked."""
    with open(path) as fh:
        lines = fh.readlines()
    lines[1] = line
    if resign:
        digest = hashlib.sha256("".join(lines[:-1]).encode()).hexdigest()
        lines[-1] = f"checksum={digest}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("line, resign, message", [
    ("0,3,6:2\n", False, "checksum mismatch"),
    ("6,3,0:1\n", True, "malformed line"),
    ("0,3,6:2\n", True, "must carry coefficient +1"),
])
def test_exit_code_corrupt_cache(dirs, capsys, line, resign, message):
    cache, out = dirs
    assert run_cli("expand", "--p", "3", "--N", "3",
                   "--cache-dir", cache, "--out-dir", out) == 0
    capsys.readouterr()
    _rewrite_cache_line(os.path.join(cache, "coeff_p3_N3.txt"), line, resign)
    for sub in ("norms", "corr"):
        assert run_cli(sub, "--p", "3", "--Nmax", "3",
                       "--cache-dir", cache, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize("argv", [
    ["expand", "--N", "2", "--gamma", "1"],
    ["expand", "--N", "2", "--seed", "1"],
    ["expand", "--N", "2", "--override-unconverged"],
    ["norms", "--seed", "1"],
    ["norms", "--override-unconverged"],
    ["renewal", "--seed", "1"],
    ["corr", "--seed", "1"],
    ["ham", "--N", "2", "--override-unconverged"],
])
def test_unread_flags_rejected(argv, dirs, capsys):
    cache, out = dirs
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--cache-dir", cache, "--out-dir", out])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_code_no_compute_on_cold_cache(dirs):
    cache, out = dirs
    assert run_cli("corr", "--p", "2", "--Nmax", "4", "--no-compute",
                   "--cache-dir", cache, "--out-dir", out) == 2


def test_exit_code_unconverged(dirs, capsys):
    # One rod weight gives no tail estimate, and so no convergence.
    cache, out = dirs
    for argv in (["renewal", "--Nmax", "8", "--gamma", "0.4"],
                 ["renewal", "--Nmax", "1", "--gamma", "0.5"],
                 ["corr", "--Nmax", "1", "--gamma", "0.5"]):
        argv += ["--p", "3", "--cache-dir", cache, "--out-dir", out]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        if argv[2] == "1":
            assert capsys.readouterr().err.splitlines() == [
                "error: estimated waiting-time tail inf exceeds 0.01; "
                "pass --override-unconverged to proceed"]
        assert run_cli(*argv, "--override-unconverged") == 0
        if argv[0] == "renewal":
            summary = read_json(os.path.join(out, "renewal_summary.json"))
            assert summary["converged"] is False


def test_corr_override_admits_the_model(dirs):
    """--override-unconverged builds a model that admits its tail, and
    every bulk output of corr is that model's."""
    cache, out = dirs
    argv = ["corr", "--p", "3", "--Nmax", "6", "--gamma", "0.35",
            "--kmax", "4", "--cache-dir", cache, "--out-dir", out]
    assert run_cli(*argv) == 2
    assert run_cli(*argv, "--override-unconverged") == 0
    tables = [moments.read(cache, 3, n) for n in range(1, 7)]
    model = build_model(3, 6, 0.35, tables=tables, admit_unconverged=True)
    rods = rod_expectations(tables, 0.35)
    assert model.unconverged
    occ = read_csv(os.path.join(out, "occupations.csv"))
    assert [r["value"] for r in occ] == \
        [cli.fmt(x) for x in occupation_infinite(model, rods)]
    pairs = read_csv(os.path.join(out, "pairs.csv"))
    assert [r["value"] for r in pairs] == \
        [cli.fmt(pair_infinite(model, rods, 0, l).truncated)
         for l in range(5)]
    report = period_test(model, rods)
    period = read_json(os.path.join(out, "period.json"))
    assert (period["period"], period["used"], period["deviations"]) == \
        (report.period, report.used, list(report.deviations))


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_verify_all_passes(dirs, capsys):
    cache, out = dirs
    assert run_cli("verify-all", "--p", "3", "--Nmax", "4", "--seed", "5",
                   "--cache-dir", cache, "--out-dir", out) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    doc = read_json(os.path.join(out, "verify.json"))
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"product-rule", "expansion-oracle", "moments-vs-rows",
            "ground-residual", "monomer-dimer-residual", "mcmc-excess",
            "mcmc-chain"} <= names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_all_fails_on_degenerate_chain(dirs, monkeypatch):
    cache, out = dirs
    real = plasma.metropolis_run

    def degenerate(params, mc):
        run = real(params, dataclasses.replace(mc, sweeps=600))
        return dataclasses.replace(run, rhat=math.nan)

    monkeypatch.setattr(plasma, "metropolis_run", degenerate)
    assert run_cli("verify-all", "--p", "3", "--Nmax", "3", "--seed", "5",
                   "--cache-dir", cache, "--out-dir", out) == 1
    doc = read_json(os.path.join(out, "verify.json"))
    chain = next(c for c in doc["checks"] if c["name"] == "mcmc-chain")
    assert chain["passed"] is False
    assert chain["measured"] == "nan" and chain["tolerance"] == 0.1


def test_cache_dir_env_default(monkeypatch, tmp_path):
    target = str(tmp_path / "envcache")
    monkeypatch.setenv(cli.CACHE_ENV, target)
    assert cli.default_cache_dir() == target
    args = cli.build_parser().parse_args(["norms"])
    assert args.cache_dir == target


def test_json_float_formatting():
    text = cli._json_text({"x": 0.1, "arr": [1.0, True, None],
                           "inf": math.inf})
    doc = json.loads(text)
    assert doc["x"] == 0.1
    assert "0.10000000000000001" in text
    assert doc["arr"] == [1.0, True, None]
    assert doc["inf"] == "inf"


def test_seventeen_digit_round_trip():
    rng = np.random.default_rng(2)
    for x in rng.normal(size=50) * 10.0 ** rng.integers(-12, 12, size=50):
        assert float(cli.fmt(float(x))) == float(x)


def test_corr_no_compute_derives_moment_files(dirs, capsys):
    cache, out = dirs
    argv = ["corr", "--p", "3", "--Nmax", "4", "--kmax", "2", "--no-compute",
            "--cache-dir", cache, "--out-dir", out]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "lacks tables for p=3, N<=4" in err[0]
    assert run_cli("expand", "--p", "3", "--N", "4",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert run_cli(*argv) == 0
    manifest = read_json(os.path.join(out, "corr_manifest.json"))
    assert manifest["cache"] == {"hits": [1, 2, 3, 4], "computed": [],
                                 "moments_read": [],
                                 "moments_derived": [1, 2, 3, 4]}
    assert sorted(f for f in os.listdir(cache) if f.startswith("moments")) \
        == [f"moments_p3_N{n}.bin" for n in range(1, 5)]


def test_warm_moment_cache_reads_no_coefficient_table(dirs, monkeypatch):
    cache, out = dirs
    base = ["--p", "3", "--Nmax", "5", "--cache-dir", cache, "--out-dir", out]
    assert run_cli("corr", *base) == 0
    calls = []
    load_cache = cli.expansion.load_cache

    def counting(*args, **kwargs):
        calls.append(args)
        return load_cache(*args, **kwargs)

    monkeypatch.setattr(cli.expansion, "load_cache", counting)
    for sub in ("corr", "renewal", "norms"):
        assert run_cli(sub, *base) == 0
    assert calls == []
    os.remove(os.path.join(cache, "moments_p3_N5.bin"))
    assert run_cli("corr", *base) == 0
    assert len(calls) == 1
    cached = read_json(os.path.join(out, "corr_manifest.json"))["cache"]
    assert cached["hits"] == [5] and cached["moments_derived"] == [5]


@pytest.mark.parametrize("sub, names", [
    ("corr", ["moments", "model", "rods", "occupations", "pairs", "profile",
              "period"]),
    ("renewal", ["moments", "model"]),
    ("norms", ["moments", "norms"]),
])
def test_manifest_stages(dirs, sub, names):
    # The empty cache makes each subcommand compute tables 1..5 first,
    # inside its moments stage.
    cache, out = dirs
    assert run_cli(sub, "--p", "3", "--Nmax", "5", "--cache-dir", cache,
                   "--out-dir", out) == 0
    stages = read_json(os.path.join(out, f"{sub}_manifest.json"))["stages"]
    assert [s["name"] for s in stages] == ["squeeze"] * 5 + names
    assert [s["N"] for s in stages[:5]] == [1, 2, 3, 4, 5]
    assert all(s["seconds"] >= 0.0 for s in stages)
    assert stages[5]["exponents"] == [1, 2, 4, 10, 23]
    if sub != "norms":
        model = build_model(3, 5, 1.0, tables=expand_all(3, 5))
        assert stages[6]["alpha_residual"] == 0.0
        assert stages[6]["tail_mass"] == model.tail_mass
        assert stages[6]["root_shift"] == model.root_shift


@pytest.mark.parametrize("argv", [
    ["expand", "--N", "4"],
    ["norms", "--Nmax", "4"],
    ["renewal", "--Nmax", "5"],
    ["corr", "--Nmax", "4", "--N", "5", "--kmax", "2"],
    ["ham", "--N", "3", "--check-ground-state"],
    ["mcmc", "--N", "12", "--sweeps", "600", "--burn-in", "100",
     "--observables", "phase", "--Nmax", "5"],
    ["verify-all", "--Nmax", "3", "--seed", "5"],
], ids=lambda argv: argv[0])
def test_manifest_records_every_computed_table(dirs, argv):
    """From an empty cache every subcommand records one squeeze stage
    per table it computes, and its stages, each timed without the
    stages inside it, sum to at most the wall time."""
    cache, out = dirs
    assert run_cli(*argv, "--p", "3", "--cache-dir", cache,
                   "--out-dir", out) == 0
    sub = "verify" if argv[0] == "verify-all" else argv[0]
    manifest = read_json(os.path.join(out, f"{sub}_manifest.json"))
    computed = manifest["cache"]["computed"]
    assert computed == list(range(1, len(computed) + 1)) and computed
    stages = manifest["stages"]
    assert [s["N"] for s in stages if s["name"] == "squeeze"] == computed
    assert all(s["seconds"] >= 0.0 for s in stages)
    assert sum(s["seconds"] for s in stages) <= manifest["wall_time_s"]


@pytest.mark.parametrize("argv", [
    ["expand", "--N", "3"],
    ["norms", "--Nmax", "3"],
    ["renewal", "--Nmax", "5"],
    ["corr", "--Nmax", "4", "--kmax", "2"],
    ["ham", "--N", "5", "--check-ground-state", "--monomer-dimer"],
    ["mcmc", "--N", "2", "--sweeps", "500", "--burn-in", "100", "--seed", "3"],
    ["verify-all", "--Nmax", "3", "--seed", "5"],
], ids=lambda argv: argv[0])
def test_manifest_checks_give_the_exit_code(dirs, argv):
    """Every manifest lists the run's checks, and the exit code is 1
    exactly when one of them failed; verify-all's are those of
    verify.json."""
    cache, out = dirs
    code = run_cli(*argv, "--p", "3", "--cache-dir", cache, "--out-dir", out)
    sub = "verify" if argv[0] == "verify-all" else argv[0]
    checks = read_json(os.path.join(out, f"{sub}_manifest.json"))["checks"]
    assert code == (0 if all(c["passed"] for c in checks) else 1)
    assert all(list(c) == ["name", "measured", "tolerance", "passed", "note"]
               for c in checks)
    names = [c["name"] for c in checks]
    if sub == "verify":
        assert names and checks == \
            read_json(os.path.join(out, "verify.json"))["checks"]
    else:
        assert names == {
            "ham": ["ground-residual", "ground-kernel",
                    "monomer-dimer-residual", "monomer-dimer-build"],
            "mcmc": ["mcmc-chain"]}.get(sub, [])


def test_loader_reads_each_smaller_table_once(dirs, monkeypatch):
    """A computed table takes its reducible rows from the product rule
    over the cached tables of fewer particles, each read once."""
    cache, out = dirs
    os.makedirs(cache)
    for smaller in expand_all(3, 5):
        cli.expansion.save_cache(
            smaller, cli.expansion.cache_path(cache, 3, smaller.N))
    calls = []
    load_cache = cli.expansion.load_cache

    def counting(path, **kwargs):
        calls.append(kwargs["expected_N"])
        return load_cache(path, **kwargs)

    monkeypatch.setattr(cli.expansion, "load_cache", counting)
    assert run_cli("expand", "--p", "3", "--N", "6",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert sorted(calls) == [1, 2, 3, 4, 5]
    manifest = read_json(os.path.join(out, "expand_manifest.json"))
    assert manifest["cache"] == {"hits": [1, 2, 3, 4, 5], "computed": [6]}
    [stage] = manifest["stages"]
    reducible = sum(len(renewal_points(m, 3)) > 2
                    for m in enumerate_admissible(3, 6))
    assert stage["N"] == 6 and stage["filled"] == reducible > 0


def _corrupt_moments(path, how):
    with open(path, "rb") as fh:
        data = fh.read()
    trailer = len("checksum=") + 65
    body = data[:-trailer]
    if how == "header":
        body = body.replace(b"LAUGHLIN-MOMENTS", b"LAUGHLIN-MOMENTX", 1)
    elif how == "body":
        body = body[:-1] + bytes([body[-1] ^ 1])
    elif how == "stale":
        body = body.replace(b"source=", b"source=0", 1)
    resign = how != "body"
    digest = hashlib.sha256(body).hexdigest() if resign else data[-65:-1]
    with open(path, "wb") as fh:
        fh.write(body + b"checksum=" + (digest.encode() if resign
                                        else digest) + b"\n")


@pytest.mark.parametrize("how, message", [
    ("header", "bad magic"),
    ("body", "checksum mismatch"),
    ("stale", "stale"),
])
def test_exit_code_corrupt_moment_file(dirs, capsys, how, message):
    cache, out = dirs
    argv = ["--p", "3", "--Nmax", "3", "--cache-dir", cache, "--out-dir", out]
    assert run_cli("norms", *argv) == 0
    capsys.readouterr()
    _corrupt_moments(os.path.join(cache, "moments_p3_N3.bin"), how)
    for sub in ("norms", "corr"):
        assert run_cli(sub, *argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and message in err[0]
