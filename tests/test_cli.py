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

from laughlin import cli, correlations, hamiltonian, lattice, moments, plasma
from laughlin.expansion import amplitudes, expand_all
from laughlin.lattice import enumerate_admissible, renewal_points
from laughlin.correlations import bulk_epsilon, occupation_finite, \
    occupation_infinite, pair_infinite, period_test, rod_expectations
from laughlin.renewal import build_model


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def verdicts(out, sub):
    """The verdict of each check in a run's manifest, by name."""
    manifest = read_json(os.path.join(out, f"{sub}_manifest.json"))
    return {c["name"]: c["passed"] for c in manifest["checks"]}


# the verdicts every run that builds a renewal model records, in order
MODEL_CHECKS = ["alpha-residual", "activity-equation", "tail-converged"]
GROUND = {"ground-residual": True, "ground-kernel": True}
MONOMER_DIMER = {"monomer-dimer-residual": True, "monomer-dimer-build": True}
# the keys of a sample stage: the run's size and its chain record
SAMPLE_KEYS = {"name", "seconds", "chains", "moves", "acceptance",
               "chain_acceptance", "rhat", "sigma", "nsamples", "rss_rise_mb"}


@pytest.fixture()
def dirs(tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "out"
    return str(cache), str(out)


@pytest.fixture()
def solves(monkeypatch):
    """The (count, seed) of every ``hamiltonian.spectrum`` call of a test."""
    calls = []
    spectrum = hamiltonian.spectrum

    def recording(H, count=6, **kwargs):
        calls.append((count, kwargs.get("seed")))
        return spectrum(H, count=count, **kwargs)

    monkeypatch.setattr(hamiltonian, "spectrum", recording)
    return calls


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
    assert verdicts(out, "ham") == GROUND
    assert doc["ground_state"]["residual"] < 1e-12

    stages = read_json(os.path.join(out, "ham_manifest.json"))["stages"]
    # the empty cache makes ham compute tables 1 and 2
    assert [s["name"] for s in stages] == [
        "sector", "pair_assembly", "bond_assembly", "assembly", "squeeze",
        "squeeze", "spectrum", "ground_check"]
    assert [s["N"] for s in stages[4:6]] == [1, 2]
    assert all(s["seconds"] >= 0.0 for s in stages)
    assert stages[0]["dim"] == 2
    assert stages[1]["nnz"] == stages[2]["nnz"] == 4
    # one string per unordered quadruple: (0, 1), (0, 2), (1, 3) and
    # (2, 3) with themselves, and the four of (0, 3) and (1, 2)
    assert stages[1]["terms"] == 8
    # the memory of both assemblies is the enclosing stage's
    assert stages[3]["rss_rise_mb"] >= 0.0

    out2 = str(tmp_path / "out2")
    assert run_cli(*argv, "--out-dir", out2) == 0
    stages = read_json(os.path.join(out2, "ham_manifest.json"))["stages"]
    assert [s["name"] for s in stages] == [
        "sector", "pair_assembly", "bond_assembly", "assembly", "spectrum",
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
    assert verdicts(out, "ham") == GROUND


@pytest.mark.parametrize("flags, count", [
    (["--spectrum", "2", "--check-ground-state"], 40),
    (["--spectrum", "45", "--check-ground-state"], 45),
    (["--spectrum", "3"], 40),
    (["--check-ground-state"], 40),
])
def test_ham_solves_once(dirs, solves, flags, count):
    """The spectrum and the kernel check share one eigensolve of H, of
    at least the 40 values the check reads, with or without the check,
    as a narrower Lanczos window may fail to converge (dim 338, so
    ARPACK runs), seeded by --seed."""
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "6", *flags, "--seed", "3",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert solves == [(count, 3)]
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
        assert ground["kernel_dim"] == 1 and verdicts(out, "ham") == GROUND
        if "spectrum" in doc:
            assert ground["min_eigenvalue"] == doc["spectrum"][0]
    else:
        assert "ground_state" not in doc


def test_ham_seeds_every_solve(dirs, solves):
    """--seed starts the monomer-dimer solve as well as the solve of H."""
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "5", "--monomer-dimer",
                   "--check-ground-state", "--seed", "5",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert [seed for _, seed in solves] == [5, 5]


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
    assert verdicts(out, "ham") == {**MONOMER_DIMER,
                                    "perturbation-decreasing": True}
    assert doc["monomer_dimer"]["num_terms"] == 3
    assert set(doc["perturbation"]) == {"order", "distances"}
    assert len(doc["perturbation"]["distances"]) == 3
    stages = read_json(os.path.join(out, "ham_manifest.json"))["stages"]
    assert [s["name"] for s in stages] == [
        "sector", "pair_assembly", "bond_assembly", "assembly", "squeeze",
        "squeeze", "squeeze", "spectrum", "monomer_dimer", "perturbation"]
    assert stages[8]["dim"] == doc["dim"] and stages[8]["num_terms"] == 3


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


def test_ham_monomer_dimer_solve_is_a_spectrum_stage(dirs, solves):
    """The eigensolve of the monomer-dimer kernel check is the spectrum
    stage just before monomer_dimer, for min(40, dim) values."""
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "5", "--monomer-dimer",
                   "--cache-dir", cache, "--out-dir", out) == 0
    dim = read_json(os.path.join(out, "ham.json"))["dim"]
    stages = read_json(os.path.join(out, "ham_manifest.json"))["stages"]
    assert [s["name"] for s in stages] == [
        "sector", "pair_assembly", "bond_assembly", "assembly", "spectrum",
        "monomer_dimer"]
    assert solves == [(min(40, dim), 0)] and stages[4]["count"] == min(40, dim)


def test_ham_monomer_dimer_in_ground_sector(dirs):
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "6", "--gamma", "1.5",
                   "--monomer-dimer", "--cache-dir", cache,
                   "--out-dir", out) == 0
    md = read_json(os.path.join(out, "ham.json"))["monomer_dimer"]
    assert verdicts(out, "ham") == MONOMER_DIMER and md["kernel_dim"] == 1


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
    assert ground["kernel_dim"] == 2 and "passed" not in ground
    assert verdicts(out, "ham") == {**GROUND, "ground-kernel": False}


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
    assert "passed" not in md
    assert verdicts(out, "ham") == {**MONOMER_DIMER, failed: False}


def test_ham_fails_a_series_that_does_not_decrease(dirs):
    """At gamma 0.8 the third-order series at N=4 grows: ham records
    perturbation-decreasing failed and exits 1."""
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "4", "--gamma", "0.8",
                   "--perturbation-order", "3", "--cache-dir", cache,
                   "--out-dir", out) == 1
    assert failed_checks(out, "ham") == ["perturbation-decreasing"]
    (series,) = read_json(os.path.join(out, "ham_manifest.json"))["checks"]
    distances = read_json(os.path.join(out, "ham.json"))["perturbation"][
        "distances"]
    assert (series["measured"], series["tolerance"]) == \
        (distances[-1], distances[0])


def test_ham_cap_never_lowers_the_sector_cap(dirs):
    """--cap caps the coefficient tables; the sector keeps at least the
    default cap of 200,000 states."""
    cache, out = dirs
    assert run_cli("ham", "--p", "3", "--N", "5", "--cap", "10",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert read_json(os.path.join(out, "ham.json"))["dim"] == 73
    assert read_json(os.path.join(out, "ham_manifest.json"))["checks"] == []


@pytest.mark.parametrize("p, N, gamma, flags", [
    (3, 6, 1.5, ["--check-ground-state", "--spectrum", "6",
                 "--perturbation-order", "4"]),
    (2, 7, 1.0, ["--check-ground-state", "--spectrum", "6"]),
    (3, 5, 1.0, ["--monomer-dimer"]),
])
def test_ham_sector_benchmark_cases_pass(dirs, p, N, gamma, flags):
    """The ham command lines of the ham-sector benchmark workload exit 0
    with every check passed."""
    cache, out = dirs
    assert run_cli("ham", "--p", str(p), "--N", str(N), "--gamma",
                   repr(gamma), *flags, "--seed", "1", "--cache-dir", cache,
                   "--out-dir", out) == 0
    checks = verdicts(out, "ham")
    assert checks and all(checks.values())


def test_ham_and_verify_all_share_their_verdicts(dirs, tmp_path):
    """The ground-state and monomer-dimer verdicts of ``ham`` at N=4 are
    those ``verify-all --Nmax 4`` records, and the renewal model's
    verdicts of ``renewal`` and ``corr``, and the bulk occupations' of
    ``corr``, are verify-all's record for record."""
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
    for check in ham:
        shared = verify[check["name"]]
        for key in ("tolerance", "passed", "note"):
            assert check[key] == shared[key]
        assert check["measured"] == pytest.approx(shared["measured"],
                                                  abs=1e-15)
    for sub, names in (("renewal", MODEL_CHECKS),
                       ("corr", MODEL_CHECKS + ["occupation-normalization"])):
        assert run_cli(sub, "--p", "3", "--Nmax", "4", "--cache-dir", cache,
                       "--out-dir", out2) == 0
        checks = read_json(os.path.join(out2, f"{sub}_manifest.json"))[
            "checks"]
        assert checks == [verify[name] for name in names]


def test_ham_and_verify_all_share_the_series_verdict(dirs, tmp_path):
    """At p=3, gamma >= 1.2 verify-all runs ham's stages on its N=4 ground
    sector, the perturbation series among them: its third-order series
    verdict is the one ``ham --N 4 --perturbation-order 3`` records."""
    cache, out = dirs
    assert run_cli("verify-all", "--p", "3", "--Nmax", "5", "--gamma", "1.5",
                   "--cache-dir", cache, "--out-dir", out) == 0
    manifest = read_json(os.path.join(out, "verify_manifest.json"))
    assert [s["name"] for s in manifest["stages"]] == ["squeeze"] * 5 + [
        "oracle", "model", "occupations", "sector", "pair_assembly",
        "bond_assembly", "assembly", "spectrum", "ground_check", "sector",
        "spectrum", "monomer_dimer", "perturbation", "sample"]
    # the parent-Hamiltonian sector at N=4, the monomer-dimer one at N=5
    assert [s["dim"] for s in manifest["stages"] if s["name"] == "sector"] \
        == [hamiltonian.sector_basis(lattice.ModelParams(3, n, 1.5),
                                     momentum=lattice.total_momentum(3, n)).dim
            for n in (4, 5)]
    (series,) = [c for c in manifest["checks"]
                 if c["name"] == "perturbation-decreasing"]
    out2 = str(tmp_path / "out2")
    assert run_cli("ham", "--p", "3", "--N", "4", "--gamma", "1.5",
                   "--perturbation-order", "3", "--cache-dir", cache,
                   "--out-dir", out2) == 0
    (ham,) = read_json(os.path.join(out2, "ham_manifest.json"))["checks"]
    assert ham == series and series["passed"]
    distances = read_json(os.path.join(out2, "ham.json"))["perturbation"][
        "distances"]
    assert (series["measured"], series["tolerance"]) == \
        (distances[-1], distances[0])


def test_timed_stage_records_the_rise_of_the_peak(tmp_path, monkeypatch):
    """rss_rise_mb is the peak's rise over the block in MB, 0 if it held."""
    peaks = iter([1000, 1000, 5000, 8072])
    monkeypatch.setattr(cli, "_peak_rss_kb", lambda: next(peaks))
    em = cli.Emitter(str(tmp_path), "test", {})
    with em.timed("held") as sizes:
        sizes["n"] = 3
    with em.timed("rose"):
        pass
    assert [(s["name"], s.get("n"), s["rss_rise_mb"]) for s in em.stages] \
        == [("held", 3, 0.0), ("rose", None, 3.0)]


def counting_chains(monkeypatch):
    """Count every chain's moves from the arguments of each lockstep call."""
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
    # one lockstep call: two chains of 300 + 3000 sweeps
    assert moves == [3 * 3300, 3 * 3300]
    stages = read_json(os.path.join(out, "mcmc_manifest.json"))["stages"]
    assert [s["name"] for s in stages] == ["sample", "density", "excess"]
    assert all(s["seconds"] >= 0.0 for s in stages)
    assert stages[0]["chains"] == 2
    assert stages[0]["moves"] == sum(moves)
    assert "pilot_moves" not in stages[0]
    assert all(s["rss_rise_mb"] >= 0.0 for s in stages)
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
    assert stages[0]["rhat"] == pytest.approx(1.0, abs=0.1)
    assert 0.0 < stages[0]["acceptance"] < 1.0
    manifest = read_json(os.path.join(out, "mcmc_manifest.json"))
    assert [(c["name"], c["passed"]) for c in manifest["checks"]] == \
        [("mcmc-chain", True)]


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
    manifest = read_json(os.path.join(out, "mcmc_manifest.json"))
    assert set(manifest["stages"][0]) == SAMPLE_KEYS
    (chain,) = manifest["checks"]
    assert chain["name"] == "mcmc-chain" and chain["passed"] is False
    assert chain["note"].endswith(
        f"must lie in [{cli.fmt(0.01)}, {cli.fmt(0.99)}]")
    assert chain["tolerance"] == 0.1
    assert os.path.exists(os.path.join(out, "density.csv"))


def test_mcmc_records_the_chain_in_its_stages(dirs):
    """The chain record is the sample stage's, and each observable's
    statistic its own stage's; the manifest has no run record."""
    cache, out = dirs
    assert run_cli("mcmc", "--p", "3", "--N", "4", "--sweeps", "2000",
                   "--burn-in", "100", "--observables",
                   "density,excess,phase", "--cache-dir", cache,
                   "--out-dir", out) == 0
    manifest = read_json(os.path.join(out, "mcmc_manifest.json"))
    assert "run" not in manifest
    stages = {s["name"]: s for s in manifest["stages"]}
    sample = stages["sample"]
    assert set(sample) == SAMPLE_KEYS
    assert 0.0 < sample["acceptance"] < 1.0
    assert len(sample["chain_acceptance"]) == len(sample["sigma"]) == 2
    assert sample["nsamples"] == 2 * (2000 // 5)
    assert sample["rhat"] == pytest.approx(1.0, abs=0.1)
    assert 0.0 < stages["density"]["y_ks"] < 1.0
    assert isinstance(stages["phase"]["phase_contrast"], float)


@pytest.mark.parametrize("observable", ["density", "excess"])
def test_mcmc_one_kept_sample_exits_two(dirs, capsys, monkeypatch,
                                       observable):
    """One kept sample per chain has no batch-means standard error; the
    run refuses it before sampling instead of writing NaN standard
    errors."""
    cache, out = dirs
    moves = counting_chains(monkeypatch)
    assert run_cli("mcmc", "--p", "3", "--N", "6", "--sweeps", "5",
                   "--thinning", "5", "--burn-in", "1", "--chains", "1",
                   "--observables", observable, "--cache-dir", cache,
                   "--out-dir", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: one kept sample gives no standard error; run more sweeps"]
    assert not os.path.exists(out)
    assert moves == []


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


def test_mcmc_unconverged_phase_writes_everything_and_exits_one(dirs):
    """An unconverged phase prediction fails tail-converged after the
    run has written every observable and its manifest."""
    cache, out = dirs
    assert run_cli("mcmc", "--p", "3", "--N", "6", "--sweeps", "400",
                   "--burn-in", "100", "--thinning", "2",
                   "--observables", "density,excess,phase", "--Nmax", "1",
                   "--cache-dir", cache, "--out-dir", out) == 1
    manifest = read_json(os.path.join(out, "mcmc_manifest.json"))
    assert set(manifest["artifacts"]) == \
        {"density.csv", "excess.csv", "phase.csv"}
    assert [c["name"] for c in manifest["checks"]] == \
        ["mcmc-chain"] + MODEL_CHECKS
    assert failed_checks(out, "mcmc") == ["tail-converged"]


def test_corr_records_occupation_normalization(dirs):
    """corr records verify-all's normalization check on the bulk
    occupations after the model's checks, and no reflection check
    without --N."""
    cache, out = dirs
    assert run_cli("corr", "--p", "3", "--Nmax", "4", "--cache-dir", cache,
                   "--out-dir", out) == 0
    checks = read_json(os.path.join(out, "corr_manifest.json"))["checks"]
    assert [c["name"] for c in checks] == \
        MODEL_CHECKS + ["occupation-normalization"]
    normalization = checks[-1]
    assert normalization["tolerance"] == 1e-8 and normalization["passed"]
    occ = [float(r["value"]) for r in read_csv(
        os.path.join(out, "occupations.csv"))]
    assert len(occ) == 3
    assert normalization["measured"] == abs(float(np.sum(occ)) - 1.0)


def test_corr_records_occupation_reflection(dirs):
    """corr --N records verify-all's reflection check on the finite
    occupations after the model's checks and the normalization check."""
    cache, out = dirs
    assert run_cli("corr", "--p", "3", "--Nmax", "6", "--N", "6",
                   "--kmax", "2", "--cache-dir", cache, "--out-dir", out) == 0
    checks = read_json(os.path.join(out, "corr_manifest.json"))["checks"]
    assert [c["name"] for c in checks] == \
        MODEL_CHECKS + ["occupation-normalization", "occupation-reflection"]
    reflection = checks[-1]
    assert reflection["tolerance"] == 1e-12 and reflection["passed"]
    occ = np.array([float(r["value"]) for r in read_csv(
        os.path.join(out, "occupations.csv")) if r["source"] == "exact"])
    assert reflection["measured"] == np.max(np.abs(occ - occ[::-1]))


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
    # error line and exit 3, not an ARPACK traceback.  --spectrum 6 still
    # solves the 40-value window.
    cache, out = dirs
    monkeypatch.setattr(hamiltonian, "LANCZOS_MAXITER", 1)
    assert run_cli("ham", "--p", "3", "--N", "6", "--spectrum", "6",
                   "--cache-dir", cache, "--out-dir", out) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: Lanczos did not converge the lowest 40 "
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
    (["ham", "--p", "3", "--N", "6", "--gamma", "1.5", "--momentum", "60",
      "--monomer-dimer"],
     "--monomer-dimer needs the ground sector (momentum 45), where the "
     "Laughlin state lies; got 60"),
    (["ham", "--p", "3", "--N", "6", "--gamma", "1.5", "--momentum", "60",
      "--perturbation-order", "2"],
     "--perturbation-order needs the ground sector (momentum 45), where the "
     "Laughlin state lies; got 60"),
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
    ["corr", "--override-unconverged"],
    ["verify-all", "--override-unconverged"],
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
    """An unconverged tail fails tail-converged and exits 1 after every
    artifact is written.  One rod weight gives no tail estimate, and so
    no convergence."""
    cache, out = dirs
    for argv in (["renewal", "--Nmax", "8", "--gamma", "0.4"],
                 ["renewal", "--Nmax", "1", "--gamma", "0.5"],
                 ["corr", "--Nmax", "1", "--gamma", "0.5"]):
        argv += ["--p", "3", "--cache-dir", cache, "--out-dir", out]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == ""
        manifest = read_json(os.path.join(out, f"{argv[0]}_manifest.json"))
        assert [c["name"] for c in manifest["checks"]] == MODEL_CHECKS + {
            "renewal": [], "corr": ["occupation-normalization"]}[argv[0]]
        assert failed_checks(out, argv[0]) == ["tail-converged"]
        tail = manifest["checks"][2]
        assert tail["tolerance"] == 0.01
        model = next(s for s in manifest["stages"] if s["name"] == "model")
        assert tail["measured"] == model["tail_mass"]
        if argv[2] == "1":
            assert tail["measured"] == "inf"
        assert set(manifest["artifacts"]) == {
            "renewal": {"renewal.csv", "renewal_summary.json"},
            "corr": {"occupations.csv", "pairs.csv", "profile.csv",
                     "period.json"}}[argv[0]]
        if argv[0] == "renewal":
            summary = read_json(os.path.join(out, "renewal_summary.json"))
            assert summary["converged"] is False


def test_corr_builds_each_bulk_quantity_once(dirs, monkeypatch):
    """corr reads its pair table as one row: one pair_infinite call, and
    one occupation_infinite call each for the occupations, the row and
    the period test."""
    cache, out = dirs
    calls = []
    for name in ("pair_infinite", "occupation_infinite"):
        def counting(*args, _name=name, _f=getattr(correlations, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(correlations, name, counting)
    assert run_cli("corr", "--p", "3", "--Nmax", "6", "--N", "6",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert (calls.count("pair_infinite"),
            calls.count("occupation_infinite")) == (1, 3)
    assert len(read_csv(os.path.join(out, "pairs.csv"))) == 16


def test_corr_override_admits_the_model(dirs):
    """corr on an unconverged model fails tail-converged, and every bulk
    output it writes is still that model's."""
    cache, out = dirs
    argv = ["corr", "--p", "3", "--Nmax", "6", "--gamma", "0.35",
            "--kmax", "4", "--cache-dir", cache, "--out-dir", out]
    assert run_cli(*argv) == 1
    checks = read_json(os.path.join(out, "corr_manifest.json"))["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == \
        [("alpha-residual", True), ("activity-equation", True),
         ("tail-converged", False), ("occupation-normalization", True)]
    tables = [moments.read(cache, 3, n) for n in range(1, 7)]
    model = build_model(3, 6, 0.35, tables=tables)
    rods = rod_expectations(tables, 0.35)
    assert model.unconverged
    occ = read_csv(os.path.join(out, "occupations.csv"))
    assert [r["value"] for r in occ] == \
        [cli.fmt(x) for x in occupation_infinite(model, rods)]
    pairs = read_csv(os.path.join(out, "pairs.csv"))
    assert [r["value"] for r in pairs] == \
        [cli.fmt(x) for x in pair_infinite(model, rods, 0, 4).truncated]
    report = period_test(model, rods)
    period = read_json(os.path.join(out, "period.json"))
    assert (period["period"], period["used"], period["deviations"]) == \
        (report.period, report.used, list(report.deviations))


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_verify_all_passes(dirs, capsys, solves):
    cache, out = dirs
    assert run_cli("verify-all", "--p", "3", "--Nmax", "4", "--seed", "5",
                   "--cache-dir", cache, "--out-dir", out) == 0
    # the ground and the monomer-dimer solve
    assert [seed for _, seed in solves] == [5, 5]
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    doc = read_json(os.path.join(out, "verify.json"))
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"product-rule", "expansion-oracle", "moments-vs-rows",
            "quasi-state-reconstruction", "quasi-state-weights",
            "ground-residual", "monomer-dimer-residual",
            "monomer-dimer-build", "mcmc-excess", "mcmc-chain"} <= names
    assert all(c["passed"] for c in doc["checks"])
    manifest = read_json(os.path.join(out, "verify_manifest.json"))
    assert [s["name"] for s in manifest["stages"]] == ["squeeze"] * 4 + [
        "oracle", "model", "occupations", "sector", "pair_assembly",
        "bond_assembly", "assembly", "spectrum", "ground_check", "sector",
        "spectrum", "monomer_dimer", "sample"]
    (sample,) = [s for s in manifest["stages"] if s["name"] == "sample"]
    assert set(sample) == SAMPLE_KEYS
    # the monomer-dimer model at N_md = min(6, Nmax) = 4
    params = lattice.ModelParams(3, 4, 1.0)
    basis = hamiltonian.sector_basis(
        params, momentum=lattice.total_momentum(3, 4))
    (stage,) = [s for s in manifest["stages"] if s["name"] == "monomer_dimer"]
    assert (stage["dim"], stage["num_terms"]) == (
        basis.dim, hamiltonian.build_monomer_dimer(params, basis).num_terms)


def test_verify_all_builds_one_amplitude_table_per_n(dirs, monkeypatch):
    cache, out = dirs
    calls = []
    amplitudes = cli.expansion.amplitudes

    def counting(table, gamma):
        calls.append(table.N)
        return amplitudes(table, gamma)

    monkeypatch.setattr(cli.expansion, "amplitudes", counting)
    assert run_cli("verify-all", "--p", "3", "--Nmax", "6",
                   "--cache-dir", cache, "--out-dir", out) == 0
    assert calls == [1, 2, 3, 4, 5, 6]


def test_verify_all_decomposes_the_largest_table(dirs):
    """Both quasi-state checks read the N = Nmax state, and the
    factored residual is exactly 0 when every meet class is live."""
    cache, out = dirs
    assert run_cli("verify-all", "--p", "3", "--Nmax", "5",
                   "--cache-dir", cache, "--out-dir", out) == 0
    checks = {c["name"]: c
              for c in read_json(os.path.join(out, "verify.json"))["checks"]}
    for name in ("quasi-state-reconstruction", "quasi-state-weights"):
        assert checks[name]["note"].endswith("at N=5")
    assert checks["quasi-state-reconstruction"]["measured"] == 0.0


def test_verify_all_runs_what_needs_no_tail(dirs):
    """An unconverged tail fails its own check; every other check, the
    two that read the bulk occupations too, still runs."""
    cache, out = dirs
    assert run_cli("verify-all", "--p", "3", "--Nmax", "4", "--gamma", "0.4",
                   "--cache-dir", cache, "--out-dir", out) == 1
    doc = read_json(os.path.join(out, "verify.json"))
    assert [c["name"] for c in doc["checks"]] == [
        "product-rule", "expansion-oracle", *MODEL_CHECKS, "moments-vs-rows",
        "quasi-state-reconstruction", "quasi-state-weights",
        "occupation-normalization", "occupation-reflection",
        "finite-renewal-match", "bulk-epsilon", "build-agreement",
        "ground-residual", "ground-kernel", "monomer-dimer-residual",
        "monomer-dimer-build", "thin-torus-zero-mode", "mcmc-chain",
        "mcmc-excess", "mcmc-y-uniform"]
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == \
        ["tail-converged"]


def center_occupation_gap(tables, Nmax, gamma):
    """verify-all's bulk-epsilon inputs: the gap between the finite and
    the bulk center occupation, the bridge-weight bound and the
    rounding allowance."""
    p = tables[0].p
    mts = moments.as_moments(tables[:Nmax])
    model = build_model(p, Nmax, gamma, tables=mts)
    rods = rod_expectations(mts, gamma)
    k = p * (Nmax // 2)
    finite = occupation_finite(mts[-1], gamma)[k]
    bulk = occupation_infinite(model, rods)[k % p]
    return (abs(finite - bulk), bulk_epsilon(model, rods, Nmax, k),
            cli._occupation_rounding(mts[-1], Nmax, finite, bulk))


# points where one term dominates the bound, which the gap then exceeds
# by rounding: 1.4810375e-12 against 1.4809570e-12 at (3, 8, 1.5)
@pytest.mark.parametrize("p, Nmax, gamma", [
    (3, 8, 1.5), (3, 8, 1.6), (3, 7, 2.0), (2, 8, 1.9), (2, 5, 2.1)])
def test_bulk_epsilon_allows_for_rounding(request, p, Nmax, gamma):
    tables = request.getfixturevalue(f"tables_p{p}")
    gap, eps, rounding = center_occupation_gap(tables, Nmax, gamma)
    assert eps < gap <= eps + rounding
    assert rounding < 1e-13


def test_bulk_epsilon_is_as_tight_above_rounding(tables_p3):
    gap, eps, rounding = center_occupation_gap(tables_p3, 8, 1.0)
    assert gap <= eps and rounding < 1e-9 * eps

def test_verify_all_passes_on_an_exact_series(dirs):
    """At N=2 the first order of the series is the exact state, and the
    later distances sit at rounding, below the floor."""
    cache, out = dirs
    assert run_cli("verify-all", "--p", "3", "--Nmax", "2", "--gamma", "1.5",
                   "--cache-dir", cache, "--out-dir", out) == 0
    doc = read_json(os.path.join(out, "verify.json"))
    (series,) = [c for c in doc["checks"]
                 if c["name"] == "perturbation-decreasing"]
    assert series["passed"] is True and series["measured"] < 1e-16


def test_verify_all_records_a_refused_series(dirs, capsys):
    """Where a truncated energy underflows the series is refused: verify-all
    and ham both record the refusal as their one failed series check and
    write everything."""
    cache, out = dirs
    assert run_cli("verify-all", "--p", "3", "--Nmax", "3", "--gamma", "4.5",
                   "--cache-dir", cache, "--out-dir", out) == 1
    manifest = read_json(os.path.join(out, "verify_manifest.json"))
    doc = read_json(os.path.join(out, "verify.json"))
    assert manifest["checks"] == doc["checks"]
    (series,) = [c for c in doc["checks"]
                 if c["name"] == "perturbation-decreasing"]
    assert series["passed"] is False and series["measured"] == "nan"
    assert series["note"] == ("series refused: degenerate truncated "
                              "diagonal; series undefined")
    capsys.readouterr()
    ham = os.path.join(out, "ham")
    assert run_cli("ham", "--p", "3", "--N", "3", "--gamma", "4.5",
                   "--perturbation-order", "2", "--cache-dir", cache,
                   "--out-dir", ham) == 1
    assert capsys.readouterr().err == ""
    assert read_json(os.path.join(ham, "ham_manifest.json"))["checks"] == \
        [series]
    assert read_json(os.path.join(ham, "ham.json"))["perturbation"] == \
        {"order": 2, "distances": ["nan"]}


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
            "renewal": MODEL_CHECKS,
            "corr": MODEL_CHECKS + ["occupation-normalization"],
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
