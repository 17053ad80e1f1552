"""The four workloads: set-up, one timed pass, and the output checks.

Each workload is one caller in one process, in a closed loop: a pass
starts when the previous one has returned.  A pass runs the same
operations every time, so every pass of a run does equal work.
Inputs come from the run's seed only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import traceback

import numpy as np

from laughlin import (cli, correlations, expansion, hamiltonian, plasma,
                      renewal)
from laughlin.lattice import ModelParams, total_momentum

import checks as ck

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _fill_cache(cache_dir: str, p: int, N: int, out_dir: str) -> None:
    """Run ``laughlin expand`` in a child process to warm a cache.

    A child keeps the expander's peak memory out of the measuring
    process, whose peak is reported.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "laughlin.cli", "expand", "--p", str(p),
           "--N", str(N), "--cache-dir", cache_dir, "--out-dir", out_dir]
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"cache fill p={p} N={N} failed: {done.stderr}")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _data_digests(directory: str) -> dict[str, str]:
    """Digests of the files in a directory, manifests left out.

    Manifests record wall time; every other artifact must repeat byte
    for byte when the same command runs again.
    """
    return {name: _digest(os.path.join(directory, name))
            for name in sorted(os.listdir(directory))
            if not name.endswith("_manifest.json")}


def dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(directory) for f in files)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.failed = 0
        self.results: list = []   # per pass, whatever check() needs

    def prepare(self) -> None:
        """Input preparation; counted in set-up time."""

    def run_pass(self, index: int) -> int:
        """One timed pass; returns the number of operations attempted."""
        raise NotImplementedError

    def artifact_dirs(self, index: int) -> list[str]:
        """Directories the program wrote its artifacts to in a pass."""
        return []

    def check(self, checks: ck.Checks) -> None:
        raise NotImplementedError

    def layer_metrics(self, passes: list[int],
                      factors: list[float]) -> dict[str, float]:
        """Per-layer figures the workload measures itself, per pass;
        ``factors`` are the passes' host factors (see probe.py)."""
        return {}

    def details(self) -> dict:
        """Per-pass figures kept in the results file."""
        return {}

    def _cli(self, argv: list[str]) -> int:
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = -1
        if rc != 0:
            self.failed += 1
        return rc

    def _compare_passes(self, checks: ck.Checks, dirs: list[list[str]]) -> None:
        """Later passes must write byte-identical data to the first."""
        first = [_data_digests(d) for d in dirs[0]]
        for i, pass_dirs in enumerate(dirs[1:], start=1):
            same = [_data_digests(d) for d in pass_dirs] == first
            checks.expect(f"pass {i} outputs identical to pass 0", same)


class ExpandCold(Workload):
    """``laughlin expand`` from an empty cache, fermions and bosons."""

    name = "expand-cold"
    CASES = ((3, 8), (2, 8), (4, 6))

    def prepare(self):
        self.order = list(self.CASES)
        random.Random(self.seed).shuffle(self.order)

    def _paths(self, index, p, N):
        base = os.path.join(self.workdir, f"pass{index}")
        return (os.path.join(base, "cache"),
                os.path.join(base, f"out-p{p}-N{N}"))

    def run_pass(self, index):
        rcs = []
        for p, N in self.order:
            cache, out = self._paths(index, p, N)
            rcs.append(self._cli(["expand", "--p", str(p), "--N", str(N),
                                  "--cache-dir", cache, "--out-dir", out]))
        self.results.append(rcs)
        return len(self.order)

    def artifact_dirs(self, index):
        return [self._paths(index, p, N)[1] for p, N in self.order]

    def check(self, checks):
        for i, rcs in enumerate(self.results):
            checks.expect(f"pass {i} exit codes 0", rcs == [0] * len(rcs), rcs)
        for p, N in self.order:
            cache, out = self._paths(0, p, N)
            with open(os.path.join(out, "expand_summary.json")) as fh:
                summary = json.load(fh)
            tables = []
            for entry in summary["tables"]:
                path = os.path.join(cache, entry["cache_file"])
                checks.expect(f"p={p} N={entry['N']} cache digest",
                              _digest(path) == entry["sha256"])
                tables.append(expansion.load_cache(path, expected_p=p,
                                                   expected_N=entry["N"]))
            checks.expect(f"p={p} N={N} table count", len(tables) == N)
            ck.check_tables(checks, f"p={p} N={N}", p, tables, self.seed)
        self._compare_passes(checks, [
            [self._paths(i, *self.order[0])[0], *self.artifact_dirs(i)]
            for i in range(len(self.results))])


class CorrSweep(Workload):
    """``laughlin corr`` over a gamma grid, from a warm cache."""

    name = "corr-sweep"
    PS = (3, 2)
    N = 8
    POINTS = 5
    GAMMA_RANGE = (0.5, 2.0)

    def prepare(self):
        rng = random.Random(self.seed)
        self.gammas = sorted(rng.uniform(*self.GAMMA_RANGE)
                             for _ in range(self.POINTS))
        self.cache = os.path.join(self.workdir, "cache")
        for p in self.PS:
            _fill_cache(self.cache, p, self.N,
                        os.path.join(self.workdir, "fill"))

    def _out(self, index, p, j):
        return os.path.join(self.workdir, f"pass{index}", f"p{p}-g{j}")

    def run_pass(self, index):
        rcs = []
        for j, g in enumerate(self.gammas):
            for p in self.PS:
                rcs.append(self._cli([
                    "corr", "--p", str(p), "--Nmax", str(self.N),
                    "--N", str(self.N), "--gamma", repr(g),
                    "--cache-dir", self.cache, "--out-dir",
                    self._out(index, p, j), "--no-compute"]))
        self.results.append(rcs)
        return len(rcs)

    def artifact_dirs(self, index):
        return [self._out(index, p, j)
                for j in range(len(self.gammas)) for p in self.PS]

    def check(self, checks):
        for i, rcs in enumerate(self.results):
            checks.expect(f"pass {i} exit codes 0", rcs == [0] * len(rcs), rcs)
        for p in self.PS:
            tables = [expansion.load_cache(
                expansion.cache_path(self.cache, p, n), p, n)
                for n in range(1, self.N + 1)]
            for j, g in enumerate(self.gammas):
                out = self._out(0, p, j)
                with open(os.path.join(out, "occupations.csv")) as fh:
                    rows = [line.strip().split(",") for line in fh][1:]
                occ = [(int(k), float(v), src) for k, v, src, _ in rows]
                with open(os.path.join(out, "period.json")) as fh:
                    period = json.load(fh)
                model = renewal.build_model(p, self.N, g, tables=tables)
                rods = correlations.rod_expectations(tables, g)
                ck.check_corr(checks, f"p={p} gamma={g:.4f}", p, self.N, occ,
                              period, model, rods)
        self._compare_passes(checks, [self.artifact_dirs(i)
                                      for i in range(len(self.results))])


class HamSector(Workload):
    """``laughlin ham`` in ground momentum sectors."""

    name = "ham-sector"
    # label, p, N, gamma, flags, the ham.json sections the flags ask for
    CASES = (
        ("p3-N6", 3, 6, 1.5, ["--check-ground-state", "--spectrum", "6",
                              "--perturbation-order", "4"],
         ("ground_state", "spectrum", "perturbation")),
        ("p2-N7", 2, 7, 1.0, ["--check-ground-state", "--spectrum", "6"],
         ("ground_state", "spectrum")),
        ("p3-N5", 3, 5, 1.0, ["--monomer-dimer"], ("monomer_dimer",)),
    )

    def prepare(self):
        self.cache = os.path.join(self.workdir, "cache")
        fill = os.path.join(self.workdir, "fill")
        _fill_cache(self.cache, 3, 6, fill)
        _fill_cache(self.cache, 2, 7, fill)

    def _out(self, index, label):
        return os.path.join(self.workdir, f"pass{index}", label)

    def run_pass(self, index):
        rcs = []
        for label, p, N, gamma, flags, _ in self.CASES:
            rcs.append(self._cli(["ham", "--p", str(p), "--N", str(N),
                                  "--gamma", repr(gamma), *flags,
                                  "--seed", str(self.seed),
                                  "--cache-dir", self.cache,
                                  "--out-dir", self._out(index, label)]))
        self.results.append(rcs)
        return len(rcs)

    def artifact_dirs(self, index):
        return [self._out(index, case[0]) for case in self.CASES]

    def check(self, checks):
        for i, rcs in enumerate(self.results):
            checks.expect(f"pass {i} exit codes 0", rcs == [0] * len(rcs), rcs)
        for label, p, N, gamma, _, sections in self.CASES:
            with open(os.path.join(self._out(0, label), "ham.json")) as fh:
                doc = json.load(fh)
            ck.check_ham(checks, label, doc, sections)
            # the zero modes again, from the benchmark's own calls
            params = ModelParams(p, N, gamma)
            if "ground_state" in sections:
                basis = hamiltonian.sector_basis(
                    params, momentum=total_momentum(p, N))
                checks.expect(f"{label} sector dimension", doc.get("dim")
                              == basis.dim, f"{doc.get('dim')} {basis.dim}")
                table = expansion.load_cache(
                    expansion.cache_path(self.cache, p, N), p, N)
                psi = hamiltonian.exact_vector(
                    basis, expansion.amplitudes(table, gamma))
                H = hamiltonian.build_H(params, basis=basis).H
                ck.check_residual(checks, f"{label} ground state", H, psi,
                                  1e-8)
            if "monomer_dimer" in sections:
                md = hamiltonian.build_monomer_dimer(params)
                ck.check_residual(checks, f"{label} monomer-dimer", md.H,
                                  md.psi, 1e-10)
        self._compare_passes(checks, [self.artifact_dirs(i)
                                      for i in range(len(self.results))])


class PlasmaBulk(Workload):
    """Metropolis at p=3, gamma=1: the N=4 cross-check and the N=32 bulk."""

    name = "plasma-bulk"
    GAMMA = 1.0
    # The N=4 cross-check keeps criterion 11's pinned seed, so its 3-sigma
    # and KS outcomes are the same in every run; the N=32 chains take
    # their seeds from the run's seed.
    SMALL = plasma.McConfig(sweeps=2000, burn_in=300, thinning=4, seed=13,
                            chains=2)
    BULK = dict(sweeps=600, burn_in=200, thinning=1, chains=2)
    CUTS = (1.5, 4.5, 7.5)
    NMAX = 6

    def prepare(self):
        self.small = ModelParams(3, 4, self.GAMMA)
        self.bulk = ModelParams(3, 32, self.GAMMA)
        tables = expansion.expand_all(3, self.NMAX)
        model = renewal.build_model(3, self.NMAX, self.GAMMA, tables=tables)
        rods = correlations.rod_expectations(tables, self.GAMMA)
        self.bulk_occ = correlations.occupation_infinite(model, rods)
        self.amp4 = expansion.amplitudes(tables[3], self.GAMMA)
        # the density bins of ``laughlin mcmc``
        width = self.GAMMA / 2.0
        hi = self.small.p * (self.small.N - 1) * self.GAMMA + 4.0
        self.edges = np.arange(-4.0, hi + 0.5 * width, width)
        self.sampling_s: list[float] = []

    def run_pass(self, index):
        run4 = plasma.metropolis_run(self.small, self.SMALL)
        mc = plasma.McConfig(seed=self.seed * 1000 + index, **self.BULK)
        t0 = time.perf_counter()
        run32 = plasma.metropolis_run(self.bulk, mc)
        self.sampling_s.append(time.perf_counter() - t0)
        pooled4 = run4.pooled()
        excess = plasma.measure_excess(pooled4, self.CUTS, self.small)
        density = plasma.density_histogram(pooled4, self.edges, self.small)
        prof = plasma.phase_profile(run32.pooled(), self.bulk, self.bulk_occ)
        self.results.append((run4, run32, excess, density, prof))
        return 5

    @functools.cached_property
    def ess(self) -> list[float]:
        """ESS of each pass's bulk local densities.

        Computed once the passes are over and the peak memory is read,
        so its arrays add nothing to the measured process's peak.
        """
        return [ck.effective_samples(ck.bulk_density_counts(
                    run32.samples, prof.window, self.GAMMA / 2.0))
                for _, run32, _, _, prof in self.results]

    def check(self, checks):
        run4, _, _, density, _ = self.results[0]
        pooled4 = run4.pooled()
        ck.check_excess(checks, "N=4", pooled4, self.amp4, self.CUTS,
                        self.small)
        ck.check_angular(checks, "N=4", density.y_ks,
                         pooled4.shape[0] * pooled4.shape[1])
        ck.check_chain(checks, "N=4", run4)
        for i, (r4, run32, excess, dens, prof) in enumerate(self.results):
            same = (np.array_equal(r4.samples, run4.samples)
                    and excess.p_zero == self.results[0][2].p_zero
                    and np.array_equal(dens.density, density.density))
            checks.expect(f"pass {i} N=4 identical to pass 0", same)
            ck.check_chain(checks, f"pass {i} N=32", run32)
            ck.check_phase(checks, f"pass {i} N=32", prof)

    def details(self):
        return {"ess": self.ess, "sampling_s": self.sampling_s}

    def layer_metrics(self, passes, factors):
        runs = [self.results[i][1] for i in passes]
        ess = [self.ess[i] for i in passes]
        seconds = sum(self.sampling_s[i] / factors[i] for i in passes)
        return {
            "plasma.ess": float(np.mean(ess)),
            "plasma.ess_per_s": sum(ess) / seconds,
            "plasma.acceptance": float(np.mean([r.acceptance for r in runs])),
            "plasma.rhat": float(np.mean([r.rhat for r in runs])),
        }


WORKLOADS = {cls.name: cls for cls in (ExpandCold, CorrSweep, HamSector,
                                       PlasmaBulk)}
