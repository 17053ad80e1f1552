"""Command-line front end: configuration, pipelines, reproducible artifacts.

Every subcommand writes its numeric outputs as CSV or JSON into the
output directory, then a ``<subcommand>_manifest.json`` recording the
full configuration, library versions, SHA-256 checksums of the
artifacts, the wall time, the run's ``checks`` (the name, measured
value, tolerance, ``passed`` and note of each verdict, recorded by
:meth:`Emitter.check`) and, where coefficient tables were read, a
``cache`` record of the N read from the cache and the N computed.
One loader, :func:`_load_tables`, decides for each N whether its table
is read from the cache or computed by the one route that computes a
table, :func:`laughlin.expansion.expand`, which it calls with the
tables of fewer particles; it writes every computed table to the cache
and records it as a ``squeeze`` stage with the sizes of its squeezing
pass.  ``ham`` asks it for table N alone.  ``norms``,
``renewal``, ``corr`` and the ``mcmc`` phase read the gamma-free moment
tables of :mod:`laughlin.moments` instead, deriving and writing any
missing moment file from its coefficient table, and their ``cache``
record also lists the moment files read and derived.
Each manifest lists the ``stages`` of its run, and a stage's seconds
leave out those of any stage recorded inside it, so the stage seconds
sum to at most the wall time.  The ``ham`` manifest records the seconds
spent on sector enumeration (with the sector dimension), on each
assembly of H (with its nnz), on its one eigensolve (with the count of
values, shared with the ground-state check), on that check, on the
monomer-dimer model (with its dimension and number of terms) and on the
perturbation series.  Reading and deriving the moment tables is a
``moments`` stage (with the exponent count of each), and the renewal
model a ``model`` stage recording its tail mass, root shift and alpha
residual, before the further stages of each subcommand.
Apart from the manifest (whose wall time necessarily varies), reruns
with the same configuration and seed produce byte-identical files.

All floating-point output is printed with 17 significant digits so
doubles round-trip exactly.

Exit codes: 0 success, 1 one of the manifest's ``checks`` failed
(including ``mcmc-chain`` on a degenerate Metropolis run) or a cached
coefficient table or moment file failed validation, 2 invalid configuration (including an
unconverged renewal model without ``--override-unconverged``), 3 a
resource cap was exceeded (including occupation keys past int64 and a
Lanczos eigensolve that does not converge within its restarts).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy

from laughlin import (__version__, correlations, expansion, hamiltonian,
                      moments, plasma, renewal)
from laughlin.lattice import (
    CapExceeded,
    ConfigError,
    ModelParams,
    check_cap,
    total_momentum,
)

CACHE_ENV = "LAUGHLIN_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "laughlin")


def _cache_dir_arg(text: str) -> str:
    """The ``--cache-dir`` value.  argparse also passes the empty default
    through here when it parses the arguments, so the default directory
    is read then, not when the parser is built."""
    return text or default_cache_dir()


def fmt(x) -> str:
    """Text of one scalar: true or false, an integer's digits, a float in
    its 17-significant-digit decimal form (exact for doubles; nan, inf
    and -inf as such), anything else as str."""
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats rendered by fmt (json.dumps would shorten them)."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_, int, np.integer)):
        return fmt(obj)
    if isinstance(obj, (float, np.floating)) and math.isfinite(obj):
        return fmt(obj)
    return json.dumps(fmt(obj))  # text, and inf/nan: not JSON numbers


class Emitter:
    """Collects artifacts in the output directory and writes the manifest.

    The directory is made at the first write, so a run that fails
    before it writes anything leaves none behind."""

    def __init__(self, out_dir: str, subcommand: str, config: dict):
        self.out_dir = out_dir
        self.subcommand = subcommand
        self.config = config
        self.checksums: dict[str, str] = {}
        self.stages: list[dict] = []
        self.checks: list[dict] = []
        self.cache: dict = {}  # filled by the table loaders
        self.recorded = 0.0  # the seconds of every stage recorded so far
        self.t0 = time.perf_counter()

    def _path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)

    def _write(self, name: str, text: str) -> str:
        path = self._path(name)
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        self.checksums[name] = hashlib.sha256(data).hexdigest()
        return path

    def csv(self, name: str, header: list[str], rows) -> str:
        lines = [",".join(header)]
        lines += [",".join(map(fmt, row)) for row in rows]
        return self._write(name, "\n".join(lines) + "\n")

    def json(self, name: str, obj) -> str:
        return self._write(name, _json_text(obj) + "\n")

    def stage(self, name: str, seconds: float, **sizes) -> None:
        """Record one stage of the run for the manifest's ``stages``."""
        self.stages.append({"name": name, "seconds": seconds, **sizes})
        self.recorded += seconds

    @contextmanager
    def timed(self, name: str):
        """Time the enclosed block as a stage, less the stages recorded
        inside it; sizes set on the yielded dict are recorded with it."""
        sizes: dict = {}
        t0, inner = time.perf_counter(), self.recorded
        yield sizes
        self.stage(name, time.perf_counter() - t0 - (self.recorded - inner),
                   **sizes)

    def check(self, name: str, measured, tolerance, passed: bool,
              note: str) -> bool:
        """Record one verdict for the manifest's ``checks``; returns it."""
        self.checks.append({"name": name, "measured": measured,
                            "tolerance": tolerance, "passed": bool(passed),
                            "note": note})
        return bool(passed)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def manifest(self, **records) -> int:
        """Write the manifest; returns the exit code, 1 if a check failed."""
        doc = {
            "subcommand": self.subcommand,
            "inputs": self.config,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "artifact": __version__,
            },
            "artifacts": dict(sorted(self.checksums.items())),
            "wall_time_s": time.perf_counter() - self.t0,
        }
        if self.stages:
            doc["stages"] = self.stages
        doc.update(records)
        if self.cache:
            doc["cache"] = self.cache
        doc["checks"] = self.checks
        name = f"{self.subcommand}_manifest.json"
        with open(self._path(name), "wb") as fh:
            fh.write((_json_text(doc) + "\n").encode())
        return 0 if self.passed else 1


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _load_tables(em: Emitter, p: int, Nmax: int, cache_dir: str,
                 cap: int | None, no_compute: bool = False,
                 only: list[int] | None = None
                 ) -> list[expansion.CoefficientTable]:
    """Coefficient tables 1..Nmax (or the N in ``only``): the one place
    that decides whether a table is read from the cache or computed.

    Every N up to the largest asked for whose cache file is missing is
    computed by :func:`~laughlin.expansion.expand` and written to the
    cache, once ``no_compute`` and the cap have been checked for all
    of them.  A computed table takes its reducible rows from
    the product rule over the tables of 1..N-1 particles, each held
    from earlier in the run or read from the cache, so no table is read
    or computed twice.  Each computed table is a ``squeeze`` stage with
    its N, Sigma m^2 ``levels``, unsqueezed ``candidates`` looked up,
    reducible rows ``filled`` by the product rule, ``terms`` and
    ``max_coeff_bits``.  Records the manifest's ``cache`` on ``em``:
    the N asked for that were read from the cache (``hits``) and the N
    computed in this run (``computed``).
    """
    every = range(1, Nmax + 1) if only is None else only
    missing = [n for n in range(1, max(every, default=0) + 1)
               if not os.path.exists(expansion.cache_path(cache_dir, p, n))]
    if missing:
        if no_compute:
            raise ConfigError(
                f"cache at {cache_dir} lacks tables for p={p}, N<={Nmax}; "
                "run the expand subcommand or drop --no-compute")
        check_cap(p, missing[-1], cap)
        os.makedirs(cache_dir, exist_ok=True)
    held: dict[int, expansion.CoefficientTable] = {}

    def table(n: int) -> expansion.CoefficientTable:
        if n not in held:
            held[n] = expansion.load_cache(
                expansion.cache_path(cache_dir, p, n), expected_p=p,
                expected_N=n)
        return held[n]

    for n in missing:
        smaller = [table(k) for k in range(1, n)]
        with em.timed("squeeze") as sizes:
            sizes["N"] = n
            held[n] = expansion.expand(p, n, smaller, sizes=sizes)
            bits = int(np.abs(held[n].values).max()).bit_length()
            sizes.update(terms=len(held[n]), max_coeff_bits=bits)
            expansion.save_cache(held[n],
                                 expansion.cache_path(cache_dir, p, n))
    em.cache.update(hits=[n for n in every if n not in missing],
                    computed=missing)
    return [table(n) for n in every]


def _load_moments(em: Emitter, args, Nmax: int, no_compute: bool = False
                  ) -> list[moments.MomentTable]:
    """Moment tables 1..Nmax as a ``moments`` stage, with the number of
    distinct exponents of each.

    A missing moment file is derived from its coefficient table, read
    from the cache or computed by :func:`_load_tables` (never with
    ``no_compute``), and written beside it; a stored one is read without
    parsing its coefficient file.  The ``cache`` record of
    :func:`_load_tables`, for the coefficient tables read, gains the N
    whose moment files were read (``moments_read``) and derived
    (``moments_derived``).
    """
    p, cache_dir, every = args.p, args.cache_dir, range(1, Nmax + 1)
    with em.timed("moments") as sizes:
        derive = [n for n in every if not (
            os.path.exists(moments.moment_path(cache_dir, p, n))
            and os.path.exists(expansion.cache_path(cache_dir, p, n)))]
        tables = _load_tables(em, p, Nmax, cache_dir, cap=args.cap,
                              no_compute=no_compute, only=derive)
        derived = {t.N: moments.store(t, cache_dir) for t in tables}
        em.cache.update(moments_read=[n for n in every if n not in derived],
                        moments_derived=derive)
        tables = [derived[n] if n in derived else moments.read(cache_dir, p, n)
                  for n in every]
        sizes["exponents"] = [len(m.exponents) for m in tables]
    return tables


def _model_stage(em: Emitter, args, tables) -> renewal.RenewalModel:
    """The renewal model of ``args.Nmax`` rods as a ``model`` stage with
    its convergence record; an unconverged model ends the run unless
    ``--override-unconverged`` is given, which the model then admits in
    every infinite-volume quantity."""
    with em.timed("model") as sizes:
        model = renewal.build_model(
            args.p, args.Nmax, args.gamma, tables=tables,
            admit_unconverged=args.override_unconverged)
        sizes.update(tail_mass=model.tail_mass, root_shift=model.root_shift,
                     alpha_residual=model.alpha_residual)
    model.require_converged()
    return model


# -- verdicts shared by subcommands -------------------------------------------------


def _ground_verdict(em: Emitter, report: hamiltonian.GroundReport,
                    N: int) -> bool:
    """The Laughlin state is the one zero mode of H in its sector."""
    residual_ok = em.check("ground-residual", report.residual, 1e-8,
                           report.residual < 1e-8, f"N={N} momentum sector")
    kernel_ok = em.check("ground-kernel", float(report.kernel_dim), 1.0,
                         report.kernel_dim == 1,
                         "kernel dimension in the sector")
    return residual_ok and kernel_ok


def _monomer_dimer_verdict(em: Emitter, residual: float, N: int) -> bool:
    """The monomer-dimer state is a zero mode of its truncated H."""
    return em.check("monomer-dimer-residual", residual, 1e-10,
                    residual < 1e-10,
                    f"N={N} tiling state against the truncated Hamiltonian")


def _chain_verdict(em: Emitter, run: plasma.McRun) -> bool:
    """Split R-hat near 1 and the acceptance inside its band."""
    lo, hi = plasma.ACCEPTANCE_BAND
    return em.check("mcmc-chain", abs(run.rhat - 1.0), plasma.RHAT_TOLERANCE,
                    run.rhat_ok and not run.pathological,
                    f"|split R-hat - 1|; acceptance {fmt(run.acceptance)} "
                    f"must lie in [{fmt(lo)}, {fmt(hi)}]")


# -- subcommands --------------------------------------------------------------------


def cmd_expand(args) -> int:
    em = Emitter(args.out_dir, "expand", _config_dict(args))
    tables = _load_tables(em, args.p, args.N, args.cache_dir, cap=args.cap)
    entries = []
    for table in tables:
        path = expansion.cache_path(args.cache_dir, args.p, table.N)
        entries.append({"N": table.N, "terms": len(table),
                        "cache_file": os.path.basename(path),
                        "sha256": moments.file_sha256(path)})
    em.json("expand_summary.json",
            {"p": args.p, "N": args.N, "tables": entries})
    return em.manifest()


def cmd_norms(args) -> int:
    em = Emitter(args.out_dir, "norms", _config_dict(args))
    tables = _load_moments(em, args, args.Nmax)
    with em.timed("norms"):
        C = renewal.norms_from_tables(tables, args.gamma)
    em.csv("norms.csv", ["N", "C_N"],
           [(n, C[n]) for n in range(1, args.Nmax + 1)])
    return em.manifest()


def cmd_renewal(args) -> int:
    em = Emitter(args.out_dir, "renewal", _config_dict(args))
    tables = _load_moments(em, args, args.Nmax)
    model = _model_stage(em, args, tables)
    u = model.renewal_sequence(args.Nmax)
    em.csv("renewal.csv", ["n", "alpha_n", "p_n", "u_n"],
           [(n, model.alpha[n - 1], model.pn[n - 1], u[n])
            for n in range(1, args.Nmax + 1)])
    em.json("renewal_summary.json", {
        "r": model.r, "mu": model.mu, "tail_mass": model.tail_mass,
        "c_sub": model.c_sub, "alpha_residual": model.alpha_residual,
        "root_shift": model.root_shift, "converged": not model.unconverged,
    })
    return em.manifest()


def cmd_corr(args) -> int:
    em = Emitter(args.out_dir, "corr", _config_dict(args))
    tables = _load_moments(em, args, max(args.Nmax, args.N or 0),
                           no_compute=args.no_compute)
    model = _model_stage(em, args, tables)
    with em.timed("rods"):
        rods = correlations.rod_expectations(tables[:args.Nmax], args.gamma)

    with em.timed("occupations"):
        occ_inf = correlations.occupation_infinite(model, rods)
        rows = [(k, occ_inf[k], "renewal", model.tail_mass)
                for k in range(args.p)]
        if args.N:
            occ_fin = correlations.occupation_finite(tables[args.N - 1],
                                                     args.gamma)
            rows += [(k, occ_fin[k], "exact", 0.0)
                     for k in range(occ_fin.size)]
    em.csv("occupations.csv", ["k", "value", "source", "error_estimate"],
           rows)

    kmax = args.kmax if args.kmax is not None else 5 * args.p
    with em.timed("pairs") as sizes:
        pair_rows = []
        for l in range(kmax + 1):
            pc = correlations.pair_infinite(model, rods, 0, l)
            pair_rows.append((l, pc.truncated, "renewal", pc.error_estimate))
        sizes["separations"] = kmax + 1
    em.csv("pairs.csv", ["l", "value", "source", "error_estimate"], pair_rows)

    step = args.gamma / 10.0
    if args.N:
        occ = occ_fin
        x_lo, x_hi = -3.0, args.p * (args.N - 1) * args.gamma + 3.0
    else:
        occ = np.tile(occ_inf, 13)
        x_lo = 5 * args.p * args.gamma
        x_hi = 8 * args.p * args.gamma
    xs = np.arange(x_lo, x_hi + 0.5 * step, step)
    with em.timed("profile") as sizes:
        rho = correlations.density_profile(occ, args.gamma, xs)
        sizes["points"] = xs.size
    em.csv("profile.csv", ["x", "rho"], zip(xs, rho))

    with em.timed("period"):
        report = correlations.period_test(model, rods)
    em.json("period.json", {
        "period": report.period, "margin": report.margin,
        "used": report.used, "tolerance": report.tolerance,
        "deviations": list(report.deviations),
    })
    return em.manifest()


def cmd_ham(args) -> int:
    params = ModelParams(args.p, args.N, args.gamma)
    if args.monomer_dimer or args.perturbation_order is not None:
        hamiltonian.require_p3(params)
    ground = total_momentum(args.p, args.N)
    momentum = ground if args.momentum is None else args.momentum
    if args.check_ground_state and momentum != ground:
        raise ConfigError(
            f"--check-ground-state needs the ground sector (momentum "
            f"{ground}), where the Laughlin state lies; got {momentum}")
    em = Emitter(args.out_dir, "ham", _config_dict(args))
    cap = args.cap if args.cap is not None else hamiltonian.DEFAULT_SECTOR_CAP
    with em.timed("sector") as sizes:
        basis = hamiltonian.sector_basis(params, momentum=momentum, cap=cap)
        sizes["dim"] = basis.dim
    build = hamiltonian.build_H(params, basis=basis)
    em.stage("pair_assembly", build.seconds["pair"], nnz=build.pair.nnz)
    em.stage("bond_assembly", build.seconds["bond"], nnz=build.bond.nnz)
    # The monomer-dimer state and the perturbation series live in the
    # ground sector: the one built above, or else one enumerated here,
    # once and under the run's cap, for both.
    in_ground = momentum == ground
    ground_basis = basis
    if not in_ground and (args.monomer_dimer
                          or args.perturbation_order is not None):
        with em.timed("ground_sector") as sizes:
            ground_basis = hamiltonian.sector_basis(params, momentum=ground,
                                                    cap=cap)
            sizes["dim"] = ground_basis.dim
    doc: dict = {
        "p": args.p, "N": args.N, "gamma": args.gamma,
        "momentum": momentum, "dim": basis.dim,
        "build_deviation": build.deviation,
    }
    if args.check_ground_state or args.perturbation_order is not None:
        (table,) = _load_tables(em, args.p, args.N, args.cache_dir,
                                cap=args.cap, only=[args.N])
        amp = expansion.amplitudes(table, args.gamma)

    if args.spectrum or args.check_ground_state:
        # One solve serves both the spectrum and the kernel check.
        least = hamiltonian.KERNEL_COUNT if args.check_ground_state else 1
        count = min(max(args.spectrum or 1, least), basis.dim)
        with em.timed("spectrum") as sizes:
            vals = hamiltonian.spectrum(build.H, count=count, seed=args.seed)
            sizes["count"] = count
        if args.spectrum:
            doc["spectrum"] = list(vals[:args.spectrum])

    if args.check_ground_state:
        psi = hamiltonian.exact_vector(basis, amp)
        with em.timed("ground_check"):
            report = hamiltonian.ground_check(build.H, psi, vals)
        doc["ground_state"] = {
            "residual": report.residual, "kernel_dim": report.kernel_dim,
            "min_eigenvalue": report.min_eigenvalue,
            "passed": _ground_verdict(em, report, args.N),
        }

    if args.monomer_dimer:
        with em.timed("monomer_dimer") as sizes:
            md = hamiltonian.build_monomer_dimer(params, basis=ground_basis)
            vals = hamiltonian.spectrum(md.H, count=min(
                hamiltonian.KERNEL_COUNT, ground_basis.dim))
            report = hamiltonian.ground_check(md.H, md.psi, vals)
            sizes.update(dim=ground_basis.dim, num_terms=md.num_terms)
        residual_ok = _monomer_dimer_verdict(em, report.residual, args.N)
        build_ok = em.check(
            "monomer-dimer-build", md.deviation, 1e-12, md.deviation < 1e-12,
            "square and expanded assemblies of the truncated Hamiltonian")
        doc["monomer_dimer"] = {
            "residual": report.residual, "kernel_dim": report.kernel_dim,
            "build_deviation": md.deviation, "num_terms": md.num_terms,
            "passed": residual_ok and build_ok,
        }

    if args.perturbation_order is not None:
        with em.timed("perturbation"):
            report = hamiltonian.perturbation_series(
                params, args.perturbation_order, amp, ground_basis,
                build.H if in_ground else hamiltonian.repulsion(
                    params, ground_basis))
        doc["perturbation"] = {
            "order": args.perturbation_order,
            "distances": list(report.distances),
            "decreasing": report.decreasing,
        }

    em.json("ham.json", doc)
    return em.manifest()


def cmd_mcmc(args) -> int:
    params = ModelParams(args.p, args.N, args.gamma)
    observables = [s.strip() for s in args.observables.split(",") if s.strip()]
    unknown = set(observables) - {"density", "excess", "phase"}
    if unknown:
        raise ConfigError(f"unknown observables: {sorted(unknown)}")
    if "phase" in observables:
        plasma.phase_window(params)
    em = Emitter(args.out_dir, "mcmc", _config_dict(args))
    mc = plasma.McConfig(sweeps=args.sweeps, burn_in=args.burn_in,
                         thinning=args.thinning, seed=args.seed,
                         chains=args.chains)
    with em.timed("sample") as sizes:
        run = plasma.metropolis_run(params, mc)
        sizes["chains"] = args.chains
        sizes["moves"] = run.moves
        sizes["pilot_moves"] = run.pilot_moves
    pooled = run.pooled()

    run_info = {
        "seed": args.seed, "chains": args.chains,
        "acceptance": run.acceptance,
        "chain_acceptance": list(run.chain_acceptance),
        "rhat": run.rhat, "sigma": list(run.sigma),
        "pathological": run.pathological,
        "nsamples": pooled.shape[0],
        "acceptance_band": list(plasma.ACCEPTANCE_BAND),
        "rhat_tolerance": plasma.RHAT_TOLERANCE,
        "passed": _chain_verdict(em, run),
    }

    if "density" in observables:
        width = args.gamma / 2.0
        lo = -4.0
        hi = args.p * (args.N - 1) * args.gamma + 4.0
        edges = np.arange(lo, hi + 0.5 * width, width)
        with em.timed("density"):
            est = plasma.density_histogram(pooled, edges, params)
        em.csv("density.csv", ["bin_center", "density", "stderr"],
               zip(est.centers, est.density, est.stderr))
        run_info["y_ks"] = est.y_ks

    if "excess" in observables:
        cuts = [(k - 0.5) * args.p * args.gamma for k in range(1, args.N)]
        with em.timed("excess"):
            stats = plasma.measure_excess(pooled, cuts, params)
        rows = []
        for xbar in stats.xbars:
            for K in sorted(stats.histogram[xbar]):
                rows.append((xbar, K, stats.histogram[xbar][K]))
        em.csv("excess.csv", ["xbar", "K", "probability"], rows)

    if "phase" in observables:
        tables = _load_moments(em, args, args.Nmax)
        model = _model_stage(em, args, tables)
        with em.timed("phase"):
            rods = correlations.rod_expectations(tables, args.gamma)
            occ = correlations.occupation_infinite(model, rods)
            prof = plasma.phase_profile(pooled, params, occ)
        centers = 0.5 * (prof.edges[:-1] + prof.edges[1:])
        em.csv("phase.csv",
               ["phase_center", "observed", "predicted", "stderr"],
               zip(centers, prof.observed, prof.predicted, prof.stderr))
        run_info["phase_contrast"] = prof.contrast

    return em.manifest(run=run_info)


# -- verify-all ---------------------------------------------------------------------


def _moments_vs_rows(tables: list[expansion.CoefficientTable],
                     moment_tables: list[moments.MomentTable],
                     gamma: float) -> float:
    """Worst relative gap between the moment route and the row route.

    The row route sums the amplitude weights w of every row of each
    table: C_N = sum w, alpha_N over the irreducible rows, the finite
    occupations, and the rod profile and pair moments.  C_N and alpha_N
    are compared each against itself, the profiles against their
    largest entry.
    """
    worst = 0.0

    def gap(got, want):
        nonlocal worst
        want = np.asarray(want)
        scale = float(np.max(np.abs(want)))
        if scale:
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        elif np.any(got):
            worst = math.inf

    C = renewal.norms_from_tables(moment_tables, gamma)
    alpha, _ = renewal.irreducible_weights(moment_tables, gamma)
    rods = correlations.rod_expectations(moment_tables, gamma)
    for table, m in zip(tables, moment_tables):
        n = table.N
        w = expansion.amplitudes(table, gamma).weights
        occ = table.occupations.astype(float)
        keep = table.irreducible
        gap(C[n], w.sum())
        gap(correlations.occupation_finite(m, gamma),
            w @ occ[:, :m.p * (n - 1) + 1] / w.sum())
        a = w[keep].sum()
        gap(alpha[n - 1], a)
        if a:
            gap(rods.nu[n - 1], w[keep] @ occ[keep] / a)
            gap(rods.pair[n - 1], (occ[keep].T * w[keep]) @ occ[keep] / a)
    return worst



def _verify_checks(em: Emitter, args) -> None:
    """The cross-module consistency suite behind ``verify-all``, each
    check recorded on ``em``."""
    p, Nmax, gamma = args.p, args.Nmax, args.gamma
    tables = _load_tables(em, p, Nmax, args.cache_dir, cap=args.cap)
    moment_tables = moments.as_moments(tables)

    failures = expansion.verify_product_rule(p, Nmax, tables=tables).failures
    em.check("product-rule", float(len(failures)), 0.0, not failures,
             "cached tables inconsistent across renewal points")

    dev = max(expansion.evaluate_oracle(table) for table in tables[1:])
    em.check("expansion-oracle", dev, 0.0, dev == 0.0,
             "share of random points mod 2^31-1 where a table of "
             "N = 2..Nmax misses its polynomial")

    dev = _moments_vs_rows(tables, moment_tables, gamma)
    em.check("moments-vs-rows", dev, 1e-13, dev <= 1e-13,
             "C_N, alpha_n, rod profiles and pair moments and finite "
             "occupations from the moment tables against sums over the rows")

    model = renewal.build_model(p, Nmax, gamma, tables=moment_tables,
                                admit_unconverged=args.override_unconverged)
    em.check("alpha-residual", model.alpha_residual, 1e-12,
             model.alpha_residual <= 1e-12,
             "direct vs recursive irreducible weights")

    act = abs(float(np.polyval(
        np.concatenate(([0.0], np.asarray(model.alpha)))[::-1], model.r)) - 1.0)
    em.check("activity-equation", act, 1e-10, act <= 1e-10,
             "sum alpha_n r^n = 1 at the solved activity")

    usable = not model.unconverged or model.admit_unconverged
    em.check("tail-converged", model.tail_mass, renewal.TAIL_THRESHOLD,
             usable, "rod-size distribution tail below threshold")
    if not usable:
        return

    rods = correlations.rod_expectations(moment_tables, gamma)
    occ_inf = correlations.occupation_infinite(model, rods)
    dev = abs(float(occ_inf.sum()) - 1.0)
    em.check("occupation-normalization", dev, 1e-8, dev <= 1e-8,
             "bulk occupations over one period sum to 1")

    occ_fin = correlations.occupation_finite(moment_tables[Nmax - 1], gamma)
    via = correlations.occupation_finite_via_renewal(model, rods, Nmax)
    dev = float(np.max(np.abs(occ_fin - via)))
    em.check("finite-renewal-match", dev, 1e-10, dev <= 1e-10,
             "finite occupations reassembled from the renewal form")

    dev = float(np.max(np.abs(occ_fin - occ_fin[::-1])))
    em.check("occupation-reflection", dev, 1e-12, dev <= 1e-12,
             "finite occupations reflection-symmetric")

    k_mid = p * (Nmax // 2)
    eps = correlations.bulk_epsilon(model, rods, Nmax, k_mid)
    dev = abs(occ_fin[k_mid] - occ_inf[k_mid % p])
    em.check("bulk-epsilon", dev, eps, dev <= eps,
             f"center occupation at N={Nmax} within the bridge-weight bound")

    N_h = min(4, Nmax)
    params = ModelParams(p, N_h, gamma)
    basis = hamiltonian.sector_basis(params,
                                     momentum=total_momentum(p, N_h))
    build = hamiltonian.build_H(params, basis=basis)
    em.check("build-agreement", build.deviation, 1e-12,
             build.deviation <= 1e-12,
             "quadruple and bond assemblies of the parent Hamiltonian")

    amp_h = expansion.amplitudes(tables[N_h - 1], gamma)
    psi = hamiltonian.exact_vector(basis, amp_h)
    report = hamiltonian.ground_check(build.H, psi, hamiltonian.spectrum(
        build.H, count=min(hamiltonian.KERNEL_COUNT, basis.dim)))
    _ground_verdict(em, report, N_h)

    if p == 3:
        N_md = min(6, Nmax)
        params_md = ModelParams(3, N_md, gamma)
        md = hamiltonian.build_monomer_dimer(
            params_md, basis=hamiltonian.sector_basis(
                params_md, momentum=total_momentum(3, N_md)))
        _monomer_dimer_verdict(em, hamiltonian.residual(md.H, md.psi), N_md)

        params_tt = ModelParams(3, min(3, Nmax), gamma)
        basis_tt = hamiltonian.sector_basis(params_tt)
        htt = hamiltonian.build_HTT(params_tt, basis=basis_tt)
        vec = hamiltonian.tao_thouless(params_tt, basis_tt)
        res_tt = hamiltonian.residual(htt, vec)
        em.check("thin-torus-zero-mode", res_tt, 1e-12, res_tt <= 1e-12,
                 "one-per-rod state annihilated by the diagonal truncation")

        if gamma >= 1.2:
            params_pt = ModelParams(3, min(3, Nmax), gamma)
            basis_pt = hamiltonian.sector_basis(
                params_pt, momentum=total_momentum(3, params_pt.N))
            rep = hamiltonian.perturbation_series(
                params_pt, 3, expansion.amplitudes(
                    tables[params_pt.N - 1], gamma), basis_pt,
                hamiltonian.repulsion(params_pt, basis_pt))
            d = rep.distances
            em.check("perturbation-decreasing", d[-1], d[0], rep.decreasing,
                     "series distances to the exact state shrink per order")

    params2 = ModelParams(p, 2, gamma)
    mc = plasma.McConfig(sweeps=12000, burn_in=500, thinning=3,
                         seed=args.seed, chains=2)
    run = plasma.metropolis_run(params2, mc)
    pooled = run.pooled()
    xbar = 0.5 * p * gamma
    stats = plasma.measure_excess(pooled, [xbar], params2)
    exact = plasma.exact_excess_zero(
        expansion.amplitudes(tables[1], gamma), xbar)
    se = stats.p_zero_stderr[xbar]
    z = abs(stats.p_zero[xbar] - exact) / se if se > 0 else math.inf
    em.check("mcmc-excess", z, 4.0, z < 4.0,
             "sampled P(K=0) against the exact two-particle value, in sigma")

    _chain_verdict(em, run)

    est = plasma.density_histogram(
        pooled, np.linspace(-4.0, p * gamma + 4.0, 40), params2)
    crit = 1.63 / math.sqrt(pooled.shape[0] * pooled.shape[1])
    em.check("mcmc-y-uniform", est.y_ks, crit, est.y_ks < crit,
             "Kolmogorov-Smirnov distance of the angular marginal")


def cmd_verify(args) -> int:
    if args.Nmax < 2:
        raise ConfigError(f"verify-all needs Nmax >= 2, got {args.Nmax}")
    em = Emitter(args.out_dir, "verify", _config_dict(args))
    _verify_checks(em, args)
    for c in em.checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: measured {fmt(c['measured'])} "
              f"(tolerance {fmt(c['tolerance'])})")
    em.json("verify.json", {"passed": em.passed, "checks": em.checks})
    return em.manifest()


# -- parser -------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, gamma: bool = True,
                seed: bool = False, override: bool = False) -> None:
    """The flags of every subcommand, plus ``--gamma``, ``--seed`` and
    ``--override-unconverged`` where the subcommand reads them."""
    sub.add_argument("--cache-dir", type=_cache_dir_arg, default="",
                     help=f"coefficient cache (default ${CACHE_ENV} "
                          "or ~/.cache/laughlin)")
    sub.add_argument("--out-dir", default=".",
                     help="directory for CSV/JSON artifacts")
    sub.add_argument("--cap", type=int, default=None,
                     help="override the built-in particle-number cap")
    sub.add_argument("--p", type=int, default=3)
    if gamma:
        sub.add_argument("--gamma", type=float, default=1.0)
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if override:
        sub.add_argument("--override-unconverged", action="store_true",
                         help="proceed when the rod-size tail is above "
                              "threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laughlin",
        description="Exact expansions, renewal structure, parent "
                    "Hamiltonians, and Monte Carlo for Laughlin states "
                    "on the cylinder.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("expand", help="build and cache coefficient tables")
    _add_common(sub, gamma=False)
    sub.add_argument("--N", type=int, required=True)
    sub.set_defaults(func=cmd_expand)

    sub = subs.add_parser("norms", help="squared norms C_N at a gamma")
    _add_common(sub)
    sub.add_argument("--Nmax", type=int, default=6)
    sub.set_defaults(func=cmd_norms)

    sub = subs.add_parser("renewal", help="rod weights and renewal model")
    _add_common(sub, override=True)
    sub.add_argument("--Nmax", type=int, default=6)
    sub.set_defaults(func=cmd_renewal)

    sub = subs.add_parser("corr", help="occupations, pair correlations, "
                                       "density profile, period test")
    _add_common(sub, override=True)
    sub.add_argument("--Nmax", type=int, default=6)
    sub.add_argument("--N", type=int, default=None,
                     help="also emit exact finite-N occupations")
    sub.add_argument("--kmax", type=int, default=None,
                     help="largest pair separation (default 5p)")
    sub.add_argument("--no-compute", action="store_true",
                     help="never run the expander: fail on a missing "
                          "coefficient table; missing moment files are "
                          "still derived from cached tables")
    sub.set_defaults(func=cmd_corr)

    sub = subs.add_parser("ham", help="parent Hamiltonian diagnostics")
    _add_common(sub, seed=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--momentum", type=int, default=None,
                     help="momentum sector (default: ground sector)")
    sub.add_argument("--spectrum", type=int, default=None, metavar="K",
                     help="report the lowest K eigenvalues")
    sub.add_argument("--check-ground-state", action="store_true")
    sub.add_argument("--monomer-dimer", action="store_true")
    sub.add_argument("--perturbation-order", type=int, default=None,
                     metavar="n")
    sub.set_defaults(func=cmd_ham)

    sub = subs.add_parser("mcmc", help="Metropolis sampling of |Psi|^2")
    _add_common(sub, seed=True, override=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--sweeps", type=int, default=20000)
    sub.add_argument("--burn-in", type=int, default=1000, dest="burn_in")
    sub.add_argument("--thinning", type=int, default=5)
    sub.add_argument("--chains", type=int, default=2)
    sub.add_argument("--observables", default="density,excess",
                     help="comma list from density,excess,phase")
    sub.add_argument("--Nmax", type=int, default=6,
                     help="rod-size cutoff for the phase prediction")
    sub.set_defaults(func=cmd_mcmc)

    sub = subs.add_parser("verify-all", help="cross-module consistency suite")
    _add_common(sub, seed=True, override=True)
    sub.add_argument("--Nmax", type=int, default=6)
    sub.set_defaults(func=cmd_verify)

    return parser


def _validate_common(args) -> None:
    if args.p < 1:
        raise ConfigError(f"p must be a positive integer, got {args.p}")
    gamma = getattr(args, "gamma", None)
    if gamma is not None and not (gamma > 0 and math.isfinite(gamma)):
        raise ConfigError(f"gamma must be finite and > 0, got {gamma}")
    for attr, least in (("N", 1), ("Nmax", 1), ("kmax", 0), ("spectrum", 1),
                        ("perturbation_order", 0)):
        val = getattr(args, attr, None)
        if val is not None and val < least:
            raise ConfigError(f"{attr} must be >= {least}, got {val}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _validate_common(args)
        return args.func(args)
    except renewal.UnconvergedError as exc:
        print(f"error: {exc}; pass --override-unconverged to proceed",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except expansion.CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
