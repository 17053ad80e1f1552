"""Command-line front end: configuration, pipelines, reproducible artifacts.

Every subcommand writes its numeric outputs as CSV or JSON into the
output directory, then a ``<subcommand>_manifest.json`` recording the
full configuration, library versions, SHA-256 checksums of the
artifacts, the wall time, the run's ``checks`` (the name, measured
value, tolerance, ``passed`` and note of each verdict, recorded by
:meth:`Emitter.bound`, or :meth:`Emitter.check` where the verdict is not
``measured <= tolerance``, in the one helper that computes its quantity)
and, where coefficient tables were read, a ``cache`` record of the N
read from the cache and the N computed.
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
sum to at most the wall time.  A stage timed around its work also
records ``rss_rise_mb``, the rise of the process's peak resident size
over it, so the ``mcmc`` manifest's ``sample`` stage shows the memory
the sampler took.  The ``ham`` stages, which ``verify-all`` runs on its
ground sector too, are ``sector`` (with the dimension), ``assembly``
(holding the memory of its ``pair_assembly`` and ``bond_assembly``
stages), ``spectrum`` (the one eigensolve, shared with the kernel
check), ``ground_check``, ``monomer_dimer`` (after the ``spectrum``
stage of its own kernel check, as every eigensolve is a ``spectrum``
stage) and ``perturbation``.
Reading and deriving the moment tables is a ``moments`` stage (with the
exponent count of each), and the renewal model a ``model`` stage
recording its tail mass, root shift and alpha residual and checked by
``alpha-residual``, ``activity-equation`` and ``tail-converged``; the
``occupations`` stage of ``corr`` and ``verify-all`` is checked by
``occupation-normalization`` and ``occupation-reflection``, the
Metropolis run is a ``sample`` stage holding the chain record (the
acceptance overall and per chain, split R-hat, each chain's final
proposal widths and the kept samples) and checked by ``mcmc-chain``,
``mcmc``'s ``density`` and ``phase`` stages record the angular
Kolmogorov-Smirnov distance and the phase contrast, and
``verify-all``'s polynomial oracle is an ``oracle`` stage.
Apart from the manifest (whose wall time necessarily varies), reruns
with the same configuration and seed produce byte-identical files.

All floating-point output is printed with 17 significant digits so
doubles round-trip exactly.

Exit codes: 0 success, 1 one of the manifest's ``checks`` failed
(including ``mcmc-chain`` on a degenerate Metropolis run and
``tail-converged`` on a renewal model whose rod-size tail is too large)
or a cached coefficient table or moment file failed validation,
2 invalid configuration, 3 a resource cap was exceeded (including
occupation keys past int64 and a Lanczos eigensolve that does not
converge within its restarts).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
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


def _peak_rss_kb() -> int:
    """The process's peak resident size so far, in kilobytes (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


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
        inside it; sizes set on the yielded dict are recorded with it,
        and so is ``rss_rise_mb``, the rise of the process's peak resident
        size over the block, inner stages included (0 if the peak held)."""
        sizes: dict = {}
        t0, inner, peak = time.perf_counter(), self.recorded, _peak_rss_kb()
        yield sizes
        self.stage(name, time.perf_counter() - t0 - (self.recorded - inner),
                   **sizes, rss_rise_mb=(_peak_rss_kb() - peak) / 1024.0)

    def check(self, name: str, measured, tolerance, passed: bool,
              note: str) -> None:
        """Record one verdict for the manifest's ``checks``."""
        self.checks.append({"name": name, "measured": measured,
                            "tolerance": tolerance, "passed": bool(passed),
                            "note": note})

    def bound(self, name: str, measured, tolerance, note: str) -> None:
        """Record the verdict ``measured <= tolerance`` (false on NaN)."""
        self.check(name, measured, tolerance, measured <= tolerance, note)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def manifest(self) -> int:
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


def _load_tables(em: Emitter, p: int, ns, cache_dir: str,
                 cap: int | None, no_compute: bool = False
                 ) -> list[expansion.CoefficientTable]:
    """Coefficient tables of the N in ``ns``: the one place that decides
    whether a table is read from the cache or computed.

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
    missing = [n for n in range(1, max(ns, default=0) + 1)
               if not os.path.exists(expansion.cache_path(cache_dir, p, n))]
    if missing:
        if no_compute:
            raise ConfigError(
                f"cache at {cache_dir} lacks tables for p={p}, N<={max(ns)}; "
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
    em.cache.update(hits=[n for n in ns if n not in missing],
                    computed=missing)
    return [table(n) for n in ns]


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
        tables = _load_tables(em, p, derive, cache_dir, cap=args.cap,
                              no_compute=no_compute)
        derived = {t.N: moments.store(t, cache_dir) for t in tables}
        em.cache.update(moments_read=[n for n in every if n not in derived],
                        moments_derived=derive)
        tables = [derived[n] if n in derived else moments.read(cache_dir, p, n)
                  for n in every]
        sizes["exponents"] = [len(m.exponents) for m in tables]
    return tables


def _model_stage(em: Emitter, args, tables) -> renewal.RenewalModel:
    """The renewal model of ``args.Nmax`` rods as a ``model`` stage with
    its convergence record, and the model's three verdicts."""
    with em.timed("model") as sizes:
        model = renewal.build_model(args.p, args.Nmax, args.gamma,
                                    tables=tables)
        sizes.update(tail_mass=model.tail_mass, root_shift=model.root_shift,
                     alpha_residual=model.alpha_residual)
    em.bound("alpha-residual", model.alpha_residual, 1e-12,
             "direct vs recursive irreducible weights")
    act = abs(float(np.polyval(model.alpha[::-1] + (0.0,), model.r)) - 1.0)
    em.bound("activity-equation", act, 1e-10,
             "sum alpha_n r^n = 1 at the solved activity")
    em.bound("tail-converged", model.tail_mass, renewal.TAIL_THRESHOLD,
             "rod-size distribution tail below threshold")
    return model


def _sample_stage(em: Emitter, params: ModelParams,
                  mc: plasma.McConfig) -> plasma.McRun:
    """The Metropolis run as a ``sample`` stage with its chain record,
    and its verdict: split R-hat near 1 and the acceptance inside its
    band."""
    with em.timed("sample") as sizes:
        run = plasma.metropolis_run(params, mc)
        sizes.update(chains=mc.chains, moves=run.moves,
                     acceptance=run.acceptance,
                     chain_acceptance=run.chain_acceptance, rhat=run.rhat,
                     sigma=run.sigma, nsamples=len(run.pooled()))
    lo, hi = plasma.ACCEPTANCE_BAND
    em.check("mcmc-chain", abs(run.rhat - 1.0), plasma.RHAT_TOLERANCE,
             run.rhat_ok and not run.pathological,
             f"|split R-hat - 1|; acceptance {fmt(run.acceptance)} "
             f"must lie in [{fmt(lo)}, {fmt(hi)}]")
    return run


# -- stages shared by subcommands ---------------------------------------------------


def _occupations_stage(em: Emitter, model: renewal.RenewalModel,
                       rods: correlations.RodExpectations,
                       finite: moments.MomentTable | None) -> tuple:
    """The bulk occupations and, when ``finite`` is given, its droplet's
    (else None): the ``occupations`` stage and its verdicts."""
    with em.timed("occupations"):
        occ_inf = correlations.occupation_infinite(model, rods)
        occ_fin = None if finite is None else \
            correlations.occupation_finite(finite, model.gamma)
    em.bound("occupation-normalization", abs(float(occ_inf.sum()) - 1.0),
             1e-8, "bulk occupations over one period sum to 1")
    if occ_fin is not None:
        em.bound("occupation-reflection",
                 float(np.max(np.abs(occ_fin - occ_fin[::-1]))), 1e-12,
                 "finite occupations reflection-symmetric")
    return occ_inf, occ_fin


def _sector_stage(em: Emitter, params: ModelParams, momentum: int,
                  cap: int) -> hamiltonian.SectorBasis:
    """One momentum sector as the ``sector`` stage, with its dimension."""
    with em.timed("sector") as sizes:
        basis = hamiltonian.sector_basis(params, momentum=momentum, cap=cap)
        sizes["dim"] = basis.dim
    return basis


def _assembly_stage(em: Emitter, params: ModelParams,
                    basis: hamiltonian.SectorBasis) -> hamiltonian.HBuild:
    """Both assemblies of H: the ``assembly`` stage, which holds their
    memory, around the ``pair_assembly`` and ``bond_assembly`` stages."""
    with em.timed("assembly"):
        build = hamiltonian.build_H(params, basis=basis)
        em.stage("pair_assembly", build.seconds["pair"], nnz=build.pair.nnz,
                 terms=build.pair_terms)
        em.stage("bond_assembly", build.seconds["bond"], nnz=build.bond.nnz)
    return build


def _spectrum_stage(em: Emitter, H, least: int, seed: int) -> np.ndarray:
    """The lowest max(least, 40) eigenvalues of H (all, if fewer): the
    ``spectrum`` stage.  One solve serves both a reported spectrum and
    the kernel check, as a narrower Lanczos window may not converge."""
    count = min(max(least, hamiltonian.KERNEL_COUNT), H.shape[0])
    with em.timed("spectrum") as sizes:
        vals = hamiltonian.spectrum(H, count=count, seed=seed)
        sizes["count"] = count
    return vals


def _ground_stage(em: Emitter, basis: hamiltonian.SectorBasis, H,
                  amp: expansion.AmplitudeTable, vals: np.ndarray) -> dict:
    """The Laughlin state is the one zero mode of H in its sector: the
    ``ground_check`` stage, its verdicts and its ``ham.json`` section."""
    psi = hamiltonian.exact_vector(basis, amp)
    with em.timed("ground_check"):
        report = hamiltonian.ground_check(H, psi, vals)
    em.bound("ground-residual", report.residual, 1e-8,
             f"N={basis.N} momentum sector")
    em.check("ground-kernel", float(report.kernel_dim), 1.0,
             report.kernel_dim == 1, "kernel dimension in the sector")
    return {"residual": report.residual, "kernel_dim": report.kernel_dim,
            "min_eigenvalue": report.min_eigenvalue}


def _monomer_dimer_stage(em: Emitter, params: ModelParams,
                         basis: hamiltonian.SectorBasis, seed: int) -> dict:
    """The monomer-dimer state is a zero mode of its truncated H, and
    that H, the repulsion cut at range 3, is the paper's closed form:
    the ``monomer_dimer`` stage around the ``spectrum`` stage of its
    kernel check, its verdicts and its ``ham.json`` section."""
    with em.timed("monomer_dimer") as sizes:
        md = hamiltonian.build_monomer_dimer(params, basis=basis)
        report = hamiltonian.ground_check(
            md.H, md.psi, _spectrum_stage(em, md.H, 0, seed))
        sizes.update(dim=basis.dim, num_terms=md.num_terms)
    em.bound("monomer-dimer-residual", report.residual, 1e-10,
             f"N={params.N} tiling state against the truncated Hamiltonian")
    em.bound("monomer-dimer-build", md.deviation, 1e-12,
             "repulsion cut at range 3 against the closed form")
    return {"residual": report.residual, "kernel_dim": report.kernel_dim,
            "build_deviation": md.deviation, "num_terms": md.num_terms}


def _perturbation_stage(em: Emitter, params: ModelParams, order: int,
                        amp: expansion.AmplitudeTable,
                        basis: hamiltonian.SectorBasis, H) -> dict:
    """The ``perturbation`` stage, its verdict and its ``ham.json``
    section; a refused series (a truncated energy underflows) fails the
    verdict with measured NaN."""
    note = ("series distances to the exact state shrink per order, or "
            "reach the rounding floor")
    with em.timed("perturbation"):
        try:
            rep = hamiltonian.perturbation_series(params, order, amp, basis, H)
            d, ok = rep.distances, rep.decreasing
        except ConfigError as exc:
            d, ok, note = (math.nan,), False, f"series refused: {exc}"
    em.check("perturbation-decreasing", d[-1], d[0], ok, note)
    return {"order": order, "distances": list(d)}


# -- subcommands --------------------------------------------------------------------


def cmd_expand(args) -> int:
    em = Emitter(args.out_dir, "expand", _config_dict(args))
    tables = _load_tables(em, args.p, range(1, args.N + 1), args.cache_dir,
                          cap=args.cap)
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

    occ_inf, occ_fin = _occupations_stage(
        em, model, rods, tables[args.N - 1] if args.N else None)
    rows = [(k, x, "renewal", model.tail_mass) for k, x in enumerate(occ_inf)]
    if args.N:
        rows += [(k, x, "exact", 0.0) for k, x in enumerate(occ_fin)]
    em.csv("occupations.csv", ["k", "value", "source", "error_estimate"],
           rows)

    kmax = args.kmax if args.kmax is not None else 5 * args.p
    with em.timed("pairs") as sizes:
        pc = correlations.pair_infinite(model, rods, 0, kmax)
        sizes["separations"] = kmax + 1
    em.csv("pairs.csv", ["l", "value", "source", "error_estimate"],
           [(l, x, "renewal", pc.error_estimate)
            for l, x in enumerate(pc.truncated)])

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
    # the Laughlin state, its monomer-dimer form and the series toward it
    # all live in the ground sector
    for flag, asked in (("--check-ground-state", args.check_ground_state),
                        ("--monomer-dimer", args.monomer_dimer),
                        ("--perturbation-order",
                         args.perturbation_order is not None)):
        if asked and momentum != ground:
            raise ConfigError(
                f"{flag} needs the ground sector (momentum {ground}), "
                f"where the Laughlin state lies; got {momentum}")
    em = Emitter(args.out_dir, "ham", _config_dict(args))
    # --cap, the tables' cap too, may raise the sector cap, never lower it
    basis = _sector_stage(em, params, momentum, max(
        args.cap or 0, hamiltonian.DEFAULT_SECTOR_CAP))
    build = _assembly_stage(em, params, basis)
    doc: dict = {
        "p": args.p, "N": args.N, "gamma": args.gamma,
        "momentum": momentum, "dim": basis.dim,
        "build_deviation": build.deviation,
    }
    if args.check_ground_state or args.perturbation_order is not None:
        (table,) = _load_tables(em, args.p, [args.N], args.cache_dir, args.cap)
        amp = expansion.amplitudes(table, args.gamma)

    if args.spectrum or args.check_ground_state:
        vals = _spectrum_stage(em, build.H, args.spectrum or 0, args.seed)
        if args.spectrum:
            doc["spectrum"] = list(vals[:args.spectrum])

    if args.check_ground_state:
        doc["ground_state"] = _ground_stage(em, basis, build.H, amp, vals)

    if args.monomer_dimer:
        doc["monomer_dimer"] = _monomer_dimer_stage(em, params, basis,
                                                    args.seed)

    if args.perturbation_order is not None:
        doc["perturbation"] = _perturbation_stage(
            em, params, args.perturbation_order, amp, basis, build.H)

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
    mc = plasma.McConfig(sweeps=args.sweeps, burn_in=args.burn_in,
                         thinning=args.thinning, seed=args.seed,
                         chains=args.chains)
    if observables and mc.chains * (mc.sweeps // mc.thinning) < 2:
        raise ConfigError(plasma.ONE_SAMPLE)
    em = Emitter(args.out_dir, "mcmc", _config_dict(args))
    pooled = _sample_stage(em, params, mc).pooled()

    if "density" in observables:
        width = args.gamma / 2.0
        lo = -4.0
        hi = args.p * (args.N - 1) * args.gamma + 4.0
        edges = np.arange(lo, hi + 0.5 * width, width)
        with em.timed("density") as sizes:
            est = plasma.density_histogram(pooled, edges, params)
            sizes["y_ks"] = est.y_ks
        em.csv("density.csv", ["bin_center", "density", "stderr"],
               zip(est.centers, est.density, est.stderr))

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
        with em.timed("phase") as sizes:
            rods = correlations.rod_expectations(tables, args.gamma)
            occ = correlations.occupation_infinite(model, rods)
            prof = plasma.phase_profile(pooled, params, occ)
            sizes["phase_contrast"] = prof.contrast
        centers = 0.5 * (prof.edges[:-1] + prof.edges[1:])
        em.csv("phase.csv",
               ["phase_center", "observed", "predicted", "stderr"],
               zip(centers, prof.observed, prof.predicted, prof.stderr))

    return em.manifest()


# -- verify-all ---------------------------------------------------------------------


def _moments_vs_rows(amps: list[expansion.AmplitudeTable],
                     moment_tables: list[moments.MomentTable],
                     model: renewal.RenewalModel,
                     rods: correlations.RodExpectations) -> float:
    """Worst relative gap between the moment route (the model, the rods
    and the finite occupations of the moment tables) and the row route.

    The row route sums the weights w of every row of each amplitude
    table, at the model's gamma: C_N = sum w, alpha_N over the
    irreducible rows, the finite occupations, and the rod profile and
    pair moments.  C_N and alpha_N
    are compared each against itself, the profiles against their
    largest entry.
    """
    gamma, worst = model.gamma, 0.0

    def gap(got, want):
        nonlocal worst
        want = np.asarray(want)
        scale = float(np.max(np.abs(want)))
        if scale:
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        elif np.any(got):
            worst = math.inf

    for amp, m in zip(amps, moment_tables):
        table, n, w = amp.table, amp.N, amp.weights
        occ = table.occupations.astype(float)
        keep = table.irreducible
        gap(model.C[n], w.sum())
        gap(correlations.occupation_finite(m, gamma),
            w @ occ[:, :m.p * (n - 1) + 1] / w.sum())
        a = w[keep].sum()
        gap(model.alpha[n - 1], a)
        if a:
            gap(rods.nu[n - 1], w[keep] @ occ[keep] / a)
            gap(rods.pair[n - 1], (occ[keep].T * w[keep]) @ occ[keep] / a)
    return worst


def _occupation_rounding(table: moments.MomentTable, Nmax: int,
                         finite: float, bulk: float) -> float:
    """Float64 rounding of the gap between a finite occupation of
    ``table`` and a bulk occupation of a model of ``Nmax`` rod sizes.

    Sums and products of nonnegative float64 numbers over m roundings
    carry a relative error below m u, to first order in the unit
    roundoff u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1).  The finite occupation is two dot products
    over the table's E exponents and a division, m = 2E + 1; the bulk
    one sums at most Nmax sites of a rod, takes a product, sums at most
    Nmax rod sizes and divides, m = 2 Nmax.  Their inputs are taken as
    exact.
    """
    m_finite = 2 * len(table.exponents) + 1
    return 2.0 ** -53 * (m_finite * finite + 2 * Nmax * bulk)


def _verify_checks(em: Emitter, args) -> None:
    """The cross-module consistency suite behind ``verify-all``, each
    check recorded on ``em``."""
    p, Nmax, gamma = args.p, args.Nmax, args.gamma
    tables = _load_tables(em, p, range(1, Nmax + 1), args.cache_dir, args.cap)
    moment_tables = moments.as_moments(tables)
    amps = [expansion.amplitudes(table, gamma) for table in tables]

    failures = expansion.verify_product_rule(p, Nmax, tables=tables).failures
    em.bound("product-rule", float(len(failures)), 0.0,
             "cached tables inconsistent across renewal points")

    with em.timed("oracle"):
        dev = max(expansion.evaluate_oracle(table) for table in tables[1:])
    em.bound("expansion-oracle", dev, 0.0,
             "share of random points mod 2^31-1 where a table of "
             "N = 2..Nmax misses its polynomial")

    model = _model_stage(em, args, moment_tables)
    rods = correlations.rod_expectations(moment_tables, gamma)
    dev = _moments_vs_rows(amps, moment_tables, model, rods)
    em.bound("moments-vs-rows", dev, 1e-13,
             "C_N, alpha_n, rod profiles and pair moments and finite "
             "occupations from the moment tables against sums over the rows")

    dec = correlations.quasi_state(amps[Nmax - 1])
    em.bound("quasi-state-reconstruction", dec.residual, 1e-12,
             f"sum_X p_N(X) omega_X against |Psi><Psi|/C_N at N={Nmax}")
    dev = max(abs(w - renewal.partition_probability(model, X))
              for X, w in dec.weights.items())
    em.bound("quasi-state-weights", dev, 1e-12,
             "quasi-state weights p_N(X) against prod alpha_n / C_N "
             f"at N={Nmax}")

    occ_inf, occ_fin = _occupations_stage(em, model, rods,
                                          moment_tables[Nmax - 1])
    via = correlations.occupation_finite_via_renewal(model, rods, Nmax)
    dev = float(np.max(np.abs(occ_fin - via)))
    em.bound("finite-renewal-match", dev, 1e-10,
             "finite occupations reassembled from the renewal form")

    k_mid = p * (Nmax // 2)
    finite, bulk = occ_fin[k_mid], occ_inf[k_mid % p]
    eps = correlations.bulk_epsilon(model, rods, Nmax, k_mid) + \
        _occupation_rounding(moment_tables[Nmax - 1], Nmax, finite, bulk)
    em.bound("bulk-epsilon", abs(finite - bulk), eps,
             f"center occupation at N={Nmax} within the bridge-weight bound "
             "plus the float64 rounding of both occupations")

    # every check on H but the monomer-dimer model's reads one ground sector
    N_h, cap = min(4, Nmax), hamiltonian.DEFAULT_SECTOR_CAP
    params = ModelParams(p, N_h, gamma)
    basis = _sector_stage(em, params, total_momentum(p, N_h), cap)
    build = _assembly_stage(em, params, basis)
    em.bound("build-agreement", build.deviation, 1e-12,
             "quadruple and bond assemblies of the parent Hamiltonian")

    amp_h = amps[N_h - 1]
    _ground_stage(em, basis, build.H, amp_h,
                  _spectrum_stage(em, build.H, 0, args.seed))

    if p == 3:
        params_md = ModelParams(3, min(6, Nmax), gamma)
        _monomer_dimer_stage(em, params_md, _sector_stage(
            em, params_md, total_momentum(3, params_md.N), cap), args.seed)

        vec = hamiltonian.tao_thouless(params, basis)
        energies = hamiltonian.tt_energies(basis, gamma)
        res_tt = float(np.linalg.norm(energies * vec) / np.linalg.norm(vec))
        em.bound("thin-torus-zero-mode", res_tt, 1e-12,
                 "one-per-rod state annihilated by the diagonal truncation")

        if gamma >= 1.2:
            _perturbation_stage(em, params, 3, amp_h, basis, build.H)

    params2 = ModelParams(p, 2, gamma)
    run = _sample_stage(em, params2, plasma.McConfig(
        sweeps=12000, burn_in=500, thinning=3, seed=args.seed, chains=2))
    pooled = run.pooled()
    xbar = 0.5 * p * gamma
    stats = plasma.measure_excess(pooled, [xbar], params2)
    exact = plasma.exact_excess_zero(amps[1], xbar)
    se = stats.p_zero_stderr[xbar]
    if se > 0:
        z = abs(stats.p_zero[xbar] - exact) / se
    else:  # every batch alike, as when K=0 is never or always seen
        total = len(pooled)
        z = plasma.count_zscore(round(stats.p_zero[xbar] * total), total,
                                exact)
    em.bound("mcmc-excess", z, 4.0,
             "sampled P(K=0) against the exact two-particle value, in sigma")

    est = plasma.density_histogram(
        pooled, np.linspace(-4.0, p * gamma + 4.0, 40), params2)
    crit = 1.63 / math.sqrt(pooled.shape[0] * pooled.shape[1])
    em.bound("mcmc-y-uniform", est.y_ks, crit,
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
                seed: bool = False) -> None:
    """The flags of every subcommand, plus ``--gamma`` and ``--seed``
    where the subcommand reads them."""
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
    _add_common(sub)
    sub.add_argument("--Nmax", type=int, default=6)
    sub.set_defaults(func=cmd_renewal)

    sub = subs.add_parser("corr", help="occupations, pair correlations, "
                                       "density profile, period test")
    _add_common(sub)
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
    _add_common(sub, seed=True)
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
    _add_common(sub, seed=True)
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
