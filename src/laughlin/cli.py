"""Command-line front end: configuration, pipelines, reproducible artifacts.

Every subcommand writes its numeric outputs as CSV or JSON into the
output directory, then a ``<subcommand>_manifest.json`` recording the
full configuration, library versions, SHA-256 checksums of the
artifacts, the wall time and, where coefficient tables were read, a
``cache`` record of the N read from the cache and the N computed.
``norms``, ``renewal``, ``corr`` and the ``mcmc`` phase read the
gamma-free moment tables of :mod:`laughlin.moments` instead, deriving
and writing any missing moment file from its coefficient table, and
their ``cache`` record also lists the moment files read and derived.
The ``expand`` manifest also lists its ``stages``: one ``squeeze`` per
computed table, with its N, the Sigma m^2 levels of the recursion, the
unsqueezed candidates looked up, the reducible rows filled by the
product rule from the tables of fewer particles (held in the run or
read from the cache, never read or computed twice), the terms and the
bit length of the largest coefficient.  So does the ``ham`` manifest:
the seconds spent on sector enumeration (with the sector dimension),
on each assembly of H (with its nnz), on the spectrum and on the
ground-state check.  The ``norms``, ``renewal`` and ``corr`` manifests
time reading the moment tables (with the exponent count of each) and
their further stages; the ``model`` stage records the renewal tail
mass, root shift and alpha residual.
Apart from the manifest (whose wall time necessarily varies), reruns
with the same configuration and seed produce byte-identical files.

All floating-point output is printed with 17 significant digits so
doubles round-trip exactly.

Exit codes: 0 success, 1 a verification check failed (including a
degenerate Metropolis run) or a cached coefficient table or moment
file failed validation, 2 invalid configuration (including an
unconverged renewal model without ``--override-unconverged``), 3 a
resource cap was exceeded.
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
from importlib import metadata

import numpy as np
import scipy

from laughlin import (correlations, expansion, hamiltonian, moments, plasma,
                      renewal)
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
    """Collects artifacts in the output directory and writes the manifest."""

    def __init__(self, out_dir: str, subcommand: str, config: dict):
        self.out_dir = out_dir
        self.subcommand = subcommand
        self.config = config
        self.checksums: dict[str, str] = {}
        self.stages: list[dict] = []
        self.t0 = time.perf_counter()
        os.makedirs(out_dir, exist_ok=True)

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.out_dir, name)
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

    @contextmanager
    def timed(self, name: str):
        """Time the enclosed block as a stage; sizes set on the yielded
        dict are recorded with it."""
        sizes: dict = {}
        t0 = time.perf_counter()
        yield sizes
        self.stage(name, time.perf_counter() - t0, **sizes)

    def manifest(self, extra: dict | None = None) -> str:
        try:
            version = metadata.version("artifact")
        except metadata.PackageNotFoundError:
            version = "unknown"
        doc = {
            "subcommand": self.subcommand,
            "inputs": self.config,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "artifact": version,
            },
            "artifacts": dict(sorted(self.checksums.items())),
            "wall_time_s": time.perf_counter() - self.t0,
        }
        if self.stages:
            doc["stages"] = self.stages
        if extra:
            doc.update(extra)
        name = f"{self.subcommand}_manifest.json"
        path = os.path.join(self.out_dir, name)
        with open(path, "wb") as fh:
            fh.write((_json_text(doc) + "\n").encode())
        return path


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _load_tables(p: int, Nmax: int, cache_dir: str, no_compute: bool = False,
                 cap: int | None = None, em: Emitter | None = None,
                 only: list[int] | None = None
                 ) -> tuple[list[expansion.CoefficientTable], dict]:
    """Coefficient tables 1..Nmax (or the N in ``only``) from cache,
    computing only those missing.

    A computed table takes its reducible rows from the product rule
    over the tables of fewer particles: those already held in this run,
    else the cached ones, so no table is read or computed twice.
    Also returns the manifest's ``cache`` record: the N read from the
    cache (``hits``) and the N computed in this run (``computed``).
    With an emitter, each computed table is a ``squeeze`` stage with its
    N, Sigma m^2 ``levels``, unsqueezed ``candidates`` looked up,
    reducible rows ``filled`` by the product rule, ``terms`` and
    ``max_coeff_bits``.
    """
    every = range(1, Nmax + 1) if only is None else only
    missing = [n for n in every
               if not os.path.exists(expansion.cache_path(cache_dir, p, n))]
    if missing:
        if no_compute:
            raise ConfigError(
                f"cache at {cache_dir} lacks tables for p={p}, N<={Nmax}; "
                "run the expand subcommand or drop --no-compute")
        check_cap(p, missing[-1], cap)
    tables: list[expansion.CoefficientTable] = []
    for n in every:
        # ``every`` increases, so the tables held are those of 1..n-1
        # exactly when there are n - 1 of them.
        smaller = tables if len(tables) == n - 1 else None
        if em is not None and n in missing:
            with em.timed("squeeze") as sizes:
                sizes["N"] = n
                table = expansion.expand(p, n, cache_dir=cache_dir, cap=cap,
                                         sizes=sizes, smaller=smaller)
                biggest = max(map(abs, table.coeffs.values()))
                sizes.update(terms=len(table),
                             max_coeff_bits=biggest.bit_length())
        else:
            table = expansion.expand(p, n, cache_dir=cache_dir, cap=cap,
                                     smaller=smaller)
        tables.append(table)
    return tables, {"hits": [n for n in every if n not in missing],
                    "computed": missing}


def _load_moments(p: int, Nmax: int, cache_dir: str, no_compute: bool = False,
                  cap: int | None = None
                  ) -> tuple[list[moments.MomentTable], dict]:
    """Moment tables 1..Nmax from cache, deriving those missing.

    A missing moment file is derived from its coefficient table, read
    from the cache or computed (never with ``no_compute``), and written
    beside it; a stored one is read without parsing its coefficient
    file.  The ``cache`` record of :func:`_load_tables`, for the
    coefficient tables read, gains the N whose moment files were read
    (``moments_read``) and derived (``moments_derived``).
    """
    every = range(1, Nmax + 1)
    derive = [n for n in every if not (
        os.path.exists(moments.moment_path(cache_dir, p, n))
        and os.path.exists(expansion.cache_path(cache_dir, p, n)))]
    tables, cache = _load_tables(p, Nmax, cache_dir, no_compute=no_compute,
                                 cap=cap, only=derive)
    derived = {t.N: moments.store(t, cache_dir) for t in tables}
    cache.update(moments_read=[n for n in every if n not in derived],
                 moments_derived=derive)
    return [derived[n] if n in derived else moments.read(cache_dir, p, n)
            for n in every], cache


def _model_stage(em: Emitter, args, tables) -> renewal.RenewalModel:
    """The renewal model as a ``model`` stage with its convergence record."""
    with em.timed("model") as sizes:
        model = renewal.build_model(args.p, args.Nmax, args.gamma,
                                    tables=tables)
        sizes.update(tail_mass=model.tail_mass, root_shift=model.root_shift,
                     alpha_residual=model.alpha_residual)
    return model


def _moments_stage(em: Emitter, args, Nmax: int, no_compute: bool = False
                   ) -> tuple[list[moments.MomentTable], dict]:
    """The moment tables as a ``moments`` stage, with the number of
    distinct exponents of each."""
    with em.timed("moments") as sizes:
        tables, cache = _load_moments(args.p, Nmax, args.cache_dir,
                                      no_compute=no_compute, cap=args.cap)
        sizes["exponents"] = [len(m.exponents) for m in tables]
    return tables, cache


# -- subcommands --------------------------------------------------------------------


def cmd_expand(args) -> int:
    em = Emitter(args.out_dir, "expand", _config_dict(args))
    tables, cache = _load_tables(args.p, args.N, args.cache_dir, cap=args.cap,
                                 em=em)
    entries = []
    for table in tables:
        path = expansion.cache_path(args.cache_dir, args.p, table.N)
        entries.append({"N": table.N, "terms": len(table.coeffs),
                        "cache_file": os.path.basename(path),
                        "sha256": moments.file_sha256(path)})
    em.json("expand_summary.json",
            {"p": args.p, "N": args.N, "tables": entries})
    em.manifest(extra={"cache": cache})
    return 0


def cmd_norms(args) -> int:
    em = Emitter(args.out_dir, "norms", _config_dict(args))
    tables, cache = _moments_stage(em, args, args.Nmax)
    with em.timed("norms"):
        C = renewal.norms_from_tables(tables, args.gamma)
    em.csv("norms.csv", ["N", "C_N"],
           [(n, C[n]) for n in range(1, args.Nmax + 1)])
    em.manifest(extra={"cache": cache})
    return 0


def cmd_renewal(args) -> int:
    em = Emitter(args.out_dir, "renewal", _config_dict(args))
    tables, cache = _moments_stage(em, args, args.Nmax)
    model = _model_stage(em, args, tables)
    model.require_converged(args.override_unconverged)
    u = model.renewal_sequence(args.Nmax)
    em.csv("renewal.csv", ["n", "alpha_n", "p_n", "u_n"],
           [(n, model.alpha[n - 1], model.pn[n - 1], u[n])
            for n in range(1, args.Nmax + 1)])
    em.json("renewal_summary.json", {
        "r": model.r, "mu": model.mu, "tail_mass": model.tail_mass,
        "c_sub": model.c_sub, "alpha_residual": model.alpha_residual,
        "root_shift": model.root_shift, "converged": not model.unconverged,
    })
    em.manifest(extra={"cache": cache})
    return 0


def cmd_corr(args) -> int:
    em = Emitter(args.out_dir, "corr", _config_dict(args))
    tables, cache = _moments_stage(em, args, max(args.Nmax, args.N or 0),
                                   no_compute=args.no_compute)
    model = _model_stage(em, args, tables[:args.Nmax])
    model.require_converged(args.override_unconverged)
    with em.timed("rods"):
        rods = correlations.rod_expectations(tables[:args.Nmax], args.gamma)
    override = args.override_unconverged

    with em.timed("occupations"):
        occ_inf = correlations.occupation_infinite(model, rods,
                                                   override=override)
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
        u = model.renewal_sequence(kmax // args.p + 1)
        pair_rows = []
        for l in range(kmax + 1):
            pc = correlations.pair_infinite(model, rods, 0, l,
                                            override=override, occ=occ_inf,
                                            u=u)
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
        report = correlations.period_test(model, rods, override=override)
    em.json("period.json", {
        "period": report.period, "margin": report.margin,
        "used": report.used, "tolerance": report.tolerance,
        "deviations": list(report.deviations),
    })
    em.manifest(extra={"cache": cache})
    return 0


def cmd_ham(args) -> int:
    em = Emitter(args.out_dir, "ham", _config_dict(args))
    params = ModelParams(args.p, args.N, args.gamma)
    ground = total_momentum(args.p, args.N)
    momentum = ground if args.momentum is None else args.momentum
    cap = args.cap if args.cap is not None else hamiltonian.DEFAULT_SECTOR_CAP
    with em.timed("sector") as sizes:
        basis = hamiltonian.sector_basis(params, momentum=momentum, cap=cap)
        sizes["dim"] = basis.dim
    build = hamiltonian.build_H(params, basis=basis)
    em.stage("pair_assembly", build.seconds["pair"], nnz=build.pair.nnz)
    em.stage("bond_assembly", build.seconds["bond"], nnz=build.bond.nnz)
    # The monomer-dimer state and the perturbation series live in the
    # ground sector; reuse its basis and H when that is the sector built.
    in_ground = momentum == ground
    doc: dict = {
        "p": args.p, "N": args.N, "gamma": args.gamma,
        "momentum": momentum, "dim": basis.dim,
        "build_deviation": build.deviation,
    }
    failed = False
    extra = {}
    if args.check_ground_state or args.perturbation_order is not None:
        tables, extra["cache"] = _load_tables(args.p, args.N, args.cache_dir,
                                              cap=args.cap)
        amp = expansion.amplitudes(tables[args.N - 1], args.gamma)

    if args.spectrum:
        count = min(args.spectrum, basis.dim)
        with em.timed("spectrum"):
            doc["spectrum"] = list(hamiltonian.spectrum(build.H, count=count,
                                                        seed=args.seed))

    if args.check_ground_state:
        psi = hamiltonian.exact_vector(basis, amp)
        with em.timed("ground_check"):
            report = hamiltonian.ground_check(build.H, psi)
        ok = report.residual < 1e-8 and report.kernel_dim == 1
        doc["ground_state"] = {
            "residual": report.residual, "kernel_dim": report.kernel_dim,
            "min_eigenvalue": report.min_eigenvalue, "passed": ok,
        }
        failed = failed or not ok

    if args.monomer_dimer:
        md_basis = basis if in_ground else hamiltonian.sector_basis(
            params, momentum=ground, cap=cap)
        md = hamiltonian.build_monomer_dimer(params, basis=md_basis)
        report = hamiltonian.ground_check(md.H, md.psi)
        ok = report.residual < 1e-10 and md.deviation < 1e-12
        doc["monomer_dimer"] = {
            "residual": report.residual, "kernel_dim": report.kernel_dim,
            "build_deviation": md.deviation, "num_terms": md.num_terms,
            "passed": ok,
        }
        failed = failed or not ok

    if args.perturbation_order is not None:
        report = hamiltonian.perturbation_series(
            params, args.perturbation_order, amp=amp,
            build=build if in_ground else None)
        doc["perturbation"] = {
            "order": args.perturbation_order,
            "distances": list(report.distances),
            "decreasing": report.decreasing,
        }

    em.json("ham.json", doc)
    em.manifest(extra=extra)
    return 1 if failed else 0


def cmd_mcmc(args) -> int:
    em = Emitter(args.out_dir, "mcmc", _config_dict(args))
    params = ModelParams(args.p, args.N, args.gamma)
    observables = [s.strip() for s in args.observables.split(",") if s.strip()]
    unknown = set(observables) - {"density", "excess", "phase"}
    if unknown:
        raise ConfigError(f"unknown observables: {sorted(unknown)}")
    mc = plasma.McConfig(sweeps=args.sweeps, burn_in=args.burn_in,
                         thinning=args.thinning, seed=args.seed,
                         chains=args.chains)
    with em.timed("sample") as sizes:
        run = plasma.metropolis_run(params, mc)
        sizes["chains"] = args.chains
        sizes["moves"] = run.moves
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
        "passed": not run.pathological and run.rhat_ok,
    }
    extra = {"run": run_info}

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
        with em.timed("phase"):
            tables, extra["cache"] = _load_moments(
                args.p, args.Nmax, args.cache_dir, cap=args.cap)
            model = renewal.build_model(args.p, args.Nmax, args.gamma,
                                        tables=tables)
            model.require_converged(args.override_unconverged)
            rods = correlations.rod_expectations(tables, args.gamma)
            occ = correlations.occupation_infinite(
                model, rods, override=args.override_unconverged)
            prof = plasma.phase_profile(pooled, params, occ)
        centers = 0.5 * (prof.edges[:-1] + prof.edges[1:])
        em.csv("phase.csv",
               ["phase_center", "observed", "predicted", "stderr"],
               zip(centers, prof.observed, prof.predicted, prof.stderr))
        run_info["phase_contrast"] = prof.contrast

    em.manifest(extra=extra)
    return 0 if run_info["passed"] else 1


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



def _verify_checks(args) -> tuple[list[dict], dict]:
    """The cross-module consistency suite behind ``verify-all``, and the
    cache record of the tables it read."""
    p, Nmax, gamma = args.p, args.Nmax, args.gamma
    checks: list[dict] = []

    def record(name: str, measured: float, tol: float, passed: bool,
               note: str = ""):
        checks.append({"name": name, "measured": measured, "tolerance": tol,
                       "passed": bool(passed), "note": note})

    tables, cache = _load_tables(p, Nmax, args.cache_dir, cap=args.cap)
    moment_tables = moments.as_moments(tables)

    worst = 0
    for N in range(2, Nmax + 1):
        report = expansion.verify_product_rule(p, N, tables=tables)
        worst = max(worst, len(report.failures))
    record("product-rule", float(worst), 0.0, worst == 0,
           "cached tables inconsistent across renewal points")

    dev = max(expansion.evaluate_oracle(tables[N - 1])
              for N in range(2, min(4, Nmax) + 1))
    record("expansion-oracle", dev, 0.0, dev == 0.0,
           "exact big-integer evaluation at random points")

    dev = _moments_vs_rows(tables, moment_tables, gamma)
    record("moments-vs-rows", dev, 1e-13, dev <= 1e-13,
           "C_N, alpha_n, rod profiles and pair moments and finite "
           "occupations from the moment tables against sums over the rows")

    model = renewal.build_model(p, Nmax, gamma, tables=moment_tables)
    record("alpha-residual", model.alpha_residual, 1e-12,
           model.alpha_residual <= 1e-12,
           "direct vs recursive irreducible weights")

    act = abs(float(np.polyval(
        np.concatenate(([0.0], np.asarray(model.alpha)))[::-1], model.r)) - 1.0)
    record("activity-equation", act, 1e-10, act <= 1e-10,
           "sum alpha_n r^n = 1 at the solved activity")

    converged = not model.unconverged
    record("tail-converged", model.tail_mass, renewal.TAIL_THRESHOLD,
           converged or args.override_unconverged,
           "rod-size distribution tail below threshold")
    if not converged and not args.override_unconverged:
        return checks, cache

    override = args.override_unconverged
    rods = correlations.rod_expectations(moment_tables, gamma)
    occ_inf = correlations.occupation_infinite(model, rods, override=override)
    dev = abs(float(occ_inf.sum()) - 1.0)
    record("occupation-normalization", dev, 1e-8, dev <= 1e-8,
           "bulk occupations over one period sum to 1")

    occ_fin = correlations.occupation_finite(moment_tables[Nmax - 1], gamma)
    via = correlations.occupation_finite_via_renewal(model, rods, Nmax)
    dev = float(np.max(np.abs(occ_fin - via)))
    record("finite-renewal-match", dev, 1e-10, dev <= 1e-10,
           "finite occupations reassembled from the renewal form")

    dev = float(np.max(np.abs(occ_fin - occ_fin[::-1])))
    record("occupation-reflection", dev, 1e-12, dev <= 1e-12,
           "finite occupations reflection-symmetric")

    k_mid = p * (Nmax // 2)
    eps = correlations.bulk_epsilon(model, rods, Nmax, k_mid)
    dev = abs(occ_fin[k_mid] - occ_inf[k_mid % p])
    record("bulk-epsilon", dev, eps, dev <= eps,
           f"center occupation at N={Nmax} within the bridge-weight bound")

    N_h = min(4, Nmax)
    params = ModelParams(p, N_h, gamma)
    basis = hamiltonian.sector_basis(params,
                                     momentum=total_momentum(p, N_h))
    build = hamiltonian.build_H(params, basis=basis)
    record("build-agreement", build.deviation, 1e-12,
           build.deviation <= 1e-12,
           "quadruple and bond assemblies of the parent Hamiltonian")

    amp_h = expansion.amplitudes(tables[N_h - 1], gamma)
    psi = hamiltonian.exact_vector(basis, amp_h)
    report = hamiltonian.ground_check(build.H, psi)
    record("ground-residual", report.residual, 1e-8,
           report.residual < 1e-8, f"N={N_h} momentum sector")
    record("ground-kernel", float(report.kernel_dim), 1.0,
           report.kernel_dim == 1, "kernel dimension in the sector")

    if p == 3:
        N_md = min(6, Nmax)
        params_md = ModelParams(3, N_md, gamma)
        md = hamiltonian.build_monomer_dimer(
            params_md, basis=hamiltonian.sector_basis(
                params_md, momentum=total_momentum(3, N_md)))
        residual = float(np.linalg.norm(md.H @ md.psi)
                         / np.linalg.norm(md.psi))
        record("monomer-dimer-residual", residual, 1e-10, residual < 1e-10,
               f"N={N_md} tiling state against the truncated Hamiltonian")

        basis_tt = hamiltonian.sector_basis(ModelParams(3, min(3, Nmax),
                                                        gamma))
        htt = hamiltonian.build_HTT(ModelParams(3, min(3, Nmax), gamma),
                                    basis=basis_tt)
        vec = hamiltonian.tao_thouless(ModelParams(3, min(3, Nmax), gamma),
                                       basis_tt)
        res_tt = float(np.linalg.norm(htt @ vec))
        record("thin-torus-zero-mode", res_tt, 1e-12, res_tt <= 1e-12,
               "one-per-rod state annihilated by the diagonal truncation")

        if gamma >= 1.2:
            N_pt = min(3, Nmax)
            rep = hamiltonian.perturbation_series(
                ModelParams(3, N_pt, gamma), 3,
                amp=expansion.amplitudes(tables[N_pt - 1], gamma))
            d = rep.distances
            ok = all(b < a for a, b in zip(d, d[1:]))
            record("perturbation-decreasing", d[-1], d[0], ok,
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
    record("mcmc-excess", z, 4.0, z < 4.0,
           "sampled P(K=0) against the exact two-particle value, in sigma")

    lo, hi = plasma.ACCEPTANCE_BAND
    record("mcmc-chain", abs(run.rhat - 1.0), plasma.RHAT_TOLERANCE,
           run.rhat_ok and not run.pathological,
           f"|split R-hat - 1|; acceptance {fmt(run.acceptance)} "
           f"must lie in [{fmt(lo)}, {fmt(hi)}]")

    est = plasma.density_histogram(
        pooled, np.linspace(-4.0, p * gamma + 4.0, 40), params2)
    crit = 1.63 / math.sqrt(pooled.shape[0] * pooled.shape[1])
    record("mcmc-y-uniform", est.y_ks, crit, est.y_ks < crit,
           "Kolmogorov-Smirnov distance of the angular marginal")
    return checks, cache


def cmd_verify(args) -> int:
    em = Emitter(args.out_dir, "verify", _config_dict(args))
    checks, cache = _verify_checks(args)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: measured {fmt(c['measured'])} "
              f"(tolerance {fmt(c['tolerance'])})")
    all_ok = all(c["passed"] for c in checks)
    em.json("verify.json", {"passed": all_ok, "checks": checks})
    em.manifest(extra={"cache": cache})
    return 0 if all_ok else 1


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
    for attr, least in (("N", 1), ("Nmax", 1), ("kmax", 0), ("spectrum", 1)):
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
        print(f"error: {exc} (pass --override-unconverged to proceed)",
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
