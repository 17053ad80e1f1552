"""Benchmark of the laughlin pipeline, one workload per run.

    python3 bench/run.py --workload expand-cold --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
its ``src`` directory.  After set-up it runs whole passes of the
workload until ``--seconds`` have elapsed, checks every output, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` passes alternate between untraced and traced, and the
metrics are per-layer self times and counts per traced pass, beside
the tracing overhead.  A line before it records the host.  The spans
and every check go to ``bench/results/``.
"""

import os
import sys
import time

T0 = time.perf_counter()

# String hashing is randomised per process by default, and with it the
# heap layout: the ham-sector peak RSS moved by 8 % between hash seeds.
# A fixed seed removes that source of spread.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv],
              dict(os.environ, PYTHONHASHSEED="0"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")
# Set-ups are repeated in child processes until there are at least
# SETUP_MIN of them and SETUP_TOTAL_S seconds of set-up in all, so that a
# 0.4 s set-up is sampled as steadily as a 9 s one.
SETUP_MIN, SETUP_MAX, SETUP_TOTAL_S = 3, 9, 4.0


def _layer_targets():
    """(module, function, timed, size hook) for every traced call."""
    def terms(counters, args, kwargs, tables):
        counters["expansion.terms"] += sum(len(t) for t in tables)
        bits = max(abs(c).bit_length() for t in tables for c in t.coeffs.values())
        counters["expansion.max_coeff_bits"] = max(
            counters["expansion.max_coeff_bits"], bits)

    def sector(counters, args, kwargs, basis):
        counters["hamiltonian.sector_dim"] += basis.dim

    def nnz(counters, args, kwargs, build):
        counters["hamiltonian.nnz"] += build.H.nnz

    def moves(counters, args, kwargs, result):
        params, mc, _, _, n_keep = args
        counters["plasma.moves"] += (mc.burn_in + n_keep * mc.thinning) * params.N

    L = "laughlin."
    return [
        (L + "cli", "main", True, None),
        (L + "expansion", "expand_all", True, terms),
        (L + "expansion", "save_cache", True, None),
        (L + "expansion", "load_cache", True, None),
        (L + "expansion", "amplitudes", True, None),
        (L + "renewal", "build_model", True, None),
        (L + "renewal", "irreducible_weights", True, None),
        (L + "renewal", "norms_from_tables", True, None),
        (L + "correlations", "rod_expectations", True, None),
        (L + "correlations", "pair_infinite", True, None),
        (L + "correlations", "occupation_infinite", False, None),
        (L + "correlations", "occupation_finite", True, None),
        (L + "correlations", "period_test", True, None),
        (L + "hamiltonian", "sector_basis", True, sector),
        (L + "hamiltonian", "build_H", True, nnz),
        (L + "hamiltonian", "spectrum", True, None),
        (L + "hamiltonian", "ground_check", True, None),
        (L + "hamiltonian", "perturbation_series", True, None),
        (L + "hamiltonian", "build_monomer_dimer", True, None),
        (L + "plasma", "metropolis_run", True, None),
        (L + "plasma", "_run_chain", False, moves),
        (L + "plasma", "measure_excess", True, None),
        (L + "plasma", "density_histogram", True, None),
        (L + "plasma", "phase_profile", True, None),
    ]


def _host() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "loadavg": list(os.getloadavg()),
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="prepare inputs, print the set-up time, and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _setup_in_child(args) -> float:
    """One more set-up, from a fresh interpreter, timed inside it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _layer_metrics(wl, tracer, times, at_ref, factors, traced,
                   artifact_bytes):
    """Per traced pass: self times, calls and sizes; the tracing overhead.

    Self times are as measured; the traced wall time is read outside
    the spans, so what they leave of it shows in ``trace.unaccounted_s``.
    The overhead compares traced and untraced passes at the reference host
    speed, since the host's drift between two passes would swamp it.
    """
    n = len(traced)
    untraced = [i for i in range(len(times)) if i not in traced]
    own = tracer.self_times()
    incl = tracer.inclusive_times()
    out = {}
    for modname, attr, timed, _ in _layer_targets():
        name = f"{modname.rsplit('.', 1)[-1]}.{attr}"
        if timed:
            out[f"{name}.self_s"] = own.get(name, 0.0) / n
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / n
    for key, value in tracer.counters.items():
        out[key] = value if key.endswith("_bits") else value / n
    out.setdefault("expansion.max_coeff_bits", 0.0)
    for key in ("expansion.terms", "hamiltonian.sector_dim",
                "hamiltonian.nnz", "plasma.moves"):
        out.setdefault(key, 0.0)
    t_exp = incl.get("expansion.expand_all", 0.0)
    out["expansion.terms_per_s"] = (out["expansion.terms"] * n / t_exp
                                    if t_exp else 0.0)
    moves = out["plasma.moves"] * n
    t_mc = incl.get("plasma.metropolis_run", 0.0)
    out["plasma.us_per_move"] = t_mc / moves * 1e6 if moves else 0.0
    out["cli.artifact_bytes"] = artifact_bytes / n
    wall = statistics.mean(times[i] for i in traced)
    out["bench.remainder.self_s"] = own.get("bench.pass", 0.0) / n
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = statistics.mean(times[i] for i in untraced)
    out["trace.overhead_s"] = (statistics.mean(at_ref[i] for i in traced)
                               - statistics.mean(at_ref[i] for i in untraced))
    out["trace.spans"] = len(tracer.spans) / n
    out["trace.unaccounted_s"] = wall - sum(own.values()) / n
    # layers a workload leaves idle read 0
    out.update({"plasma.ess": 0.0, "plasma.ess_per_s": 0.0,
                "plasma.acceptance": 0.0, "plasma.rhat": 0.0})
    out.update(wl.layer_metrics(traced, factors))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "laughlin", "__init__.py")):
        print(f"error: no laughlin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import laughlin
    if not os.path.abspath(laughlin.__file__).startswith(SRC + os.sep):
        print(f"error: laughlin imported from {laughlin.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import checks as ck
    from probe import REFERENCE_S, host_probe
    from tracing import Tracer
    from workloads import WORKLOADS, dir_bytes

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    host = _host()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer() if args.trace else None
        targets = _layer_targets()
        times, traced = [], []    # raw pass seconds; indices of traced passes
        attempted = 0
        artifact_bytes = 0
        probes = [host_probe()]
        start = time.perf_counter()
        index = 0
        while True:
            tracing = tracer is not None and index % 2 == 1
            if tracing:
                tracer.install(targets)
            t0 = time.perf_counter()
            if tracing:
                root = tracer.begin("bench.pass")
            attempted += wl.run_pass(index)
            if tracing:
                tracer.end(root)
            times.append(time.perf_counter() - t0)
            if tracing:
                tracer.uninstall()
                traced.append(index)
                artifact_bytes += sum(dir_bytes(d)
                                      for d in wl.artifact_dirs(index))
            probes.append(host_probe())
            index += 1
            if (time.perf_counter() - start >= args.seconds
                    and (tracer is None or traced)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        factors = [(a + b) / 2 / REFERENCE_S for a, b in zip(probes, probes[1:])]
        at_ref = [t / f for t, f in zip(times, factors)]

        if tracer is None:
            setups = [setup_s]
            while len(setups) < SETUP_MAX and (len(setups) < SETUP_MIN
                                               or sum(setups) < SETUP_TOTAL_S):
                setups.append(_setup_in_child(args))
            e2e = {
                "wall_s": statistics.median(at_ref),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {m["name"]: (e2e[m["name"]], m["unit"])
                       for m in spec["end_to_end"]}
        else:
            layer = _layer_metrics(wl, tracer, times, at_ref, factors, traced,
                                   artifact_bytes)
            metrics = {m["name"]: (layer[m["name"]], m["unit"])
                       for m in spec["per_layer"]}

        checks = ck.Checks()
        wl.check(checks)
        if tracer is not None:
            ck.check_trace(checks, sum(times[i] for i in traced),
                           tracer.self_times())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    host["probe_s"] = statistics.median(probes)
    record = {
        "host": host, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "pass_s": times, "traced_passes": traced,
        "probe_s": probes, "pass_s_at_reference": at_ref,
        "setup_s": setups if tracer is None else [setup_s],
        "checks": checks.results, "details": wl.details(),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(RESULTS, tag + ".spans.json"), "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    for name, ok, measured in checks.failures():
        print(f"check failed: {name} ({measured})", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": checks.ok,
        "attempted": attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
