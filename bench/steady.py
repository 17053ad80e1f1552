"""Steadiness of the benchmark: two interleaved sets of runs of one commit.

    python3 bench/steady.py --runs 10

Runs the command of BENCHMARK.json on every workload as A1 B1 A2 B2 ...,
each run with its own seed (set A: 1..runs, set B: 101..100+runs), from the root of the
checkout.  For each workload and end-to-end metric it prints every
set's median, quartiles and spread (interquartile distance over the
median), whether the spread stays within the metric's bound and below
a third of it, and whether set B's median is no
worse than set A's by more than the bound.  The share of failed
operations must be the same in both sets.  Every run's result, with
the host record it printed (with the run's median host-probe time, see
probe.py), goes to bench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace=0) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:"
                           f"\n{done.stderr}")
    result = json.loads(lines[-1])
    host = json.loads(lines[-2])["host"] if len(lines) > 1 else None
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed,
            "host": host, "result": result, "stderr": done.stderr}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []
    for r in range(args.runs):
        for s in range(2):
            for w in workloads:
                rec = run_once(spec, w, 1 + r + 100 * s)
                rec["set"] = "AB"[s]
                runs.append(rec)
                res = rec["result"]
                vals = " ".join(f"{k}={v['value']:.4g}"
                                for k, v in res["metrics"].items())
                print(f"{rec['set']} {w} seed {rec['seed']}: correct "
                      f"{res['correct']} {res['failed']}/{res['attempted']} "
                      f"failed, {vals} ({rec['elapsed_s']:.1f} s, probe "
                      f"{1e3 * rec['host']['probe_s']:.1f} ms)", flush=True)

    ok = True
    report = []
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        shares = {}
        for s in "AB":
            res = [r["result"] for r in mine if r["set"] == s]
            shares[s] = (sum(x["failed"] for x in res),
                         sum(x["attempted"] for x in res))
            if not all(x["correct"] for x in res):
                ok = False
                print(f"{w} set {s}: a run reported incorrect output")
        (fa, aa), (fb, ab) = shares["A"], shares["B"]
        same = fa * ab == fb * aa
        ok &= same
        print(f"{w}: failed share A {fa}/{aa}, B {fb}/{ab}"
              f" -> {'same' if same else 'DIFFERENT'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {}
            for s in "AB":
                vals = [r["result"]["metrics"][name]["value"] for r in mine
                        if r["set"] == s and name in r["result"]["metrics"]]
                if len(vals) >= 2:
                    sets[s] = summarise(vals) | {"values": vals}
            if len(sets) < 2:
                continue
            line = f"{w:12s} {name:12s}"
            for s, st in sets.items():
                within = st["spread"] <= bound
                ok &= within
                line += (f" | {s} median {st['median']:.5g} q1 {st['q1']:.5g}"
                         f" q3 {st['q3']:.5g} spread {st['spread']:.3f}"
                         f"{'' if within else ' OVER BOUND'}"
                         f"{' (< bound/3)' if st['spread'] < bound / 3 else ''}")
            shift = worse_by(metric, sets["A"]["median"], sets["B"]["median"])
            agree = shift <= bound
            ok &= agree
            line += (f" | B worse by {shift:+.3f} (bound {bound})"
                     f" -> {'agree' if agree else 'DISAGREE'}")
            print(line)
            report.append({"workload": w, "metric": name, "bound": bound,
                           "sets": sets})
    probes = [r["host"]["probe_s"] for r in runs]
    print(f"drift probe: median {1e3 * statistics.median(probes):.1f} ms, "
          f"range {1e3 * min(probes):.1f}-{1e3 * max(probes):.1f} ms")
    mean_elapsed = {w: statistics.mean(r["elapsed_s"] for r in runs
                                       if r["workload"] == w)
                    for w in workloads}
    total = sum(22 * t for t in mean_elapsed.values()) \
        + 4 * max(mean_elapsed.values())
    print("mean seconds per run: " + ", ".join(
        f"{w} {t:.1f}" for w, t in mean_elapsed.items())
          + f"; 4 + 22 x {len(workloads)} runs take about {total:.0f} s")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump({"runs": runs, "summary": report, "ok": ok}, fh, indent=1)
    print(f"{'steady' if ok else 'NOT steady'}; runs in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
