#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One workload, as BENCHMARK.json's command runs it (the last stdout line is
one JSON result):

    python3 perfbench/run.py --workload stream --seed 7 --seconds 10 --trace 0

Every workload, printing each end-to-end metric by name with its unit:

    python3 perfbench/run.py --all [--seconds 10] [--trace 0|1]

Steadiness: repeat the whole benchmark over seeds 1..N, per workload, metric
and set print median, quartiles and spread (IQR / median); every set's spread
is checked against the bound in BENCHMARK.json, and with --sets 2 the second
set's median against the first's:

    python3 perfbench/run.py --steadiness --runs 10 [--sets 2]

The benchmark is built from source with dune, in the checkout's _build, with
dune's shared cache off so that the build reads and writes only the checkout.
Exit codes: 0 ok, 1 an output check failed (or steadiness out of bounds),
2 usage error, 3 the build failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["stream", "observed"]
PER_RUN_TIMEOUT = 170


def build():
    """Build main.exe; dune's output goes to stderr so stdout stays clean."""
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT,
            env={**os.environ, "DUNE_CACHE": "disabled"},
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if proc.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_one(workload, seed, seconds, trace, echo):
    """Run main.exe once; returns (exit code, parsed last-line JSON or None)."""
    args = [EXE, "--workload", workload, "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    try:
        proc = subprocess.run(
            args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PER_RUN_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def load_bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def all_mode(a):
    """Every workload once; a summary table of the metrics by name."""
    failed = False
    summary = []
    for w in WORKLOADS:
        code, result = run_one(w, a.seed, a.seconds, a.trace, echo=a.verbose)
        if code != 0 or result is None:
            failed = True
        summary.append((w, code, result))
    for w, code, result in summary:
        ok = code == 0 and result is not None and result["correct"]
        print(f"== {w}: {'ok' if ok else 'FAILED (exit %d)' % code}")
        if result is None:
            continue
        frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
        print(f"  {'failed_frac':<28} {frac:>18.6f} ratio")
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {m['value']:>18.6f} {m['unit']}")
    return 1 if failed else 0


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness_mode(a):
    """Repeat the benchmark over seeds; report per-metric spread."""
    bounds = load_bounds()
    seeds = list(range(1, a.runs + 1))
    # sets[k][workload][metric] -> list of values, in seed order
    sets = []
    bad = False
    for k in range(a.sets):
        values = {}
        for w in WORKLOADS:
            for seed in seeds:
                code, result = run_one(w, seed, a.seconds, a.trace, echo=False)
                if code != 0 or result is None:
                    print(f"perfbench: {w} seed {seed} failed (exit {code})", file=sys.stderr)
                    bad = True
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault(w, {}).setdefault(name, []).append(m["value"])
                print(f"set {k + 1} {w} seed {seed}: ok", file=sys.stderr, flush=True)
        sets.append(values)
    for w in WORKLOADS:
        print(f"== {w} (seeds 1-{a.runs}, {a.seconds} s, trace {a.trace})")
        print(f"  {'metric':<28} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  vs set 1")
        # Each set's spread is checked against the bound, and each later
        # set's median against the first set's.
        for name in sets[0].get(w, {}):
            bound = bounds.get(name, {}).get("bound")
            better = bounds.get(name, {}).get("better")
            med1 = None
            for k, values in enumerate(sets):
                vals = values.get(w, {}).get(name, [])
                if len(vals) < 2:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
                line = (f"  {name if k == 0 else '':<28} {k + 1:>3} {med:>14.6g} {q1:>14.6g} "
                        f"{q3:>14.6g} {spread:>8.4f} {bound if bound is not None else '-':>6}")
                flag = ""
                if bound is not None and spread > bound:
                    flag += " SPREAD>BOUND"
                    bad = True
                if bound is not None and spread > bound / 3:
                    flag += " (over a third of the bound)"
                if med1 is None:
                    med1 = med
                else:
                    change = (med - med1) / abs(med1) if med1 else 0.0
                    line += f"  {change:+.4f}"
                    worse = change if better == "lower" else -change
                    if bound is not None and worse > bound:
                        flag += " WORSE-THAN-SET-1"
                        bad = True
                print(line + flag)
                if a.verbose:
                    print("        " + " ".join(f"{v:.6g}" for v in vals))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--verbose", action="store_true", help="echo each run; list each set's values")
    p.add_argument("--steadiness", action="store_true", help="repeat over seeds")
    p.add_argument("--runs", type=int, default=10, help="seeds per workload")
    p.add_argument("--sets", type=int, default=1, help="independent sets of runs")
    a = p.parse_args()
    if a.runs < 2 or a.sets < 1:
        p.error("bad --runs or --sets")
    if a.seconds == int(a.seconds):
        a.seconds = int(a.seconds)
    if not (a.all or a.steadiness or a.workload):
        p.error("give --workload, --all or --steadiness")
    if not build():
        return 3
    if a.steadiness:
        return steadiness_mode(a)
    if a.all:
        return all_mode(a)
    code, _ = run_one(a.workload, a.seed, a.seconds, a.trace, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
