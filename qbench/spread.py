#!/usr/bin/env python3
"""Runs sets of benchmark runs and judges their steadiness against
the bounds in BENCHMARK.json.

Run from the repository root:

    python3 qbench/spread.py [--sets 2] [--runs 10] [--trace]

Each set runs every workload of BENCHMARK.json --runs times, each run
with its own seed (set s, run i uses seed 1000 + 1000 * s + i), through
the command in BENCHMARK.json. For every end-to-end metric it prints
each set's median and its quartile spread, (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4), against the metric's
bound; then whether the later sets' medians stay within the bound of
the first set's, and whether the share of failed operations is the
same in every set. With --trace it runs the per-layer mode instead and
prints medians only. Raw results go to .bench_build/spread-<time>.json, rewritten after
every run. Exits 1 if a run fails or reports incorrect outputs, or a
judged check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASE_SEED = 1000


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]))
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    result["wall_s"] = wall
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    out = os.path.join(ROOT, ".bench_build",
                       time.strftime("spread-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    raw = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = BASE_SEED + 1000 * s + i
                r = run_once(spec, w, seed, args.trace)
                runs.append(r)
                raw[w] = sets + [runs]
                with open(out, "w") as f:
                    json.dump(raw, f)
                print(f"  {w} set {s} seed {seed}: {r['wall_s']:.1f}s wall,"
                      f" {r['failed']}/{r['attempted']} failed",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        raw[w] = sets
        print(f"\n{w}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            ok = False
        print(f"  failed share: {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  DIFFERS'}")
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"  run wall: median {statistics.median(walls):.1f}s,"
              f" max {max(walls):.1f}s")
        for m in metrics:
            name = m["name"]
            cells, medians = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                if len(vals) >= 2:
                    med, sp = spread(vals)
                else:
                    med, sp = vals[0], 0.0
                medians.append(med)
                cells.append(f"{med:12.5g} ±{sp:6.1%}")
                bound = m.get("bound")
                if bound is not None and sp > bound:
                    ok = False
                    cells[-1] += " SPREAD>BOUND"
            line = f"  {name:26s}" + "  ".join(cells)
            if "bound" in m:
                line += f"  bound {m['bound']:.0%}"
                for later in medians[1:]:
                    first = medians[0]
                    worse = ((later - first) if m["better"] == "lower"
                             else (first - later))
                    if first and worse / first > m["bound"]:
                        ok = False
                        line += "  MEDIAN DRIFT"
            print(line)
    print(f"\nraw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
