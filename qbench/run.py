#!/usr/bin/env python3
"""Builds qbench from source and runs one workload of the QFix benchmark.

Run from the repository root:

    python3 qbench/run.py \
        --workload <synthetic_solve|oltp_walkback|serve_ingest> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds qbench (the library modules under
src/ plus the benchmark program in qbench/) in Release into
.bench_build/qbench, which takes about a minute on 4 cores; later runs
only bring that build up to date. Build output goes to stderr. The
standard output is qbench's, whose last line is the result object.
Before passing that line on, this script checks that its metric names
are exactly the ones BENCHMARK.json lists for the mode, so the two
cannot drift apart.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbench")


def build():
    """Configures (once) and builds qbench; returns True on success."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD, "--target", "qbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if not build():
        print("qbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.run([os.path.join(BUILD, "qbench")] + argv,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        trace = argv[argv.index("--trace") + 1] == "1"
        names = set(result["metrics"])
    except (ValueError, KeyError, IndexError) as e:
        sys.stdout.write(proc.stdout)
        print(f"qbench: unreadable result line: {e}", file=sys.stderr)
        return 1
    want = expected_metrics(trace)
    if names != want:
        print("\n".join(lines[:-1]))
        print(f"qbench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - names)}, extra {sorted(names - want)}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
