#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <cold_pipeline|em_reproduce|serve> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The package (perfbench/CMakeLists.txt,
which compiles ../src) is configured and built into .bench_build/cmake;
build output goes to stderr so that the last line on stdout is the
benchmark's JSON result. Generated inputs and span files go under
.bench_build/out. The exit code is the benchmark's: non-zero when the
build fails or an output check fails.

--workload all runs every workload untraced and then traced, one after
the other, and fails if any of those runs fails.

--self-test builds the same package and runs perfbench_selftest: the
quartile arithmetic, the BENCHMARK.json/ledger.json schema agreement,
and the delay-injection check that the per-layer ledger names the layer
a slowdown was injected into.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold_pipeline", "em_reproduce", "serve")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
OUT = os.path.join(ROOT, ".bench_build", "out")
# Compiler and benchmark temporaries stay inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def build():
    """Configures (once) and builds the benchmark binaries; True on success."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    os.makedirs(TMP, exist_ok=True)
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=ENV, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test:
        if None in (args.workload, args.seed, args.seconds):
            parser.error("--workload, --seed and --seconds are required")
        if args.workload != "all" and args.trace is None:
            parser.error("--trace is required")

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        commands = [[os.path.join(BUILD, "perfbench_selftest"), ROOT, OUT]]
    else:
        runs = ([(w, t) for w in WORKLOADS for t in ("0", "1")]
                if args.workload == "all" else [(args.workload, args.trace)])
        commands = [[os.path.join(BUILD, "perfbench"),
                     "--workload", workload, "--seed", str(args.seed),
                     "--seconds", repr(args.seconds), "--trace", trace,
                     "--out-dir", OUT] for workload, trace in runs]
    status = 0
    for command in commands:
        sys.stdout.flush()
        code = subprocess.run(command, cwd=ROOT, env=ENV).returncode
        if code != 0:
            status = code if code > 0 else 1  # negative: killed by a signal
    return status


if __name__ == "__main__":
    sys.exit(main())
