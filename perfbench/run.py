#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library and the perfbench binary under .bench_build/ (a minute on four cores); later
runs only re-check the build. The last line of standard output is the JSON
result of the perfbench binary. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def build():
    """Configures once and (re)builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "deployment.h")):
        sys.stderr.write("perfbench: library sources (src/) not found under %s\n" % ROOT)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.isfile(BINARY)


def run_binary(workload, seed, seconds, trace, echo=True):
    """Runs the perfbench binary once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1, []
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def self_test():
    """Same-seed determinism, metric names and per-mode metric sets."""
    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    spec = load_json("spec.json")
    host_timed = set(spec["host_timed"])
    problems = []
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if set(spec["moves"]) != set(declared[1]):
        problems.append("spec.json moves do not match per_layer: %s"
                        % sorted(set(spec["moves"]) ^ set(declared[1])))
    for names in declared.values():
        problems += ["bad metric name %r" % n for n in names if not NAME_RE.match(n)]
    for name, workload in spec["workloads"].items():
        seed = workload["default_seed"]
        results, rep_lines = [], []
        for trace in (1, 1, 0):
            code, lines = run_binary(name, seed, 1, trace, echo=False)
            if code != 0 or not lines:
                problems.append("%s trace=%d exited %d" % (name, trace, code))
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s trace=%d emits %s, declares %s" % (
                    name, trace, sorted(got.items()), sorted(declared[trace].items())))
            if trace == 1:
                results.append(result["metrics"])
                rep_lines.append([re.sub(r" setup_s=.*", "", l)
                                  for l in lines if l.startswith("rep ")])
        if len(results) == 2:
            for metric in declared[1]:
                if metric in host_timed:
                    continue
                a, b = results[0][metric]["value"], results[1][metric]["value"]
                if json.dumps(a) != json.dumps(b):
                    problems.append("%s: %s differs between same-seed runs: %r vs %r"
                                    % (name, metric, a, b))
            if rep_lines[0] != rep_lines[1]:
                problems.append("%s: fingerprints differ between same-seed runs" % name)
        print("self-test %s: %s" % (name, "done" if len(results) == 2 else "FAILED"))
    for p in problems:
        print("PROBLEM: " + p)
    print("self-test %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    if args.self_test:
        return self_test()
    spec = load_json("spec.json")
    if args.workload not in spec["workloads"]:
        parser.error("--workload must be one of %s" % ", ".join(spec["workloads"]))
    seed = args.seed
    if seed is None:
        seed = spec["workloads"][args.workload]["default_seed"]
    seconds = args.seconds
    if seconds is None:
        seconds = load_json(os.path.join("..", "BENCHMARK.json"))["run_seconds"]
    code, _ = run_binary(args.workload, seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
