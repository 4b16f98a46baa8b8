#!/usr/bin/env python3
"""Build and run the detector benchmark.

    python3 perfbench/run.py --workload stencil|replay|daemon \
        --seed N --seconds S --trace 0|1

Run from the root of the repository.  Builds perfbench/main.exe with dune
(build output goes to stderr), runs it, checks that its result line names
exactly the metrics BENCHMARK.json lists for the chosen mode, and passes
its output through.  Exits non-zero, without a result line, when the
repository, the build, the run or the result is not as expected.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument %r" % flag)
        try:
            opts[flag[2:]] = next(it)
        except StopIteration:
            fail("missing value for " + flag)
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in opts:
            fail("missing --" + key)
    if opts["trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return opts


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = {w["name"] for w in bench["workloads"]}
    key = "per_layer" if trace == "1" else "end_to_end"
    return names, {m["name"]: m["unit"] for m in bench[key]}


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = find_dune() + ["build", "--root", ".", "./perfbench/main.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (exit %d)" % proc.returncode, 1)


def check_result(line, units):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(result["failed"], int):
        return "failed must be an integer"
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        return "metric names differ: missing %s, extra %s" % (missing, extra)
    for name, m in metrics.items():
        if m.get("unit") != units[name]:
            return "unit of %s is %r, BENCHMARK.json says %r" % (name, m.get("unit"), units[name])
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return "value of %s is not a finite number" % name
    return None


def main():
    opts = parse_args(sys.argv[1:])
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run from the repository root: dune-project, lib/ or perfbench/dune missing")
    workloads, units = expected_metrics(opts["trace"])
    if opts["workload"] not in workloads:
        fail("unknown workload %r (have %s)" % (opts["workload"], sorted(workloads)))
    build()
    cmd = [EXE, "--workload", opts["workload"], "--seed", opts["seed"],
           "--seconds", opts["seconds"], "--trace", opts["trace"]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = out.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body))
    if proc.returncode != 0:
        fail("benchmark exited %d" % proc.returncode, 1)
    problem = check_result(last, units)
    if problem:
        print(last, file=sys.stderr)
        fail("bad result line: " + problem, 1)
    print(last, flush=True)


if __name__ == "__main__":
    main()
