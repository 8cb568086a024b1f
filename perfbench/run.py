#!/usr/bin/env python3
"""Repository benchmark: loopback RPC workloads on rpc::EventServerRuntime.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus the benchmark program) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload (echo_bulk_udp, echo_small_tcp or kv_mixed) for S seconds.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones, with the
names, units and order BENCHMARK.json declares; the program must report
exactly those names.  --inject reply|shadow|refuse plants a fault the
correctness gate must catch.  Exit status 0 means every call was answered,
every reply checked out and the books balanced.  perfbench/README.md describes the workloads, the
metrics and how a run is measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then brings the build up to date (a no-op when it is)."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def check_environment(info, workload):
    path = os.path.join(HERE, "expected_env.json")
    with open(path) as f:
        expected = json.load(f)
    want = dict(expected["all"])
    want.update(expected.get(workload, {}))
    for key, value in want.items():
        if info.get(key) != value:
            log(f"warning: {key} is {info.get(key)!r}, the benchmark records "
                f"{value!r} (perfbench/expected_env.json)")


def with_units(result, trace):
    """Gives each reported metric the unit BENCHMARK.json declares for it,
    in the declared order; None when the names differ."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    want = [m["name"] for m in declared]
    if set(want) != set(got):
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
        return None
    result["metrics"] = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                         for m in declared}
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--inject", choices=["reply", "shadow", "refuse"])
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        log(f"no result (exit {proc.returncode})")
        return proc.returncode or 3
    info = json.loads(lines[-2])["info"]
    result = with_units(json.loads(lines[-1]), args.trace == 1)
    if result is None:
        return 3
    check_environment(info, args.workload)
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
