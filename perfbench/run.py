#!/usr/bin/env python3
"""End-to-end keyword-query benchmark: build, run, report.

Run from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --self-test                      # answer-check test

Builds perfbench/ (a CMake project that compiles the library from src/) into
.bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that is set,
then runs the xk_perfbench program. Everything the run writes (build tree,
temporary files, page files of the disk backend, span dumps) stays under that
build directory. The last line of standard output is the run's JSON result;
the exit code is not 0 when the build or the run fails, and then no result is
printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["interactive", "serve_socket", "export_disk"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Environment overrides the library honours that would change what is
# measured (storage backend, pool size, kernel ISA); the benchmark sets
# these itself.
DROPPED_ENV = ["XK_STORAGE_BACKEND", "XK_BUFFER_POOL_BYTES", "XK_FORCE_SCALAR_KERNELS"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def paths():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    return bench_dir, build_dir


def child_env(build_dir):
    env = dict(os.environ)
    for key in DROPPED_ENV:
        env.pop(key, None)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def run_step(cmd, env, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return done.returncode == 0


def build(targets):
    bench_dir, build_dir = paths()
    os.makedirs(build_dir, exist_ok=True)
    env = child_env(build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_step(cmd, env, BUILD_TIMEOUT_S):
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1), "--target"] + targets
    if not run_step(cmd, env, BUILD_TIMEOUT_S):
        return None
    return build_dir


def run_workload(build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    data_dir = os.path.join(build_dir, "data")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "xk_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", data_dir, "--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, env=child_env(build_dir), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        sys.stderr.write(out)
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log(f"{workload}: exit code {done.returncode}")
        return done.returncode, None
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as e:
        sys.stderr.write(done.stdout)
        log(f"{workload}: last line is not a result ({e})")
        return 1, None
    print("\n".join(lines[:-1]))
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the answer-check test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if args.self_test:
        build_dir = build(["perfbench_checks_test"])
        if build_dir is None:
            return 1
        return subprocess.run([os.path.join(build_dir, "perfbench_checks_test")],
                              env=child_env(build_dir), timeout=RUN_TIMEOUT_S,
                              check=False).returncode

    build_dir = build(["xk_perfbench"])
    if build_dir is None:
        log("build failed")
        return 1

    if args.workload != "all":
        code, result = run_workload(build_dir, args.workload, args.seed, args.seconds,
                                    args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return 0

    # Every workload in turn, then one table of every metric.
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, result = run_workload(build_dir, workload, args.seed, args.seconds,
                                    args.trace)
        if result is None:
            return code or 1
        results[workload] = result
    print("== summary")
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':34s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = "".join(f"{results[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name:34s}{row}  {unit}")
    print(f"{'error_rate':34s}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:16.6g}" for w in WORKLOADS) + "  ratio")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
