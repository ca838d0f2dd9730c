#!/usr/bin/env python3
"""The reCloud benchmark launcher.

Run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

It builds the benchmark package (benchmark/CMakeLists.txt, which compiles
the library from src/) as an optimized build into $CARGO_TARGET_DIR
(default .bench_build), runs recloud_bench, and passes its report through.
The last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}. A traced run also checks its Chrome trace with
scripts/validate_trace.py, requiring one span per layer the workload
crosses; a trace that fails turns "correct" false.

Build output goes to stderr. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Span-name prefixes each workload's trace must hold: one per layer it times.
REQUIRED_SPANS = {
    "assess_paper": ["sampling.", "faults.", "routing.", "app.", "assess.", "setup."],
    "engine_socket": ["sampling.", "exec.", "faults.", "routing.", "app.", "assess.",
                      "setup."],
    "search_realistic": ["search.", "assess.", "setup."],
    "service_mixed": ["service.", "search.", "setup."],
}


def build(build_dir: str) -> str:
    """Configures (once) and builds; returns the recloud_bench path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "recloud_bench")


def run(command: list, env: dict) -> tuple:
    """Runs the benchmark in its own process group; on a timeout the whole
    group (worker processes included) is killed and reaped."""
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as process:
        try:
            out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            print(f"run.py: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 124, ""
    return process.returncode, out


def validate(trace: str, workload: str) -> bool:
    command = [sys.executable, os.path.join(REPO, "scripts", "validate_trace.py"), trace]
    for prefix in REQUIRED_SPANS[workload]:
        command += ["--require-span", prefix]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(REQUIRED_SPANS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true",
                        help="test the benchmark's statistics, reference estimator "
                             "and every workload at reduced size")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["RECLOUD_WORKER_BIN"] = os.path.join(build_dir, "cmake", "recloud", "recloud_worker")
    trace_dir = os.path.join(build_dir, "traces")

    if args.self_test:
        selftest_dir = os.path.join(build_dir, "selftest-traces")
        code, out = run([binary, "--self-test", "--trace-dir", selftest_dir], env)
        sys.stdout.write(out)
        if code != 0:
            return code
        ok = all(validate(os.path.join(selftest_dir, f"{w}-seed7.json"), w)
                 for w in sorted(REQUIRED_SPANS))
        print("self-test traces:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    code, out = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", args.trace,
                     "--trace-dir", trace_dir], env)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stdout.write(out)
        print(f"run.py: recloud_bench exited with {code}", file=sys.stderr)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        print("run.py: recloud_bench printed no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if args.trace == "1":
        trace = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        if not validate(trace, args.workload):
            result["correct"] = False
            lines[-1] = json.dumps(result)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
