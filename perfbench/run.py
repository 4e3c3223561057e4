#!/usr/bin/env python3
"""Builds and runs the SDX benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload forward --seed 1 --seconds 40 --trace 0

Steadiness report (each workload N times, seeds 1..N):
    python3 perfbench/run.py --steadiness 10 [--workload mixed] [--trace 0]

The runner builds perfbench/ (and the SDX sources it compiles) in one fixed
build type under $CARGO_TARGET_DIR (default .bench_build/), runs the
benchmark binary with a controlled environment, and passes its output
through. The binary's last line of standard output is the JSON result; the
runner checks that it names exactly the metrics BENCHMARK.json declares for
the chosen mode.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("forward", "mixed")
# Compile-pool size: the benchmark host's core count, capped so the pool
# is the same on every host that has at least this many cores.
MAX_COMPILE_THREADS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_process(command, timeout, **kwargs):
    """Runs `command` in its own process group and waits for it to end.

    On timeout the whole group is killed, so no compiler or worker outlives
    the runner. Returns (exit code, stdout or None); the code is None on a
    timeout.
    """
    with subprocess.Popen(command, start_new_session=True,
                          **kwargs) as process:
        try:
            out, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return None, None
        return process.returncode, out


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(min(MAX_COMPILE_THREADS, nproc()))
    steps = [
        # perfbench/CMakeLists.txt fixes the build type.
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "--target", "sdxbench", "-j", jobs],
    ]
    for step in steps:
        try:
            code, _ = run_process(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as error:
            log(f"run.py: {' '.join(step)}: {error}")
            return None
        if code != 0:
            log(f"run.py: {' '.join(step)} exited {code}")
            return None
    return os.path.join(build_dir, "sdxbench")


def environment():
    env = dict(os.environ)
    # CI legs set these to pin other code paths; the benchmark measures the
    # runtime's defaults.
    env.pop("SDX_DECISION_SHARDS", None)
    env.pop("SDX_VMAC_ENCODING", None)
    env["SDX_COMPILE_THREADS"] = str(min(MAX_COMPILE_THREADS, nproc()))
    return env


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs the binary once; returns (exit code, parsed result or None)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    code, out = run_process(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=environment(), text=True)
    if code is None:
        log(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = out.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        log(f"run.py: sdxbench printed no result (exit {code})")
        return code or 1, None
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        if result["correct"]:
            log("run.py: sdxbench metrics differ from BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ declared)}")
            return 1, None
    return code, result


def steadiness(binary, workloads, runs, seconds, trace):
    """Runs each workload `runs` times and prints per-metric spreads."""
    for workload in workloads:
        values = {}
        units = {}
        for seed in range(1, runs + 1):
            code, result = run_once(binary, workload, seed, seconds, trace,
                                    echo=False)
            if code != 0 or result is None:
                log(f"run.py: {workload} seed {seed} failed")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {runs} runs, seeds 1..{runs}, {seconds} s each")
        print(f"  {'metric':40s} {'unit':>6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'min':>12s} {'max':>12s} {'iqr/med':>8s}")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:40s} {units[name]:>6s} {median:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {min(vals):12.5g} {max(vals):12.5g} "
                  f"{spread:8.3f}", flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times and report spreads")
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.steadiness is not None:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(binary, workloads, max(2, args.steadiness),
                          args.seconds, args.trace == 1)

    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace == 1, echo=True)
    if result is None:
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
