#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

Run from the root of a sweetknn checkout:

    python3 e2ebench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

The first call configures and builds e2ebench/ (the program from src/ and
tools/, plus the e2e_bench driver) into .bench_build/e2e. Later calls
rebuild only what changed. The run's human-readable output goes to
stdout, and its last line is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, from a traced run.
The exit status is 0 only when the run was correct and no operation
failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(build_dir):
    """Configures once, then builds e2e_bench (and the worker CLI it
    depends on). Compiler output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "e2e_bench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "e2e_bench")


def run_bench(command):
    """Runs the driver in its own process group, so a timeout also stops
    the shard workers it spawned; waits for all of it to end."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    # A driver that crashed can leave workers behind; a clean one leaves
    # an empty group.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if stdout is None:
        proc.communicate()
        fail(f"e2e_bench did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def printed_metrics(stdout):
    """The "name value unit" lines of the driver's output."""
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            try:
                printed[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return printed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; only checks every metric prints")
    parser.add_argument("--out", help="also copy the full result JSON here")
    parser.add_argument("--bench-binary",
                        help="use this e2e_bench instead of building one")
    args = parser.parse_args()

    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {workloads}")
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    if args.bench_binary:
        binary = os.path.abspath(args.bench_binary)
        scratch = os.path.join(os.path.dirname(binary), "e2e-run")
    else:
        build_dir = os.path.join(ROOT, ".bench_build", "e2e")
        binary = build(build_dir)
        scratch = os.path.join(build_dir, "e2e-run")
    os.makedirs(scratch, exist_ok=True)
    out_json = os.path.join(scratch, f"{args.workload}.json")
    if os.path.exists(out_json):
        os.remove(out_json)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--out={out_json}",
               f"--work-dir={os.path.join(scratch, 'work')}"]
    if args.trace:
        command.append(
            f"--trace={os.path.join(scratch, args.workload + '.spans.jsonl')}")
    if args.smoke:
        command.append("--smoke")
    code, stdout = run_bench(command)
    sys.stdout.write(stdout)
    if code not in (0, 1) or not os.path.exists(out_json):
        fail(f"e2e_bench exited with status {code} and no result")
    with open(out_json) as f:
        result = json.load(f)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)

    correct = result["correct"]
    printed = printed_metrics(stdout)
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or \
                printed.get(m["name"], (None, None))[1] != m["unit"]:
            print(f"run.py: metric {m['name']} [{m['unit']}] missing",
                  file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct and result["failed"] == 0 and code == 0 else 1)


if __name__ == "__main__":
    main()
