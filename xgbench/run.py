#!/usr/bin/env python3
"""The repository's benchmark: build, run one workload, check, report.

    python3 xgbench/run.py --workload native-rmat20 --seed 1 --seconds 10 --trace 0

Builds the library and the xgbench harness from source into
.bench_build/ (first run only; later runs reuse it), runs the workload, and
prints every metric by name with its unit, sample count and the end-to-end
metric it should move. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones, as BENCHMARK.json at the repository root declares them.

Exits nonzero when an output check fails, and without a result line when
the repository sources are missing or the build or the run fails.
See xgbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
WORKLOADS = ("native-rmat20", "xmt-table1")
RUN_TIMEOUT_S = 170  # one workload run, leaving room under 180 s


def fail(msg):
    print(f"xgbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build the harness (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"repository sources not found next to {HERE}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_BUILD, "-j", str(nproc()),
                      "--target", "xgbench"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail(f"build failed: {' '.join(cmd)} (see {log_path})")
    return os.path.join(CMAKE_BUILD, "xgbench")


def host_meta():
    """Host and source metadata stamped on every result."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, entry, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "xgbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"nproc": nproc(), "cpu_caches": caches, "git_commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


def run_harness(xgbench, args, out_dir):
    cmd = [xgbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        code = subprocess.call(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"{args.workload} exited with code {code}")
    with open(os.path.join(out_dir, "result.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found")
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    xgbench = build()
    out_dir = os.path.join(BUILD, "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))

    result = run_harness(xgbench, args, out_dir)
    result["meta"].update(host_meta())

    metrics = result["metrics"]
    declared = declared_metrics(args.trace)
    missing = [k for k in declared if k not in metrics]
    wrong_unit = [k for k, u in declared.items()
                  if k in metrics and metrics[k]["unit"] != u]
    if missing or wrong_unit:
        fail(f"metrics missing {missing} or with another unit {wrong_unit}")

    meta = result["meta"]
    print(f"== xgbench {args.workload} seed={args.seed} trace={args.trace} ==")
    for key in sorted(meta):
        print(f"  {key}: {meta[key]}")
    print(f"  output: {out_dir}")
    for name in sorted(metrics):
        m = metrics[name]
        mark = "*" if name in declared else " "
        moves = f"  -> {m['moves']}" if m["moves"] else ""
        print(f"{mark} {name:36s} {m['value']:14.6g} {m['unit']:9s} "
              f"n={m['samples']:<5} [{m['input']}]{moves}")
    for mismatch in result["mismatches"]:
        print(f"MISMATCH {mismatch}")
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": u}
                    for k, u in declared.items()},
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
