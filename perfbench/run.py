#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench executable from the
program's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--record results.jsonl]
                             [--inject-fault <sim spec>] [--fault-schedule <chip schedule>]

Run it from anywhere; paths are resolved from this file. The build goes
to .bench_build/perfbench at the repository root and is incremental.

Output: the build log and the workload's progress go to stderr. On
stdout the next-to-last line is the run's metadata ({"meta": ...}) and
the last line is the result record:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; a layer the workload does not
exercise reads 0. Exit status: 0 when every operation succeeded, 1 when
the correctness gate tripped (the record is still printed, with
"correct": false), 2 when the benchmark could not be built or run (no
record is printed).

--record appends {"meta": ..., "result": ...} to a JSON-lines file that
perfbench/compare.py reads. --inject-fault and --fault-schedule arm the
gate's negative controls (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
# Compiler temporaries too stay inside the checkout.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("program sources not found next to perfbench/ (expected src/)")
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr) != 0:
        die("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """Content hash of the program and benchmark sources: identifies the
    code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def select_metrics(raw, spec, trace):
    """Returns the metrics BENCHMARK.json lists for this mode, in its
    order. Fails on a metric the benchmark does not declare or with the
    wrong unit; a per-layer metric the workload did not produce reads 0."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in raw.items():
        if name not in declared:
            die("undeclared metric %r" % name)
        if m["unit"] != declared[name]:
            die("metric %r has unit %r, BENCHMARK.json says %r"
                % (name, m["unit"], declared[name]))
    out = {}
    for m in listed:
        if m["name"] in raw:
            out[m["name"]] = raw[m["name"]]
        elif trace:
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            die("end-to-end metric %r missing from the run" % m["name"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record")
    ap.add_argument("--inject-fault")
    ap.add_argument("--fault-schedule")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)

    exe = build()
    work = os.path.join(WORK_DIR, args.workload)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    if args.fault_schedule:
        cmd += ["--fault-schedule", args.fault_schedule]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die("workload exited with status %d" % proc.returncode)
    run = json.loads(lines[-1])

    meta = dict(run["meta"])
    meta.update({
        "commit": commit(),
        "source_digest": source_digest(),
        "host": platform.node(),
        "cpu_model": cpu_model(),
        "failures": run["failures"],
    })
    result = {
        "correct": run["correct"] and proc.returncode == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": select_metrics(run["metrics"], spec, args.trace),
    }
    for why in run["failures"]:
        print("perfbench: FAILED: " + why, file=sys.stderr)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
