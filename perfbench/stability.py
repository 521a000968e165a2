#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py --workload chip-nat-recovery --seeds 1-10 [--record out.jsonl]
    python3 perfbench/stability.py --from out.jsonl [--summary baseline.json]

Runs perfbench/run.py once per seed (--trace 0, BENCHMARK.json's
run_seconds) or reads records written with --record, then prints for
every workload and end-to-end metric the median, the quartile spread
(Q3 - Q1) / median over the runs, and that spread as a share of the
metric's bound. A spread at or above the bound makes the benchmark too
noisy to judge a change by that metric; aim for under a third of it.
--summary writes the same figures, with the runs' host identity, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record")
    ap.add_argument("--from", dest="source")
    ap.add_argument("--summary")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    records = []
    if args.source:
        with open(args.source) as f:
            records = [json.loads(line) for line in f if line.strip()]
    for w in args.workload:
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            if args.record:
                cmd += ["--record", args.record]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or len(lines) < 2:
                print("%s seed %d: exit %d" % (w, seed, out.returncode))
                continue
            records.append({"meta": json.loads(lines[-2])["meta"],
                            "result": json.loads(lines[-1])})

    by_workload = {}
    for r in records:
        if r["meta"].get("trace"):
            continue
        by_workload.setdefault(r["meta"]["workload"], []).append(r)
    summary = {}
    for w, runs in by_workload.items():
        print("%s (%d runs)" % (w, len(runs)))
        summary[w] = {"runs": len(runs), "metrics": {}}
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) >= 2 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            print("  %-20s median %-14.6g spread %6.2f%%  (%.2f of bound %g)"
                  % (m["name"], med, 100 * spread, spread / m["bound"],
                     m["bound"]))
            summary[w]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q[0], "q3": q[2],
                "spread": spread, "bound": m["bound"]}
        meta = runs[0]["meta"]
        summary[w]["host"] = {k: meta.get(k) for k in (
            "commit", "source_digest", "host", "cpu_model", "nproc",
            "compiler", "build_type", "seconds")}
        summary[w]["seeds"] = sorted(r["meta"]["seed"] for r in runs)
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
