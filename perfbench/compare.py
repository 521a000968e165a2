#!/usr/bin/env python3
"""Compare two sets of benchmark records.

    python3 perfbench/compare.py base.jsonl change.jsonl

Both files hold records appended by `perfbench/run.py --record`. For
each workload present in both, the end-to-end metrics of the untraced
runs are summarised by median and quartiles, and the change's median is
checked against the base median with the metric's bound from
BENCHMARK.json.

Records are compared only when they come from the same kind of host and
build: host name, CPU model, core count, compiler and build type must
all agree. Otherwise the workload is reported as NOT COMPARABLE and no
numbers are compared.

Exit status: 0 when nothing got worse beyond its bound, 1 when
something did, 3 when some workload was not comparable.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IDENTITY = ("host", "cpu_model", "nproc", "compiler", "build_type")


def load(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["meta"].get("trace"):
                continue
            by_workload.setdefault(rec["meta"]["workload"], []).append(rec)
    return by_workload


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for workload in sorted(set(base) & set(change)):
        a, b = base[workload], change[workload]
        ids_a = {tuple(r["meta"].get(k) for k in IDENTITY) for r in a}
        ids_b = {tuple(r["meta"].get(k) for k in IDENTITY) for r in b}
        if len(ids_a) != 1 or ids_a != ids_b:
            print("%s: NOT COMPARABLE (%s differ: %s vs %s)"
                  % (workload, "/".join(IDENTITY), sorted(ids_a),
                     sorted(ids_b)))
            status = 3
            continue
        print("%s: %d base runs, %d change runs" % (workload, len(a), len(b)))
        for m in spec["end_to_end"]:
            va = [r["result"]["metrics"][m["name"]]["value"] for r in a]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in b]
            ma, qa1, qa3 = summary(va)
            mb, qb1, qb3 = summary(vb)
            change_frac = (mb - ma) / ma if ma else 0.0
            worse = -change_frac if m["better"] == "higher" else change_frac
            verdict = "worse beyond bound" if worse > m["bound"] else "ok"
            if worse > m["bound"] and status == 0:
                status = 1
            print("  %-20s base %-12.6g [%.6g, %.6g]  change %-12.6g "
                  "[%.6g, %.6g]  %+6.2f%% (bound %g%%) %s %s"
                  % (m["name"], ma, qa1, qa3, mb, qb1, qb3,
                     100 * change_frac, 100 * m["bound"], m["unit"],
                     verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
