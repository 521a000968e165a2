#!/usr/bin/env bash
# `novac --json` reports the allocator's wall time by phase: every key is
# present and non-negative, the top-level phases add up to within 5% of
# wall_s, and the nested figures (coloring inside extract, factorize
# inside solve) do not exceed their phases.
#
#   tests/novac_json_test.sh <path to novac> <path to apps/nat.nova>
set -u
NOVAC="$1"
NAT="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

if ! "$NOVAC" --mip-threads 1 --json "$DIR/nat.json" "$NAT" > /dev/null; then
  echo "FAIL: novac could not compile $NAT" >&2
  exit 1
fi

python3 - "$DIR/nat.json" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
phases = report["phases"]
tiles = ["analysis_s", "model_s", "solve_s", "extract_s", "verify_s",
         "baseline_s"]
nested = {"coloring_s": "extract_s", "factorize_s": "solve_s"}
for key in tiles + list(nested) + ["wall_s"]:
    if not isinstance(phases.get(key), (int, float)) or phases[key] < 0:
        sys.exit("FAIL: phases.%s missing or negative: %r" % (key, phases))
total = sum(phases[k] for k in tiles)
if abs(total - phases["wall_s"]) > 0.05 * phases["wall_s"]:
    sys.exit("FAIL: phases sum to %.6f s, wall_s is %.6f s"
             % (total, phases["wall_s"]))
for inner, outer in nested.items():
    if phases[inner] > phases[outer]:
        sys.exit("FAIL: %s exceeds %s: %r" % (inner, outer, phases))
if not isinstance(report.get("coloring_retries"), int):
    sys.exit("FAIL: coloring_retries missing")
print("novac --json phases OK: %.4f s of %.4f s" % (total, phases["wall_s"]))
PY
