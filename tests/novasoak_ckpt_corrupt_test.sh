#!/usr/bin/env bash
# A chip snapshot that passes its checksum but names an out-of-range
# micro-engine in a pending event must be refused on --resume with the
# typed checkpoint exit code (5), never resumed into undefined state.
#
#   tests/novasoak_ckpt_corrupt_test.sh <path to novasoak>
#
# The snapshot is taken by a real 6-ME run, patched with python3 (the
# first pending event's ME index set to 200) and re-sealed with a fresh
# FNV-1a-64 checksum, so only the chip's own restore validation can
# catch it.
set -u
NOVASOAK="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
RUN=(--chip --me-count 6 --app nat --packets 600 --seed 7 --quiet)

"$NOVASOAK" "${RUN[@]}" --checkpoint-every 200 --checkpoint-dir "$DIR/ck" \
  --kill-after 300 > /dev/null 2>&1
SNAP="$(ls "$DIR"/ck/ckpt-*.nova-ckpt 2> /dev/null | sort -V | tail -n 1)"
if [ -z "$SNAP" ]; then
  echo "FAIL: the run left no snapshot" >&2
  exit 1
fi

python3 - "$SNAP" <<'EOF' || exit 1
import struct, sys

path = sys.argv[1]
raw = bytearray(open(path, "rb").read())
HEADER = 28            # magic u64, version u32, length u64, checksum u64
EVENT = 33             # time u64, order u64, kind u8, me u32, ctx u32, word u64
MES, CTXS = 6, 4
body = raw[HEADER:]
# The chip state ends with OrderCtr, LastTime, three counters, per-ME busy
# cycles, per-context packet counts, the reorder high water (u32), the RX
# DMA count and the retire fold; the pending events sit right before it,
# after their u64 count.
end = len(body) - (5 * 8 + 8 * MES + 8 * MES * CTXS + 4 + 8 + 8)
order_ctr, last_time = struct.unpack_from("<QQ", body, end)
found = None
for n in range(1, 10000):
    first = end - EVENT * n
    if first < 8:
        break
    if struct.unpack_from("<Q", body, first - 8)[0] != n:
        continue
    recs = [first + EVENT * i for i in range(n)]
    if all(struct.unpack_from("<Q", body, r)[0] >= last_time and
           struct.unpack_from("<Q", body, r + 8)[0] <= order_ctr and
           body[r + 16] < 8 for r in recs):
        found = first
if found is None:
    sys.exit("FAIL: pending events not found in the snapshot")
struct.pack_into("<I", body, found + 17, 200)
h = 0xcbf29ce484222325
for b in body:
    h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
raw[HEADER:] = body
struct.pack_into("<Q", raw, 20, h)
open(path, "wb").write(raw)
EOF

"$NOVASOAK" "${RUN[@]}" --resume "$DIR/ck" > /dev/null 2> "$DIR/err"
RC=$?
if [ "$RC" -ne 5 ] || ! grep -q "state section malformed" "$DIR/err"; then
  echo "FAIL: resume from a snapshot with ME index 200: exit $RC," \
       "expected 5 (CheckpointCorrupt)" >&2
  cat "$DIR/err" >&2
  exit 1
fi
exit 0
