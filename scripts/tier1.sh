#!/usr/bin/env bash
# Tier-1 verify in one command (see ROADMAP.md): configure, build, run the
# full test suite, then smoke-test the parallel MIP engine with a 2-thread
# solve through the whole novac pipeline.
#
#   scripts/tier1.sh                 # uses ./build
#   BUILD_DIR=/tmp/b scripts/tier1.sh
#
# Also available as a build target once configured:
#   cmake --build build --target tier1
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD" -S "$ROOT"
cmake --build "$BUILD" -j"$JOBS"
(cd "$BUILD" && ctest --output-on-failure -j"$JOBS")

# 2-thread MIP smoke solve: a small Nova program through parse -> CPS ->
# isel -> parallel branch & bound -> verifier, failing on any verifier
# violation or solver disagreement.
SMOKE="$(mktemp --suffix .nova)"
trap 'rm -f "$SMOKE"' EXIT
cat > "$SMOKE" <<'EOF'
fun main(base : word, n : word) {
  let sum = 0;
  let i = 0;
  while (i < n) {
    let (w0, w1) = sram(base + (i << 1));
    sum = sum + ((w0 >> 16) + (w0 & 0xFFFF));
    sum = sum + ((w1 >> 16) + (w1 & 0xFFFF));
    i = i + 1;
  }
  (sum & 0xFFFF) + (sum >> 16)
}
EOF
echo "== 2-thread MIP smoke solve =="
"$BUILD/src/driver/novac" --mip-threads 2 --mip-deterministic --stats "$SMOKE"

# Time-boxed solver smoke on the real NAT model: the root relaxation
# objective is a deterministic property of the model + LP engine, so any
# drift fails the run. NAT is the smallest of the three apps (~60s was
# the pre-sparse-LU budget; the sparse engine solves it in well under a
# second, so 120s only guards against a hang).
echo "== NAT solver smoke (root objective check) =="
timeout 120 "$BUILD/bench/fig7_solver" --only NAT --mip-threads 1 \
  --no-compare --json "$BUILD/BENCH_smoke.json" --expect-root 2.2381627

# Adversarial soak smoke: fixed seed, all three apps, the differential
# oracle (allocated vs functional vs CPS evaluator) on every packet. Any
# divergence exits 1 and fails the run. Time-boxed well above the ~10s
# it takes so only a hang trips the timeout.
echo "== adversarial soak smoke (oracle on every packet) =="
timeout 120 "$BUILD/tools/novasoak" --packets 2000 --seed 7 \
  --json "$BUILD/BENCH_soak_smoke.json"

# Whole-chip smoke: 2k packets through the 3-engine chip model with the
# sampled three-way oracle, trap=>drop accounting, and the chip-vs-
# standalone outcome cross-check. Any divergence or deadlock exits 1.
echo "== whole-chip soak smoke (6 MEs x 4 contexts, sampled oracle) =="
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --json "$BUILD/BENCH_chip_smoke.json"

# Negative control: an injected ALU bit flip in the allocated simulator
# must be *caught* by the oracle (exit 1, with a shrunk reproducer). A
# clean exit here means the oracle is blind — fail loudly.
echo "== soak negative control (injected bit flip must be caught) =="
SOAK_RC=0
timeout 120 "$BUILD/tools/novasoak" --app nat --packets 50 --seed 3 \
  --inject-fault sim-bitflip@40 --fail-fast --quiet || SOAK_RC=$?
if [ "$SOAK_RC" -ne 1 ]; then
  echo "soak negative control FAILED: expected exit 1 (divergence caught)," \
       "got $SOAK_RC" >&2
  exit 1
fi

# Threaded (translating fast path) soak smoke: the same adversarial
# stream executed by the fast path to completion (SegmentContext::run)
# with every 10th packet re-run on the interpreter + functional + CPS
# oracles. The fast path must stay bit-identical to the interpreter; any
# mismatch exits 1.
echo "== threaded soak smoke (fast path, sampled oracle) =="
timeout 120 "$BUILD/tools/novasoak" --packets 2000 --seed 7 \
  --exec threaded --oracle-rate 10 \
  --json "$BUILD/BENCH_soak_threaded_smoke.json"

# Threaded negative control: the bit flip fires inside the fast path's
# slow tier too (it shares the injector), and the sampled interpreter
# re-run must catch it. Oracle every packet so the 50-packet window
# always samples.
echo "== threaded negative control (bit flip must be caught on the fast path) =="
SOAK_RC=0
timeout 120 "$BUILD/tools/novasoak" --app nat --packets 50 --seed 3 \
  --exec threaded --oracle-rate 1 \
  --inject-fault sim-bitflip@40 --fail-fast --quiet || SOAK_RC=$?
if [ "$SOAK_RC" -ne 1 ]; then
  echo "threaded negative control FAILED: expected exit 1 (divergence" \
       "caught), got $SOAK_RC" >&2
  exit 1
fi

# Chip-threaded smoke: the same 6-ME chip stream, but every context
# executes on the segmented fast path (superblocks + resumable
# segments). The schedule — and therefore the trace hash, stall
# counters, and drop taxonomy — must stay bit-identical to the
# interpreted chip; chip_test locks the whole-report equality, this
# smoke proves the oracle stays clean end-to-end through the CLI.
echo "== whole-chip threaded smoke (segmented fast path, sampled oracle) =="
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --exec threaded --packets 2000 --seed 7 \
  --json "$BUILD/BENCH_chip_threaded_smoke.json"

# Chip-threaded negative control: arming the injector pins both the
# chip contexts and the oracle re-runs to the interpreter-exact slow
# tier, and the x1 budget spends the flip before the retire-time
# re-run — so the oracle must catch it (exit 1).
echo "== chip-threaded negative control (bit flip must be caught) =="
SOAK_RC=0
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --exec threaded --packets 500 --seed 42 --oracle-rate 1 \
  --inject-fault 'sim-bitflip@1000x1' --quiet || SOAK_RC=$?
if [ "$SOAK_RC" -ne 1 ]; then
  echo "chip-threaded negative control FAILED: expected exit 1" \
       "(divergence caught), got $SOAK_RC" >&2
  exit 1
fi

# Chip fault smoke: the acceptance schedule (context lockups + an SDRAM
# brownout) through both execution models. The supervisor must recover
# every fault (exit 0, zero divergences), the ledger must balance, and
# both runs must report at least one recovery — a zero here means the
# schedule silently stopped firing.
echo "== chip fault smoke (supervisor recovery, interp + threaded) =="
for EXEC in interp threaded; do
  timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
    --exec "$EXEC" --packets 2000 --seed 42 \
    --fault-schedule 'ctx-lockup@500,chan-brownout@1000~4' \
    --json "$BUILD/BENCH_chip_fault_${EXEC}.json"
  if ! grep -q '"packets_recovered":[1-9]' \
      "$BUILD/BENCH_chip_fault_${EXEC}.json"; then
    echo "chip fault smoke FAILED ($EXEC): no recoveries recorded" >&2
    exit 1
  fi
  if ! grep -q '"all_accounted":true' \
      "$BUILD/BENCH_chip_fault_${EXEC}.json"; then
    echo "chip fault smoke FAILED ($EXEC): recovery ledger unbalanced" >&2
    exit 1
  fi
done

# Chip fault negative control: sdram-bitflip is the one chip fault the
# supervisor cannot see (post-DMA corruption). The sampled retire-time
# oracle must catch it — exit 1. A clean exit means the oracle went
# blind to chip-level corruption.
echo "== chip fault negative control (sdram-bitflip must be caught) =="
SOAK_RC=0
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 2 --app nat \
  --packets 400 --seed 42 --oracle-rate 1 \
  --fault-schedule 'sdram-bitflip@10' --quiet || SOAK_RC=$?
if [ "$SOAK_RC" -ne 1 ]; then
  echo "chip fault negative control FAILED: expected exit 1 (corruption" \
       "caught), got $SOAK_RC" >&2
  exit 1
fi

# Checkpoint kill/resume smoke: snapshot every 500 packets, SIGKILL the
# run mid-stream at ~1k retired, resume from the newest snapshot, and
# require the finished stable JSON — trace hash included — to be
# byte-identical to an uninterrupted run.
echo "== checkpoint kill/resume smoke (byte-identical resumed report) =="
CKPT_DIR="$BUILD/ckpt-smoke"
rm -rf "$CKPT_DIR"
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --quiet --stable-json \
  --json "$BUILD/BENCH_ckpt_ref.json"
SOAK_RC=0
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --quiet \
  --checkpoint-every 500 --checkpoint-dir "$CKPT_DIR" \
  --kill-after 1000 || SOAK_RC=$?
if [ "$SOAK_RC" -ne 137 ]; then
  echo "checkpoint smoke FAILED: expected SIGKILL (exit 137), got $SOAK_RC" >&2
  exit 1
fi
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --quiet --stable-json \
  --resume "$CKPT_DIR" --checkpoint-every 500 \
  --json "$BUILD/BENCH_ckpt_resumed.json"
if ! cmp -s "$BUILD/BENCH_ckpt_ref.json" "$BUILD/BENCH_ckpt_resumed.json"; then
  echo "checkpoint smoke FAILED: resumed report differs from" \
       "uninterrupted run" >&2
  exit 1
fi

# Checkpoint negative control: corrupt every snapshot; --resume must
# fail with the typed checkpoint exit code (5), never start fresh and
# silently report success.
echo "== checkpoint negative control (corrupt snapshots must be rejected) =="
for F in "$CKPT_DIR"/ckpt-*.nova-ckpt; do
  printf '\xff\xff' | dd of="$F" bs=1 seek=64 conv=notrunc 2>/dev/null
done
SOAK_RC=0
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --quiet --resume "$CKPT_DIR" || SOAK_RC=$?
if [ "$SOAK_RC" -ne 5 ]; then
  echo "checkpoint negative control FAILED: expected exit 5" \
       "(CheckpointCorrupt), got $SOAK_RC" >&2
  exit 1
fi

# ASan+UBSan pass over the degradation ladder and the support layer: the
# fault-injection paths (LU repair, refactorize-on-drift, incumbent
# salvage, baseline fallback) are exactly where stale pointers and
# overflow bugs would hide. Time-boxed so a hung rung fails CI fast
# instead of stalling it; the ladder's own watchdog deadlines keep each
# rung well under this ceiling.
SAN_BUILD="${SAN_BUILD_DIR:-$ROOT/build-asan}"
echo "== ASan+UBSan degradation tests =="
cmake -B "$SAN_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake --build "$SAN_BUILD" -j"$JOBS" --target degradation_test support_test \
  chip_fault_test checkpoint_test wordmap_test cps_test soak_test
timeout 900 "$SAN_BUILD/tests/degradation_test"
timeout 120 "$SAN_BUILD/tests/support_test"
# The supervisor's abort/restart path frees and rebuilds per-packet
# state (slot scrub, re-DMA, spill-window erase) — exactly where
# use-after-free would hide.
timeout 300 "$SAN_BUILD/tests/chip_fault_test"
# Snapshot restore decodes untrusted bytes into the event queue, the
# contexts' cached in-flight records and the memory pages: a payload
# that passes its checksum but indexes out of range must fail typed,
# not read or write out of bounds. The word-wide slot scrub masks
# presence words at both ends of every range.
timeout 900 "$SAN_BUILD/tests/checkpoint_test"
timeout 120 "$SAN_BUILD/tests/wordmap_test"
# LeakSanitizer on the CPS reference evaluator and the soak oracle that
# calls it per packet: an environment frame that keeps itself alive
# (a closure capturing its own frame) leaks on every oracle call.
ASAN_OPTIONS=detect_leaks=1 timeout 300 "$SAN_BUILD/tests/cps_test"
ASAN_OPTIONS=detect_leaks=1 timeout 900 "$SAN_BUILD/tests/soak_test"

# TSan pass over the chip scheduler: the discrete-event kernel is
# single-threaded by design, so a clean TSan run plus deterministic
# double-run hashes (asserted inside chip_test) is the evidence that no
# hidden shared-state races or iteration-order dependences crept in.
TSAN_BUILD="${TSAN_BUILD_DIR:-$ROOT/build-tsan}"
echo "== TSan chip scheduler tests =="
cmake -B "$TSAN_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake --build "$TSAN_BUILD" -j"$JOBS" --target chip_test chip_fault_test \
  novasoak
timeout 300 "$TSAN_BUILD/tests/chip_test"
timeout 300 "$TSAN_BUILD/tests/chip_fault_test"

# TSan soak over the template-cached generator + the fast path: the
# template cache and reused packet buffers are single-threaded by
# design; a clean run here plus the byte-identity tests is the evidence
# nothing aliases across packets.
echo "== TSan threaded soak (template-cached generator path) =="
timeout 300 "$TSAN_BUILD/tools/novasoak" --app nat --packets 500 \
  --exec threaded --oracle-rate 10 --quiet
echo "tier-1 verify: OK"
