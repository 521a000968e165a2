#!/usr/bin/env bash
# novasoak CLI combination rules that guard determinism.
#
#   tests/novasoak_rules_test.sh <path to novasoak>
#
# On the chip the sim fault injector is armed once per stream and its
# state is not checkpointed, so --chip + --inject-fault + any of
# --checkpoint-every/--resume/--kill-after must be refused with the
# usage exit code 2 (before any compile work). Standalone runs re-arm
# the injector per packet and must stay allowed.
set -u
NOVASOAK="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
FAILED=0

for CKPT in "--checkpoint-every 500 --checkpoint-dir $DIR/d" \
            "--resume $DIR/d" "--kill-after 100"; do
  # shellcheck disable=SC2086 # CKPT is deliberately word-split
  "$NOVASOAK" --chip --inject-fault mem-jitter@50 --app nat $CKPT \
    > /dev/null 2> "$DIR/err"
  RC=$?
  if [ "$RC" -ne 2 ] || ! grep -q "injector's state is not checkpointed" \
      "$DIR/err"; then
    echo "FAIL: --chip --inject-fault $CKPT: exit $RC, expected 2" >&2
    cat "$DIR/err" >&2
    FAILED=1
  fi
done

"$NOVASOAK" --inject-fault mem-jitter@50 --app nat --packets 20 --quiet \
  --checkpoint-every 10 --checkpoint-dir "$DIR/s" > /dev/null 2> "$DIR/err"
RC=$?
if [ "$RC" -ne 0 ]; then
  echo "FAIL: standalone --inject-fault with checkpoints: exit $RC," \
       "expected 0" >&2
  cat "$DIR/err" >&2
  FAILED=1
fi
exit "$FAILED"
