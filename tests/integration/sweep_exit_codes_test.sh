#!/bin/sh
# The anc_sweep exit-code and stderr-summary contract:
#   0  success                      2  usage / incompatible inputs
#   3  task errors or merge gaps    4  interrupted by signal
# plus the machine-greppable one-line summary
#   "anc_sweep: N ok, N error, N skipped, resumed N[ [interrupted]]"
# that must land on stderr on every path, --quiet included.
#
# usage: sweep_exit_codes_test.sh /path/to/anc_sweep
set -eu

SWEEP=${1:?usage: sweep_exit_codes_test.sh /path/to/anc_sweep}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_exit_codes.XXXXXX")
PID=
cleanup() {
    [ -n "$PID" ] && kill -KILL "$PID" 2>/dev/null
    wait 2>/dev/null
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM
cd "$WORKDIR"

GRID="--scenario alice_bob --snr 20,30 --repetitions 2 --exchanges 4 \
      --payload-bits 256 --seed 99 --quiet"

# rc CMD... : run CMD, print its exit status, never trip set -e.
rc() { "$@" >/dev/null 2>stderr.log && echo 0 || echo $?; }

echo "== exit 0: clean run, summary line present even under --quiet"
# shellcheck disable=SC2086   # GRID is a flag list
[ "$(rc "$SWEEP" $GRID --threads 2)" = 0 ]
grep -E '^anc_sweep: [0-9]+ ok, 0 error, 0 skipped, resumed 0$' stderr.log

echo "== exit 2: usage errors"
[ "$(rc "$SWEEP")" = 2 ]                              # no --scenario
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --no-such-flag)" = 2 ]         # unknown flag
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --shard 4/3)" = 2 ]            # K > N
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --snr 30:10:2)" = 2 ]          # inverted range
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --merge a.anj --journal b.anj)" = 2 ]  # merge conflicts
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --resume missing.anj)" = 2 ]   # no journal to resume
grep -q "missing.anj" stderr.log

echo "== exit 2: scalar flags take exactly one non-negative integer, axes"
echo "   take whole finite numbers (whole non-negative integers for counts)"
for BAD in "--threads 2,8" "--threads 1.4" "--threads -1" "--threads 8x" \
           "--task-retries 0,5" "--repetitions 1:3:1" "--shard 1x/2" \
           "--shard 1/2y" "--snr 0:inf:1" "--snr nan" "--snr 25x" \
           "--exchanges 1e30" "--payload-bits 0.4" "--snr 0:1e300:1" \
           "--exchanges 1:3:0.5"; do
    # shellcheck disable=SC2086
    [ "$(rc "$SWEEP" $GRID $BAD --json bad.json)" = 2 ] \
        || { echo "FAIL: '$BAD' was accepted" >&2; exit 1; }
    grep -q "^error: " stderr.log
    [ ! -e bad.json ] || { echo "FAIL: '$BAD' wrote bad.json" >&2; exit 1; }
done

echo "== --seed takes exactly one whole uint64"
# GRID already carries --seed 99; a later --seed overrides it.
for BAD in 12x abc -1 "" 18446744073709551616; do
    # shellcheck disable=SC2086
    [ "$(rc "$SWEEP" $GRID --seed "$BAD")" = 2 ] \
        || { echo "FAIL: '--seed $BAD' was accepted" >&2; exit 1; }
    grep -q -- "--seed" stderr.log
done
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --repetitions 1 --seed 18446744073709551615)" = 0 ]

echo "== exit 2: an axis that repeats a value"
# A repeated value would run duplicate tasks on one channel realization
# and report them as independent runs of one point.
ONE="--scheme anc --payload-bits 256 --exchanges 2 --quiet"
for BAD in "--scenario alice_bob --snr 20 --math-profile exact,exact" \
           "--scenario alice_bob --snr 20,20" \
           "--scenario alice_bob --scenario alice_bob --snr 20" \
           "--scenario alice_bob --snr 20 --math-profile fast,simd"; do
    # shellcheck disable=SC2086
    [ "$(rc "$SWEEP" $ONE $BAD)" = 2 ] \
        || { echo "FAIL: '$BAD' was accepted" >&2; exit 1; }
    grep -q "repeats a value" stderr.log
done

echo "== exit 2: incompatible resume journal (different seed)"
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 1 --journal seed99.anj >/dev/null 2>&1
# shellcheck disable=SC2086
OTHER_SEED=$(echo "$GRID" | sed 's/--seed 99/--seed 100/')
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $OTHER_SEED --resume seed99.anj)" = 2 ]
grep -q "seed" stderr.log

echo "== exit 3: merge with gaps (missing shard journal)"
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 1 --shard 1/2 --journal shard1.anj >/dev/null 2>&1
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 1 --shard 2/2 --journal shard2.anj >/dev/null 2>&1
# Chop shard 2 down to its header: formally valid, zero task rows.
head -n 2 shard2.anj > shard2_empty.anj
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $GRID --merge shard1.anj,shard2_empty.anj)" = 3 ]
grep -q "merge is missing" stderr.log
# A merge runs no task: the six positions no journal holds stay skipped.
grep -x 'anc_sweep: 6 ok, 0 error, 6 skipped, resumed 6' stderr.log

echo "== exit 4: interrupted by SIGTERM, summary says [interrupted]"
BIG="--scenario alice_bob --snr 10:40:1 --repetitions 6 --exchanges 40 \
     --payload-bits 512 --seed 99 --quiet"
# shellcheck disable=SC2086
"$SWEEP" $BIG --threads 1 --journal big.anj >/dev/null 2>interrupt.log &
PID=$!
# Let it finish a few tasks first (bounded wait, ~30 s cap).
WAITS=0
while [ "$({ wc -l < big.anj; } 2>/dev/null || echo 0)" -lt 5 ]; do
    kill -0 "$PID" 2>/dev/null || break
    WAITS=$(( WAITS + 1 ))
    [ "$WAITS" -gt 600 ] && { echo "FAIL: sweep never progressed" >&2; exit 1; }
    sleep 0.05
done
kill -TERM "$PID" 2>/dev/null || {
    echo "machine too fast: sweep finished before SIGTERM; skipping exit-4 leg" >&2
    wait "$PID" 2>/dev/null || true
    PID=
    echo "PASS: exit codes 0/2/3 and summary contract hold"
    exit 0
}
STATUS=0
wait "$PID" || STATUS=$?
PID=
[ "$STATUS" = 4 ] || { echo "FAIL: interrupted run exited $STATUS, want 4" >&2; exit 1; }
grep -q "\[interrupted\]" interrupt.log

echo "== interrupted journal resumes to completion with exit 0"
# shellcheck disable=SC2086
[ "$(rc "$SWEEP" $BIG --threads 2 --resume big.anj)" = 0 ]
grep -E 'resumed [1-9][0-9]*$' stderr.log

echo "PASS: exit codes 0/2/3/4 and the summary-line contract hold"
